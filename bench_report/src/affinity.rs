//! Confines the benchmark to one CPU.
//!
//! On a shared virtual machine a thread hand-off that crosses vCPUs costs
//! an inter-processor interrupt and a VM exit, and whether the scheduler
//! places two threads on one vCPU or two changes from run to run: the same
//! PPS call measured 22 µs or 65 µs, and set-up 0.4 s or 0.9 s, with
//! nothing changed. On one CPU every hand-off is a local context switch
//! and the numbers repeat. The price is stated in the README: a gain that
//! comes from running in parallel does not show here.

/// Words in the kernel's CPU mask: room for 1024 CPUs.
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread, and every thread it later starts, to the
/// highest-numbered CPU it may run on (the lowest usually serves the
/// interrupts). Returns that CPU's number.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> std::io::Result<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    let cpu = (0..MASK_WORDS * 64)
        .rev()
        .find(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .ok_or_else(|| std::io::Error::other("the affinity mask allows no CPU"))?;
    mask = [0; MASK_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of exactly the size passed; the
    // kernel only reads it.
    if unsafe { sched_setaffinity(0, size_of_val(&mask), mask.as_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> std::io::Result<usize> {
    Err(std::io::Error::other(
        "CPU affinity is only implemented for Linux",
    ))
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn pinning_leaves_one_cpu_and_new_threads_inherit_it() {
        // On its own thread, so the test harness's other tests keep theirs.
        std::thread::spawn(|| {
            let cpu = pin_to_one_cpu().expect("pin");
            assert_eq!(
                std::thread::available_parallelism().map(usize::from).ok(),
                Some(1)
            );
            let inherited = std::thread::spawn(pin_to_one_cpu)
                .join()
                .expect("child thread");
            assert_eq!(inherited.expect("pin again"), cpu);
        })
        .join()
        .expect("pinning thread");
    }
}
