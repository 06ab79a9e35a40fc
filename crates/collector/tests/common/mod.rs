//! Seeded synthetic records shared by the segment tests.

use causeway_core::event::{CallKind, TraceEvent};
use causeway_core::ids::*;
use causeway_core::record::{CallSite, FunctionKey, ProbeRecord};
use causeway_core::uuid::Uuid;

/// Splitmix64: cheap, well-mixed per-index randomness for record fields.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The i-th record of a run, a pure function of (seed, i), so separate
/// processes derive identical records with no shared state.
pub fn synth_record(seed: u64, i: u64) -> ProbeRecord {
    let r = mix(seed, i);
    let opt = |bit: u32| (r >> bit) & 1 == 1;
    ProbeRecord {
        uuid: Uuid(((mix(seed, i ^ 0xAAAA) as u128) << 64) | r as u128),
        seq: i,
        event: TraceEvent::ALL[(r % 4) as usize],
        kind: match (r >> 2) % 4 {
            0 => CallKind::Sync,
            1 => CallKind::Oneway,
            2 => CallKind::Collocated,
            _ => CallKind::CustomMarshal,
        },
        site: CallSite {
            node: NodeId((r >> 4) as u16),
            process: ProcessId((r >> 20) as u16),
            thread: LogicalThreadId((r >> 36) as u32 & 0xFFFF),
        },
        func: FunctionKey::new(
            InterfaceId((r >> 8) as u32 & 0xFF),
            MethodIndex((r >> 16) as u16 & 0x7),
            ObjectId(mix(seed, i ^ 0x5555)),
        ),
        wall_start: opt(52).then_some(r & 0xFFFF_FFFF),
        wall_end: opt(53).then_some((r & 0xFFFF_FFFF) + 17),
        cpu_start: opt(54).then_some(r >> 13),
        cpu_end: opt(55).then_some((r >> 13) + 3),
        oneway_child: opt(56).then(|| Uuid(mix(seed, i ^ 0x1234) as u128)),
        oneway_parent: opt(57).then(|| (Uuid(mix(seed, i ^ 0x4321) as u128), r % 97)),
    }
}
