//! Experiment B1 — §5: the FTL's O(1) payload vs. the Universal Delegator
//! Trace Object's concatenating payload.
//!
//! "The TO concatenates log info during call progression and unavoidably
//! introduces the barrier for the call chains that exceed tens of thousands
//! calls." The FTL "is light-weighted since no log concatenation occurs as
//! the call progresses through the tunnel."

use causeway_bench::{banner, print_table};
use causeway_baselines::trace_object::TraceObject;
use causeway_core::ftl::{FTL_WIRE_LEN, FunctionTxLog};

fn main() {
    banner(
        "B1",
        "tunnel payload growth — FTL vs. Trace Object",
        "TO concatenation is a barrier for chains exceeding tens of thousands \
         of calls; the FTL stays constant",
    );

    let detail_len = 32; // bytes of verbose call info per TO entry
    let mut rows = Vec::new();
    let mut previous_to_size = 0;
    for depth in [1usize, 10, 100, 1_000, 10_000, 100_000] {
        let to = TraceObject::simulate_chain(depth, detail_len);
        assert!(to.wire_size() > previous_to_size, "Trace Object grows with depth");
        assert!(to.wire_size() >= depth * detail_len, "Trace Object carries every entry");
        previous_to_size = to.wire_size();
        let mut ftl = FunctionTxLog::fresh();
        for _ in 0..depth {
            ftl.next_seq();
        }
        let ftl_size = ftl.to_wire().len();
        rows.push(vec![
            depth.to_string(),
            format!("{ftl_size} B"),
            format!("{} B", to.wire_size()),
            format!("{:.0}x", to.wire_size() as f64 / ftl_size as f64),
        ]);
        assert_eq!(ftl_size, FTL_WIRE_LEN, "FTL is constant at any depth");
    }
    println!();
    print_table(&["chain depth", "FTL payload", "Trace Object payload", "ratio"], &rows);

    let to = TraceObject::simulate_chain(100_000, detail_len);
    println!(
        "\nat depth 100,000 the Trace Object carries {:.1} MB per call; the FTL \
         carries 24 bytes.",
        to.wire_size() as f64 / 1e6
    );
    println!("B1 PASS: FTL payload is O(1); Trace Object is O(chain length).");
}
