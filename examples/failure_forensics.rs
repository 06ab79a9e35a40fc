//! Failure forensics: what the monitoring data looks like when things go
//! wrong — application exceptions, timeouts, and logs lost in a crash.
//!
//! ```text
//! cargo run --example failure_forensics
//! ```

use causeway::analyzer::dscg::Dscg;
use causeway::analyzer::render::{AsciiOptions, ascii_tree};
use causeway::collector::db::MonitoringDb;
use causeway::collector::segment;
use causeway::core::monitor::ProbeMode;
use causeway::core::uuid::Uuid;
use causeway::core::value::Value;
use causeway::orb::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

const IDL: &str = r#"
    interface Job {
        void run(in long id) raises (Jam);
        void slow(in long id);
    };
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut builder = System::builder();
    builder.probe_mode(ProbeMode::Latency);
    builder.reply_timeout(Duration::from_millis(150));
    let node = builder.node("n", "Linux");
    let cp = builder.process("client", node, ThreadingPolicy::ThreadPerRequest);
    let sp = builder.process("server", node, ThreadingPolicy::ThreadPerRequest);
    let system = builder.build();
    system.load_idl(IDL)?;

    let servant = system.register_servant(
        sp,
        "Job",
        "Worker",
        "worker#0",
        Arc::new(FnServant::new(|_, m, args| {
            let id = args[0].as_i64().unwrap_or(0);
            match m.0 {
                0 if id == 2 => Err(AppError::new("Jam", "paper jam on job 2")),
                0 => Ok(Value::Void),
                _ => {
                    std::thread::sleep(Duration::from_millis(400)); // beyond the timeout
                    Ok(Value::Void)
                }
            }
        })),
    )?;
    system.start();

    let client = system.client(cp);
    // Job 1 succeeds.
    client.begin_root();
    client.invoke(&servant, "run", vec![Value::I64(1)])?;
    // Job 2 raises an application exception — the chain stays intact.
    client.begin_root();
    let err = client.invoke(&servant, "run", vec![Value::I64(2)]).unwrap_err();
    println!("job 2: {err}");
    // Job 3 times out — the skeleton events will be missing client-side.
    client.begin_root();
    let err = client.invoke(&servant, "slow", vec![Value::I64(3)]).unwrap_err();
    println!("job 3: {err}");

    system.quiesce(Duration::from_secs(5))?;
    system.shutdown();
    let mut run = system.harvest();
    // The harvested log groups records by thread, in an order that depends
    // on timing. Put them in job order (chains by their first stamp, then
    // by event number) so that the tear below always hits the same record:
    // job 3's last.
    let mut first_stamp: HashMap<Uuid, u64> = HashMap::new();
    for r in &run.records {
        let stamp = first_stamp.entry(r.uuid).or_insert(u64::MAX);
        *stamp = (*stamp).min(r.wall_start.unwrap_or(0));
    }
    run.records.sort_by_key(|r| (first_stamp[&r.uuid], r.uuid, r.seq, r.event));

    // Simulate a crash that tore the persisted log mid-record: one record
    // per frame, and the cut lands inside the last record's frame.
    let mut bytes = segment::write_run_log_with_frame(&run, 1);
    bytes.truncate(bytes.len() - 40);
    let recovery = segment::recover_run_log(&bytes)?;
    let restored = recovery.run;
    println!(
        "\ncrash-truncated log: recovered {} records, dropped {} torn byte(s), {} missing",
        restored.len(),
        recovery.truncated_bytes,
        restored.missing_records().unwrap_or(0),
    );

    let db = MonitoringDb::from_run(restored);
    let dscg = Dscg::build(&db);
    println!("\nreconstruction with failures:");
    print!(
        "{}",
        ascii_tree(&dscg, db.vocab(), AsciiOptions { show_latency: true, ..Default::default() })
    );
    println!(
        "\nthe analyzer flagged {} abnormalities — exactly where the failures were.",
        dscg.abnormalities.len()
    );
    Ok(())
}
