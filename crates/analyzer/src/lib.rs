//! # causeway-analyzer
//!
//! The off-line characterization tool of the paper's §3: reconstruct the
//! **Dynamic System Call Graph** from the causality records, then compute
//! end-to-end timing latency and system-wide CPU consumption on top of it.
//!
//! * `figure4` (private) — the paper's Figure-4 state machine, written once,
//!   with "abnormal" transition reporting and restart. Two consumers drive
//!   it: [`dscg`] and [`online`].
//! * [`dscg`] — feeds each causal chain's seq-sorted events to the machine
//!   and keeps the closed invocations as a call tree; one-way child chains
//!   are grafted under their fork sites.
//! * [`online`] — re-sequences records as they arrive, feeds them to the
//!   same machine and emits management events instead of trees.
//! * [`latency`] — `L(F) = P_{F,4,start} − P_{F,1,end} − O_F` with the
//!   probe-overhead compensation `O_F`, plus per-method statistics.
//! * [`cpu`] — self CPU `SC_F`, descendant CPU `DC_F` as a vector per
//!   processor type, propagated up the call hierarchy.
//! * [`ccsg`] — the CPU Consumption Summarization Graph of Figure 6.
//! * [`render`] — ASCII / DOT / JSON views of the DSCG (substituting for
//!   the hyperbolic tree viewer) and the XML view of the CCSG.
//!
//! # Example
//!
//! ```
//! use causeway_collector::db::MonitoringDb;
//! use causeway_core::runlog::RunLog;
//! use causeway_analyzer::dscg::Dscg;
//!
//! let db = MonitoringDb::from_run(RunLog::default());
//! let dscg = Dscg::build(&db);
//! assert!(dscg.trees.is_empty());
//! assert!(dscg.abnormalities.is_empty());
//! ```

#![warn(missing_docs)]

pub mod ccsg;
pub mod chrome_trace;
pub mod cpu;
pub mod dscg;
pub mod exemplar;
mod figure4;
pub mod history;
pub mod hotspot;
pub mod incident;
pub mod latency;
pub mod live;
pub mod online;
pub mod render;
pub mod rules;
pub mod window;

pub use ccsg::{Ccsg, CcsgNode};
pub use cpu::{CpuAnalysis, CpuVector};
pub use dscg::{Abnormality, CallNode, CallTree, Dscg};
pub use exemplar::{Exemplar, ExemplarConfig, ExemplarStore};
pub use history::WindowHistory;
pub use incident::{Hypothesis, Incident, IncidentStore, Tombstone};
pub use latency::{LatencyAnalysis, LatencyStats};
pub use live::{LiveConfig, LiveMonitor};
pub use rules::{AlertEvent, AlertRule, Trigger};
pub use window::WindowSnapshot;
