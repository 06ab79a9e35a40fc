//! # causeway-core
//!
//! Core mechanism of the Causeway monitoring framework — a reproduction of
//! *"Monitoring and Characterization of Component-Based Systems with Global
//! Causality Capture"* (Jun Li, ICDCS 2003).
//!
//! This crate contains everything that is shared between the runtime
//! substrates (the CORBA-like ORB in `causeway-orb`, the COM-like runtime in
//! `causeway-com`) and the off-line tooling (`causeway-collector`,
//! `causeway-analyzer`):
//!
//! * [`uuid::Uuid`] — the *Function Universally Unique Identifier* that names
//!   a causal chain.
//! * [`ftl::FunctionTxLog`] — the Function-Transportable Log (Figure 3 of the
//!   paper): the Function UUID plus an event sequence number. This is the
//!   only payload that travels the *virtual tunnel*; probes update it in
//!   place, so it stays O(1) regardless of chain length.
//! * [`event::TraceEvent`] / [`event::CallKind`] — the four tracing events
//!   (stub start, skeleton start, skeleton end, stub end) and the invocation
//!   flavors (synchronous, one-way, collocated, custom-marshalled).
//! * [`tss`] — the thread-specific storage that bridges the tunnel from a
//!   function implementation into its child calls and across sibling calls.
//! * [`monitor::Monitor`] — the four probes of Figure 1, which record
//!   [`record::ProbeRecord`]s into per-thread [`sink::LogStore`] buffers.
//! * [`engine::Gate`] — the runtimes' one admission gate: in-flight
//!   tickets, bounded admission, the dispatch bracket that releases a
//!   request only after its worker's last record is pushed, quiescence,
//!   and [`engine::MAX_PARKED`], the cap on threads waiting for reuse.
//! * [`clock`] — pluggable wall and per-thread CPU clocks, including a
//!   deterministic [`clock::ManualClock`] for tests and a
//!   [`clock::VirtualCpuClock`] that substitutes for the HP-UX 11 per-thread
//!   CPU counters the paper relied on (see `DESIGN.md` §2).
//! * [`value::Value`] / [`wire`] — the argument data model and the CDR-like
//!   marshalling used by the stubs and skeletons.
//! * [`names::SystemVocab`] / [`deploy`] — interned names for interfaces,
//!   methods, components and objects, and the deployment model (nodes with
//!   CPU types, processes, logical threads).
//!
//! # Example
//!
//! Drive the probes by hand, exactly as an instrumented stub/skeleton pair
//! would, and observe the records that reach the log store:
//!
//! ```
//! use causeway_core::prelude::*;
//! # fn main() {
//! let monitor = Monitor::builder(ProcessId(0), NodeId(0))
//!     .mode(ProbeMode::Latency)
//!     .build();
//!
//! let func = FunctionKey::new(InterfaceId(0), MethodIndex(0), ObjectId(7));
//! // Client side (probe 1), wire transfer, server side (probes 2 and 3),
//! // back on the client (probe 4):
//! let out = monitor.stub_start(func, CallKind::Sync);
//! monitor.skel_start(func, CallKind::Sync, out.wire_ftl, None);
//! let reply_ftl = monitor.skel_end(func, CallKind::Sync);
//! monitor.stub_end(func, CallKind::Sync, Some(reply_ftl));
//!
//! let records = monitor.store().drain();
//! assert_eq!(records.len(), 4);
//! assert!(records.iter().all(|r| r.uuid == records[0].uuid));
//! # }
//! ```

#![warn(missing_docs)]

pub mod clock;
pub mod deploy;
pub mod engine;
pub mod error;
pub mod event;
pub mod ftl;
pub mod httpd;
pub mod ids;
pub mod manual;
pub mod metrics;
pub mod monitor;
pub mod names;
pub mod pool;
pub mod record;
pub mod rng;
pub mod runlog;
pub mod sink;
pub mod sync;
pub mod tss;
pub mod uuid;
pub mod value;
pub mod wire;

/// Convenient glob-import of the most commonly used types.
pub mod prelude {
    pub use crate::clock::{
        CpuClock, ManualClock, ManualCpuClock, SystemClock, VirtualCpuClock, WallClock,
    };
    pub use crate::deploy::{Deployment, NodeInfo, ProcessInfo};
    pub use crate::error::CoreError;
    pub use crate::event::{CallKind, TraceEvent};
    pub use crate::ftl::FunctionTxLog;
    pub use crate::ids::{
        CpuTypeId, InterfaceId, LogicalThreadId, MethodIndex, NodeId, ObjectId, ProcessId,
    };
    pub use crate::manual::ManualProbe;
    pub use crate::metrics::{Counter, Gauge, Histogram, MetricsRegistry};
    pub use crate::monitor::{
        Monitor, MonitorBuilder, ProbeDirective, ProbeMode, ProbePolicy, StubStartOutcome,
    };
    pub use crate::names::{ComponentId, SystemVocab, VocabSnapshot};
    pub use crate::record::{CallSite, FunctionKey, ProbeRecord};
    pub use crate::runlog::RunLog;
    pub use crate::sink::LogStore;
    pub use crate::uuid::Uuid;
    pub use crate::value::Value;
}
