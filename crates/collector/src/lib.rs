//! # causeway-collector
//!
//! Log collection and synthesis — the paper's §3 front half: "when the
//! application ceases to exist or reaches a quiescent state, the scattered
//! logs are collected and eventually synthesized into a relational
//! database."
//!
//! * [`db::MonitoringDb`] — the relational store: the full record table plus
//!   the two queries the analyzer performs ("identify the set of unique
//!   Function UUIDs ever created" and "sort the events associated with the
//!   invocations sharing the UUID by ascending order"), along with dimension
//!   lookups (names, deployment) and scale statistics.
//! * [`segment`] — the one on-disk format: append-only segment files of
//!   checksummed frames with crash-safe recovery, carrying the fixed-width
//!   record encoding of `causeway_core::wire`, so runs can be written to
//!   disk and analyzed off-line, as the paper's stand-alone analyzer does.
//! * [`json`] — a small JSON value type, writer and parser: the analyzer's
//!   JSON views (live endpoints, Chrome trace) and the live monitor's
//!   request bodies.
//!
//! # Example
//!
//! ```
//! use causeway_core::runlog::RunLog;
//! use causeway_collector::db::MonitoringDb;
//!
//! let db = MonitoringDb::from_run(RunLog::default());
//! assert_eq!(db.scale_stats().total_records, 0);
//! ```

#![warn(missing_docs)]

pub mod db;
pub mod json;
pub mod segment;

pub use db::{MonitoringDb, ScaleStats};
