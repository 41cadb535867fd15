//! # gr-observe — structured events, metrics, and decision logs
//!
//! Observability substrate for the GraphReduce reproduction. The other
//! crates never format or file-write telemetry themselves; they emit
//! *typed* events through an [`Observer`] and account quantities in a
//! [`MetricsRegistry`], and everything human- or machine-readable
//! (JSONL streams, Chrome/Perfetto traces, run reports) is derived
//! from those records by the exporters in [`export`].
//!
//! Three kinds of records:
//!
//! - **Events** ([`SpanEvent`], [`InstantEvent`]): things with a place
//!   on a timeline. Spans carry a start and duration in virtual
//!   nanoseconds; instants are points. Both are grouped by `track`
//!   (e.g. `"sim"` for hardware resources, `"engine"` for GAS phases)
//!   and `lane` within the track (a copy engine, a shard, ...).
//! - **Decisions** ([`Decision`]): the engine's dynamic choices — a
//!   shard skipped by frontier management, a phase fused or
//!   eliminated — with enough context to audit each one.
//! - **Metrics** ([`MetricsRegistry`]): monotonic counters (optionally
//!   labeled) and log2-bucket histograms over a table each crate
//!   declares once with [`metric_table!`], snapshotable at any
//!   granularity.
//!
//! The default [`Observer`] is disabled: emission costs one branch on
//! an `Option` and the event is *never constructed* (emit methods take
//! closures). Enabling costs one `Arc` clone per component.
//!
//! All of the above records **virtual** time. The [`profiler`] module is
//! the real-time counterpart: a scoped wall-clock profiler
//! ([`WallProfiler`]) with the same zero-cost-when-off contract, whose
//! aggregated [`WallProfile`] exports onto a dedicated `"wall"` track.

#![forbid(unsafe_code)]

pub mod event;
pub mod export;
pub mod json;
pub mod metrics;
pub mod profiler;
pub mod sink;

pub use event::{Decision, FieldValue, InstantEvent, SpanEvent};
pub use metrics::{HistogramSnapshot, MetricTable, MetricsRegistry, MetricsSnapshot};
pub use profiler::{WallKey, WallProfile, WallProfiler, WallSample, WallSummary};
pub use sink::{Observer, Recorded, RecordingSink, Sink};
