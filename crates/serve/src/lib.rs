//! # gr-serve — concurrent query serving over a shared graph session
//!
//! The ROADMAP's north star is queries/sec, not ms/run: load and govern a
//! graph **once** (a [`graphreduce::GraphSession`]), then multiplex many
//! point queries against the shared shards. This crate is that serving
//! layer:
//!
//! * [`GraphServe`] — the server: two pending-query maps (BFS, everything
//!   else) over one borrowed session, drained deterministically in
//!   earliest-deadline-first order.
//! * [`AdmissionController`] ([`ServeConfig`]) — bounds the pending queue
//!   and refuses BFS/SSSP sources past the last vertex; a refused
//!   submission gets a [`Decision::QueryReject`](gr_observe::Decision) and
//!   a [`Rejected`] naming the [`RejectReason`] instead of queuing.
//! * Batching — up to `max_batch` (≤ 64) compatible pending BFS queries
//!   fold into **one** run. When they share one source it is the
//!   phase-eliminated [`gr_algorithms::Bfs`], whose answer every member
//!   gets; otherwise it is a [`gr_algorithms::MsBfsLevels`] sweep seeded
//!   at the sources, and each query's depth vector is demultiplexed from
//!   its lane bit-identically to a standalone `Bfs` run (`levels[i]`
//!   records lane `i`'s arrival iteration, which *is* the BFS depth).
//! * Per-query observability — every query gets its own decision-log lane
//!   (`QueryAdmit` → `QueryDone` with query/batch/lane ids), and every
//!   outcome carries a per-query [`QueryStats`] demuxed from the batch's
//!   [`graphreduce::RunStats`].
//!
//! Queries are *concurrent* in the serving sense: many are outstanding at
//! once and share one session's plans and compressed topology; execution
//! itself is a deterministic single-threaded pump (`drain`), which is what
//! makes the equivalence suites exact. See `docs/SERVING.md`.

#![forbid(unsafe_code)]

mod admission;
mod query;
mod server;

pub use admission::{AdmissionController, RejectReason, Rejected, ServeConfig};
pub use query::{QueryId, QueryOutcome, QueryOutput, QuerySpec, QueryStats};
pub use server::{pagerank_program, standalone_bfs, GraphServe};
