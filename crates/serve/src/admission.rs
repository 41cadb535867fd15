//! Admission control: a bounded pending queue and in-range sources, with
//! audit decisions.

use gr_observe::{Decision, Observer};

use crate::query::QuerySpec;

/// Serving-policy knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeConfig {
    /// Pending-queue cap: submissions beyond this are rejected.
    pub max_pending: usize,
    /// Largest BFS batch folded into one run (clamped to 64, the MS-BFS
    /// bit-parallel lane width).
    pub max_batch: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_pending: 256,
            max_batch: 64,
        }
    }
}

impl ServeConfig {
    /// The effective batch width: at least 1, at most the 64 MS-BFS lanes.
    pub fn batch_width(&self) -> usize {
        self.max_batch.clamp(1, 64)
    }
}

/// Which admission limit a submission hit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The pending queue already held [`ServeConfig::max_pending`] queries.
    QueueFull,
    /// A BFS or SSSP source is not a vertex of the served graph.
    SourceOutOfRange { source: u32, num_vertices: u32 },
}

impl RejectReason {
    /// The `rationale` of the matching [`Decision::QueryReject`].
    pub fn rationale(&self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue full",
            RejectReason::SourceOutOfRange { .. } => "source out of range",
        }
    }
}

/// A submission the admission controller turned away.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rejected {
    /// Kind tag of the rejected query.
    pub kind: &'static str,
    /// Pending-queue depth at rejection time.
    pub queue_depth: usize,
    /// The limit the submission hit.
    pub reason: RejectReason,
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.reason {
            RejectReason::QueueFull => write!(
                f,
                "{} query rejected: pending queue full ({} queued)",
                self.kind, self.queue_depth
            ),
            RejectReason::SourceOutOfRange {
                source,
                num_vertices,
            } => write!(
                f,
                "{} query rejected: source {source} is not a vertex of the \
                 {num_vertices}-vertex graph",
                self.kind
            ),
        }
    }
}

impl std::error::Error for Rejected {}

/// Bounds the pending queue, checks traversal sources against the served
/// graph, and logs one decision per verdict: admitted submissions get a
/// `QueryAdmit` (their decision lane opens), rejected ones a `QueryReject`.
#[derive(Clone, Debug, Default)]
pub struct AdmissionController {
    cfg: ServeConfig,
}

impl AdmissionController {
    pub fn new(cfg: ServeConfig) -> Self {
        AdmissionController { cfg }
    }

    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Decide one submission against the current queue depth and the
    /// served graph's vertex count.
    pub fn admit(
        &self,
        observer: &Observer,
        query: u64,
        spec: &QuerySpec,
        queue_depth: usize,
        num_vertices: u32,
    ) -> Result<(), Rejected> {
        let kind = spec.kind();
        let reason = if queue_depth >= self.cfg.max_pending {
            Some(RejectReason::QueueFull)
        } else {
            spec.source()
                .filter(|&source| source >= num_vertices)
                .map(|source| RejectReason::SourceOutOfRange {
                    source,
                    num_vertices,
                })
        };
        if let Some(reason) = reason {
            observer.decision(|| Decision::QueryReject {
                kind,
                queue_depth: queue_depth as u64,
                rationale: reason.rationale(),
            });
            return Err(Rejected {
                kind,
                queue_depth,
                reason,
            });
        }
        observer.decision(|| Decision::QueryAdmit {
            query,
            kind,
            queue_depth: queue_depth as u64 + 1,
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gr_observe::Observer;

    #[test]
    fn rejects_at_cap_and_logs_both_verdicts() {
        let ctl = AdmissionController::new(ServeConfig {
            max_pending: 2,
            max_batch: 64,
        });
        let (obs, sink) = Observer::recording();
        let bfs = QuerySpec::Bfs { source: 0 };
        assert!(ctl.admit(&obs, 0, &bfs, 0, 10).is_ok());
        assert!(ctl.admit(&obs, 1, &bfs, 1, 10).is_ok());
        let err = ctl.admit(&obs, 2, &bfs, 2, 10).unwrap_err();
        assert_eq!(err.queue_depth, 2);
        assert_eq!(err.reason, RejectReason::QueueFull);
        let rec = sink.recorded();
        assert_eq!(rec.serve_decisions(), 3);
        assert!(rec
            .decisions
            .iter()
            .any(|d| matches!(d, gr_observe::Decision::QueryReject { .. })));
    }

    #[test]
    fn rejects_traversal_sources_past_the_last_vertex() {
        let ctl = AdmissionController::new(ServeConfig::default());
        let (obs, sink) = Observer::recording();
        for spec in [
            QuerySpec::Bfs { source: 10 },
            QuerySpec::Sssp { source: 99 },
        ] {
            let err = ctl.admit(&obs, 0, &spec, 0, 10).unwrap_err();
            assert_eq!(
                err.reason,
                RejectReason::SourceOutOfRange {
                    source: spec.source().unwrap(),
                    num_vertices: 10
                }
            );
            assert!(err.to_string().contains("10-vertex graph"), "{err}");
        }
        // The last vertex and the sourceless snapshots are admitted.
        assert!(ctl
            .admit(&obs, 1, &QuerySpec::Bfs { source: 9 }, 0, 10)
            .is_ok());
        assert!(ctl.admit(&obs, 2, &QuerySpec::Cc, 0, 10).is_ok());
        let rationales: Vec<_> = sink
            .recorded()
            .decisions
            .iter()
            .filter_map(|d| match d {
                gr_observe::Decision::QueryReject { rationale, .. } => Some(*rationale),
                _ => None,
            })
            .collect();
        assert_eq!(rationales, ["source out of range"; 2]);
    }

    #[test]
    fn batch_width_clamps_to_msbfs_lanes() {
        let wide = ServeConfig {
            max_pending: 8,
            max_batch: 1000,
        };
        assert_eq!(wide.batch_width(), 64);
        let zero = ServeConfig {
            max_pending: 8,
            max_batch: 0,
        };
        assert_eq!(zero.batch_width(), 1);
    }
}
