//! The serving pump: EDF-ordered batching over one shared session.

use std::collections::BTreeMap;

use gr_algorithms::{Bfs, Cc, MsBfsLevels, PageRank, Sssp};
use gr_observe::{Decision, Observer};
use graphreduce::{EngineError, GraphSession, RunStats};

use crate::admission::{AdmissionController, Rejected, ServeConfig};
use crate::query::{QueryId, QueryOutcome, QueryOutput, QuerySpec, QueryStats};

/// The PageRank program served for [`QuerySpec::PageRank`] snapshots —
/// the paper's evaluation parameters (damping 0.85, ε 1e-4, 60-iteration
/// budget). Public so equivalence tests and benches can run the identical
/// standalone program.
pub fn pagerank_program() -> PageRank {
    PageRank {
        damping: 0.85,
        epsilon: 1e-4,
        max_iters: 60,
    }
}

struct Pending {
    id: QueryId,
    spec: QuerySpec,
    deadline: Option<u64>,
}

/// A pending query's place in earliest-deadline-first order: its deadline
/// (`u64::MAX` when it has none, so it sorts last), then its admission id
/// (FIFO within a deadline).
type EdfKey = (u64, QueryId);

/// A query server over one borrowed [`GraphSession`].
///
/// `submit` runs admission control and queues; `drain` executes everything
/// pending: queries are ordered earliest-deadline-first (FIFO within a
/// deadline), compatible BFS queries fold into one batch of up to
/// [`ServeConfig::max_batch`] lanes, and every query's answer + stats
/// lane is demultiplexed from the batch that carried it. A batch whose
/// members share one source runs the phase-eliminated [`Bfs`]; one with
/// two or more distinct sources runs an [`MsBfsLevels`] sweep. Time is
/// counted in virtual *service ticks* — one tick per executed batch —
/// which is what deadlines are checked against; the open-loop latency
/// trace with real wall times lives in the serve bench.
pub struct GraphServe<'s, 'g> {
    session: &'s GraphSession<'g>,
    admission: AdmissionController,
    observer: Observer,
    next_id: QueryId,
    next_batch: u64,
    ticks: u64,
    /// Pending BFS queries in EDF order; a batch folds their heads.
    bfs: BTreeMap<EdfKey, Pending>,
    /// Every other pending query in EDF order; each runs alone.
    other: BTreeMap<EdfKey, Pending>,
}

impl<'s, 'g> GraphServe<'s, 'g> {
    /// Serve `session` under the default [`ServeConfig`].
    pub fn new(session: &'s GraphSession<'g>) -> Self {
        Self::with_config(session, ServeConfig::default())
    }

    pub fn with_config(session: &'s GraphSession<'g>, cfg: ServeConfig) -> Self {
        GraphServe {
            session,
            admission: AdmissionController::new(cfg),
            observer: Observer::disabled(),
            next_id: 0,
            next_batch: 0,
            ticks: 0,
            bfs: BTreeMap::new(),
            other: BTreeMap::new(),
        }
    }

    /// Attach an observer: admission/rejection/batch/completion decisions
    /// land in its sink, and each batch's engine run is tagged with a
    /// `b<batch>/` device lane.
    pub fn with_observer(mut self, observer: Observer) -> Self {
        self.observer = observer;
        self
    }

    /// Queries queued and not yet drained.
    pub fn pending(&self) -> usize {
        self.bfs.len() + self.other.len()
    }

    /// Completed service ticks (executed batches) so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Submit one query with an optional deadline in service ticks.
    /// Admission may reject it (bounded queue, or a BFS/SSSP source that
    /// is not a vertex of the served graph); an admitted query is answered
    /// by the next [`GraphServe::drain`].
    pub fn submit(&mut self, spec: QuerySpec, deadline: Option<u64>) -> Result<QueryId, Rejected> {
        self.admission.admit(
            &self.observer,
            self.next_id,
            &spec,
            self.pending(),
            self.session.layout().num_vertices(),
        )?;
        let id = self.next_id;
        self.next_id += 1;
        let queue = match spec {
            QuerySpec::Bfs { .. } => &mut self.bfs,
            _ => &mut self.other,
        };
        queue.insert(
            (deadline.unwrap_or(u64::MAX), id),
            Pending { id, spec, deadline },
        );
        Ok(id)
    }

    /// Execute every pending query; returns outcomes in completion order.
    ///
    /// Deterministic: the same set of admitted queries produces the same
    /// batches and bit-identical per-query answers regardless of
    /// submission order (deadlines only reorder *when* a query's batch
    /// runs, never what it computes).
    pub fn drain(&mut self) -> Result<Vec<QueryOutcome>, EngineError> {
        let mut out = Vec::new();
        while let Some(members) = self.next_batch() {
            let batch = self.next_batch;
            self.next_batch += 1;
            let kind = members[0].spec.kind();
            let size = members.len() as u32;
            self.observer
                .decision(|| Decision::BatchFormed { batch, size, kind });
            self.execute_batch(batch, members, &mut out)?;
        }
        Ok(out)
    }

    /// Take the next batch off the queues: the most urgent pending query
    /// and, when it is a BFS, the BFS queries next in EDF order, up to the
    /// batch width.
    fn next_batch(&mut self) -> Option<Vec<Pending>> {
        let bfs_first = match (self.bfs.first_key_value(), self.other.first_key_value()) {
            (Some((b, _)), Some((o, _))) => b < o,
            (bfs, _) => bfs.is_some(),
        };
        if bfs_first {
            let width = self.admission.config().batch_width();
            let members = std::iter::from_fn(|| self.bfs.pop_first())
                .take(width)
                .map(|(_, p)| p)
                .collect();
            Some(members)
        } else {
            self.other.pop_first().map(|(_, p)| vec![p])
        }
    }

    fn execute_batch(
        &mut self,
        batch: u64,
        members: Vec<Pending>,
        out: &mut Vec<QueryOutcome>,
    ) -> Result<(), EngineError> {
        let (outputs, run) = match &members[0].spec {
            QuerySpec::Bfs { .. } => {
                let sources: Vec<u32> = members
                    .iter()
                    .map(|p| match p.spec {
                        QuerySpec::Bfs { source } => source,
                        _ => unreachable!("batch members are kind-compatible"),
                    })
                    .collect();
                let lanes = sources.len();
                if sources.iter().all(|&s| s == sources[0]) {
                    // One distinct source: the phase-eliminated BFS moves
                    // no in-edges, and its one answer serves every member.
                    let res = self.run_on_session(&Bfs::new(sources[0]), batch)?;
                    (
                        vec![QueryOutput::Depths(res.vertex_values); lanes],
                        res.stats,
                    )
                } else {
                    let prog = MsBfsLevels::new(sources);
                    let res = self.run_on_session(&prog, batch)?;
                    let outs = MsBfsLevels::all_lane_depths(&res.vertex_values, lanes)
                        .into_iter()
                        .map(QueryOutput::Depths)
                        .collect();
                    (outs, res.stats)
                }
            }
            QuerySpec::Sssp { source } => {
                let prog = Sssp::new(*source);
                let res = self.run_on_session(&prog, batch)?;
                (vec![QueryOutput::Distances(res.vertex_values)], res.stats)
            }
            QuerySpec::PageRank => {
                let prog = pagerank_program();
                let res = self.run_on_session(&prog, batch)?;
                let ranks = res.vertex_values.iter().map(|v| v.rank).collect();
                (vec![QueryOutput::Ranks(ranks)], res.stats)
            }
            QuerySpec::Cc => {
                let prog = Cc;
                let res = self.run_on_session(&prog, batch)?;
                (vec![QueryOutput::Components(res.vertex_values)], res.stats)
            }
        };
        self.ticks += 1;
        let size = outputs.len() as u32;
        for (lane, (p, output)) in members.into_iter().zip(outputs).enumerate() {
            let deadline_met = p.deadline.is_none_or(|d| self.ticks <= d);
            let (query, lane32) = (p.id, lane as u32);
            self.observer.decision(|| Decision::QueryDone {
                query,
                batch,
                lane: lane32,
                deadline_met,
            });
            out.push(QueryOutcome {
                id: p.id,
                spec: p.spec,
                output,
                stats: QueryStats {
                    query,
                    batch,
                    lane: lane32,
                    batch_size: size,
                    deadline: p.deadline,
                    deadline_met,
                    run: run.clone(),
                },
            });
        }
        Ok(())
    }

    fn run_on_session<P: graphreduce::GasProgram>(
        &self,
        prog: &P,
        batch: u64,
    ) -> Result<graphreduce::RunResult<P>, EngineError> {
        self.session
            .query(prog)
            .with_observer(self.observer.clone())
            .with_lane(format!("b{batch}/"))
            .run()
    }
}

/// Convenience for serial baselines and tests: run one standalone BFS on
/// the session (no batching, no serving state).
pub fn standalone_bfs(
    session: &GraphSession<'_>,
    source: u32,
) -> Result<(Vec<u32>, RunStats), EngineError> {
    let prog = Bfs::new(source);
    let res = session.query(&prog).run()?;
    Ok((res.vertex_values, res.stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gr_graph::{gen, GraphLayout};
    use gr_sim::Platform;
    use graphreduce::Options;

    fn session_fixture(layout: &GraphLayout) -> GraphSession<'_> {
        GraphSession::new(layout, Platform::paper_node(), Options::optimized())
    }

    #[test]
    fn batched_bfs_queries_match_standalone_runs() {
        let layout = GraphLayout::build(&gen::uniform(400, 2400, 5).symmetrize());
        let session = session_fixture(&layout);
        let mut serve = GraphServe::new(&session);
        let sources = [0u32, 7, 100, 399];
        for &s in &sources {
            serve.submit(QuerySpec::Bfs { source: s }, None).unwrap();
        }
        let outcomes = serve.drain().unwrap();
        assert_eq!(outcomes.len(), sources.len());
        for o in &outcomes {
            let QuerySpec::Bfs { source } = o.spec else {
                panic!("bfs outcome")
            };
            let (want, _) = standalone_bfs(&session, source).unwrap();
            assert_eq!(o.output, QueryOutput::Depths(want), "query {}", o.id);
            assert_eq!(o.stats.batch_size, 4);
            assert_eq!(o.stats.run.algorithm, "ms-bfs-levels");
        }
        // One batch for all four queries.
        assert_eq!(serve.ticks(), 1);
    }

    #[test]
    fn snapshot_queries_run_as_singletons() {
        let layout = GraphLayout::build(&gen::uniform(300, 1500, 6).symmetrize());
        let session = session_fixture(&layout);
        let mut serve = GraphServe::new(&session);
        serve.submit(QuerySpec::Cc, None).unwrap();
        serve.submit(QuerySpec::PageRank, None).unwrap();
        serve.submit(QuerySpec::Sssp { source: 3 }, None).unwrap();
        let outcomes = serve.drain().unwrap();
        assert_eq!(outcomes.len(), 3);
        for o in &outcomes {
            assert_eq!(o.stats.batch_size, 1);
        }
        let cc = session.query(&Cc).run().unwrap();
        assert_eq!(
            outcomes[0].output,
            QueryOutput::Components(cc.vertex_values)
        );
        let sssp = session.query(&Sssp::new(3)).run().unwrap();
        assert_eq!(
            outcomes[2].output,
            QueryOutput::Distances(sssp.vertex_values)
        );
    }

    #[test]
    fn deadlines_order_batches_not_results() {
        let layout = GraphLayout::build(&gen::uniform(200, 1200, 7).symmetrize());
        let session = session_fixture(&layout);
        // Cap batches at 2 lanes so deadlines actually split the queries.
        let cfg = ServeConfig {
            max_pending: 16,
            max_batch: 2,
        };
        let mut serve = GraphServe::with_config(&session, cfg);
        // Submitted out of deadline order.
        serve
            .submit(QuerySpec::Bfs { source: 10 }, Some(9))
            .unwrap(); // id 0
        serve
            .submit(QuerySpec::Bfs { source: 20 }, Some(1))
            .unwrap(); // id 1
        serve.submit(QuerySpec::Bfs { source: 30 }, None).unwrap(); //    id 2
        serve
            .submit(QuerySpec::Bfs { source: 40 }, Some(1))
            .unwrap(); // id 3
        let outcomes = serve.drain().unwrap();
        // Batch 0 = the two deadline-1 queries (EDF), batch 1 = the rest.
        let by_id: Vec<u64> = outcomes.iter().map(|o| o.stats.batch).collect();
        let ids: Vec<QueryId> = outcomes.iter().map(|o| o.id).collect();
        assert_eq!(ids, vec![1, 3, 0, 2]);
        assert_eq!(by_id, vec![0, 0, 1, 1]);
        // The tight deadline was met by the first batch; results are the
        // standalone answers regardless of scheduling.
        assert!(outcomes[0].stats.deadline_met);
        for o in &outcomes {
            let QuerySpec::Bfs { source } = o.spec else {
                panic!()
            };
            let (want, _) = standalone_bfs(&session, source).unwrap();
            assert_eq!(o.output, QueryOutput::Depths(want));
        }
    }

    #[test]
    fn per_query_decision_lanes_are_complete() {
        let layout = GraphLayout::build(&gen::uniform(100, 500, 8).symmetrize());
        let session = session_fixture(&layout);
        let (obs, sink) = Observer::recording();
        let mut serve = GraphServe::with_config(
            &session,
            ServeConfig {
                max_pending: 2,
                max_batch: 64,
            },
        )
        .with_observer(obs);
        serve.submit(QuerySpec::Bfs { source: 0 }, None).unwrap();
        serve.submit(QuerySpec::Bfs { source: 1 }, None).unwrap();
        assert!(serve.submit(QuerySpec::Bfs { source: 2 }, None).is_err());
        serve.drain().unwrap();
        let rec = sink.recorded();
        // 2 admits + 1 reject + 1 batch + 2 dones.
        assert_eq!(rec.serve_decisions(), 6);
        let dones: Vec<_> = rec
            .decisions
            .iter()
            .filter(|d| matches!(d, Decision::QueryDone { .. }))
            .collect();
        assert_eq!(dones.len(), 2);
    }

    /// The batching rule `drain` followed before the two EDF maps: re-sort
    /// the whole pending list, then take its head and, for a BFS head,
    /// every later BFS in that order up to the width.
    fn sort_and_remove(
        pending: &mut Vec<(QueryId, &'static str, Option<u64>)>,
        width: usize,
    ) -> Vec<Vec<QueryId>> {
        let mut batches = Vec::new();
        while !pending.is_empty() {
            pending.sort_by_key(|&(id, _, d)| (d.unwrap_or(u64::MAX), id));
            let members = if pending[0].1 == "bfs" {
                let mut taken = Vec::new();
                let mut i = 0;
                while i < pending.len() && taken.len() < width {
                    if pending[i].1 == "bfs" {
                        taken.push(pending.remove(i).0);
                    } else {
                        i += 1;
                    }
                }
                taken
            } else {
                vec![pending.remove(0).0]
            };
            batches.push(members);
        }
        batches
    }

    #[test]
    fn edf_maps_form_the_sort_and_remove_batches() {
        let layout = GraphLayout::build(&gen::uniform(24, 80, 9).symmetrize());
        let session = session_fixture(&layout);
        for max_batch in [1, 3, 64] {
            let cfg = ServeConfig {
                max_pending: 4096,
                max_batch,
            };
            let mut serve = GraphServe::with_config(&session, cfg);
            let mut state = 0x5eed ^ max_batch as u64;
            let mut draw = |below: u64| {
                // SplitMix64.
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (z ^ (z >> 31)) % below
            };
            let (mut submitted, mut batch_base) = (0, 0);
            while submitted < 1000 {
                // One round: a random burst of mixed kinds and deadlines
                // (some already past), then one drain.
                let mut model = Vec::new();
                for _ in 0..1 + draw(48) {
                    let source = draw(24) as u32;
                    let spec = match draw(8) {
                        0 => QuerySpec::Cc,
                        1 => QuerySpec::PageRank,
                        2 | 3 => QuerySpec::Sssp { source },
                        _ => QuerySpec::Bfs { source },
                    };
                    let deadline = (draw(4) != 0).then(|| serve.ticks() + draw(40));
                    let kind = spec.kind();
                    let id = serve.submit(spec, deadline).unwrap();
                    model.push((id, kind, deadline));
                    submitted += 1;
                }
                let deadlines: BTreeMap<QueryId, Option<u64>> =
                    model.iter().map(|&(id, _, d)| (id, d)).collect();
                let want = sort_and_remove(&mut model, cfg.batch_width());
                let got = serve.drain().unwrap();
                let mut i = 0;
                for (b, members) in want.iter().enumerate() {
                    let batch = batch_base + b as u64;
                    for (lane, &id) in members.iter().enumerate() {
                        let o = &got[i];
                        i += 1;
                        assert_eq!(
                            (o.id, o.stats.batch, o.stats.lane, o.stats.batch_size),
                            (id, batch, lane as u32, members.len() as u32),
                            "max_batch {max_batch}"
                        );
                        let met = deadlines[&id].is_none_or(|d| batch < d);
                        assert_eq!(o.stats.deadline_met, met, "query {id}");
                    }
                }
                assert_eq!(i, got.len());
                batch_base += want.len() as u64;
                assert_eq!(serve.ticks(), batch_base);
            }
        }
    }
}
