//! Shared workload executor for the baseline engines.
//!
//! Every baseline (GraphChi-, X-Stream-, CuSha-, MapGraph-style) computes
//! the *same* GAS semantics — the paper runs the same four algorithms on
//! all frameworks and compares wall time. This module runs the program once
//! with the exact BSP semantics of [`graphreduce::phases`] (so all engines
//! produce bit-identical results, cross-validated against the sequential
//! oracles) and records the per-iteration work counts each engine's cost
//! model consumes.

use gr_graph::{Bitmap, GraphLayout, Interval, Shard, TopoView};
use graphreduce::phases::{activate_shard, apply_shard, gather_shard, scatter_shard};
use graphreduce::{GasProgram, HostKernels};

/// Work counts of one iteration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IterWork {
    /// Active vertices entering the iteration.
    pub frontier: u64,
    /// In-edges of active vertices (gather work).
    pub active_in_edges: u64,
    /// Vertices changed by apply.
    pub changed: u64,
    /// Out-edges of changed vertices (scatter / activation work; for
    /// push-style engines, the number of updates generated).
    pub out_edges_of_changed: u64,
    /// Vertices activated for the next iteration.
    pub activated: u64,
}

/// Results + per-iteration work of one workload execution.
pub struct WorkloadTrace<P: GasProgram> {
    /// Final vertex values.
    pub vertex_values: Vec<P::VertexValue>,
    /// Final edge values.
    pub edge_values: Vec<P::EdgeValue>,
    /// One entry per executed iteration.
    pub iterations: Vec<IterWork>,
}

/// Execute `program` on `layout` to convergence with BSP GAS semantics.
pub fn execute<P: GasProgram>(program: &P, layout: &GraphLayout) -> WorkloadTrace<P> {
    let n = layout.num_vertices();
    let whole = Shard {
        id: 0,
        interval: Interval { start: 0, end: n },
        in_edges: 0..layout.num_edges() as usize,
        out_edges: 0..layout.num_edges() as usize,
    };
    let mut vertex_values: Vec<P::VertexValue> = (0..n)
        .map(|v| program.init_vertex(v, layout.csr.degree(v) as u32))
        .collect();
    let mut edge_values = vec![P::EdgeValue::default(); layout.num_edges() as usize];
    let mut gather_temp = vec![program.gather_identity(); n as usize];
    let mut frontier = program.initial_frontier().bitmap(n);
    let mut iterations = Vec::new();
    let mut iter = 0u32;
    while iter < program.max_iterations() && frontier.count() > 0 {
        let mut w = IterWork {
            frontier: frontier.count(),
            ..Default::default()
        };
        if program.has_gather() {
            let (a, e) = gather_shard(
                program,
                TopoView::raw(layout),
                &whole,
                &vertex_values,
                &edge_values,
                &layout.weights,
                &frontier,
                &mut gather_temp,
                HostKernels::Adaptive,
            );
            debug_assert_eq!(a, w.frontier);
            w.active_in_edges = e;
        }
        let changed_ids = apply_shard(
            program,
            &whole,
            &mut vertex_values,
            &gather_temp,
            &frontier,
            iter,
            HostKernels::Adaptive,
        );
        let mut changed = Bitmap::new(n);
        for v in changed_ids {
            changed.set(v);
        }
        w.changed = changed.count();
        if program.has_scatter() {
            scatter_shard(
                program,
                TopoView::raw(layout),
                &whole,
                &vertex_values,
                &mut edge_values,
                &changed,
                HostKernels::Adaptive,
            );
        }
        let mut next = Bitmap::new(n);
        let (walked, activated) = activate_shard(
            TopoView::raw(layout),
            &whole,
            &changed,
            &mut next,
            HostKernels::Adaptive,
        );
        w.out_edges_of_changed = walked;
        w.activated = activated;
        iterations.push(w);
        frontier = next;
        iter += 1;
    }
    WorkloadTrace {
        vertex_values,
        edge_values,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gr_algorithms::{reference, Bfs, Cc};
    use gr_graph::gen;

    #[test]
    fn matches_sequential_gas_interpreter() {
        let layout = GraphLayout::build(&gen::uniform(300, 2400, 81).symmetrize());
        let trace = execute(&Cc, &layout);
        let (want, _, want_iters) = reference::run_gas(&Cc, &layout);
        assert_eq!(trace.vertex_values, want);
        assert_eq!(trace.iterations.len() as u32, want_iters);
    }

    #[test]
    fn bfs_trace_records_frontier_wave() {
        let layout = GraphLayout::build(&gen::uniform(300, 2400, 82).symmetrize());
        let trace = execute(&Bfs::new(0), &layout);
        assert_eq!(trace.iterations[0].frontier, 1);
        assert_eq!(trace.vertex_values, reference::bfs(&layout, 0));
        // Activation chains into the next frontier.
        for w in trace.iterations.windows(2) {
            assert_eq!(w[0].activated, w[1].frontier);
        }
    }
}
