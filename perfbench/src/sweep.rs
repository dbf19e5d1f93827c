//! The paper's p-sweep protocol as a measured phase: cold D2PR sweeps
//! over the `p` grid on every paper graph, each grid point scored by
//! Spearman correlation against the graph's significance signal.
//!
//! This is [`d2pr_experiments::sweep::SweepConfig::run`]'s loop, spelled
//! out here so that each `Engine::sweep` call and each Spearman call can
//! be timed on its own and every solve's convergence flag checked.

use crate::report::Ledger;
use crate::stats;
use crate::trace::Tracer;
use d2pr_core::d2pr::D2pr;
use d2pr_core::engine::Engine;
use d2pr_core::pagerank::PageRankConfig;
use d2pr_core::transition::TransitionModel;
use d2pr_datagen::worlds::PaperGraph;
use d2pr_experiments::experiments::ExperimentContext;
use d2pr_experiments::sweep::SweepConfig;
use d2pr_stats::correlation::spearman;
use std::time::Instant;

/// What one protocol pass did.
#[derive(Debug, Clone, Default)]
pub struct SweepStats {
    /// D2PR solves completed.
    pub solves: usize,
    /// Wall time of the pass, seconds.
    pub seconds: f64,
    /// Wall time spent on each paper graph (engine build, its sweeps and
    /// their scoring), seconds, in [`PaperGraph::all`] order.
    pub per_graph: Vec<f64>,
    /// Solver iterations summed over every solve (a pure function of the
    /// inputs, so it repeats exactly for one seed).
    pub iterations: usize,
    /// Nodes summed over the swept graphs.
    pub nodes: usize,
    /// Arcs summed over the swept graphs.
    pub arcs: usize,
}

/// Run one pass of the protocol over all eight paper graphs.
///
/// `weighted` selects the half of the paper it reproduces: the weighted
/// graphs under the β grid at α = 0.85 (Figures 9–11), or the unweighted
/// graphs under the α grid (Figures 2–8). Both halves sweep the paper's
/// `p ∈ [−4, 4]` grid in steps of 0.5 with `threads` engine workers.
///
/// # Errors
/// Solver construction or validation failures.
pub fn run_pass(
    ctx: &ExperimentContext,
    weighted: bool,
    threads: usize,
    mut tracer: Option<&mut Tracer>,
    ledger: &mut Ledger,
) -> Result<SweepStats, String> {
    let defaults = SweepConfig::default();
    let ps = D2pr::paper_p_grid();
    let mut stats = SweepStats::default();
    let start = Instant::now();
    for (gi, pg) in PaperGraph::all().into_iter().enumerate() {
        let graph_start = Instant::now();
        let (graph, significance) = if weighted {
            ctx.weighted(pg)
        } else {
            ctx.unweighted(pg)
        };
        stats.nodes += graph.num_nodes();
        stats.arcs += graph.num_arcs();
        let blended = graph.is_weighted();
        // β only exists for weighted transitions; α is swept on the
        // unweighted half, as the paper does.
        let (alphas, betas) = if weighted && blended {
            (vec![0.85], SweepConfig::paper_betas())
        } else {
            (SweepConfig::paper_alphas(), vec![0.0])
        };
        let mut engine = Engine::with_threads(&graph, threads).with_kernel(defaults.kernel);
        for &beta in &betas {
            let models: Vec<TransitionModel> = ps
                .iter()
                .map(|&p| {
                    if blended {
                        TransitionModel::Blended { p, beta }
                    } else {
                        TransitionModel::DegreeDecoupled { p }
                    }
                })
                .collect();
            for &alpha in &alphas {
                let config = PageRankConfig {
                    alpha,
                    tolerance: defaults.tolerance,
                    max_iterations: defaults.max_iterations,
                    ..Default::default()
                };
                engine.set_config(config).map_err(|e| e.to_string())?;
                let t = Instant::now();
                let results = engine.sweep(&models, false).map_err(|e| e.to_string())?;
                if let Some(tr) = tracer.as_deref_mut() {
                    tr.record("core.engine.sweep.ms", t, Instant::now(), None, gi as u64);
                }
                for (&p, r) in ps.iter().zip(&results) {
                    stats.solves += 1;
                    stats.iterations += r.iterations;
                    let t = Instant::now();
                    let rho = spearman(&r.scores, &significance);
                    if let Some(tr) = tracer.as_deref_mut() {
                        tr.record("stats.spearman.ms", t, Instant::now(), None, gi as u64);
                    }
                    let ok = ledger.check("sweep.converged", r.converged, || {
                        format!("{} p={p} alpha={alpha} beta={beta}", pg.name())
                    });
                    ledger.op("sweep.solve", ok);
                    std::hint::black_box(rho);
                }
            }
        }
        stats.per_graph.push(graph_start.elapsed().as_secs_f64());
    }
    stats.seconds = start.elapsed().as_secs_f64();
    Ok(stats)
}

/// Solves per second over several passes of the same protocol, robust to
/// interference from other work on the host: each graph's time is the
/// median of its times across the passes, and the rate is one pass's
/// solves over the sum of those medians.
///
/// # Panics
/// On no passes or passes of different shapes.
pub fn robust_rate(passes: &[SweepStats]) -> f64 {
    let graphs = passes[0].per_graph.len();
    assert!(passes
        .iter()
        .all(|p| p.per_graph.len() == graphs && p.solves == passes[0].solves));
    let seconds: f64 = (0..graphs)
        .map(|g| {
            let mut times: Vec<f64> = passes.iter().map(|p| p.per_graph[g]).collect();
            stats::median(&mut times)
        })
        .sum();
    passes[0].solves as f64 / seconds
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(per_graph: Vec<f64>) -> SweepStats {
        SweepStats {
            solves: 100,
            seconds: per_graph.iter().sum(),
            per_graph,
            ..Default::default()
        }
    }

    #[test]
    fn robust_rate_takes_per_graph_medians() {
        // A disturbance slows graph 0 in the first pass and graph 1 in
        // the third; the medians are 1 s and 3 s, so 100 solves / 4 s.
        let passes = [
            pass(vec![9.0, 3.0]),
            pass(vec![1.0, 3.0]),
            pass(vec![1.0, 8.0]),
        ];
        assert!((robust_rate(&passes) - 25.0).abs() < 1e-12);
        assert!((robust_rate(&passes[1..2]) - 25.0).abs() < 1e-12);
    }
}
