//! Gauss–Seidel sweep kernel over the engine's loaded operator.
//!
//! The Jacobi-style pull kernel in [`crate::engine`] computes every new
//! score from the *previous* iterate. Gauss–Seidel instead consumes updates
//! immediately (in place), which typically halves the iteration count for
//! PageRank systems when the sweep order aligns with the graph's structure,
//! at the cost of a sequential dependency (no trivial parallelism). It runs
//! over the same operator the pull kernel reads — the engine's shared
//! `CscStructure` rows plus factored or per-arc values — so no second copy
//! of the operator is ever built. It serves
//! [`SweepKernel::GaussSeidel`](crate::engine::SweepKernel::GaussSeidel)
//! sweeps and the engine's tiny-graph incremental fallback
//! ([`ResolveMode::DenseGaussSeidel`](crate::engine::ResolveMode::DenseGaussSeidel)).
//!
//! Implementation: solve `(I − α·T)·r = (1−α)·t` by sweeping nodes in id
//! order, updating `r[j] ← (1−α)·t[j] + α·Σ_i T(j,i)·r[i]` with the newest
//! available `r[i]`. All three [`DanglingPolicy`] variants are supported:
//!
//! * [`DanglingPolicy::RedistributeTeleport`] — dangling mass is folded
//!   into the teleport term, lagged by one sweep (same fixed point);
//! * [`DanglingPolicy::SelfLoop`] — the dangling diagonal `α·r[j]` is
//!   solved exactly in place (`r[j] = acc / (1 − α)`), which is the
//!   Gauss–Seidel-natural treatment of a diagonal entry;
//! * [`DanglingPolicy::Renormalize`] — the fixed point is *projective*
//!   (`x = (α·T·x + (1−α)·t) / σ(x)` with `σ = 1 − α·dᵀx`), which no
//!   in-place linear sweep reaches directly. The solver runs an outer
//!   secant-free iteration on the scalar `σ`: for a fixed `σ` the system
//!   `x = (α/σ)·T·x + ((1−α)/σ)·t` is linear and Gauss–Seidel solves it;
//!   `σ` is then re-estimated from the normalized iterate. At the joint
//!   fixed point the iterate is exactly the power method's `Renormalize`
//!   solution (and automatically normalized). With no dangling nodes
//!   `σ = 1` and the outer loop degenerates to one inner solve.
//!
//! For a factored operator the row sum gathers from a `rank·inv_denom`
//! buffer that is updated right after each `rank[j]` write, so every row
//! still reads the newest iterate — exact Gauss–Seidel semantics.

use crate::engine::{mass_at, EngineOp, PullTopo};
use crate::kernel::{gather_plain, gather_weighted};
use crate::pagerank::{DanglingPolicy, PageRankConfig, PageRankResult};

/// Upper bound on `σ` re-estimations for [`DanglingPolicy::Renormalize`].
/// `σ` converges geometrically at rate ~`α·dᵀx`, so a handful of rounds
/// suffices; the bound only guards pathological graphs.
const MAX_SIGMA_ROUNDS: usize = 32;

/// Gauss–Seidel solve over the loaded operator. `rank` holds the
/// (normalized) initial iterate and is overwritten with the final scores;
/// `teleport` is the normalized teleport distribution (empty = uniform);
/// `scaled` is scratch for the factored operator's `rank·inv_denom`
/// buffer. Inputs are validated by the caller.
pub(crate) fn solve(
    topo: &PullTopo<'_>,
    op: EngineOp<'_>,
    config: &PageRankConfig,
    rank: &mut [f64],
    teleport: &[f64],
    scaled: &mut Vec<f64>,
) -> PageRankResult {
    scaled.clear();
    if let EngineOp::Factored { inv_denom, .. } = op {
        scaled.extend(rank.iter().zip(inv_denom).map(|(r, d)| r * d));
    }
    let mut sweep = Sweep {
        topo,
        op,
        teleport,
        uniform: 1.0 / rank.len().max(1) as f64,
        rank,
        scaled,
    };
    match config.dangling {
        DanglingPolicy::RedistributeTeleport | DanglingPolicy::SelfLoop => {
            gs_linear(&mut sweep, config)
        }
        DanglingPolicy::Renormalize => gs_renormalize(&mut sweep, config),
    }
}

/// The live state of one solve: operator, teleport and in-place iterate.
struct Sweep<'s, 'a> {
    topo: &'s PullTopo<'a>,
    op: EngineOp<'a>,
    teleport: &'s [f64],
    uniform: f64,
    rank: &'s mut [f64],
    scaled: &'s mut Vec<f64>,
}

impl Sweep<'_, '_> {
    /// One in-place sweep `rank[j] ← base·t[j] + a·Σ_i T(j,i)·rank[i]`;
    /// with `self_loop`, dangling rows solve their diagonal `α·rank[j]`
    /// exactly (`inv_diag = 1/(1−α)`). Returns the L1 change.
    fn run(&mut self, base: f64, a: f64, self_loop: Option<f64>) -> f64 {
        let mut delta = 0.0;
        for j in 0..self.rank.len() {
            let tj = if self.teleport.is_empty() {
                self.uniform
            } else {
                self.teleport[j]
            };
            let (s, e) = self.topo.span(j);
            let srcs = &self.topo.in_sources[s..e];
            // Each row's pull completes before rank[j] is overwritten, so
            // reading the in-place buffers keeps exact Gauss–Seidel
            // semantics.
            let pulled = match self.op {
                EngineOp::Arc(in_probs) => gather_weighted(srcs, &in_probs[s..e], self.rank),
                EngineOp::Factored { numer, .. } => numer[j] * gather_plain(srcs, self.scaled),
            };
            let mut acc = base * tj + a * pulled;
            if let Some(inv_diag) = self_loop {
                if self.topo.dangling_mask[j] {
                    acc *= inv_diag;
                }
            }
            delta += (acc - self.rank[j]).abs();
            self.rank[j] = acc;
            if let EngineOp::Factored { inv_denom, .. } = self.op {
                self.scaled[j] = acc * inv_denom[j];
            }
        }
        delta
    }

    /// Rescale the iterate to unit mass (and the factored buffer with it).
    /// Returns the pre-normalization total.
    fn normalize(&mut self) -> f64 {
        let total: f64 = self.rank.iter().sum();
        if total > 0.0 && total.is_finite() {
            for r in self.rank.iter_mut() {
                *r /= total;
            }
            for s in self.scaled.iter_mut() {
                *s /= total;
            }
        }
        total
    }

    fn result(&self, iterations: usize, residual: f64, converged: bool) -> PageRankResult {
        PageRankResult {
            scores: self.rank.to_vec(),
            iterations,
            residual,
            converged,
        }
    }
}

/// In-place sweeps for the two linear policies.
fn gs_linear(sweep: &mut Sweep<'_, '_>, config: &PageRankConfig) -> PageRankResult {
    let alpha = config.alpha;
    let self_loop = (config.dangling == DanglingPolicy::SelfLoop).then(|| 1.0 / (1.0 - alpha));
    let mut iterations = 0usize;
    let mut residual = f64::INFINITY;

    while iterations < config.max_iterations {
        iterations += 1;
        crate::exec::sim_event("gs.iter", iterations);
        // RedistributeTeleport: dangling mass lags one sweep.
        let coef = if self_loop.is_some() {
            1.0 - alpha
        } else {
            (1.0 - alpha) + alpha * mass_at(sweep.topo.dangling_nodes, sweep.rank)
        };
        residual = sweep.run(coef, alpha, self_loop);
        if residual < config.tolerance {
            break;
        }
    }
    // Lagged dangling mass (and floating error) can drift off unit mass by
    // a tolerance-scale amount; renormalize to the simplex.
    sweep.normalize();
    sweep.result(iterations, residual, residual < config.tolerance)
}

/// Outer `σ` iteration for [`DanglingPolicy::Renormalize`] (see module
/// docs). Each round Gauss–Seidel-solves the linear system implied by the
/// current `σ`, normalizes, and re-estimates `σ` from the dangling mass.
fn gs_renormalize(sweep: &mut Sweep<'_, '_>, config: &PageRankConfig) -> PageRankResult {
    let alpha = config.alpha;
    let mut sigma = 1.0f64;
    let mut iterations = 0usize;
    let mut residual = f64::INFINITY;
    let mut converged = false;

    'outer: for _round in 0..MAX_SIGMA_ROUNDS {
        let mut inner_converged = false;
        let mut prev_delta = f64::INFINITY;
        while iterations < config.max_iterations {
            iterations += 1;
            crate::exec::sim_event("gs.iter", iterations);
            let delta = sweep.run((1.0 - alpha) / sigma, alpha / sigma, None);
            residual = delta;
            if residual < config.tolerance {
                inner_converged = true;
                break;
            }
            // `α/σ` can exceed 1 when dangling nodes hold a large rank
            // share; the sweep still contracts when mass leaks to dangling
            // sinks fast enough, but guard against genuine divergence.
            if !delta.is_finite() || (delta > prev_delta * 4.0 && delta > 1e3) {
                break 'outer;
            }
            prev_delta = delta;
        }
        let total = sweep.normalize();
        if total <= 0.0 || !total.is_finite() {
            break;
        }
        let new_sigma = 1.0 - alpha * mass_at(sweep.topo.dangling_nodes, sweep.rank);
        let shift = (new_sigma - sigma).abs();
        sigma = new_sigma;
        if inner_converged && shift < config.tolerance {
            converged = true;
            break;
        }
        if iterations >= config.max_iterations {
            break;
        }
    }
    sweep.result(iterations, residual, converged)
}
