//! Shared fixtures for the Criterion benchmark suite.
//!
//! Each bench target in `benches/` writes one `BENCH_*.json` perf
//! trajectory (or, with the `smoke` feature, a seconds-scale JSON that
//! `perf_guard` gates in CI). The paper's tables and figures are
//! regenerated by the `repro` binary of `d2pr-experiments`. Fixture
//! generation is deterministic, so every Criterion sample measures
//! identical work.

pub mod perf_guard;

use d2pr_datagen::worlds::{Dataset, World};
use d2pr_graph::csr::CsrGraph;

/// Scale used by the bench suite (relative to the paper's Table 3 sizes).
/// Chosen so a full `cargo bench --workspace` finishes in minutes.
pub const BENCH_SCALE: f64 = 0.02;

/// Seed shared by all bench fixtures.
pub const BENCH_SEED: u64 = 0xBE_5C;

/// Generate the world for one dataset at bench scale.
pub fn bench_world(dataset: Dataset) -> World {
    World::generate(dataset, BENCH_SCALE, BENCH_SEED).expect("bench world generates")
}

/// An unweighted paper graph plus its significance at bench scale.
pub fn bench_graph(graph: d2pr_datagen::worlds::PaperGraph) -> (CsrGraph, Vec<f64>) {
    let world = bench_world(graph.dataset());
    let (g, s) = graph.view(&world);
    (g.to_unweighted(), s.to_vec())
}

/// The host's CPU count as the benches record it (1 when the OS refuses
/// to say). The one source for both the thread-axis cap and the
/// `host_cpus` marker written next to every axis entry.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Worker counts recorded on the bench JSONs' thread axis: powers of two
/// up to the host's parallelism (always including 1), capped at
/// [`host_cpus`] even when a caller requests more — oversubscribed entries
/// would measure scheduler contention, not the solver. Shared by
/// `engine_p_sweep` and `incremental_updates`; [`axis_json`] stamps each
/// entry with the host CPU count so a 1-CPU trajectory and a multi-core
/// re-run stay distinguishable after the fact.
pub fn thread_axis(default: usize) -> Vec<usize> {
    let cap = default.clamp(1, host_cpus());
    let mut axis: Vec<usize> = [1usize, 2, 4, 8, 16]
        .into_iter()
        .filter(|&t| t <= cap)
        .collect();
    if !axis.contains(&cap) {
        axis.push(cap);
    }
    axis.sort_unstable();
    axis
}

/// Milliseconds for one recorded benchmark, using the statistic the
/// current build mode reports: **minimum**-of-samples under the `smoke`
/// feature (the CI perf-guard input — robust against scheduler stalls on
/// shared runners) and the historical **mean** for the committed
/// full-scale trajectory. The one place the policy lives; both bench
/// targets and their axis recorders go through it.
pub fn report_ms(c: &criterion::Criterion, name: &str) -> f64 {
    let d = if cfg!(feature = "smoke") {
        c.min_of(name)
    } else {
        c.mean_of(name)
    };
    d.expect("benchmark was measured").as_secs_f64() * 1e3
}

/// JSON object over the thread axis, one entry per worker count:
/// `{"1": {"ms": 12.30, "host_cpus": 8}, ...}`. The per-entry `host_cpus`
/// marker records the machine the measurement came from, so axis points
/// from hosts with different core counts are never conflated when
/// trajectories are merged across re-runs.
pub fn axis_json(axis: &[usize], ms_of: impl Fn(usize) -> f64) -> String {
    let host = host_cpus();
    let entries: Vec<String> = axis
        .iter()
        .map(|&t| {
            format!(
                "\"{t}\": {{\"ms\": {:.2}, \"host_cpus\": {host}}}",
                ms_of(t)
            )
        })
        .collect();
    format!("{{{}}}", entries.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use d2pr_datagen::worlds::PaperGraph;

    #[test]
    fn thread_axis_caps_at_host_parallelism() {
        let host = host_cpus();
        // A request beyond the host's parallelism is clamped — no
        // oversubscribed axis entries.
        let axis = thread_axis(host * 4);
        assert_eq!(*axis.last().unwrap(), host);
        assert!(axis.contains(&1));
        assert!(axis.windows(2).all(|w| w[0] < w[1]), "sorted, deduplicated");
        // Degenerate requests still yield a usable axis.
        assert_eq!(thread_axis(0), vec![1]);
    }

    #[test]
    fn axis_json_stamps_host_cpus_per_entry() {
        let json = axis_json(&[1, 2], |t| t as f64);
        let host = host_cpus();
        assert_eq!(
            json,
            format!(
                "{{\"1\": {{\"ms\": 1.00, \"host_cpus\": {host}}}, \
                 \"2\": {{\"ms\": 2.00, \"host_cpus\": {host}}}}}"
            )
        );
        // The guard's parser must flatten the new shape.
        let keys = perf_guard::numeric_keys(&format!("{{\"a_ms_by_threads\": {json}}}")).unwrap();
        assert_eq!(keys["a_ms_by_threads.1.ms"], 1.0);
        assert_eq!(keys["a_ms_by_threads.2.host_cpus"], host as f64);
    }

    #[test]
    fn fixtures_generate() {
        let (g, s) = bench_graph(PaperGraph::ImdbActorActor);
        assert!(g.num_nodes() > 0);
        assert_eq!(g.num_nodes(), s.len());
    }
}
