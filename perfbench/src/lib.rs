//! End-to-end and per-layer benchmark of the D2PR serving stack.
//!
//! Each run builds one workload's inputs from a seed, serves a stream of
//! edge batches through `DurableServingEngine` while a reader thread
//! reads, checks the outputs, reopens copies of the store, and runs half
//! of the paper's p-sweep protocol. See `README.md` in this directory for
//! the workload, metric and layer map.

pub mod report;
pub mod rss;
pub mod serve;
pub mod stats;
pub mod sweep;
pub mod trace;

use crate::report::{Ledger, Metrics, Report};
use crate::serve::{copy_dir, dir_bytes, err, ErrorCheck, PhaseStats, StreamPlan, Traced};
use crate::stats::percentile_or_zero;
use crate::trace::{child_ns, self_time_ns};
use d2pr_core::pagerank::PageRankConfig;
use d2pr_core::serving::ServingEngine;
use d2pr_core::transition::TransitionModel;
use d2pr_datagen::evolving::EvolvingRatingsConfig;
use d2pr_experiments::evolving::churn_stream;
use d2pr_experiments::experiments::ExperimentContext;
use d2pr_graph::csr::CsrGraph;
use d2pr_graph::delta::EdgeBatch;
use d2pr_graph::generators::barabasi_albert;
use d2pr_store::{recover_dir, DurableServingEngine, StoreOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Engine threads of the served engine (one writer, one reader and one
/// engine thread fill a 2-CPU host).
pub const SERVE_THREADS: usize = 1;
/// Engine threads of the p-sweep phase and the error check's cold
/// solves. One, not two: on the shared 2-vCPU host the bounds were set
/// on, a two-thread pooled sweep over the paper graphs was slower than
/// one thread and halved in speed whenever a neighbour took one vCPU,
/// while a single thread kept its rate (see README.md).
pub const SWEEP_THREADS: usize = 1;
/// Segments the end-to-end run's stream is cut into. Between each two
/// runs one pass of the sweep phase, and between the first
/// `SETUP_REPS - 1` pairs one more set-up.
pub const SEGMENTS: usize = 4;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Rounds after the stream, each [`REOPENS`] store reopens, one pass of
/// the sweep phase and a share of the error checkpoints. `recovery_s` is
/// the median of the reopens and each graph's sweep time the median of
/// its passes.
pub const ROUNDS: usize = 2;
/// Store reopens per round after the stream.
pub const REOPENS: usize = 3;
/// Generations, evenly spread over the stream, whose published scores
/// are compared with a cold solve (`error_over_bound` is the largest).
pub const CHECKPOINTS: usize = 12;

/// End-to-end metrics (`--trace 0`), with units, in print order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ingest_visible_ms.p50", "ms"),
    ("ingest_visible_ms.p90", "ms"),
    ("reads_per_s", "1/s"),
    ("get_ns.p50", "ns"),
    ("get_ns.p99", "ns"),
    ("topk_ns.p50", "ns"),
    ("topk_ns.p99", "ns"),
    ("recovery_s", "s"),
    ("error_over_bound", "ratio"),
    ("store_bytes", "bytes"),
    ("sweep_solves_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with units, in print order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("datagen.ms", "ms"),
    ("store.durable.ingest.ms.p50", "ms"),
    ("store.durable.ingest.ms.p99", "ms"),
    ("store.durable.ingest.child_share", "ratio"),
    ("serving.visible_lag.ms.p50", "ms"),
    ("serving.visible_lag.ms.p99", "ms"),
    ("store.log.append.ms.p50", "ms"),
    ("store.log.append.ms.p99", "ms"),
    ("store.log.append.count", "count"),
    ("store.log.bytes_per_batch", "bytes"),
    ("store.snapshot.ms.p50", "ms"),
    ("store.snapshot.count", "count"),
    ("store.snapshot.bytes", "bytes"),
    ("store.recover.scan.ms", "ms"),
    ("serving.recovered.ms", "ms"),
    ("store.recover.replayed_batches", "count"),
    ("graph.delta.apply_batch.ms.p50", "ms"),
    ("graph.delta.apply_batch.ms.p99", "ms"),
    ("graph.delta.snapshot.ms.p50", "ms"),
    ("graph.delta.snapshot.ms.p99", "ms"),
    ("graph.delta.overlay_arcs", "count"),
    ("core.engine.patch.ms.p50", "ms"),
    ("core.engine.patch.ms.p99", "ms"),
    ("core.engine.from_state.ms.p50", "ms"),
    ("core.engine.from_state.ms.p99", "ms"),
    ("core.engine.resolve.ms.p50", "ms"),
    ("core.engine.resolve.ms.p99", "ms"),
    ("core.engine.iterations", "count"),
    ("core.residual.pushes", "count"),
    ("core.residual.frontier", "count"),
    ("core.residual.localized_ratio", "ratio"),
    ("core.engine.mode.localized_push", "count"),
    ("core.engine.mode.warm_sweep", "count"),
    ("core.engine.mode.hybrid_push_sweep", "count"),
    ("core.engine.mode.dense_gauss_seidel", "count"),
    ("serving.self.ms.p50", "ms"),
    ("serving.self.ms.p99", "ms"),
    ("serving.touched_nodes", "count"),
    ("self.store.durable.ms", "ms"),
    ("self.store.log.ms", "ms"),
    ("self.graph.delta.ms", "ms"),
    ("self.core.engine.ms", "ms"),
    ("self.store.snapshot.ms", "ms"),
    ("core.engine.sweep.ms.p50", "ms"),
    ("core.engine.sweep.ms.p99", "ms"),
    ("core.engine.sweep.iterations", "count"),
    ("stats.spearman.ms.p50", "ms"),
    ("stats.spearman.ms.p99", "ms"),
    ("trace.overhead.ingest_visible_ms.p50", "ratio"),
    ("trace.overhead.get_ns.p50", "ratio"),
    ("trace.overhead.reads_per_s", "ratio"),
];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Single-edge swaps on an unweighted BA graph; the localized push
    /// path on every refresh; fsync per record, no snapshots. Its sweep
    /// phase is the unweighted half of the paper (α × p).
    TrickleServe,
    /// Thousands of weighted rating changes plus node arrivals and
    /// departures per batch; a warm sweep on every refresh; snapshots on
    /// a cadence. Its sweep phase is the weighted half (β × p).
    BulkChurn,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::TrickleServe, Workload::BulkChurn];

    /// Parse a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TrickleServe => "trickle_serve",
            Workload::BulkChurn => "bulk_churn",
        }
    }
}

/// Input size: `Full` is the benchmark; `Tiny` exercises every code path
/// in a second, for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// Benchmark scale.
    Full,
    /// Test scale.
    Tiny,
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Nominal measuring time; sets the stream length.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Input size.
    pub size: Size,
    /// Working directory for stores and the trace file (created; stores
    /// are removed at the end).
    pub work_dir: PathBuf,
}

/// Everything a workload fixes before a run.
struct Spec {
    model: TransitionModel,
    config: PageRankConfig,
    /// Batches the stream holds (fixed work per `--seconds`).
    batches: usize,
    plan: StreamPlan,
    /// `ExperimentContext` scale of the sweep phase.
    sweep_scale: f64,
    /// Which half of the paper the sweep phase runs.
    sweep_weighted: bool,
}

impl Spec {
    fn new(cfg: &RunConfig) -> Spec {
        let tiny = cfg.size == Size::Tiny;
        let config = PageRankConfig {
            tolerance: 1e-6,
            ..Default::default()
        };
        // Stream length is work, not time: a faster build finishes the
        // same batches sooner, so recovery replays the same tail and the
        // percentiles cover the same batches on every commit.
        let (model, rate, snapshot_every, sweep_weighted): (_, u64, usize, _) = match cfg.workload {
            Workload::TrickleServe => (TransitionModel::DegreeDecoupled { p: 0.5 }, 40, 0, false),
            Workload::BulkChurn => (
                TransitionModel::Blended { p: 0.5, beta: 0.5 },
                8,
                if tiny { 3 } else { 12 },
                true,
            ),
        };
        let batches = (rate * cfg.seconds.max(1)) as usize;
        let batches = if tiny { batches.min(12) } else { batches };
        // Never end on a snapshot, so recovery always replays a tail.
        let batches = if snapshot_every > 0 && batches % snapshot_every == 0 {
            batches + snapshot_every / 2
        } else {
            batches
        };
        let every = |n: usize| ((batches / n).max(1)) as u64;
        Spec {
            model,
            config,
            batches,
            plan: StreamPlan {
                snapshot_every: snapshot_every as u64,
                parity_every: every(20),
                checkpoint_every: every(CHECKPOINTS),
            },
            sweep_scale: if tiny { 0.002 } else { 0.05 },
            sweep_weighted,
        }
    }
}

/// Generate the served graph and its batch stream.
fn make_world(cfg: &RunConfig, batches: usize) -> Result<(CsrGraph, Vec<EdgeBatch>), String> {
    let tiny = cfg.size == Size::Tiny;
    match cfg.workload {
        Workload::TrickleServe => {
            let n = if tiny { 2_000 } else { 100_000 };
            let g = barabasi_albert(n, 5, cfg.seed).map_err(err)?;
            // Churn 0 → the sampler's floor of two mutations per batch:
            // one edge deleted, one inserted.
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x7C1C_4E5E);
            let stream = churn_stream(&g, batches, 0.0, &mut rng).map_err(err)?;
            Ok((g, stream))
        }
        Workload::BulkChurn => {
            let world = if tiny {
                EvolvingRatingsConfig {
                    num_entities: 1_500,
                    num_containers: 500,
                    ratings_per_entity: 5,
                    batches,
                    ratings_per_batch: 60,
                    reratings_per_batch: 60,
                    arrivals_per_batch: 4,
                    departures_per_batch: 2,
                    weighted: true,
                    noise: 0.3,
                    seed: cfg.seed,
                }
            } else {
                EvolvingRatingsConfig {
                    num_entities: 60_000,
                    num_containers: 20_000,
                    ratings_per_entity: 8,
                    batches,
                    ratings_per_batch: 2_000,
                    reratings_per_batch: 2_000,
                    arrivals_per_batch: 40,
                    departures_per_batch: 20,
                    weighted: true,
                    noise: 0.3,
                    seed: cfg.seed,
                }
            }
            .generate()
            .map_err(err)?;
            Ok((world.base, world.batches))
        }
    }
}

/// What set-up hands to the measured part of the run.
struct Setup {
    store: DurableServingEngine,
    /// The served graph as generated (for the mirror and the error
    /// check's replay).
    base: CsrGraph,
    batches: Vec<EdgeBatch>,
    ctx: ExperimentContext,
}

/// One set-up: generate the inputs and create a fresh store in
/// `store-{rep}`. Returns it with its time (input generation plus
/// `DurableServingEngine::create`: cold solve, first snapshot) and the
/// generation part of that time in ms. The copy of the base graph kept
/// for the mirror and the error check is taken outside the timed region.
fn setup(
    cfg: &RunConfig,
    spec: &Spec,
    batches: usize,
    rep: usize,
) -> Result<(Setup, f64, f64), String> {
    let dir = cfg.work_dir.join(format!("store-{rep}"));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(err)?;
    }
    let t0 = Instant::now();
    let (graph, stream) = make_world(cfg, batches)?;
    let ctx = ExperimentContext::new(spec.sweep_scale, cfg.seed).map_err(err)?;
    let generated = t0.elapsed();
    let base = graph.clone();
    let t1 = Instant::now();
    let store = DurableServingEngine::create(
        &dir,
        graph,
        spec.model,
        spec.config,
        SERVE_THREADS,
        StoreOptions {
            snapshot_every: 0,
            ..Default::default()
        },
    )
    .map_err(err)?;
    let created = t1.elapsed();
    let set = Setup {
        store,
        base,
        batches: stream,
        ctx,
    };
    Ok((
        set,
        (generated + created).as_secs_f64(),
        generated.as_secs_f64() * 1e3,
    ))
}

/// A set-up that is timed and thrown away.
fn setup_discarded(
    cfg: &RunConfig,
    spec: &Spec,
    batches: usize,
    rep: usize,
) -> Result<(f64, f64), String> {
    let (set, setup_s, datagen_ms) = setup(cfg, spec, batches, rep)?;
    let dir = set.store.data_dir().to_path_buf();
    drop(set);
    std::fs::remove_dir_all(dir).map_err(err)?;
    Ok((setup_s, datagen_ms))
}

/// Run one workload and return its report.
///
/// # Errors
/// Failures of set-up, I/O, or the benchmark's own instruments. Failed
/// operations of the program under test are counted in the report
/// instead.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    std::fs::create_dir_all(&cfg.work_dir).map_err(err)?;
    let spec = Spec::new(cfg);
    let mut ledger = Ledger::default();
    let metrics = if cfg.trace {
        traced_run(cfg, &spec, &mut ledger)?
    } else {
        end_to_end_run(cfg, &spec, &mut ledger)?
    };
    Ok(Report {
        ledger,
        metrics: metrics.0,
    })
}

/// A safety stop for one stream phase, `share` times that of a whole
/// plain stream: a build several times slower still ends within the
/// run's time limit.
fn deadline(cfg: &RunConfig, share: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64((4 * cfg.seconds.max(1) + 5) as f64 * share)
}

/// The end-to-end run. The stream runs in [`SEGMENTS`] segments with a
/// sweep pass (and, at first, a set-up) between each two; then [`ROUNDS`]
/// rounds each reopen the store [`REOPENS`] times, run a sweep pass and
/// check a share of the error checkpoints. Every timing is thus taken
/// many times, spread over the run, so that a burst of other tenants'
/// work on a shared host moves it only if it covers much of the run.
fn end_to_end_run(cfg: &RunConfig, spec: &Spec, ledger: &mut Ledger) -> Result<Metrics, String> {
    let (set, first_setup_s, _) = setup(cfg, spec, spec.batches, 0)?;
    let mut setup_s = vec![first_setup_s];
    let Setup {
        mut store,
        base,
        batches,
        ctx,
    } = set;
    let store_dir = store.data_dir().to_path_buf();
    let mut checkpoints = Vec::new();
    let mut m = PhaseStats::default();
    let mut passes = Vec::new();
    let per_segment = batches.len().div_ceil(SEGMENTS);
    for (i, segment) in batches.chunks(per_segment).enumerate() {
        if i > 0 {
            if i < SETUP_REPS {
                setup_s.push(setup_discarded(cfg, spec, spec.batches, i)?.0);
            }
            passes.push(sweep::run_pass(
                &ctx,
                spec.sweep_weighted,
                SWEEP_THREADS,
                None,
                ledger,
            )?);
        }
        let phase = serve::stream(
            &mut store,
            segment,
            spec.plan,
            cfg.seed ^ i as u64,
            deadline(cfg, segment.len() as f64 / batches.len() as f64),
            None,
            &mut checkpoints,
            ledger,
        )?;
        // A segment cut short by its safety stop (or a failed ingest)
        // ends the stream: the next segment's batches build on this one's.
        let cut = phase.batches < segment.len();
        m.extend(phase);
        if cut {
            break;
        }
    }
    let acked = store.generation();
    let store_bytes = dir_bytes(&store_dir)?;
    drop(store);

    let t = Instant::now();
    let mut check = ErrorCheck::new(base, &batches, spec.model, spec.config, SWEEP_THREADS)?;
    let mut recovery = Vec::new();
    let mut shares = checkpoints.chunks(checkpoints.len().div_ceil(ROUNDS).max(1));
    for _ in 0..ROUNDS {
        for _ in 0..REOPENS {
            recovery.push(recover_once(cfg, &store_dir, acked, ledger)?);
        }
        passes.push(sweep::run_pass(
            &ctx,
            spec.sweep_weighted,
            SWEEP_THREADS,
            None,
            ledger,
        )?);
        for cp in shares.next().unwrap_or(&[]) {
            check.check(cp, ledger)?;
        }
    }
    std::fs::remove_dir_all(&store_dir).map_err(err)?;
    eprintln!(
        "after the stream: {ROUNDS} rounds ({REOPENS} reopens, sweep pass, error checkpoints) \
         in {:.2} s",
        t.elapsed().as_secs_f64()
    );
    let sweep_rate = sweep::robust_rate(&passes);
    let pass = &passes[0];

    let mut metrics = Metrics::default();
    metrics.push("setup_s", stats::median(&mut setup_s), "s");
    metrics.push("ingest_visible_ms.p50", m.visible(0.5), "ms");
    metrics.push("ingest_visible_ms.p90", m.visible(0.9), "ms");
    metrics.push("reads_per_s", m.reads_per_s(), "1/s");
    for (name, value) in [
        ("get_ns.p50", m.read_metric(|w| w.get_p50, false)),
        ("get_ns.p99", m.read_metric(|w| w.get_p99, false)),
        ("topk_ns.p50", m.read_metric(|w| w.topk_p50, false)),
        ("topk_ns.p99", m.read_metric(|w| w.topk_p99, false)),
    ] {
        metrics.push(name, value, "ns");
    }
    metrics.push("recovery_s", stats::median(&mut recovery), "s");
    metrics.push("error_over_bound", check.worst, "ratio");
    metrics.push("store_bytes", store_bytes as f64, "bytes");
    metrics.push("sweep_solves_per_s", sweep_rate, "1/s");
    metrics.push(
        "peak_rss_mb",
        rss::peak_rss_mb().ok_or("getrusage failed")?,
        "MiB",
    );
    let windows = m.windows.len();
    eprintln!(
        "stream: {} batches in {:.2} s ({SEGMENTS} segments), {} reads; ingest_visible: {} \
         samples ({} beyond p90); reads: {windows} windows of {} ms, fewest get groups in a \
         window {} ({} beyond p99); snapshots {}; {} error checkpoints; sweep pass: {} solves, \
         {} iterations, {} nodes / {} arcs over 8 graphs, {:.1} solves/s over {} passes",
        m.batches,
        m.seconds,
        m.reads,
        m.visible_ms.len(),
        stats::samples_beyond(m.visible_ms.len(), 0.9),
        serve::WINDOW.as_millis(),
        m.min_window_samples(),
        stats::samples_beyond(m.min_window_samples(), 0.99),
        m.snapshot_ms.len(),
        checkpoints.len(),
        pass.solves,
        pass.iterations,
        pass.nodes,
        pass.arcs,
        sweep_rate,
        passes.len(),
    );
    Ok(metrics)
}

/// The traced run: set-ups, a traced sweep pass, a traced stream phase
/// with the mirror, an untraced phase for the overhead comparison, and
/// recovery split by layer.
fn traced_run(cfg: &RunConfig, spec: &Spec, ledger: &mut Ledger) -> Result<Metrics, String> {
    // The untraced phase is half the traced one's length, to keep a
    // traced run inside the time limit.
    let total = spec.batches + spec.batches / 2;
    let (set, _, first_datagen_ms) = setup(cfg, spec, total, 0)?;
    let mut datagen_ms = vec![first_datagen_ms];
    for rep in 1..SETUP_REPS {
        datagen_ms.push(setup_discarded(cfg, spec, total, rep)?.1);
    }
    let Setup {
        mut store,
        base,
        batches,
        ctx,
    } = set;
    let mut sweep_tracer = trace::Tracer::new();
    let pass = sweep::run_pass(
        &ctx,
        spec.sweep_weighted,
        SWEEP_THREADS,
        Some(&mut sweep_tracer),
        ledger,
    )?;
    drop(ctx);
    let store_dir = store.data_dir().to_path_buf();
    let sidecar = cfg.work_dir.join("sidecar");
    let mut t = Traced::new(base, spec.model, spec.config, &sidecar, store.generation())?;
    let plan = StreamPlan {
        checkpoint_every: 0,
        ..spec.plan
    };
    // The mirror replay roughly doubles a batch's cost, so the traced
    // phase's safety stop is twice a plain phase's.
    let traced = serve::stream(
        &mut store,
        &batches[..spec.batches],
        plan,
        cfg.seed,
        deadline(cfg, 2.0),
        Some(&mut t),
        &mut Vec::new(),
        ledger,
    )?;
    // The untraced phase continues from the last batch ingested.
    let done = traced.batches;
    let plain = serve::stream(
        &mut store,
        &batches[done..done + spec.batches / 2],
        plan,
        cfg.seed ^ 1,
        deadline(cfg, 0.5),
        None,
        &mut Vec::new(),
        ledger,
    )?;
    let acked = store.generation();
    drop(store);
    let recovery = recover_layers(cfg, &store_dir, acked, ledger)?;
    std::fs::remove_dir_all(&store_dir).map_err(err)?;
    let mut metrics = Metrics::default();
    per_layer_metrics(
        &mut metrics,
        &t,
        &traced,
        &plain,
        recovery,
        (&sweep_tracer, &pass),
        stats::median(&mut datagen_ms),
    );
    t.tracer
        .write_jsonl(&cfg.work_dir.join(format!(
            "trace-{}-seed{}.jsonl",
            cfg.workload.name(),
            cfg.seed
        )))
        .map_err(err)?;
    std::fs::remove_dir_all(sidecar).map_err(err)?;
    Ok(metrics)
}

/// Wall time of one cold `DurableServingEngine::open` on a fresh copy of
/// the store, so every reopen replays the same tail. It must land on the
/// last acknowledged generation.
fn recover_once(
    cfg: &RunConfig,
    store: &Path,
    acked: u64,
    ledger: &mut Ledger,
) -> Result<f64, String> {
    let copy = cfg.work_dir.join("recover");
    copy_dir(store, &copy)?;
    let t = Instant::now();
    let opened = DurableServingEngine::open(&copy, SERVE_THREADS, StoreOptions::default());
    let seconds = t.elapsed().as_secs_f64();
    let ok = match &opened {
        Ok((engine, report)) => ledger.check(
            "recovery.generation",
            engine.generation() == acked && report.recovered_generation == acked,
            || {
                format!(
                    "recovered {} but {acked} was acknowledged",
                    engine.generation()
                )
            },
        ),
        Err(e) => ledger.check("recovery.open", false, || e.to_string()),
    };
    ledger.op("recovery", ok);
    drop(opened);
    std::fs::remove_dir_all(&copy).map_err(err)?;
    Ok(seconds)
}

/// Recovery split into its two public calls, on one fresh store copy.
struct RecoveryLayers {
    scan_ms: f64,
    recovered_ms: f64,
    replayed: usize,
}

fn recover_layers(
    cfg: &RunConfig,
    store: &Path,
    acked: u64,
    ledger: &mut Ledger,
) -> Result<RecoveryLayers, String> {
    let copy = cfg.work_dir.join("recover-traced");
    copy_dir(store, &copy)?;
    let t = Instant::now();
    let state = recover_dir(&copy).map_err(err)?;
    let scan_ms = t.elapsed().as_secs_f64() * 1e3;
    let durable = state.durable_generation();
    let t = Instant::now();
    let (engine, outcome) =
        ServingEngine::recovered(state.parts, state.model, state.config, SERVE_THREADS)
            .map_err(err)?;
    let recovered_ms = t.elapsed().as_secs_f64() * 1e3;
    let ok = ledger.check(
        "recovery.generation",
        durable == acked && outcome.generation == acked && engine.generation() == acked,
        || {
            format!(
                "recovered {} but {acked} was acknowledged",
                outcome.generation
            )
        },
    );
    ledger.op("recovery", ok);
    drop(engine);
    std::fs::remove_dir_all(&copy).map_err(err)?;
    Ok(RecoveryLayers {
        scan_ms,
        recovered_ms,
        replayed: outcome.replayed_batches,
    })
}

/// Fill the per-layer metrics from the traced phase, the untraced phase
/// that followed it, the split recovery and the traced sweep pass.
fn per_layer_metrics(
    m: &mut Metrics,
    t: &Traced,
    traced: &PhaseStats,
    plain: &PhaseStats,
    recovery: RecoveryLayers,
    (sweep_tracer, pass): (&trace::Tracer, &sweep::SweepStats),
    datagen_ms: f64,
) {
    let spans = t.tracer.spans();
    let p = |m: &mut Metrics, name: &str, mut v: Vec<f64>| {
        m.push(format!("{name}.p50"), percentile_or_zero(&mut v, 0.5), "ms");
        m.push(
            format!("{name}.p99"),
            percentile_or_zero(&mut v, 0.99),
            "ms",
        );
    };
    m.push("datagen.ms", datagen_ms, "ms");
    p(
        m,
        "store.durable.ingest.ms",
        t.tracer.durations_ms("store.durable.ingest.ms"),
    );
    let root_ns: u64 = t.roots.iter().map(|&r| spans[r].duration_ns()).sum();
    let child: u64 = t.roots.iter().map(|&r| child_ns(spans, r)).sum();
    m.push(
        "store.durable.ingest.child_share",
        if root_ns == 0 {
            0.0
        } else {
            child as f64 / root_ns as f64
        },
        "ratio",
    );
    p(m, "serving.visible_lag.ms", traced.lag_ms.clone());
    let log = t.tracer.durations_ms("store.log.append.ms");
    let log_count = log.len();
    p(m, "store.log.append.ms", log);
    m.push("store.log.append.count", log_count as f64, "count");
    m.push(
        "store.log.bytes_per_batch",
        stats::mean(&t.log_bytes),
        "bytes",
    );
    let mut snaps = t.tracer.durations_ms("store.snapshot.ms");
    m.push(
        "store.snapshot.ms.p50",
        percentile_or_zero(&mut snaps, 0.5),
        "ms",
    );
    m.push("store.snapshot.count", snaps.len() as f64, "count");
    m.push(
        "store.snapshot.bytes",
        stats::mean(&t.snapshot_bytes),
        "bytes",
    );
    m.push("store.recover.scan.ms", recovery.scan_ms, "ms");
    m.push("serving.recovered.ms", recovery.recovered_ms, "ms");
    m.push(
        "store.recover.replayed_batches",
        recovery.replayed as f64,
        "count",
    );
    p(
        m,
        "graph.delta.apply_batch.ms",
        t.tracer.durations_ms("graph.delta.apply_batch.ms"),
    );
    p(
        m,
        "graph.delta.snapshot.ms",
        t.tracer.durations_ms("graph.delta.snapshot.ms"),
    );
    m.push("graph.delta.overlay_arcs", stats::mean(&t.overlay), "count");
    p(
        m,
        "core.engine.patch.ms",
        t.tracer.durations_ms("core.engine.patch.ms"),
    );
    p(
        m,
        "core.engine.from_state.ms",
        t.tracer.durations_ms("core.engine.from_state.ms"),
    );
    p(
        m,
        "core.engine.resolve.ms",
        t.tracer.durations_ms("core.engine.resolve.ms"),
    );
    m.push(
        "core.engine.iterations",
        stats::mean(&t.iterations),
        "count",
    );
    m.push("core.residual.pushes", stats::mean(&t.pushes), "count");
    m.push("core.residual.frontier", stats::mean(&t.frontier), "count");
    let refreshes = t.modes.iter().sum::<u64>().max(1) as f64;
    m.push(
        "core.residual.localized_ratio",
        t.modes[0] as f64 / refreshes,
        "ratio",
    );
    m.push(
        "core.engine.mode.localized_push",
        t.modes[0] as f64,
        "count",
    );
    m.push("core.engine.mode.warm_sweep", t.modes[1] as f64, "count");
    m.push(
        "core.engine.mode.hybrid_push_sweep",
        t.modes[2] as f64,
        "count",
    );
    m.push(
        "core.engine.mode.dense_gauss_seidel",
        t.modes[3] as f64,
        "count",
    );
    let self_ms: Vec<f64> = t
        .roots
        .iter()
        .map(|&r| self_time_ns(spans, r) as f64 / 1e6)
        .collect();
    p(m, "serving.self.ms", self_ms.clone());
    m.push("serving.touched_nodes", stats::mean(&t.touched), "count");
    // Mean self time per ingested batch of each layer's spans. Only the
    // ingest root has children; every other span is a leaf whose self
    // time is its duration.
    let batches = t.roots.len().max(1) as f64;
    let layer = |prefix: &str| {
        spans
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .map(|s| self_time_ns(spans, s.id) as f64 / 1e6)
            .sum::<f64>()
            / batches
    };
    m.push("self.store.durable.ms", stats::mean(&self_ms), "ms");
    m.push("self.store.log.ms", layer("store.log."), "ms");
    m.push("self.graph.delta.ms", layer("graph.delta."), "ms");
    m.push("self.core.engine.ms", layer("core.engine."), "ms");
    m.push("self.store.snapshot.ms", layer("store.snapshot."), "ms");
    p(
        m,
        "core.engine.sweep.ms",
        sweep_tracer.durations_ms("core.engine.sweep.ms"),
    );
    m.push(
        "core.engine.sweep.iterations",
        pass.iterations as f64,
        "count",
    );
    p(
        m,
        "stats.spearman.ms",
        sweep_tracer.durations_ms("stats.spearman.ms"),
    );
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    m.push(
        "trace.overhead.ingest_visible_ms.p50",
        ratio(traced.visible(0.5), plain.visible(0.5)),
        "ratio",
    );
    let get_p50 = |p: &PhaseStats| p.read_metric(|w| w.get_p50, false);
    m.push(
        "trace.overhead.get_ns.p50",
        ratio(get_p50(traced), get_p50(plain)),
        "ratio",
    );
    m.push(
        "trace.overhead.reads_per_s",
        ratio(traced.reads_per_s(), plain.reads_per_s()),
        "ratio",
    );
}
