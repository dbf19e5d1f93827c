//! The serving stream: one closed-loop durable writer, one closed-loop
//! reader thread, and (in the traced run) a mirror that replays each
//! batch through the public graph, engine and log calls to time them.

use crate::report::Ledger;
use crate::stats;
use crate::trace::Tracer;
use d2pr_core::engine::{Engine, EngineState, ResolveMode, TouchedSet};
use d2pr_core::pagerank::PageRankConfig;
use d2pr_core::serving::ScoreReader;
use d2pr_core::transition::TransitionModel;
use d2pr_graph::csr::CsrGraph;
use d2pr_graph::delta::{DeltaGraph, EdgeBatch};
use d2pr_graph::transpose::CscStructure;
use d2pr_store::codec::LogRecord;
use d2pr_store::log::LogWriter;
use d2pr_store::DurableServingEngine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Display;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Ranked reads ask for this many entries (inside the maintained index
/// capacity, so `top_k` is the `O(k)` copy).
pub const TOP_K: usize = 100;

/// Error text of any failing call.
pub fn err<E: Display>(e: E) -> String {
    e.to_string()
}

/// What the writer does with the stream besides ingesting it.
#[derive(Debug, Clone, Copy)]
pub struct StreamPlan {
    /// `snapshot_now` after every this many generations (0 = never).
    pub snapshot_every: u64,
    /// Generations between top-k parity checks.
    pub parity_every: u64,
    /// Generations between error checkpoints (0 = none).
    pub checkpoint_every: u64,
}

/// Published state captured between two batches, for the error check
/// run after the stream (which rebuilds the generation's graph by
/// replaying the batches, so the capture holds no graph).
pub struct Checkpoint {
    /// Generation the capture belongs to.
    pub generation: u64,
    /// Published scores (external order, tombstones masked).
    pub scores: Vec<f64>,
    /// Tombstoned node ids, ascending.
    pub removed: Vec<u32>,
}

/// User-visible numbers of one stream phase (or several, see
/// [`PhaseStats::extend`]).
#[derive(Debug, Default)]
pub struct PhaseStats {
    /// `ingest` call → first reader observation, per batch in stream
    /// order (ms).
    pub visible_ms: Vec<f64>,
    /// `ingest` return → first reader observation, floored at 0 (ms).
    pub lag_ms: Vec<f64>,
    /// The reader's numbers per [`WINDOW`] of the phase.
    pub windows: Vec<ReadWindow>,
    /// Reads the reader completed.
    pub reads: u64,
    /// Wall time of the phase (s).
    pub seconds: f64,
    /// Batches ingested.
    pub batches: usize,
    /// `snapshot_now` durations (ms).
    pub snapshot_ms: Vec<f64>,
}

impl PhaseStats {
    /// Append a later phase's numbers.
    pub fn extend(&mut self, later: PhaseStats) {
        self.visible_ms.extend(later.visible_ms);
        self.lag_ms.extend(later.lag_ms);
        self.windows.extend(later.windows);
        self.reads += later.reads;
        self.seconds += later.seconds;
        self.batches += later.batches;
        self.snapshot_ms.extend(later.snapshot_ms);
    }

    /// A reader number over the phase: the value of the window
    /// [`WINDOW_SHARE`] of the way from the best window to the worst.
    pub fn read_metric(&self, value: impl Fn(&ReadWindow) -> f64, higher_is_better: bool) -> f64 {
        let mut v: Vec<f64> = self.windows.iter().map(value).collect();
        stats::from_best(&mut v, WINDOW_SHARE, higher_is_better)
    }

    /// Reads per second over the phase (see [`PhaseStats::read_metric`]).
    pub fn reads_per_s(&self) -> f64 {
        self.read_metric(|w| w.reads_per_s, true)
    }

    /// Percentile `q` (nearest rank) of `ingest` → visible over the
    /// phase's batches.
    pub fn visible(&self, q: f64) -> f64 {
        stats::percentile_or_zero(&mut self.visible_ms.clone(), q)
    }

    /// Fewest samples any window's `get` percentiles rest on.
    pub fn min_window_samples(&self) -> usize {
        self.windows.iter().map(|w| w.samples).min().unwrap_or(0)
    }
}

/// Length of the windows the reader's numbers are taken over.
pub const WINDOW: Duration = Duration::from_millis(250);

/// Where among a phase's windows, sorted from best to worst, its reader
/// numbers are read. Not the median: on a shared host another tenant's memory
/// traffic can double the tail latencies of every window for stretches
/// of ten seconds and more, so the median window moves with the share of
/// the phase the host spent slow, while the faster third of the windows
/// repeats from run to run (see README.md).
pub const WINDOW_SHARE: f64 = 1.0 / 3.0;

/// The reader's numbers over one [`WINDOW`].
#[derive(Debug, Clone, Copy)]
pub struct ReadWindow {
    /// Reads (`get` + `top_k`) completed per second.
    pub reads_per_s: f64,
    /// Point-read latency percentiles: a sample is one timed group of
    /// [`GETS_PER_ROUND`] reads divided by the group size (ns).
    pub get_p50: f64,
    /// See `get_p50`.
    pub get_p99: f64,
    /// Ranked-read latency percentiles, one `top_k` call per sample (ns).
    pub topk_p50: f64,
    /// See `topk_p50`.
    pub topk_p99: f64,
    /// Samples of each latency in the window.
    pub samples: usize,
}

/// Longest latency a [`Histogram`] tells apart (ns); longer samples
/// count in its last bucket.
const HIST_NS: usize = 1 << 16;

/// Latency samples of one window, one bucket per nanosecond (the
/// clock's resolution), so that every read can be recorded.
struct Histogram(Vec<u32>);

impl Histogram {
    fn new() -> Self {
        Self(vec![0; HIST_NS])
    }

    fn add(&mut self, ns: u128) {
        self.0[(ns as usize).min(HIST_NS - 1)] += 1;
    }

    fn samples(&self) -> u64 {
        self.0.iter().map(|&c| u64::from(c)).sum()
    }

    fn clear(&mut self) {
        self.0.fill(0);
    }
}

impl ReadWindow {
    /// Summarize one window. `get_groups` holds the total time of each
    /// timed group of [`GETS_PER_ROUND`] point reads.
    fn new(reads: u64, seconds: f64, get_groups: &Histogram, topk: &Histogram) -> Self {
        let per_get = 1.0 / GETS_PER_ROUND as f64;
        Self {
            reads_per_s: reads as f64 / seconds,
            get_p50: stats::hist_percentile(&get_groups.0, 0.5) * per_get,
            get_p99: stats::hist_percentile(&get_groups.0, 0.99) * per_get,
            topk_p50: stats::hist_percentile(&topk.0, 0.5),
            topk_p99: stats::hist_percentile(&topk.0, 0.99),
            samples: get_groups.samples() as usize,
        }
    }
}

/// The traced run's instruments: the span recorder, the mirror, and the
/// sidecar log. Per-refresh counters are collected alongside the spans.
pub struct Traced {
    /// Span recorder.
    pub tracer: Tracer,
    mirror: Mirror,
    sidecar: LogWriter,
    /// Sidecar log bytes written per batch.
    pub log_bytes: Vec<f64>,
    /// Snapshot file bytes per `snapshot_now`.
    pub snapshot_bytes: Vec<f64>,
    /// Overlay entries after each mirrored `apply_batch`.
    pub overlay: Vec<f64>,
    /// Residual pushes per mirrored refresh.
    pub pushes: Vec<f64>,
    /// Frontier rows per mirrored refresh.
    pub frontier: Vec<f64>,
    /// Solver iterations per mirrored refresh.
    pub iterations: Vec<f64>,
    /// Nodes the refresh may have moved (all nodes for sweeps).
    pub touched: Vec<f64>,
    /// Refresh-mode counts: localized push, warm sweep, hybrid, dense.
    pub modes: [u64; 4],
    /// Root span id of each mirrored generation's durable ingest.
    pub roots: Vec<usize>,
    prev: Vec<f64>,
    published: Vec<f64>,
}

/// A second delta graph and engine state fed the same batches as the
/// served engine, warm-started from the published scores.
struct Mirror {
    dg: DeltaGraph,
    state: Option<EngineState>,
    out: Vec<f64>,
    touched: TouchedSet,
}

impl Traced {
    /// Build the mirror over `base` (the graph the served engine started
    /// from) and a sidecar log under `sidecar_dir` starting at
    /// `generation`.
    ///
    /// # Errors
    /// Construction or I/O failures.
    pub fn new(
        base: CsrGraph,
        model: TransitionModel,
        config: PageRankConfig,
        sidecar_dir: &Path,
        generation: u64,
    ) -> Result<Self, String> {
        let dg = DeltaGraph::new(base).map_err(err)?;
        let snap = dg.snapshot();
        let mut engine = Engine::with_structure(&snap, Arc::new(CscStructure::build(&snap)), 1)
            .map_err(err)?
            .with_config(config)
            .map_err(err)?;
        engine.set_model(model).map_err(err)?;
        let state = engine.into_state();
        if sidecar_dir.exists() {
            std::fs::remove_dir_all(sidecar_dir).map_err(err)?;
        }
        std::fs::create_dir_all(sidecar_dir).map_err(err)?;
        Ok(Self {
            tracer: Tracer::new(),
            mirror: Mirror {
                dg,
                state: Some(state),
                out: Vec::new(),
                touched: TouchedSet::new(),
            },
            sidecar: LogWriter::create(sidecar_dir, generation, 0).map_err(err)?,
            log_bytes: Vec::new(),
            snapshot_bytes: Vec::new(),
            overlay: Vec::new(),
            pushes: Vec::new(),
            frontier: Vec::new(),
            iterations: Vec::new(),
            touched: Vec::new(),
            modes: [0; 4],
            roots: Vec::new(),
            prev: Vec::new(),
            published: Vec::new(),
        })
    }

    /// Replay generation `g`'s batch: sidecar append, then the mirror's
    /// apply → snapshot → patch → revive → resolve, each a child span of
    /// `root`. Returns whether the mirror's scores equal the published
    /// generation on every non-tombstoned node.
    fn replay(
        &mut self,
        root: usize,
        g: u64,
        batch: &EdgeBatch,
        reader: &ScoreReader,
        removed: &[u32],
        ledger: &mut Ledger,
    ) -> Result<bool, String> {
        let Self {
            tracer,
            mirror,
            sidecar,
            ..
        } = self;
        let before = std::fs::metadata(sidecar.path()).map_err(err)?.len();
        tracer
            .time("store.log.append.ms", Some(root), g, || {
                sidecar.append(&LogRecord::from_batch(g, batch))
            })
            .map_err(err)?;
        let after = std::fs::metadata(sidecar.path()).map_err(err)?.len();
        self.log_bytes.push((after - before) as f64);

        let applied = tracer
            .time("graph.delta.apply_batch.ms", Some(root), g, || {
                mirror.dg.apply_batch(batch)
            })
            .map_err(err)?;
        self.overlay.push(mirror.dg.overlay_len() as f64);
        let snap = tracer.time("graph.delta.snapshot.ms", Some(root), g, || {
            mirror.dg.snapshot()
        });
        let state = mirror.state.take().ok_or("mirror state lost")?;
        let state = tracer
            .time("core.engine.patch.ms", Some(root), g, || {
                state.patched(&snap, &applied.delta)
            })
            .map_err(err)?;
        let mut engine = tracer
            .time("core.engine.from_state.ms", Some(root), g, || {
                Engine::from_state(&snap, state)
            })
            .map_err(err)?;
        let prev = &self.prev;
        let inc = tracer
            .time("core.engine.resolve.ms", Some(root), g, || {
                engine.resolve_incremental_tracked(
                    prev,
                    None,
                    &applied.delta,
                    &mut mirror.out,
                    &mut mirror.touched,
                )
            })
            .map_err(err)?;
        mirror.state = Some(engine.into_state());

        self.pushes.push(inc.pushes as f64);
        self.frontier.push(inc.frontier as f64);
        self.iterations.push(inc.result.iterations as f64);
        self.touched.push(if mirror.touched.all {
            mirror.out.len() as f64
        } else {
            mirror.touched.nodes.len() as f64
        });
        self.modes[match inc.mode {
            ResolveMode::LocalizedPush => 0,
            ResolveMode::WarmSweep => 1,
            ResolveMode::HybridPushSweep => 2,
            ResolveMode::DenseGaussSeidel => 3,
        }] += 1;
        self.roots.push(root);

        let generation = reader.snapshot_into(&mut self.published);
        let out = &mirror.out;
        let published = &self.published;
        let mismatch = (0..out.len().max(published.len())).find(|&i| {
            removed.binary_search(&(i as u32)).is_err() && out.get(i) != published.get(i)
        });
        Ok(ledger.check(
            "mirror.parity",
            generation == g && mismatch.is_none(),
            || format!("generation {g} (published {generation}): first mismatch at {mismatch:?}"),
        ))
    }
}

/// Reads issued per timed group; a round is this many point reads and
/// one ranked read, so the mix is 90% `get` and 10% `top_k`.
pub const GETS_PER_ROUND: usize = 9;

/// What the reader thread saw.
struct ReaderOut {
    observed: Vec<(u64, Instant)>,
    windows: Vec<ReadWindow>,
    gets: u64,
    get_failed: u64,
    topks: u64,
    topk_failed: u64,
}

/// Closed-loop reader: rounds of [`GETS_PER_ROUND`] point reads at
/// uniform random ids plus one `top_k(TOP_K)`, until `stop`. Every
/// round first polls the published generation and stamps each newly
/// visible one after `seen`'s initial value (read before the writer
/// starts, so no generation slips past unstamped). Every round is timed
/// into the current [`WINDOW`]'s histograms; a window is summarized when
/// it closes, and the last, partial window is kept only when no full one
/// closed.
fn read_loop(reader: &ScoreReader, seed: u64, stop: &AtomicBool, seen: &AtomicU64) -> ReaderOut {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = ReaderOut {
        observed: Vec::new(),
        windows: Vec::new(),
        gets: 0,
        get_failed: 0,
        topks: 0,
        topk_failed: 0,
    };
    let mut last = seen.load(Relaxed);
    let mut ids = [0u32; GETS_PER_ROUND];
    let (mut get_groups, mut topk) = (Histogram::new(), Histogram::new());
    let mut window_reads = 0u64;
    let mut window_start = Instant::now();
    while !stop.load(Relaxed) {
        let g = reader.generation();
        if g != last {
            let now = Instant::now();
            out.observed.extend((last + 1..=g).map(|gen| (gen, now)));
            last = g;
            seen.store(g, Relaxed);
        }
        // Ids only grow (removals are tombstones), so every id below the
        // length read here stays in range for every later generation.
        let len = reader.len() as u32;
        for id in &mut ids {
            *id = rng.gen_range(0..len);
        }
        let t = Instant::now();
        let mut found = 0u64;
        let mut sum = 0.0;
        for &id in &ids {
            if let Some(s) = reader.get(id) {
                found += 1;
                sum += s;
            }
        }
        let get_elapsed = t.elapsed();
        std::hint::black_box(sum);
        let t = Instant::now();
        let top = reader.top_k(TOP_K);
        let topk_elapsed = t.elapsed();
        let ranked =
            top.len() == TOP_K.min(len as usize) && top.windows(2).all(|w| w[0].1 >= w[1].1);
        std::hint::black_box(&top);
        out.gets += GETS_PER_ROUND as u64;
        out.get_failed += GETS_PER_ROUND as u64 - found;
        out.topks += 1;
        out.topk_failed += u64::from(!ranked);
        window_reads += GETS_PER_ROUND as u64 + 1;
        get_groups.add(get_elapsed.as_nanos());
        topk.add(topk_elapsed.as_nanos());
        let span = topk_elapsed + t.duration_since(window_start);
        if span >= WINDOW {
            let seconds = span.as_secs_f64();
            out.windows
                .push(ReadWindow::new(window_reads, seconds, &get_groups, &topk));
            get_groups.clear();
            topk.clear();
            window_reads = 0;
            window_start = Instant::now();
        }
    }
    if out.windows.is_empty() && window_reads > 0 {
        let seconds = window_start.elapsed().as_secs_f64();
        out.windows
            .push(ReadWindow::new(window_reads, seconds, &get_groups, &topk));
    }
    out
}

/// Stream `batches` through `store` with one reader thread running,
/// until the batches run out or `deadline` passes. Between batches the
/// writer runs the plan's snapshot cadence, top-k parity checks and
/// error captures, and (when `traced`) the mirror replay; none of them
/// overlaps a timed ingest.
///
/// # Errors
/// I/O and construction failures of the benchmark's own instruments;
/// ingest failures are counted in `ledger` and end the stream.
#[allow(clippy::too_many_arguments)]
pub fn stream(
    store: &mut DurableServingEngine,
    batches: &[EdgeBatch],
    plan: StreamPlan,
    seed: u64,
    deadline: Instant,
    mut traced: Option<&mut Traced>,
    checkpoints: &mut Vec<Checkpoint>,
    ledger: &mut Ledger,
) -> Result<PhaseStats, String> {
    let reader = store.reader();
    let stop = AtomicBool::new(false);
    let seen = AtomicU64::new(reader.generation());
    let start = Instant::now();
    let mut calls = Vec::with_capacity(batches.len());
    let mut stats = PhaseStats::default();
    let result = std::thread::scope(|s| {
        let handle = s.spawn(|| read_loop(&reader, seed, &stop, &seen));
        let writer = (|| -> Result<(), String> {
            for batch in batches {
                if Instant::now() >= deadline {
                    break;
                }
                if let Some(t) = traced.as_deref_mut() {
                    reader.snapshot_into(&mut t.prev);
                }
                let g = store.generation() + 1;
                let called = Instant::now();
                let outcome = store.ingest(batch);
                let returned = Instant::now();
                let mut ok = ledger.check("ingest.ok", outcome.is_ok(), || {
                    format!("generation {g}: {:?}", outcome.as_ref().err())
                });
                if !ok {
                    ledger.op("ingest", false);
                    break;
                }
                calls.push((g, called, returned));
                if let Some(t) = traced.as_deref_mut() {
                    let root =
                        t.tracer
                            .record("store.durable.ingest.ms", called, returned, None, g);
                    let removed = store.engine().removed_nodes();
                    ok &= t.replay(root, g, batch, &reader, &removed, ledger)?;
                }
                if plan.snapshot_every > 0 && g.is_multiple_of(plan.snapshot_every) {
                    let t0 = Instant::now();
                    let snap = store.snapshot_now();
                    let t1 = Instant::now();
                    let snapped = ledger.check("snapshot.ok", snap.is_ok(), || {
                        format!("generation {g}: {:?}", snap.as_ref().err())
                    });
                    ledger.op("snapshot", snapped);
                    stats.snapshot_ms.push((t1 - t0).as_secs_f64() * 1e3);
                    if let Some(t) = traced.as_deref_mut() {
                        t.tracer.record("store.snapshot.ms", t0, t1, None, g);
                        let path = store.data_dir().join(format!("snap-{g:020}.bin"));
                        let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
                        t.snapshot_bytes.push(bytes as f64);
                    }
                }
                if g.is_multiple_of(plan.parity_every) {
                    let index = reader.top_k(TOP_K);
                    let scan = reader.top_k_scan(TOP_K);
                    ok &= ledger.check("topk.parity", index == scan, || {
                        format!("generation {g}: index and scan disagree")
                    });
                }
                if plan.checkpoint_every > 0 && g.is_multiple_of(plan.checkpoint_every) {
                    let mut scores = Vec::new();
                    reader.snapshot_into(&mut scores);
                    checkpoints.push(Checkpoint {
                        generation: g,
                        scores,
                        removed: store.engine().removed_nodes(),
                    });
                }
                ledger.op("ingest", ok);
            }
            Ok(())
        })();
        // Let the reader observe the last generation before it stops.
        let last = store.generation();
        let wait = Instant::now();
        while seen.load(Relaxed) < last && wait.elapsed() < Duration::from_secs(2) {
            std::thread::yield_now();
        }
        stats.seconds = start.elapsed().as_secs_f64();
        stop.store(true, Relaxed);
        let out = handle
            .join()
            .map_err(|_| "reader thread panicked".to_string());
        writer.and(out)
    })?;
    ledger.ops("read.get", result.gets, result.get_failed);
    ledger.ops("read.top_k", result.topks, result.topk_failed);
    stats.reads = result.gets + result.topks;
    stats.windows = result.windows;
    stats.batches = calls.len();
    let observed: std::collections::HashMap<u64, Instant> = result.observed.into_iter().collect();
    let mut unseen = 0;
    for &(g, called, returned) in &calls {
        match observed.get(&g) {
            Some(&at) => {
                stats.visible_ms.push((at - called).as_secs_f64() * 1e3);
                stats
                    .lag_ms
                    .push(at.saturating_duration_since(returned).as_secs_f64() * 1e3);
            }
            None => unseen += 1,
        }
    }
    ledger.checks("reader.observed_generation", calls.len() as u64, unseen);
    Ok(stats)
}

/// The error check: the largest L1 distance, over checkpoints, between
/// the published scores and a cold solve of the same graph at 1e-13, on
/// the nodes that are not tombstoned, divided by the serving contract
/// `tol / (1 − α)`. Each checkpoint's graph is the base graph with the
/// stream's batches up to its generation applied (the stream starts at
/// generation 0); checkpoints are fed in generation order, one call each,
/// so the check can be spread over the rest of a run.
pub struct ErrorCheck<'a> {
    dg: DeltaGraph,
    batches: &'a [EdgeBatch],
    applied: usize,
    model: TransitionModel,
    cold: PageRankConfig,
    bound: f64,
    threads: usize,
    /// Largest L1 ÷ bound over the checkpoints checked so far.
    pub worst: f64,
}

impl<'a> ErrorCheck<'a> {
    /// Start the check over `base` and the stream `batches`.
    ///
    /// # Errors
    /// Graph construction failures.
    pub fn new(
        base: CsrGraph,
        batches: &'a [EdgeBatch],
        model: TransitionModel,
        config: PageRankConfig,
        threads: usize,
    ) -> Result<Self, String> {
        Ok(Self {
            dg: DeltaGraph::new(base).map_err(err)?,
            batches,
            applied: 0,
            model,
            cold: PageRankConfig {
                tolerance: 1e-13,
                max_iterations: 10_000,
                ..config
            },
            bound: config.tolerance / (1.0 - config.alpha),
            threads,
            worst: 0.0,
        })
    }

    /// Check one checkpoint (later than every one checked before).
    ///
    /// # Errors
    /// Graph replay or solver failures.
    pub fn check(&mut self, cp: &Checkpoint, ledger: &mut Ledger) -> Result<(), String> {
        for batch in &self.batches[self.applied..cp.generation as usize] {
            self.dg.apply_batch(batch).map_err(err)?;
        }
        self.applied = cp.generation as usize;
        let graph = self.dg.snapshot();
        let mut engine = Engine::with_threads(&graph, self.threads)
            .with_config(self.cold)
            .map_err(err)?;
        engine.set_model(self.model).map_err(err)?;
        let r = engine.solve().map_err(err)?;
        let ok = ledger.check("cold_solve.converged", r.converged, || {
            format!("generation {} residual {}", cp.generation, r.residual)
        });
        ledger.op("error_checkpoint", ok);
        let l1: f64 = cp
            .scores
            .iter()
            .zip(&r.scores)
            .enumerate()
            .filter(|(i, _)| cp.removed.binary_search(&(*i as u32)).is_err())
            .map(|(_, (a, b))| (a - b).abs())
            .sum();
        self.worst = self.worst.max(l1 / self.bound);
        Ok(())
    }
}

/// Copy every regular file of `src` into a fresh directory `dst`.
///
/// # Errors
/// Any I/O failure.
pub fn copy_dir(src: &Path, dst: &Path) -> Result<(), String> {
    if dst.exists() {
        std::fs::remove_dir_all(dst).map_err(err)?;
    }
    std::fs::create_dir_all(dst).map_err(err)?;
    for entry in std::fs::read_dir(src).map_err(err)? {
        let entry = entry.map_err(err)?;
        if entry.file_type().map_err(err)?.is_file() {
            std::fs::copy(entry.path(), dst.join(entry.file_name())).map_err(err)?;
        }
    }
    Ok(())
}

/// Bytes of the regular files in `dir`.
///
/// # Errors
/// Any I/O failure.
pub fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(err)? {
        let m = entry.map_err(err)?.metadata().map_err(err)?;
        if m.is_file() {
            total += m.len();
        }
    }
    Ok(total)
}
