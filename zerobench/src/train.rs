//! The training workloads: one thread per rank, each building its own
//! `RankEngine` and calling `try_train_step`, over a `World` the benchmark
//! builds itself.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use zero_comm::{
    CollectiveKind, Grid, TimingSnapshot, TrafficSnapshot, World, WorldConfig, KIND_COUNT,
};
use zero_core::{
    CommPlan, MemCategory, RankEngine, StepShape, TierStats, ZeroConfig, ZeroStage, ALL_CATEGORIES,
    CATEGORY_COUNT,
};
use zero_model::{init_full_params, Gpt, ModelConfig, SyntheticCorpus};
use zero_trace::{SpanCategory, StepTimeline, TRACK_PROGRESS};

use crate::fold::{self, Ledger, TRAIN_BUCKETS, UNATTRIBUTED};
use crate::probe::{self, GemmShapes};
use crate::report::{median, ms, tail, Metrics, Outcome, MIB};
use crate::{Bench, TraceSink, TRACK_BENCH};

/// Warm-up steps before timing starts: the first steps allocate buffers
/// and back the fp16 loss scale off its initial value.
const WARMUP: usize = 2;
/// Setups per timed run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Losses at the end of training: the mean over this many final steps.
const LOSS_TAIL: usize = 4;

/// One training workload.
pub struct TrainWorkload {
    pub model: ModelConfig,
    pub zero: ZeroConfig,
    pub dp: usize,
    pub global_batch: usize,
    pub world: fn() -> WorldConfig,
    /// Ranks per node of the modeled interconnect, where there is one.
    pub node_size: Option<usize>,
    /// Step time this workload was sized at. A run's step count is
    /// `seconds / nominal_step_s`, fixed before it starts, so a faster
    /// program finishes the same work sooner; losses depend only on the
    /// seed and the seconds asked for.
    pub nominal_step_s: f64,
}

impl TrainWorkload {
    fn timed_steps(&self, seconds: u64) -> usize {
        ((seconds as f64 / self.nominal_step_s).round() as usize).max(12)
    }

    fn local_batch(&self, dp: usize) -> usize {
        self.global_batch / dp
    }

    fn tokens_per_step(&self) -> f64 {
        (self.global_batch * self.model.seq) as f64
    }
}

/// What one rank reports from a session.
struct RankRun {
    rank: usize,
    /// Loss of every step this rank completed (warm-up, then timed).
    losses: Vec<f32>,
    skipped: Vec<bool>,
    /// Rank-thread wall time of each timed step.
    step_ns: Vec<u64>,
    engine_new_ns: u64,
    traffic: TrafficSnapshot,
    traffic_timed: TrafficSnapshot,
    timing_timed: TimingSnapshot,
    tier: TierStats,
    tier_timed: TierStats,
    peak_device: u64,
    peak_by_category: [u64; CATEGORY_COUNT],
    timeline: StepTimeline,
    error: Option<String>,
}

/// One world, its engines, warm-up, and `timed` timed steps.
struct Session {
    setup: Duration,
    timed_wall: Duration,
    ranks: Vec<RankRun>,
    /// Steps attempted, counted on the rank that attempted the most.
    attempted: u64,
    /// Steps that errored or panicked on any rank.
    failed: u64,
    /// Recorder time of `World::with_config` in the benchmark recorder,
    /// to place rank timelines on the benchmark's clock.
    world_at_ns: u64,
}

struct SessionSpec {
    dp: usize,
    zero: ZeroConfig,
    timed: usize,
    traced: bool,
}

fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "rank panicked".to_string()
    }
}

fn session(w: &TrainWorkload, spec: &SessionSpec, seed: u64, bench: &Bench) -> Session {
    let t0 = Instant::now();
    let steps = WARMUP + spec.timed;
    let m = w.model;
    let corpus = SyntheticCorpus::generate(
        m.vocab,
        (w.global_batch * (m.seq + 1) * (steps + 2)).max(10_000),
        seed ^ 0x5EED,
    );
    let full = init_full_params(&m, seed);
    let grid = Grid::new(spec.dp, 1);
    let n = grid.world_size();
    let world_at_ns = bench.now_ns();
    let span = bench.rec.begin(SpanCategory::Compute, "world-new");
    let mut world = World::with_config(n, (w.world)());
    bench.rec.end(span);
    let comms: Vec<_> = (0..n).map(|r| world.take(r)).collect();
    let barrier = Barrier::new(n);
    let marks: Mutex<(Duration, Option<Instant>, Duration)> =
        Mutex::new((Duration::ZERO, None, Duration::ZERO));
    let local_batch = w.local_batch(spec.dp);

    let ranks: Vec<RankRun> = std::thread::scope(|s| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|comm| {
                let (corpus, full, barrier, marks) = (&corpus, &full, &barrier, &marks);
                s.spawn(move || {
                    let rank = comm.rank();
                    let (dp_rank, _) = grid.coords(rank);
                    let rec = comm.trace();
                    rec.set_enabled(spec.traced);
                    let mut run = RankRun {
                        rank,
                        losses: Vec::new(),
                        skipped: Vec::new(),
                        step_ns: Vec::new(),
                        engine_new_ns: 0,
                        traffic: TrafficSnapshot::default(),
                        traffic_timed: TrafficSnapshot::default(),
                        timing_timed: TimingSnapshot::default(),
                        tier: TierStats::default(),
                        tier_timed: TierStats::default(),
                        peak_device: 0,
                        peak_by_category: [0; CATEGORY_COUNT],
                        timeline: StepTimeline::default(),
                        error: None,
                    };
                    // One step: bracketed by a benchmark span on the rank's
                    // own recorder, so the fold sees its exact window.
                    let step = |engine: &mut RankEngine, i: usize, run: &mut RankRun| -> bool {
                        let (ids, targets) =
                            corpus.rank_batch(i, w.global_batch, m.seq, spec.dp, dp_rank);
                        let span = rec.begin_on(TRACK_BENCH, SpanCategory::Compute, "train-step");
                        let t = Instant::now();
                        let res = catch_unwind(AssertUnwindSafe(|| {
                            engine.try_train_step(&ids, &targets, local_batch)
                        }));
                        let dt = t.elapsed();
                        rec.end(span);
                        match res {
                            Ok(Ok(out)) => {
                                run.losses.push(out.loss);
                                run.skipped.push(out.skipped);
                                if i >= WARMUP {
                                    run.step_ns.push(dt.as_nanos() as u64);
                                }
                                true
                            }
                            Ok(Err(e)) => {
                                run.error = Some(format!("step {i}: {e}"));
                                false
                            }
                            Err(p) => {
                                run.error = Some(format!("step {i}: {}", panic_text(p)));
                                false
                            }
                        }
                    };

                    let span = rec.begin_on(TRACK_BENCH, SpanCategory::Compute, "engine-new");
                    let t = Instant::now();
                    let built = catch_unwind(AssertUnwindSafe(|| {
                        RankEngine::new(Gpt::new(m), full, spec.zero, grid, comm)
                    }));
                    run.engine_new_ns = t.elapsed().as_nanos() as u64;
                    rec.end(span);
                    let mut engine = match built {
                        Ok(e) => Some(e),
                        Err(p) => {
                            run.error = Some(format!("engine: {}", panic_text(p)));
                            None
                        }
                    };
                    if let Some(e) = engine.as_mut() {
                        for i in 0..WARMUP {
                            if !step(e, i, &mut run) {
                                engine = None;
                                break;
                            }
                        }
                    }
                    if barrier.wait().is_leader() {
                        let mut g = marks.lock().expect("timing marks lock");
                        g.0 = t0.elapsed();
                        g.1 = Some(Instant::now());
                    }
                    if let Some(e) = engine.as_mut() {
                        let (traffic, timing, tier) = (e.traffic(), e.timing(), e.tier_stats());
                        let mut ok = true;
                        for i in WARMUP..steps {
                            if !step(e, i, &mut run) {
                                ok = false;
                                break;
                            }
                        }
                        run.traffic = e.traffic();
                        run.traffic_timed = run.traffic.delta_since(&traffic);
                        run.timing_timed = e.timing().delta_since(&timing);
                        run.tier = e.tier_stats();
                        run.tier_timed = TierStats {
                            fetch_bytes: run.tier.fetch_bytes - tier.fetch_bytes,
                            spill_bytes: run.tier.spill_bytes - tier.spill_bytes,
                            fetch_ops: run.tier.fetch_ops - tier.fetch_ops,
                            spill_ops: run.tier.spill_ops - tier.spill_ops,
                        };
                        let mem = e.memory();
                        run.peak_device = mem.peak_device();
                        for (i, c) in ALL_CATEGORIES.iter().enumerate() {
                            run.peak_by_category[i] = mem.peak(*c);
                        }
                        if ok {
                            run.timeline = e.timeline();
                        }
                    }
                    if barrier.wait().is_leader() {
                        let mut g = marks.lock().expect("timing marks lock");
                        g.2 = g.1.expect("timed phase started").elapsed();
                    }
                    run
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank threads catch their own panics"))
            .collect()
    });
    let (setup, _, timed_wall) = *marks.lock().expect("timing marks lock");
    let attempted = ranks
        .iter()
        .map(|r| (r.losses.len() + r.error.is_some() as usize) as u64)
        .max()
        .unwrap_or(0);
    let failed = ranks.iter().any(|r| r.error.is_some()) as u64;
    Session {
        setup,
        timed_wall,
        ranks,
        attempted,
        failed,
        world_at_ns,
    }
}

/// The plan ≡ traffic oracle: every rank sent exactly the bytes its
/// `CommPlan` declares for the steps it ran, and moved exactly the tier
/// bytes the plan's tier stream declares.
fn check_plan(w: &TrainWorkload, spec: &SessionSpec, s: &Session, out: &mut Outcome) {
    let gpt = Gpt::new(w.model);
    let grid = Grid::new(spec.dp, 1);
    let act_elems = w.local_batch(spec.dp) * w.model.seq * w.model.hidden;
    for r in &s.ranks {
        let mut bytes = [0u64; KIND_COUNT];
        let (mut fetch, mut spill) = (0u64, 0u64);
        for &skipped in &r.skipped {
            let shape = StepShape {
                micro_batches: 1,
                act_elems,
                skipped,
            };
            let plan = CommPlan::train_step(gpt.layout(), &spec.zero, grid, &shape);
            for (acc, b) in bytes.iter_mut().zip(plan.rank_bytes(r.rank)) {
                *acc += b;
            }
            let (f, sp) = plan.rank_tier_bytes(r.rank);
            fetch += f;
            spill += sp;
        }
        for (kind, measured, _) in r.traffic.per_kind() {
            out.gate(measured == bytes[kind as usize], || {
                format!(
                    "rank {} sent {measured} {} bytes, plan says {}",
                    r.rank,
                    kind.name(),
                    bytes[kind as usize]
                )
            });
        }
        out.gate(
            (r.tier.fetch_bytes, r.tier.spill_bytes) == (fetch, spill),
            || {
                format!(
                    "rank {} moved tier bytes (fetch {}, spill {}), plan says ({fetch}, {spill})",
                    r.rank, r.tier.fetch_bytes, r.tier.spill_bytes
                )
            },
        );
    }
}

/// Gates every session shares: finite losses and the plan oracle.
fn check_session(w: &TrainWorkload, spec: &SessionSpec, s: &Session, out: &mut Outcome) {
    for r in &s.ranks {
        if let Some(e) = &r.error {
            out.gate_failures.push(format!("rank {}: {e}", r.rank));
        }
        out.gate(r.losses.iter().all(|l| l.is_finite()), || {
            format!("rank {} reported a non-finite loss", r.rank)
        });
    }
    if s.failed == 0 {
        check_plan(w, spec, s, out);
    }
}

fn loss_bits(s: &Session, upto: usize) -> Vec<Vec<u32>> {
    s.ranks
        .iter()
        .map(|r| r.losses.iter().take(upto).map(|l| l.to_bits()).collect())
        .collect()
}

/// Per-step wall time as the slowest rank saw it.
fn step_ms(s: &Session) -> Vec<f64> {
    let n = s.ranks.iter().map(|r| r.step_ns.len()).min().unwrap_or(0);
    (0..n)
        .map(|i| ms(s.ranks.iter().map(|r| r.step_ns[i]).max().unwrap_or(0)))
        .collect()
}

fn tokens_per_s(w: &TrainWorkload, s: &Session, timed: usize) -> f64 {
    w.tokens_per_step() * timed as f64 / s.timed_wall.as_secs_f64()
}

fn mean_loss_at_end(s: &Session) -> f64 {
    let per_rank: Vec<f64> = s
        .ranks
        .iter()
        .map(|r| {
            let tail = &r.losses[r.losses.len().saturating_sub(LOSS_TAIL)..];
            tail.iter().map(|&l| l as f64).sum::<f64>() / tail.len().max(1) as f64
        })
        .collect();
    per_rank.iter().sum::<f64>() / per_rank.len() as f64
}

fn main_spec(w: &TrainWorkload, seconds: u64, traced: bool) -> SessionSpec {
    SessionSpec {
        dp: w.dp,
        zero: w.zero,
        timed: w.timed_steps(seconds),
        traced,
    }
}

/// The timed run: `SETUP_REPS` setups, the last of which goes on to the
/// timed steps, with recording off throughout.
pub fn timed(w: &TrainWorkload, seed: u64, seconds: u64, bench: &Bench) -> Outcome {
    let mut out = Outcome::default();
    let spec = main_spec(w, seconds, false);
    let mut setups = Vec::new();
    let mut warm: Option<Vec<Vec<u32>>> = None;
    let mut last = None;
    for rep in 0..SETUP_REPS {
        let this = SessionSpec {
            timed: if rep + 1 == SETUP_REPS { spec.timed } else { 0 },
            ..spec
        };
        let s = session(w, &this, seed, bench);
        check_session(w, &this, &s, &mut out);
        out.attempted += s.attempted;
        out.failed += s.failed;
        setups.push(s.setup.as_secs_f64());
        let bits = loss_bits(&s, WARMUP);
        match &warm {
            None => warm = Some(bits),
            Some(first) => out.gate(*first == bits, || {
                format!("warm-up losses of setup {rep} differ bitwise from setup 0")
            }),
        }
        last = Some(s);
    }
    let s = last.expect("at least one setup");
    println!("  (setup_s is the median of {SETUP_REPS} setups)");
    out.metrics = end_to_end(w, &s, spec.timed, median(&setups), &mut out);
    out
}

/// Prints the end-to-end figures of a session and returns them as metrics.
fn end_to_end(
    w: &TrainWorkload,
    s: &Session,
    timed: usize,
    setup_s: f64,
    out: &mut Outcome,
) -> Metrics {
    let mut m = Metrics::default();
    if s.failed > 0 {
        return m;
    }
    let steps = step_ms(s);
    let t = tail(&steps);
    let tok_s = tokens_per_s(w, s, timed);
    let peak = s.ranks.iter().map(|r| r.peak_device).max().unwrap_or(0) as f64 / MIB;
    let loss = mean_loss_at_end(s);
    println!("  setup_s              {setup_s:.4} s");
    println!(
        "  train_tokens_per_s   {tok_s:.1} tok/s ({timed} timed steps, {} tokens each)",
        w.tokens_per_step()
    );
    println!(
        "  step_p50_ms          {:.3} ms (n = {})",
        median(&steps),
        steps.len()
    );
    println!(
        "  step_tail_ms         {:.3} ms (p{} of n = {})",
        t.value, t.percentile, t.samples
    );
    println!("  loss_at_end          {loss:.5} nats (mean of the last {LOSS_TAIL} steps)");
    println!("  peak_device_mib      {peak:.4} MiB");
    out.gate(loss.is_finite(), || "loss at end is not finite".to_string());
    m.put("setup_s", setup_s, "s");
    m.put("tokens_per_s", tok_s, "tok/s");
    m.put("latency_p50_ms", median(&steps), "ms");
    m.put("latency_tail_ms", t.value, "ms");
    m.put("peak_device_mib", peak, "MiB");
    m
}

/// snake_case name of a memory category.
fn category_name(c: MemCategory) -> String {
    let mut s = String::new();
    for (i, ch) in format!("{c:?}").chars().enumerate() {
        if ch.is_ascii_uppercase() {
            if i > 0 {
                s.push('_');
            }
            s.push(ch.to_ascii_lowercase());
        } else {
            s.push(ch);
        }
    }
    s
}

pub fn category_metric(c: MemCategory) -> String {
    format!("core.peak_{}_mib", category_name(c))
}

/// Kinds the per-layer comm metrics cover, with their metric prefixes.
pub const COMM_KINDS: [(CollectiveKind, &str); 3] = [
    (CollectiveKind::AllGather, "comm.all_gather"),
    (CollectiveKind::ReduceScatter, "comm.reduce_scatter"),
    (CollectiveKind::AllReduce, "comm.all_reduce"),
];

/// Forward FLOPs of one transformer block over `batch` sequences: the four
/// linears (12·h² MACs per token) plus attention scores and context
/// (2·s²·h MACs per sequence).
fn block_fwd_flops(m: &ModelConfig, batch: usize) -> f64 {
    let (s, h) = (m.seq as f64, m.hidden as f64);
    2.0 * (batch as f64 * s * 12.0 * h * h + batch as f64 * 2.0 * s * s * h)
}

/// The traced run: an untraced session, then the same seed traced, the
/// one-rank baseline, and the kernel probes.
pub fn traced(
    w: &TrainWorkload,
    seed: u64,
    seconds: u64,
    bench: &Bench,
    sink: &mut TraceSink,
) -> Outcome {
    let mut out = Outcome::default();
    let plain_spec = main_spec(w, seconds, false);
    let plain = session(w, &plain_spec, seed, bench);
    check_session(w, &plain_spec, &plain, &mut out);
    let spec = main_spec(w, seconds, true);
    let s = session(w, &spec, seed, bench);
    check_session(w, &spec, &s, &mut out);
    out.gate(
        loss_bits(&plain, usize::MAX) == loss_bits(&s, usize::MAX),
        || "losses with recording on differ bitwise from losses with it off".to_string(),
    );
    for x in [&plain, &s] {
        out.attempted += x.attempted;
        out.failed += x.failed;
    }
    println!("untraced run:");
    end_to_end(
        w,
        &plain,
        plain_spec.timed,
        plain.setup.as_secs_f64(),
        &mut out,
    );

    // One rank, DDP, same model and global batch: the scaling baseline.
    let base_spec = SessionSpec {
        dp: 1,
        zero: ZeroConfig {
            stage: ZeroStage::Ddp,
            tier: zero_core::TierConfig::off(),
            compression: zero_core::CompressionConfig::off(),
            ..w.zero
        },
        timed: (spec.timed / 4).max(3),
        traced: false,
    };
    let base = session(w, &base_spec, seed, bench);
    check_session(w, &base_spec, &base, &mut out);
    out.attempted += base.attempted;
    out.failed += base.failed;

    let probe_span = bench.rec.begin(SpanCategory::Compute, "probes");
    let units: Vec<usize> = {
        let gpt = Gpt::new(w.model);
        let mut u: Vec<usize> = gpt.layout().units().iter().map(|u| u.range.len()).collect();
        u.sort_unstable();
        u.dedup();
        u
    };
    let shapes = GemmShapes {
        t: w.local_batch(w.dp) * w.model.seq,
        h: w.model.hidden,
    };
    let mut probes = Metrics::default();
    probe::run(&shapes, &units, &bench.rec, &mut probes, &mut out);
    bench.rec.end(probe_span);
    out.metrics = probes;

    if s.failed > 0 || plain.failed > 0 || base.failed > 0 {
        return out;
    }
    sink.add_ranks(
        &s.ranks
            .iter()
            .map(|r| r.timeline.clone())
            .collect::<Vec<_>>(),
        s.world_at_ns,
    );

    let timed = spec.timed as f64;
    // Closed ledger per rank over the timed steps; the slowest rank's is
    // reported, so its buckets sum to its own step wall time.
    // Recorder-time windows of each rank's timed steps (rank-indexed).
    let windows: Vec<Vec<(u64, u64)>> = s
        .ranks
        .iter()
        .map(|r| {
            r.timeline
                .spans
                .iter()
                .filter(|x| x.track == TRACK_BENCH && x.name == "train-step")
                .map(|x| (x.start_ns, x.end_ns))
                .skip(WARMUP)
                .collect()
        })
        .collect();
    let mut overlaps = Vec::new();
    let mut critical: Option<(u64, Ledger, [usize; 3])> = None;
    for r in &s.ranks {
        let windows = &windows[r.rank];
        let mut sum = Ledger::new();
        let mut wall = 0u64;
        let mut overlap = 0u64;
        for &win in windows {
            match fold::train_ledger(&r.timeline, win) {
                Ok(l) => {
                    for (b, ns) in l {
                        *sum.entry(b).or_default() += ns;
                    }
                }
                Err(e) => out
                    .gate_failures
                    .push(format!("rank {} trace does not fold: {e}", r.rank)),
            }
            wall += win.1 - win.0;
            overlap += fold::overlap_ns(&r.timeline, win);
        }
        out.gate(sum.values().sum::<u64>() == wall, || {
            format!("rank {} ledger does not sum to its step wall time", r.rank)
        });
        let count = |name: &str| {
            r.timeline
                .spans
                .iter()
                .filter(|x| x.track == zero_trace::TRACK_MAIN && x.name == name)
                .filter(|x| windows.iter().any(|w| x.start_ns >= w.0 && x.end_ns <= w.1))
                .count()
        };
        let passes = [count("block-fwd"), count("block-refwd"), count("block-bwd")];
        if critical.as_ref().is_none_or(|c| wall > c.0) {
            critical = Some((wall, sum, passes));
        }
        overlaps.push(ms(overlap) / timed);
    }
    let (wall, ledger, passes) = critical.expect("at least one rank");
    let m = &mut out.metrics;
    for b in TRAIN_BUCKETS {
        m.put(b, ms(*ledger.get(b).unwrap_or(&0)) / timed, "ms");
    }
    m.put("core.step_wall_ms", ms(wall) / timed, "ms");
    println!(
        "ledger (slowest rank, ms per step): {} + ... sums to {:.3} ms",
        TRAIN_BUCKETS
            .iter()
            .map(|b| format!("{b}={:.3}", ms(*ledger.get(b).unwrap_or(&0)) / timed))
            .collect::<Vec<_>>()
            .join(" "),
        ms(wall) / timed
    );
    let unattributed = ms(ledger[UNATTRIBUTED]) / timed;
    println!(
        "  unattributed share {:.2}%",
        100.0 * unattributed / (ms(wall) / timed)
    );

    // Forward vs backward cost per FLOP, FLOPs counted from the shapes:
    // each forward or re-forward pass is one block forward, a backward
    // pass twice that.
    let fwd_ms = ms(ledger.get("model.block_fwd_ms").copied().unwrap_or(0)
        + ledger.get("model.block_refwd_ms").copied().unwrap_or(0));
    let bwd_ms = ms(ledger.get("model.block_bwd_ms").copied().unwrap_or(0));
    let f = block_fwd_flops(&w.model, w.local_batch(w.dp));
    let fwd_cost = fwd_ms / ((passes[0] + passes[1]) as f64 * f);
    let bwd_cost = bwd_ms / (passes[2] as f64 * 2.0 * f);
    m.put("model.fwd_bwd_cost_ratio", fwd_cost / bwd_cost, "ratio");

    let skipped = s.ranks[0].skipped.iter().filter(|&&k| k).count();
    println!(
        "  optim.skipped_steps {skipped} of {} steps attempted",
        s.ranks[0].skipped.len()
    );
    m.put("optim.skipped_steps", skipped as f64, "count");
    m.put("optim.loss_at_end", mean_loss_at_end(&s), "nats");

    let max_over = |f: &dyn Fn(&RankRun) -> f64| s.ranks.iter().map(f).fold(f64::MIN, f64::max);
    let in_timed = |r: &RankRun, x: &zero_trace::Span| {
        let w = &windows[r.rank];
        let first = w.first().map_or(0, |w| w.0);
        let last = w.last().map_or(u64::MAX, |w| w.1);
        x.start_ns >= first && x.end_ns <= last
    };
    for (kind, prefix) in COMM_KINDS {
        m.put(
            format!("{prefix}.exec_ms"),
            max_over(&|r| ms(r.timing_timed.exec_nanos(kind)) / timed),
            "ms",
        );
        m.put(
            format!("{prefix}.calls"),
            max_over(&|r| {
                r.timeline
                    .spans
                    .iter()
                    .filter(|x| x.cat == SpanCategory::Collective && x.name == kind.name())
                    .filter(|x| in_timed(r, x))
                    .count() as f64
                    / timed
            }),
            "count",
        );
        m.put(
            format!("{prefix}.bytes"),
            max_over(&|r| r.traffic_timed.bytes(kind) as f64 / timed),
            "bytes",
        );
    }
    m.put(
        "comm.overlap_ms",
        overlaps.iter().copied().fold(f64::MIN, f64::max),
        "ms",
    );
    let inter = match w.node_size {
        Some(g) => {
            let gpt = Gpt::new(w.model);
            let act_elems = w.local_batch(w.dp) * w.model.seq * w.model.hidden;
            max_over(&|r| {
                r.skipped[WARMUP..]
                    .iter()
                    .map(|&skipped| {
                        let shape = StepShape {
                            micro_batches: 1,
                            act_elems,
                            skipped,
                        };
                        CommPlan::train_step(gpt.layout(), &w.zero, Grid::new(w.dp, 1), &shape)
                            .rank_inter_node_bytes(r.rank, g) as f64
                    })
                    .sum::<f64>()
                    / timed
            })
        }
        None => 0.0,
    };
    m.put("comm.inter_node_bytes", inter, "bytes");

    m.put(
        "core.engine_new_ms",
        max_over(&|r| ms(r.engine_new_ns)),
        "ms",
    );
    m.put(
        "core.tier.ms",
        max_over(&|r| {
            let ns: u64 = r
                .timeline
                .spans
                .iter()
                .filter(|x| x.track == TRACK_PROGRESS && x.cat == SpanCategory::Tier)
                .filter(|x| in_timed(r, x))
                .map(|x| x.duration_ns())
                .sum();
            ms(ns) / timed
        }),
        "ms",
    );
    m.put(
        "core.tier.fetch_bytes",
        max_over(&|r| r.tier_timed.fetch_bytes as f64 / timed),
        "bytes",
    );
    m.put(
        "core.tier.spill_bytes",
        max_over(&|r| r.tier_timed.spill_bytes as f64 / timed),
        "bytes",
    );
    for (i, c) in ALL_CATEGORIES.iter().enumerate() {
        m.put(
            category_metric(*c),
            max_over(&|r| r.peak_by_category[i] as f64 / MIB),
            "MiB",
        );
    }
    let dp_tok = tokens_per_s(w, &plain, plain_spec.timed);
    let one_tok = tokens_per_s(w, &base, base_spec.timed);
    println!(
        "  core.dp_scaling_eff: {dp_tok:.1} tok/s at dp={} / ({} x {one_tok:.1} tok/s at dp=1), measured on {} cores",
        w.dp,
        w.dp,
        crate::cores()
    );
    m.put(
        "core.dp_scaling_eff",
        dp_tok / (w.dp as f64 * one_tok),
        "ratio",
    );
    let overhead = (s.timed_wall.as_secs_f64() - plain.timed_wall.as_secs_f64())
        / plain.timed_wall.as_secs_f64();
    m.put("trace.overhead_frac", overhead, "ratio");
    out
}
