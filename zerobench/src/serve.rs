//! The serving workload: shard-hosted stage-3 serving of an open-loop
//! request stream the benchmark generates from the seed.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use zero_comm::{CollectiveKind, World, WorldConfig};
use zero_core::{CommPlan, Partitioner};
use zero_model::{argmax, init_full_params, Gpt, IncrementalDecoder, ModelConfig};
use zero_serve::{
    engine::run_rank, serve, RankServeReport, ServeConfig, ServeError, ServeOutcome, ServeReport,
    ServeRequest, SplitMix64,
};
use zero_trace::{Span, SpanCategory};

use crate::fold;
use crate::probe::{self, GemmShapes};
use crate::report::{median, ms, tail, Metrics, Outcome, MIB};
use crate::{Bench, TraceSink};

/// Setups per run; `setup_s` is their median.
const SETUP_REPS: usize = 25;
/// Times a timed run serves its request stream, each on a fresh world.
/// A request's latency is its median over the replays, so a scheduler
/// hiccup of the host that stalls one replay does not set the tail.
const REPLAYS: usize = 3;

pub struct ServeWorkload {
    pub model: ModelConfig,
    pub ranks: usize,
    pub cfg: ServeConfig,
    /// Poisson arrival rate, requests per batch step.
    pub rate: f64,
    /// Requests per second of `--seconds`: the request count is fixed
    /// before the run, so speed moves wall time, not work.
    pub requests_per_second: usize,
    /// Shared prompt-prefix families and their length; half the requests
    /// draw one of them, the other half share nothing.
    pub families: usize,
    pub prefix_len: usize,
    pub prompt_len: (usize, usize),
    pub max_new: (usize, usize),
}

impl ServeWorkload {
    /// Requests in the stream: `--seconds` is shared among the replays.
    fn n_requests(&self, seconds: u64) -> usize {
        (self.requests_per_second * seconds as usize / REPLAYS).max(50)
    }
}

/// The request stream. Arrivals are a Poisson process in batch-step time,
/// drawn as `n` uniform arrival times over the horizon `n / rate` (a
/// Poisson process conditioned on its count), so every seed offers the
/// same load over the same span. The generator is never late: the engine
/// delivers each request at its due step by construction.
///
/// The mix is fixed and the seed only orders it: exactly half the
/// prompts open with one of the shared prefixes (the families used
/// equally often), and for each half the (prompt length, new-token
/// count) pairs cycle jointly through their ranges, so the multiset of
/// request sizes does not depend on the seed. The seed shuffles which
/// request gets which, and draws every token.
pub fn requests(w: &ServeWorkload, seed: u64, n: usize) -> Vec<ServeRequest> {
    let mut rng = SplitMix64::new(seed ^ 0x5e7e_0000_0000_0001);
    let token = |rng: &mut SplitMix64| (rng.next_u64() % w.model.vocab as u64) as u32;
    let families: Vec<Vec<u32>> = (0..w.families)
        .map(|_| (0..w.prefix_len).map(|_| token(&mut rng)).collect())
        .collect();
    let horizon = n as f64 / w.rate;
    let mut arrivals: Vec<u64> = (0..n).map(|_| (rng.next_f64() * horizon) as u64).collect();
    arrivals.sort_unstable();
    // Per request: Some(family) or None, then a (prompt length, new-token
    // count) pair from its half's list. Where the two ranges have coprime
    // lengths, as here, cycling both with one index visits every pair
    // equally often.
    let cycle = |lo: usize, hi: usize, k: usize| lo + k % (hi - lo + 1);
    let mut shared: Vec<Option<usize>> = (0..n)
        .map(|k| (k % 2 == 0).then_some(k / 2 % w.families))
        .collect();
    shuffle(&mut shared, &mut rng);
    let n_shared = shared.iter().filter(|f| f.is_some()).count();
    let pairs = |lo: usize, count: usize, rng: &mut SplitMix64| {
        let mut v: Vec<(usize, usize)> = (0..count)
            .map(|k| {
                (
                    cycle(lo, w.prompt_len.1, k),
                    cycle(w.max_new.0, w.max_new.1, k),
                )
            })
            .collect();
        shuffle(&mut v, rng);
        v
    };
    let mut shared_sizes = pairs(w.prefix_len + 1, n_shared, &mut rng);
    let mut fresh_sizes = pairs(w.prompt_len.0, n - n_shared, &mut rng);
    let sizes: Vec<(usize, usize)> = shared
        .iter()
        .map(|f| match f {
            Some(_) => shared_sizes.pop(),
            None => fresh_sizes.pop(),
        })
        .map(|p| p.expect("one size per request of each kind"))
        .collect();
    (0..n)
        .map(|id| {
            let (len, max_new) = sizes[id];
            let mut prompt: Vec<u32> = (0..len).map(|_| token(&mut rng)).collect();
            if let Some(f) = shared[id] {
                prompt[..w.prefix_len].copy_from_slice(&families[f]);
            }
            ServeRequest::new(id as u64, prompt, max_new).at_step(arrivals[id])
        })
        .collect()
}

fn shuffle<T>(v: &mut [T], rng: &mut SplitMix64) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.next_range(0, i));
    }
}

struct Inputs {
    requests: Vec<ServeRequest>,
    params: Vec<f32>,
    shards: Vec<Vec<f32>>,
}

fn inputs(w: &ServeWorkload, seed: u64, seconds: u64) -> Inputs {
    let requests = requests(w, seed, w.n_requests(seconds));
    let params = init_full_params(&w.model, seed);
    let part = Partitioner::new(params.len(), w.ranks);
    let shards = (0..w.ranks)
        .map(|r| params[part.shard_range(r)].to_vec())
        .collect();
    Inputs {
        requests,
        params,
        shards,
    }
}

/// Serves on a world the benchmark builds, recording off, one thread per
/// rank calling `run_rank`: the same per-rank entry `serve` uses, here
/// reachable with recording disabled. Returns the report and the serve
/// wall time, or the failure.
fn serve_untraced(
    w: &ServeWorkload,
    inp: &Inputs,
    world: World,
) -> Result<(ServeReport, Duration), String> {
    let mut world = world;
    let comms: Vec<_> = (0..w.ranks).map(|r| world.take(r)).collect();
    for c in &comms {
        c.trace().set_enabled(false);
    }
    let t0 = Instant::now();
    let results: Vec<Result<RankServeReport, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|mut comm| {
                let shard = &inp.shards[comm.rank()];
                s.spawn(move || {
                    catch_unwind(AssertUnwindSafe(|| {
                        run_rank(&mut comm, &w.model, shard, &inp.requests, &w.cfg)
                    }))
                    .map_err(|_| "serving rank panicked".to_string())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("serving threads catch their own panics"))
            .collect()
    });
    let wall = t0.elapsed();
    let ranks = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    let plan = CommPlan::serve_step(Gpt::new(w.model).layout(), w.ranks, w.cfg.overlap);
    Ok((ServeReport { ranks, plan }, wall))
}

/// Greedy tokens for one request from the single-process decoder.
fn reference(gpt: &Gpt, params: &[f32], req: &ServeRequest) -> Vec<u32> {
    let mut dec = IncrementalDecoder::new(gpt, params);
    let mut last = Vec::new();
    for &t in &req.prompt {
        last = dec.feed(t).expect("admitted prompts fit the window");
    }
    let mut out = vec![argmax(&last) as u32];
    while out.len() < req.max_new_tokens {
        last = dec
            .feed(*out.last().expect("non-empty"))
            .expect("admitted requests fit the window");
        out.push(argmax(&last) as u32);
    }
    out
}

/// Rank agreement, gather bytes against the plan, and every completed
/// request's tokens against the single-process greedy decoder.
fn check(w: &ServeWorkload, inp: &Inputs, report: &ServeReport, out: &mut Outcome) {
    if let Err(e) = report.check_ranks_agree() {
        out.gate_failures.push(format!("ranks disagree: {e}"));
    }
    for r in &report.ranks {
        let want = report.expected_gather_bytes(r.rank);
        out.gate(r.gather_bytes == want, || {
            format!(
                "rank {} gathered {} bytes, plan says {want}",
                r.rank, r.gather_bytes
            )
        });
    }
    let gpt = Gpt::new(w.model);
    for (req, o) in inp.requests.iter().zip(report.outcomes()) {
        if let Some(got) = o.response() {
            out.gate(got.tokens == reference(&gpt, &inp.params, req), || {
                format!(
                    "request {} tokens differ from the greedy reference decoder",
                    req.id
                )
            });
        }
    }
}

/// Requests sent and failed: shed and rejected requests both fail.
fn count(report: &ServeReport, out: &mut Outcome) -> (u64, u64) {
    let mut shed = 0u64;
    let mut rejected = 0u64;
    for o in report.outcomes() {
        match o.rejection() {
            Some(ServeError::Overloaded { .. }) => shed += 1,
            Some(_) => rejected += 1,
            None => {}
        }
    }
    let sent = report.outcomes().len() as u64;
    out.attempted += sent;
    out.failed += shed + rejected;
    (shed, rejected)
}

/// Per completed request, the slowest rank's delivery-to-completion wall
/// time, as its median over the replays. Replays complete the same
/// requests (the schedule is in batch steps), which `timed` gates.
fn latencies_ms(replays: &[ServeReport]) -> Vec<f64> {
    let one = |report: &ServeReport, i: usize| {
        report
            .ranks
            .iter()
            .map(|r| r.outcomes[i].response().map(|x| x.latency_ns))
            .collect::<Option<Vec<u64>>>()
            .map(|v| ms(v.into_iter().max().unwrap_or(0)))
    };
    (0..replays[0].outcomes().len())
        .filter_map(|i| {
            replays
                .iter()
                .map(|r| one(r, i))
                .collect::<Option<Vec<f64>>>()
                .map(|v| median(&v))
        })
        .collect()
}

fn served_tokens(report: &ServeReport) -> u64 {
    report
        .outcomes()
        .iter()
        .filter_map(|o| o.response())
        .map(|r| r.tokens.len() as u64)
        .sum()
}

fn peak_mib(report: &ServeReport) -> f64 {
    report
        .ranks
        .iter()
        .map(|r| r.param_bytes_peak + r.kv_meters.bytes_live_peak)
        .max()
        .unwrap_or(0) as f64
        / MIB
}

/// End-to-end figures over one or more replays of the same stream.
/// `wall` is their total serve wall time. Every replay's requests count
/// as attempted; the printed shed and rejected counts are the first's.
fn end_to_end(
    w: &ServeWorkload,
    replays: &[ServeReport],
    wall: Duration,
    setup_s: f64,
    out: &mut Outcome,
) -> Metrics {
    let report = &replays[0];
    let (shed, rejected) = count(report, out);
    for r in &replays[1..] {
        count(r, out);
    }
    let mut m = Metrics::default();
    let lat = latencies_ms(replays);
    if lat.len() <= 10 {
        out.gate_failures
            .push(format!("only {} requests completed", lat.len()));
        return m;
    }
    let t = tail(&lat);
    let tok_s = (served_tokens(report) * replays.len() as u64) as f64 / wall.as_secs_f64();
    println!(
        "  requests             {} sent, {} completed, {shed} shed (Overloaded), {rejected} rejected",
        report.outcomes().len(),
        lat.len()
    );
    println!(
        "  load                 open loop, Poisson {} req/batch step, {} slots",
        w.rate, w.cfg.slots
    );
    println!("  setup_s              {setup_s:.5} s");
    println!(
        "  serve_goodput_tok_s  {tok_s:.1} tok/s over {:.3} s ({} replays)",
        wall.as_secs_f64(),
        replays.len()
    );
    println!(
        "  serve_latency_p50_ms {:.3} ms (n = {}, each request's median over the replays)",
        median(&lat),
        lat.len()
    );
    let steps: Vec<f64> = report
        .outcomes()
        .iter()
        .filter_map(|o| o.response())
        .map(|r| r.latency_steps as f64)
        .collect();
    let steps_tail = tail(&steps);
    println!(
        "  latency in batch steps: p50 {} and p{} {}",
        median(&steps),
        steps_tail.percentile,
        steps_tail.value
    );
    println!(
        "  serve_latency_tail_ms {:.3} ms (p{} of n = {})",
        t.value, t.percentile, t.samples
    );
    if replays.len() > 1 {
        let each: Vec<String> = replays
            .iter()
            .map(|r| format!("{:.3}", tail(&latencies_ms(std::slice::from_ref(r))).value))
            .collect();
        println!("  (tail of each replay alone: {} ms)", each.join(", "));
    }
    println!(
        "  peak_device_mib      {:.4} MiB (parameters + KV live peak)",
        peak_mib(report)
    );
    m.put("setup_s", setup_s, "s");
    m.put("tokens_per_s", tok_s, "tok/s");
    m.put("latency_p50_ms", median(&lat), "ms");
    m.put("latency_tail_ms", t.value, "ms");
    m.put("peak_device_mib", peak_mib(report), "MiB");
    m
}

/// Setup: request generation, parameter init, sharding and the world.
fn setup(w: &ServeWorkload, seed: u64, seconds: u64, bench: &Bench) -> (Inputs, World, f64) {
    let t0 = Instant::now();
    let inp = inputs(w, seed, seconds);
    let span = bench.rec.begin(SpanCategory::Compute, "world-new");
    let world = World::with_config(w.ranks, WorldConfig::default());
    bench.rec.end(span);
    (inp, world, t0.elapsed().as_secs_f64())
}

pub fn timed(w: &ServeWorkload, seed: u64, seconds: u64, bench: &Bench) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let (inp, world, secs) = setup(w, seed, seconds, bench);
        setups.push(secs);
        last = Some((inp, world));
    }
    let (inp, world) = last.expect("at least one setup");
    println!("  (setup_s is the median of {SETUP_REPS} setups)");
    let worlds = std::iter::once(world)
        .chain((1..REPLAYS).map(|_| World::with_config(w.ranks, WorldConfig::default())));
    let mut replays = Vec::new();
    let mut wall = Duration::ZERO;
    for (rep, world) in worlds.enumerate() {
        match serve_untraced(w, &inp, world) {
            Ok((report, t)) => {
                if rep == 0 {
                    check(w, &inp, &report, &mut out);
                } else {
                    out.gate(scrubbed(&report) == scrubbed(&replays[0]), || {
                        format!("outcomes of replay {rep} differ from replay 0")
                    });
                }
                wall += t;
                replays.push(report);
            }
            Err(e) => {
                out.attempted += inp.requests.len() as u64;
                out.failed += inp.requests.len() as u64;
                out.gate_failures.push(e);
                return out;
            }
        }
    }
    out.metrics = end_to_end(w, &replays, wall, median(&setups), &mut out);
    out
}

/// Outcomes with the rank-local wall-clock latency cleared.
fn scrubbed(report: &ServeReport) -> Vec<ServeOutcome> {
    report
        .outcomes()
        .iter()
        .cloned()
        .map(|o| match o {
            ServeOutcome::Completed(mut r) => {
                r.latency_ns = 0;
                ServeOutcome::Completed(r)
            }
            rejected => rejected,
        })
        .collect()
}

pub fn traced(
    w: &ServeWorkload,
    seed: u64,
    seconds: u64,
    bench: &Bench,
    sink: &mut TraceSink,
) -> Outcome {
    let mut out = Outcome::default();
    let (inp, world, setup_s) = setup(w, seed, seconds, bench);
    let plain = match serve_untraced(w, &inp, world) {
        Ok(x) => x,
        Err(e) => {
            out.gate_failures.push(e);
            return out;
        }
    };
    check(w, &inp, &plain.0, &mut out);
    println!("untraced run:");
    end_to_end(
        w,
        std::slice::from_ref(&plain.0),
        plain.1,
        setup_s,
        &mut out,
    );

    // The traced run goes through `serve`, whose world records spans.
    let at = bench.now_ns();
    let span = bench.rec.begin(SpanCategory::Compute, "serve");
    let t0 = Instant::now();
    let report = catch_unwind(AssertUnwindSafe(|| {
        serve(&w.model, &inp.shards, &inp.requests, &w.cfg)
    }));
    let wall = t0.elapsed();
    bench.rec.end(span);
    let Ok(report) = report else {
        out.gate_failures.push("traced serve panicked".to_string());
        return out;
    };
    check(w, &inp, &report, &mut out);
    let (shed, _) = count(&report, &mut out);
    out.gate(scrubbed(&report) == scrubbed(&plain.0), || {
        "outcomes with recording on differ from outcomes with it off".to_string()
    });

    let probe_span = bench.rec.begin(SpanCategory::Compute, "probes");
    let units: Vec<usize> = {
        let mut u: Vec<usize> = Gpt::new(w.model)
            .layout()
            .units()
            .iter()
            .map(|u| u.range.len())
            .collect();
        u.sort_unstable();
        u.dedup();
        u
    };
    let mut m = Metrics::default();
    probe::run(
        &GemmShapes {
            t: w.cfg.slots,
            h: w.model.hidden,
        },
        &units,
        &bench.rec,
        &mut m,
        &mut out,
    );
    bench.rec.end(probe_span);
    sink.add_ranks(
        &report
            .ranks
            .iter()
            .map(|r| r.timeline.clone())
            .collect::<Vec<_>>(),
        at,
    );

    let steps = report.ranks[0].batch_steps as f64;
    // The slowest rank's ledger over its batch steps.
    let mut critical: Option<(u64, fold::Ledger)> = None;
    for r in &report.ranks {
        match fold::serve_ledger(&r.timeline) {
            Ok((l, n)) => {
                out.gate(n == r.batch_steps, || {
                    format!(
                        "rank {} traced {n} batch steps, reported {}",
                        r.rank, r.batch_steps
                    )
                });
                let wall: u64 = l.values().sum();
                if critical.as_ref().is_none_or(|c| wall > c.0) {
                    critical = Some((wall, l));
                }
            }
            Err(e) => out
                .gate_failures
                .push(format!("rank {} trace does not fold: {e}", r.rank)),
        }
        let traced_bytes = r
            .timeline
            .bytes_named(SpanCategory::Collective, "all-gather");
        out.gate(traced_bytes == r.gather_bytes, || {
            format!(
                "rank {} traced {traced_bytes} gather bytes, counted {}",
                r.rank, r.gather_bytes
            )
        });
    }
    let Some((step_wall, ledger)) = critical else {
        return out;
    };
    let per_step = |b: &str| ms(*ledger.get(b).unwrap_or(&0)) / steps;
    println!(
        "ledger (slowest rank, ms per batch step): model.decode_ms={:.3} serve.gather_wait_ms={:.3} core.unattributed_ms={:.3} sums to {:.3}",
        per_step("model.decode_ms"),
        per_step("serve.gather_wait_ms"),
        per_step(fold::UNATTRIBUTED),
        ms(step_wall) / steps
    );
    m.put("model.decode_ms", per_step("model.decode_ms"), "ms");
    m.put(
        "serve.gather_wait_ms",
        per_step("serve.gather_wait_ms"),
        "ms",
    );
    m.put(fold::UNATTRIBUTED, per_step(fold::UNATTRIBUTED), "ms");
    m.put("core.step_wall_ms", ms(step_wall) / steps, "ms");

    let max_over =
        |f: &dyn Fn(&RankServeReport) -> f64| report.ranks.iter().map(f).fold(f64::MIN, f64::max);
    let span_ms = |r: &RankServeReport, keep: &dyn Fn(&Span) -> bool| {
        ms(r.timeline
            .spans
            .iter()
            .filter(|s| keep(s))
            .map(|s| s.duration_ns())
            .sum())
    };
    m.put("serve.batch_steps", steps, "count");
    m.put(
        "serve.step_ms",
        max_over(&|r| span_ms(r, &|s| s.name == "serve-step") / steps),
        "ms",
    );
    let name = CollectiveKind::AllGather.name();
    m.put(
        "comm.all_gather.exec_ms",
        max_over(&|r| span_ms(r, &|s| s.cat == SpanCategory::Collective && s.name == name) / steps),
        "ms",
    );
    m.put(
        "comm.all_gather.wait_ms",
        max_over(&|r| span_ms(r, &|s| s.cat == SpanCategory::Wait && s.name == name) / steps),
        "ms",
    );
    m.put(
        "comm.all_gather.calls",
        max_over(&|r| r.timeline.count_named(SpanCategory::Collective, name) as f64 / steps),
        "count",
    );
    m.put(
        "comm.all_gather.bytes",
        max_over(&|r| r.gather_bytes as f64 / steps),
        "bytes",
    );
    m.put(
        "comm.overlap_ms",
        max_over(&|r| ms(fold::overlap_ns(&r.timeline, (0, u64::MAX))) / steps),
        "ms",
    );

    let done: Vec<_> = report
        .outcomes()
        .iter()
        .filter_map(|o| o.response())
        .collect();
    let live_steps: u64 = done
        .iter()
        .map(|r| r.completion_step - r.admitted_step)
        .sum();
    m.put("serve.occupancy", live_steps as f64 / steps, "requests");
    let queue: Vec<f64> = done.iter().map(|r| r.queue_steps as f64).collect();
    m.put("serve.queue_steps_p50", median(&queue), "steps");
    let prompt_rows: u64 = done
        .iter()
        .map(|r| inp.requests[r.id as usize].prompt.len() as u64)
        .sum();
    let kv = report.ranks[0].kv_meters;
    m.put(
        "serve.prefix_hit_rate",
        kv.prefix_hit_rows as f64 / prompt_rows as f64,
        "ratio",
    );
    m.put("serve.kv_alloc_mib", kv.bytes_allocated as f64 / MIB, "MiB");
    m.put(
        "serve.kv_live_peak_mib",
        kv.bytes_live_peak as f64 / MIB,
        "MiB",
    );
    m.put("serve.kv_evictions", kv.evictions as f64, "count");
    m.put(
        "serve.shed_frac",
        shed as f64 / report.outcomes().len() as f64,
        "ratio",
    );
    let overhead = (wall.as_secs_f64() - plain.1.as_secs_f64()) / plain.1.as_secs_f64();
    m.put("trace.overhead_frac", overhead, "ratio");
    out.metrics = m;
    out
}

/// A one-line summary of the generated load.
pub fn describe(w: &ServeWorkload, seed: u64, seconds: u64) -> String {
    let reqs = requests(w, seed, w.n_requests(seconds));
    let last = reqs.last().map_or(0, |r| r.arrival_step);
    format!(
        "{} requests over {} batch steps, {} shared-prefix families of {} tokens",
        reqs.len(),
        last,
        w.families,
        w.prefix_len
    )
}
