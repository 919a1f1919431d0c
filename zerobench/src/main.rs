//! The repository benchmark: three workloads, each chosen so that one
//! layer a change is likely to touch dominates it and is nearly absent
//! from another (see README.md for the rationale).
//!
//! ```text
//! zerobench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with span recording off.
//! `--trace 1` runs the workload untraced and then traced, folds the
//! traced spans into per-step buckets, runs the one-rank baseline and the
//! kernel probes, writes a merged Chrome trace, and reports the per-layer
//! metrics. Either way the last line of output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. A failed correctness
//! gate prints that object with `"correct": false` and exits 1.

mod fold;
mod probe;
mod report;
mod serve;
mod train;

use std::time::{Duration, Instant};

use zero_comm::{TieredLink, WorldConfig};
use zero_core::{CompressionConfig, TierConfig, ZeroConfig, ZeroStage, ALL_CATEGORIES};
use zero_model::ModelConfig;
use zero_serve::{KvBackend, ServeConfig};
use zero_trace::{chrome_trace, StepTimeline, TraceRecorder};

use report::{Metrics, Outcome};
use serve::ServeWorkload;
use train::TrainWorkload;

/// Track of the benchmark's own spans on a rank's recorder (0 and 1 are
/// the rank and progress threads; serving requests use 8 and up).
pub const TRACK_BENCH: u32 = 2;

/// The benchmark process's own recorder, for spans around calls that
/// happen outside any rank (world construction, `serve`, probes).
pub struct Bench {
    pub rec: TraceRecorder,
    epoch: Instant,
}

impl Bench {
    /// Nanoseconds on this recorder's clock.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Timelines for the merged Chrome trace, all on the benchmark's clock.
#[derive(Default)]
pub struct TraceSink {
    timelines: Vec<StepTimeline>,
}

impl TraceSink {
    /// Adds rank timelines whose recorder epoch is `at_ns` on the
    /// benchmark's clock (the world's construction, to within its own
    /// few microseconds).
    pub fn add_ranks(&mut self, ranks: &[StepTimeline], at_ns: u64) {
        for tl in ranks {
            let mut tl = tl.clone();
            for s in &mut tl.spans {
                s.start_ns += at_ns;
                s.end_ns += at_ns;
            }
            for i in &mut tl.instants {
                i.ts_ns += at_ns;
            }
            for c in &mut tl.counters {
                c.ts_ns += at_ns;
            }
            self.timelines.push(tl);
        }
    }
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The modeled host tier of `train-z2-offload`: ~2 GiB/s, 20 µs per transfer.
fn host_tier() -> TierConfig {
    TierConfig {
        enabled: true,
        device_budget: u64::MAX,
        host_bw: 2 << 30,
        host_lat: Duration::from_micros(20),
        depth: 1,
    }
}

/// Every node one rank, so every hop crosses the 10 MB/s, 150 µs tier.
fn slow_link() -> WorldConfig {
    WorldConfig::with_tiered_link(TieredLink {
        node_size: 1,
        intra_latency: Duration::from_micros(5),
        intra_bytes_per_sec: 4e9,
        inter_latency: Duration::from_micros(150),
        inter_bytes_per_sec: 10e6,
    })
}

enum Workload {
    Train(TrainWorkload),
    Serve(ServeWorkload),
}

struct Named {
    name: &'static str,
    why: &'static str,
    workload: Workload,
}

fn workloads() -> Vec<Named> {
    vec![
        Named {
            name: "train-z2-offload",
            why: "compute-bound ZeRO-2 with checkpointing and host-tier offload: GEMMs and tier moves set step time",
            workload: Workload::Train(TrainWorkload {
                model: ModelConfig { vocab: 256, seq: 32, hidden: 128, layers: 4, heads: 4 },
                zero: ZeroConfig {
                    stage: ZeroStage::Two,
                    fp16: true,
                    checkpoint_activations: true,
                    overlap: true,
                    tier: host_tier(),
                    ..ZeroConfig::default()
                },
                dp: 2,
                global_batch: 8,
                world: WorldConfig::default,
                node_size: None,
                nominal_step_s: 0.42,
            }),
        },
        Named {
            name: "train-z3-zpp-slowlink",
            why: "bandwidth-bound ZeRO-3 with int8 qwZ/qgZ on a 10 MB/s link: collectives and their queueing set step time",
            workload: Workload::Train(TrainWorkload {
                model: ModelConfig { vocab: 256, seq: 32, hidden: 64, layers: 8, heads: 4 },
                zero: ZeroConfig {
                    stage: ZeroStage::Three,
                    fp16: true,
                    checkpoint_activations: false,
                    overlap: true,
                    compression: CompressionConfig {
                        qwz: true,
                        hpz: false,
                        qgz: true,
                        node_size: 1,
                        block: 64,
                    },
                    ..ZeroConfig::default()
                },
                dp: 2,
                global_batch: 4,
                world: slow_link,
                node_size: Some(1),
                nominal_step_s: 0.26,
            }),
        },
        Named {
            name: "serve-open-paged",
            why: "open-loop Poisson serving over paged KV with prefix reuse: per-unit all-gathers and the scheduler set latency",
            workload: Workload::Serve(ServeWorkload {
                model: ModelConfig { vocab: 256, seq: 32, hidden: 64, layers: 4, heads: 4 },
                ranks: 2,
                cfg: ServeConfig {
                    slots: 8,
                    overlap: true,
                    kv: KvBackend::Paged { block: 4, prefix_reuse: true },
                    slo_steps: Some(40),
                },
                rate: 0.2,
                requests_per_second: 30,
                families: 4,
                prefix_len: 12,
                prompt_len: (8, 20),
                max_new: (4, 10),
            }),
        },
    ]
}

/// The end-to-end metrics every workload reports with `--trace 0`.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("tokens_per_s", "tok/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_device_mib", "MiB"),
];

/// The per-layer metrics every workload reports with `--trace 1`. A layer
/// a workload bypasses reads 0 there.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("tensor.sgemm_nt.gflops", "GF/s"),
        ("tensor.sgemm_nn.gflops", "GF/s"),
        ("tensor.sgemm_tn.gflops", "GF/s"),
        ("tensor.sgemm_acc.gflops", "GF/s"),
        ("tensor.sgemm_nt_decode.gflops", "GF/s"),
        ("model.embed_ms", "ms"),
        ("model.block_fwd_ms", "ms"),
        ("model.block_refwd_ms", "ms"),
        ("model.block_bwd_ms", "ms"),
        ("model.head_ms", "ms"),
        ("model.decode_ms", "ms"),
        ("model.fwd_bwd_cost_ratio", "ratio"),
        ("optim.adam_ms", "ms"),
        ("optim.skipped_steps", "count"),
        ("optim.loss_at_end", "nats"),
    ]
    .iter()
    .map(|(n, u)| (n.to_string(), *u))
    .collect();
    for (_, prefix) in train::COMM_KINDS {
        for (what, unit) in [
            ("exec_ms", "ms"),
            ("wait_ms", "ms"),
            ("calls", "count"),
            ("bytes", "bytes"),
        ] {
            v.push((format!("{prefix}.{what}"), unit));
        }
    }
    for (n, u) in [
        ("comm.drain_wait_ms", "ms"),
        ("comm.overlap_ms", "ms"),
        ("comm.inter_node_bytes", "bytes"),
        ("comm.quant.encode_gbps", "GB/s"),
        ("core.engine_new_ms", "ms"),
        ("core.step_wall_ms", "ms"),
        ("core.unattributed_ms", "ms"),
        ("core.ckpt_ms", "ms"),
        ("core.tier.ms", "ms"),
        ("core.tier.fetch_bytes", "bytes"),
        ("core.tier.spill_bytes", "bytes"),
    ] {
        v.push((n.to_string(), u));
    }
    for c in ALL_CATEGORIES {
        v.push((train::category_metric(c), "MiB"));
    }
    for (n, u) in [
        ("core.dp_scaling_eff", "ratio"),
        ("serve.batch_steps", "count"),
        ("serve.step_ms", "ms"),
        ("serve.gather_wait_ms", "ms"),
        ("serve.occupancy", "requests"),
        ("serve.queue_steps_p50", "steps"),
        ("serve.prefix_hit_rate", "ratio"),
        ("serve.kv_alloc_mib", "MiB"),
        ("serve.kv_live_peak_mib", "MiB"),
        ("serve.kv_evictions", "count"),
        ("serve.shed_frac", "ratio"),
        ("trace.overhead_frac", "ratio"),
    ] {
        v.push((n.to_string(), u));
    }
    v
}

/// Orders `got` by the declared list, filling layers the workload bypasses
/// with 0. A metric outside the list, a unit that disagrees, or a
/// non-finite value is a benchmark bug and fails the run.
fn conform(declared: &[(String, &'static str)], got: &Metrics, out: &mut Outcome) -> Metrics {
    let mut m = Metrics::default();
    for (name, value, unit) in got.iter() {
        match declared.iter().find(|(n, _)| n == name) {
            Some((_, u)) if u == unit => {}
            _ => out
                .gate_failures
                .push(format!("undeclared metric {name} [{unit}]")),
        }
        if !value.is_finite() {
            out.gate_failures
                .push(format!("metric {name} is not finite"));
        }
    }
    for (name, unit) in declared {
        let v = got.get(name).filter(|v| v.is_finite()).unwrap_or(0.0);
        m.put(name.clone(), v, unit);
    }
    m
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unavailable".to_string())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let seconds: u64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds must be 1..=600, got {seconds}"));
    }
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, got {t}")),
        },
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("zerobench: {e}");
            eprintln!("usage: zerobench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let all = workloads();
    let Some(named) = all.iter().find(|w| w.name == args.workload) else {
        let names: Vec<_> = all.iter().map(|w| w.name).collect();
        eprintln!(
            "zerobench: unknown workload {}; one of {}",
            args.workload,
            names.join(", ")
        );
        std::process::exit(2);
    };

    println!(
        "# provenance: cores={} rustc=\"{}\" commit={} workload={} seed={} seconds={} trace={}",
        cores(),
        command_line("rustc", &["--version"]),
        // Only the checkout's own repository, never one above it.
        if std::path::Path::new(".git").exists() {
            command_line("git", &["rev-parse", "--short=12", "HEAD"])
        } else {
            "unavailable".to_string()
        },
        named.name,
        args.seed,
        args.seconds,
        args.trace as u8
    );
    println!("# why: {}", named.why);
    let epoch = Instant::now();
    let bench = Bench {
        rec: TraceRecorder::with_epoch(epoch),
        epoch,
    };
    bench.rec.set_enabled(args.trace);
    let mut sink = TraceSink::default();
    let mut out = match (&named.workload, args.trace) {
        (Workload::Train(w), false) => train::timed(w, args.seed, args.seconds, &bench),
        (Workload::Train(w), true) => train::traced(w, args.seed, args.seconds, &bench, &mut sink),
        (Workload::Serve(w), trace) => {
            println!("# load: {}; arrivals are stamped in batch steps, so delivery is never late by construction", serve::describe(w, args.seed, args.seconds));
            if trace {
                serve::traced(w, args.seed, args.seconds, &bench, &mut sink)
            } else {
                serve::timed(w, args.seed, args.seconds, &bench)
            }
        }
    };
    let declared: Vec<(String, &'static str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    let got = std::mem::take(&mut out.metrics);
    out.metrics = conform(&declared, &got, &mut out);

    if args.trace {
        for (name, value, unit) in out.metrics.iter() {
            println!("  {name:<34} {value:>14.6} {unit}");
        }
        sink.timelines.push(bench.rec.timeline());
        let dir = std::path::PathBuf::from(
            std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string()),
        )
        .join("zerobench");
        let path = dir.join(format!("{}-seed{}.trace.json", named.name, args.seed));
        match std::fs::create_dir_all(&dir)
            .and_then(|_| std::fs::write(&path, chrome_trace(&sink.timelines)))
        {
            Ok(()) => println!(
                "# chrome trace: {} (pid {} is the benchmark process)",
                path.display(),
                sink.timelines.len() - 1
            ),
            Err(e) => eprintln!("zerobench: could not write {}: {e}", path.display()),
        }
    }
    for g in &out.gate_failures {
        eprintln!("GATE FAILED: {g}");
        println!("# gate failed: {g}");
    }
    println!("{}", out.json_line());
    if !out.gate_failures.is_empty() {
        std::process::exit(1);
    }
}
