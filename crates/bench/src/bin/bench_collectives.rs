//! Collective-traffic baseline: `results/BENCH_collectives.json`.
//!
//! For each ZeRO stage at the standard bench model and DP degree, runs a
//! short training loop and records per-rank communication volume
//! (measured by the fabric's traffic counters *and* predicted by the
//! declarative `CommPlan` — the two must agree exactly) together with
//! wall-clock throughput in bytes/sec. The JSON is a committed baseline:
//! a schedule change that moves more bytes than the plan predicts shows
//! up as a diff here before it shows up as a regression on hardware.
//!
//! A checksum section times the per-message integrity kernel every fabric
//! send and receive pays: `crc32` over bytes and `crc32_f32s` over floats,
//! at 4 KiB, 80 KiB (one serving unit shard) and 1 MiB, as median, min and
//! max GB/s over [`TRIALS`] trials next to the host's core count. Each size
//! is first checked bitwise against a bit-at-a-time CRC-32; a mismatch
//! exits non-zero before anything is timed or written.
//!
//! ```text
//! cargo run --release -p zero-bench --bin bench_collectives
//! ```

use std::time::Instant;

use serde::Serialize;
use zero_bench::bench_setup;
use zero_comm::{crc32, crc32_f32s, ALL_KINDS};
use zero_core::{run_training, CommPlan, StepShape, ZeroStage};
use zero_model::Layout;

#[derive(Serialize)]
struct StageRow {
    stage: String,
    psi: usize,
    nd: usize,
    steps: usize,
    /// Measured bytes sent per rank per step (max over ranks).
    bytes_per_rank_per_step: f64,
    /// The CommPlan's analytic prediction for the same quantity.
    plan_bytes_per_rank_per_step: f64,
    /// Measured aggregate send throughput (all ranks) over the run.
    bytes_per_sec: f64,
    /// Wall-clock seconds per training step.
    secs_per_step: f64,
    /// Per-kind bytes for rank 0 per step, in discriminant order
    /// (all-reduce, reduce-scatter, all-gather, broadcast, reduce, p2p).
    rank0_bytes_by_kind: Vec<f64>,
}

/// Timed trials per checksum kernel and size.
const TRIALS: usize = 5;
/// Bytes checksummed per trial, so small sizes are not timer noise.
const TRIAL_BYTES: usize = 16 << 20;
/// Payload sizes: a small message, one serving unit shard, a large bucket.
const CRC_SIZES: [usize; 3] = [4 << 10, 80 << 10, 1 << 20];

#[derive(Serialize)]
struct CrcRow {
    kernel: &'static str,
    bytes: usize,
    reps_per_trial: usize,
    gbps_median: f64,
    gbps_min: f64,
    gbps_max: f64,
}

#[derive(Serialize)]
struct Report {
    host_cores: usize,
    trials: usize,
    checksum: Vec<CrcRow>,
    stages: Vec<StageRow>,
}

/// CRC-32/ISO-HDLC one bit at a time: no tables, so it shares nothing
/// with the kernel it checks.
fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
        }
    }
    !crc
}

/// Checks both kernels against [`crc32_bitwise`] at every size, then times
/// them. `None` if any checksum differs.
fn checksum_rows() -> Option<Vec<CrcRow>> {
    let mut rows = Vec::new();
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    for bytes in CRC_SIZES {
        let floats: Vec<f32> = (0..bytes / 4)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                f32::from_bits(state as u32)
            })
            .collect();
        let image: Vec<u8> = floats.iter().flat_map(|v| v.to_le_bytes()).collect();
        let want = crc32_bitwise(&image);
        let (got_bytes, got_floats) = (crc32(&image), crc32_f32s(&floats));
        if got_bytes != want || got_floats != want {
            eprintln!(
                "{bytes} B: crc32 {got_bytes:#010x}, crc32_f32s {got_floats:#010x}, \
                 bit-at-a-time reference {want:#010x}"
            );
            return None;
        }
        let reps = TRIAL_BYTES / bytes;
        let kernels: [(&'static str, &dyn Fn() -> u32); 2] = [
            ("crc32", &|| crc32(std::hint::black_box(&image))),
            ("crc32_f32s", &|| crc32_f32s(std::hint::black_box(&floats))),
        ];
        for (kernel, run) in kernels {
            let mut rates: Vec<f64> = (0..TRIALS)
                .map(|_| {
                    let t0 = Instant::now();
                    for _ in 0..reps {
                        std::hint::black_box(run());
                    }
                    (bytes * reps) as f64 / t0.elapsed().as_secs_f64() / 1e9
                })
                .collect();
            rates.sort_by(f64::total_cmp);
            rows.push(CrcRow {
                kernel,
                bytes,
                reps_per_trial: reps,
                gbps_median: rates[TRIALS / 2],
                gbps_min: rates[0],
                gbps_max: rates[TRIALS - 1],
            });
        }
    }
    Some(rows)
}

fn main() {
    let Some(checksum) = checksum_rows() else {
        eprintln!("a checksum kernel differs from the bit-at-a-time reference");
        std::process::exit(1);
    };
    for r in &checksum {
        println!(
            "{:>10} {:>8} B  median {:>5.2} GB/s  (min {:.2}, max {:.2})",
            r.kernel, r.bytes, r.gbps_median, r.gbps_min, r.gbps_max
        );
    }

    let nd = 4;
    let steps = 5;
    let mut rows = Vec::new();

    for stage in [ZeroStage::Ddp, ZeroStage::One, ZeroStage::Two, ZeroStage::Three] {
        let setup = bench_setup(stage, nd);
        let layout = Layout::build(&setup.model);
        let psi = layout.total_params();
        let local_batch = setup.global_batch / nd;
        let act_elems = local_batch * setup.model.seq * setup.model.hidden;

        let t0 = Instant::now();
        let report = run_training(&setup, steps, 0);
        let elapsed = t0.elapsed().as_secs_f64();

        // Analytic per-rank volume from the plan, shaped by the observed
        // skip flags (max over ranks, matching the measured statistic).
        let plan_bytes = |rank: usize| -> u64 {
            report
                .skipped
                .iter()
                .map(|&skipped| {
                    CommPlan::train_step(
                        &layout,
                        &setup.zero,
                        setup.grid,
                        &StepShape { micro_batches: 1, act_elems, skipped },
                    )
                    .total_rank_bytes(rank)
                })
                .sum()
        };

        let measured_max = report
            .ranks
            .iter()
            .map(|r| r.traffic.total_bytes())
            .max()
            .unwrap_or(0);
        let plan_max = (0..nd).map(plan_bytes).max().unwrap_or(0);
        let total: u64 = report.ranks.iter().map(|r| r.traffic.total_bytes()).sum();
        let rank0 = &report.ranks[0].traffic;

        rows.push(StageRow {
            stage: stage.name().to_string(),
            psi,
            nd,
            steps,
            bytes_per_rank_per_step: measured_max as f64 / steps as f64,
            plan_bytes_per_rank_per_step: plan_max as f64 / steps as f64,
            bytes_per_sec: total as f64 / elapsed,
            secs_per_step: elapsed / steps as f64,
            rank0_bytes_by_kind: ALL_KINDS
                .iter()
                .map(|k| rank0.bytes(*k) as f64 / steps as f64)
                .collect(),
        });
    }

    for row in &rows {
        println!(
            "{:<20} bytes/rank/step {:>12.0} (plan {:>12.0})  {:>10.2e} B/s",
            row.stage, row.bytes_per_rank_per_step, row.plan_bytes_per_rank_per_step, row.bytes_per_sec
        );
    }
    let report = Report {
        host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        trials: TRIALS,
        checksum,
        stages: rows,
    };
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("manifest dir has a grandparent");
    let out = root.join("results/BENCH_collectives.json");
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&out, json + "\n").expect("write BENCH_collectives.json");
    println!("wrote {}", out.display());
}
