//! GEMM layout micro-benchmark: `results/BENCH_matmul.json`.
//!
//! Times every layout of the one GEMM core — `nn` (input gradients,
//! `P·V`), `nt` (forward linears, `Q·Kᵀ`, LM head), `tn` (weight
//! gradients), `acc` (`C += A·B`) and `nt` at one row (serving decode) —
//! at the real shapes of the `train-z2-offload` model: `t×h×3h`,
//! `t×h×4h`, `t×4h×h` and attention's `s×hd×s`. Each row reports the
//! median, min and max GF/s over [`TRIALS`] trials, next to the host's
//! core count.
//!
//! Before timing, every layout and shape is checked against the scalar
//! ascending-`p` reference of the accumulation contract, bitwise, with
//! exact zeros sprinkled into A. A mismatch exits non-zero.
//!
//! ```text
//! cargo run --release -p zero-bench --bin bench_matmul            # writes the JSON
//! cargo run --release -p zero-bench --bin bench_matmul -- --smoke # bitwise gate only
//! ```

use std::time::Instant;

use serde::Serialize;
use zero_tensor::ops::matmul::{sgemm, sgemm_acc, sgemm_nt, sgemm_tn};

/// Timed trials per layout and shape.
const TRIALS: usize = 5;
/// Floating-point work per trial, so small shapes are not timer noise.
const TRIAL_FLOPS: usize = 1 << 25;

/// Tokens per rank (4 sequences × 32), hidden width, sequence length and
/// head width of the `train-z2-offload` model.
const T: usize = 128;
const H: usize = 128;
const S: usize = 32;
const HD: usize = 32;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Nn,
    Nt,
    Tn,
    Acc,
    /// `nt` with one row.
    Decode,
}

impl Kind {
    const ALL: [Kind; 5] = [Kind::Nn, Kind::Nt, Kind::Tn, Kind::Acc, Kind::Decode];

    fn name(self) -> &'static str {
        match self {
            Kind::Nn => "nn",
            Kind::Nt => "nt",
            Kind::Tn => "tn",
            Kind::Acc => "acc",
            Kind::Decode => "nt_m1",
        }
    }

    fn call(self, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        match self {
            Kind::Nn => sgemm(a, b, c, m, k, n),
            Kind::Nt | Kind::Decode => sgemm_nt(a, b, c, m, k, n),
            Kind::Tn => sgemm_tn(a, b, c, m, k, n),
            Kind::Acc => sgemm_acc(a, b, c, m, k, n),
        }
    }

    /// The contract's scalar reference: one accumulator per element from
    /// zero, ascending `p`, zero `a` terms skipped, `c + Σ` when
    /// accumulating.
    fn reference(self, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        for i in 0..m {
            for j in 0..n {
                let mut sum = 0.0_f32;
                for p in 0..k {
                    let x = if self == Kind::Tn {
                        a[p * m + i]
                    } else {
                        a[i * k + p]
                    };
                    if x != 0.0 {
                        let y = if self.b_transposed() {
                            b[j * k + p]
                        } else {
                            b[p * n + j]
                        };
                        sum += x * y;
                    }
                }
                let out = &mut c[i * n + j];
                *out = if self == Kind::Acc { *out + sum } else { sum };
            }
        }
    }

    fn b_transposed(self) -> bool {
        matches!(self, Kind::Nt | Kind::Decode)
    }
}

#[derive(Serialize)]
struct Row {
    layout: &'static str,
    m: usize,
    k: usize,
    n: usize,
    reps_per_trial: usize,
    gflops_median: f64,
    gflops_min: f64,
    gflops_max: f64,
}

#[derive(Serialize)]
struct Report {
    host_cores: usize,
    trials: usize,
    model: &'static str,
    rows: Vec<Row>,
}

/// Deterministic values in [-1, 1) with every fifth A entry an exact zero.
fn fill(len: usize, seed: u64, zeros: bool) -> Vec<f32> {
    let mut state = seed;
    (0..len)
        .map(|i| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if zeros && i % 5 == 0 {
                0.0
            } else {
                ((state >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
            }
        })
        .collect()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let shapes = [(T, H, 3 * H), (T, H, 4 * H), (T, 4 * H, H), (S, HD, S)];
    let mut rows = Vec::new();
    let mut mismatches = 0;
    for kind in Kind::ALL {
        for (si, &(t, k, n)) in shapes.iter().enumerate() {
            let m = if kind == Kind::Decode { 1 } else { t };
            let a = fill(m * k, 1 + si as u64, true);
            let b = fill(k * n, 101 + si as u64, false);
            let c0 = fill(m * n, 202 + si as u64, false);
            let (mut got, mut want) = (c0.clone(), c0.clone());
            kind.call(&a, &b, &mut got, m, k, n);
            kind.reference(&a, &b, &mut want, m, k, n);
            if got
                .iter()
                .zip(&want)
                .any(|(x, y)| x.to_bits() != y.to_bits())
            {
                eprintln!(
                    "{} {m}x{k}x{n}: differs from the scalar reference",
                    kind.name()
                );
                mismatches += 1;
            }
            let flops = 2 * m * k * n;
            let reps = if smoke {
                1
            } else {
                (TRIAL_FLOPS / flops).max(1)
            };
            let mut rates: Vec<f64> = (0..TRIALS)
                .map(|_| {
                    let t0 = Instant::now();
                    for _ in 0..reps {
                        kind.call(&a, &b, std::hint::black_box(&mut got), m, k, n);
                    }
                    (flops * reps) as f64 / t0.elapsed().as_secs_f64() / 1e9
                })
                .collect();
            rates.sort_by(f64::total_cmp);
            rows.push(Row {
                layout: kind.name(),
                m,
                k,
                n,
                reps_per_trial: reps,
                gflops_median: rates[TRIALS / 2],
                gflops_min: rates[0],
                gflops_max: rates[TRIALS - 1],
            });
        }
    }
    for r in &rows {
        println!(
            "{:>5} {:>4}x{:>4}x{:>4}  median {:>6.2} GF/s  (min {:.2}, max {:.2})",
            r.layout, r.m, r.k, r.n, r.gflops_median, r.gflops_min, r.gflops_max
        );
    }
    if mismatches > 0 {
        eprintln!("{mismatches} layout/shape pairs differ from the scalar reference");
        std::process::exit(1);
    }
    println!("every layout equals the scalar ascending-p reference bitwise");
    if smoke {
        println!("smoke run complete (results file untouched)");
        return;
    }
    let report = Report {
        host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        trials: TRIALS,
        model: "train-z2-offload: t=128 rows per rank, h=128, s=32, hd=32",
        rows,
    };
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("manifest dir has a grandparent");
    let path = root.join("results/BENCH_matmul.json");
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&path, json + "\n").expect("write BENCH_matmul.json");
    println!("wrote {}", path.display());
}
