//! Direct calls into the public GEMM kernels and the int8 transport codec
//! at a workload's real shapes: rate, work and bytes computed from the
//! shapes, and each GEMM layout checked against a naive reference.

use std::hint::black_box;
use std::time::{Duration, Instant};

use zero_comm::{quant_wire_bytes, quantize_for_transport};
use zero_tensor::ops::matmul::{sgemm, sgemm_acc, sgemm_nt, sgemm_tn};
use zero_trace::{SpanCategory, TraceRecorder};

use crate::report::{Metrics, Outcome, MIB};

/// Minimum timed work per kernel and shape, after one untimed call.
const MIN_PROBE: Duration = Duration::from_millis(40);

#[derive(Clone, Copy, PartialEq)]
enum Layout {
    /// `c = a·b`
    Nn,
    /// `c = a·bᵀ`
    Nt,
    /// `c = aᵀ·b`
    Tn,
    /// `c += a·b`
    Acc,
}

impl Layout {
    fn call(self, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        match self {
            Layout::Nn => sgemm(a, b, c, m, k, n),
            Layout::Nt => sgemm_nt(a, b, c, m, k, n),
            Layout::Tn => sgemm_tn(a, b, c, m, k, n),
            Layout::Acc => sgemm_acc(a, b, c, m, k, n),
        }
    }

    /// Element `(i, p)` of the logical left operand and `(p, j)` of the
    /// logical right operand, given how each layout stores them.
    fn a_at(self, a: &[f32], m: usize, k: usize, i: usize, p: usize) -> f32 {
        match self {
            Layout::Tn => a[p * m + i],
            _ => a[i * k + p],
        }
    }

    fn b_at(self, b: &[f32], k: usize, n: usize, p: usize, j: usize) -> f32 {
        match self {
            Layout::Nt => b[j * k + p],
            _ => b[p * n + j],
        }
    }
}

/// Deterministic operand values in [-1, 1).
fn fill(len: usize, mut state: u64) -> Vec<f32> {
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
        })
        .collect()
}

/// Checks `c` (after one call from `c0`) against an f64 reference. The
/// tolerance is the recursive-summation bound `k · ε · Σ|a·b|` per
/// element, which any fp32 accumulation order satisfies.
#[allow(clippy::too_many_arguments)]
fn check(
    layout: Layout,
    a: &[f32],
    b: &[f32],
    c0: &[f32],
    c: &[f32],
    m: usize,
    k: usize,
    n: usize,
) -> Result<(), String> {
    for i in 0..m {
        for j in 0..n {
            let (mut exact, mut abs) = (0.0f64, 0.0f64);
            for p in 0..k {
                let t = layout.a_at(a, m, k, i, p) as f64 * layout.b_at(b, k, n, p, j) as f64;
                exact += t;
                abs += t.abs();
            }
            if layout == Layout::Acc {
                exact += c0[i * n + j] as f64;
                abs += (c0[i * n + j] as f64).abs();
            }
            let tol = (k + 1) as f64 * f32::EPSILON as f64 * abs + f32::MIN_POSITIVE as f64;
            let got = c[i * n + j] as f64;
            if (got - exact).abs() > tol {
                return Err(format!(
                    "({i},{j}) of {m}x{k}x{n}: got {got}, reference {exact}, tolerance {tol}"
                ));
            }
        }
    }
    Ok(())
}

/// Times one layout over `shapes`: total GF/s, after checking the first
/// call at each shape against the reference.
fn gemm_rate(
    layout: Layout,
    shapes: &[(usize, usize, usize)],
    rec: &TraceRecorder,
    span_name: &'static str,
    out: &mut Outcome,
) -> f64 {
    let (mut flops, mut secs) = (0.0f64, 0.0f64);
    for (si, &(m, k, n)) in shapes.iter().enumerate() {
        let a = fill(m * k, 1 + si as u64);
        let b = fill(k * n, 101 + si as u64);
        let c0 = fill(m * n, 202 + si as u64);
        let mut c = c0.clone();
        layout.call(&a, &b, &mut c, m, k, n);
        if let Err(e) = check(layout, &a, &b, &c0, &c, m, k, n) {
            out.gate_failures.push(format!(
                "{span_name} differs from the naive reference at {e}"
            ));
        }
        let span = rec.begin(SpanCategory::Compute, span_name);
        let t0 = Instant::now();
        let mut calls = 0u64;
        while calls < 3 || t0.elapsed() < MIN_PROBE {
            layout.call(black_box(&a), black_box(&b), black_box(&mut c), m, k, n);
            calls += 1;
        }
        secs += t0.elapsed().as_secs_f64();
        rec.end(span);
        flops += 2.0 * (m * k * n) as f64 * calls as f64;
    }
    flops / secs / 1e9
}

/// The shapes a workload's GEMMs run at. `t` is the rows one rank
/// multiplies per linear layer (tokens per step, or live rows), `h` the
/// hidden width; the MLP is 4h wide.
pub struct GemmShapes {
    pub t: usize,
    pub h: usize,
}

impl GemmShapes {
    /// Forward linears `y = x·Wᵀ` (qkv, fc1, fc2): `t×h×3h`, `t×h×4h`,
    /// `t×4h×h`, as `(m, k, n)`.
    fn forward(&self) -> Vec<(usize, usize, usize)> {
        let (t, h) = (self.t, self.h);
        vec![(t, h, 3 * h), (t, h, 4 * h), (t, 4 * h, h)]
    }

    /// Input gradients `dx = dy·W` of the same three linears.
    fn input_grad(&self) -> Vec<(usize, usize, usize)> {
        let (t, h) = (self.t, self.h);
        vec![(t, 3 * h, h), (t, 4 * h, h), (t, h, 4 * h)]
    }

    /// Weight gradients `dW = dyᵀ·x`: the reduction runs over the rows.
    fn weight_grad(&self) -> Vec<(usize, usize, usize)> {
        let (t, h) = (self.t, self.h);
        vec![(3 * h, t, h), (4 * h, t, h), (h, t, 4 * h)]
    }

    /// One-row decode: the serving engine advances each request alone.
    fn decode(&self) -> Vec<(usize, usize, usize)> {
        let h = self.h;
        vec![(1, h, 3 * h), (1, h, 4 * h), (1, 4 * h, h)]
    }
}

/// Probes every GEMM layout and the transport codec; `units` are the
/// element counts of the workload's parameter units (the all-gather and
/// quantization granularity).
pub fn run(
    shapes: &GemmShapes,
    units: &[usize],
    rec: &TraceRecorder,
    metrics: &mut Metrics,
    out: &mut Outcome,
) {
    let gf = |layout, s: Vec<_>, name, out: &mut Outcome| gemm_rate(layout, &s, rec, name, out);
    metrics.put(
        "tensor.sgemm_nt.gflops",
        gf(Layout::Nt, shapes.forward(), "probe-sgemm-nt", out),
        "GF/s",
    );
    metrics.put(
        "tensor.sgemm_nn.gflops",
        gf(Layout::Nn, shapes.input_grad(), "probe-sgemm-nn", out),
        "GF/s",
    );
    metrics.put(
        "tensor.sgemm_tn.gflops",
        gf(Layout::Tn, shapes.weight_grad(), "probe-sgemm-tn", out),
        "GF/s",
    );
    metrics.put(
        "tensor.sgemm_acc.gflops",
        gf(Layout::Acc, shapes.input_grad(), "probe-sgemm-acc", out),
        "GF/s",
    );
    metrics.put(
        "tensor.sgemm_nt_decode.gflops",
        gf(Layout::Nt, shapes.decode(), "probe-sgemm-nt-decode", out),
        "GF/s",
    );
    // Work and bytes of one pass over the three linear shapes (the same
    // for every layout): a, b and c each read or written once.
    let (gflop, bytes) = shapes
        .forward()
        .iter()
        .fold((0.0, 0.0), |(f, b), &(m, k, n)| {
            (
                f + 2.0 * (m * k * n) as f64 / 1e9,
                b + 4.0 * (m * k + k * n + m * n) as f64,
            )
        });
    println!(
        "  tensor probe: {gflop:.6} GFLOP and {:.4} MiB per pass over the linear shapes {:?} (m, k, n), computed from the shapes",
        bytes / MIB,
        shapes.forward()
    );

    // Codec: fp32 in, int8 codes plus per-block scale and zero out.
    let block = zero_comm::DEFAULT_QUANT_BLOCK;
    let (mut in_bytes, mut secs) = (0.0f64, 0.0f64);
    for (i, &len) in units.iter().enumerate() {
        let v = fill(len, 303 + i as u64);
        let q = quantize_for_transport(&v, block);
        if q.wire_bytes() != quant_wire_bytes(len, block) {
            out.gate_failures
                .push(format!("codec wire bytes for {len} elements disagree"));
        }
        let span = rec.begin(SpanCategory::Compute, "probe-quantize");
        let t0 = Instant::now();
        let mut calls = 0u64;
        while calls < 3 || t0.elapsed() < MIN_PROBE {
            black_box(quantize_for_transport(black_box(&v), block));
            calls += 1;
        }
        secs += t0.elapsed().as_secs_f64();
        rec.end(span);
        in_bytes += 4.0 * len as f64 * calls as f64;
    }
    metrics.put("comm.quant.encode_gbps", in_bytes / secs / 1e9, "GB/s");
}
