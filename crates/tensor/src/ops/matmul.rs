//! Matrix multiplication: one packed GEMM core behind four layout wrappers.
//!
//! These are the FLOP-dominant kernels of transformer training and
//! serving. [`gemm`] is the only multiply core; [`sgemm`], [`sgemm_nt`],
//! [`sgemm_tn`] and [`sgemm_acc`] only say how their operands are stored.
//! The core is single-threaded safe Rust (the vendored rayon runs
//! sequentially; ranks are the parallelism), written so the compiler can
//! keep a register tile of independent accumulators in vector registers.
//! All products accumulate in `f32` over `f32` inputs (the engine converts
//! fp16 storage to f32 before compute, as tensor cores do).
//!
//! # Accumulation contract
//!
//! For every output element `c[i,j]`:
//! - one `f32` accumulator starts at `0.0` and adds `a[i,p]·b[p,j]` in
//!   ascending `p`;
//! - terms with `a[i,p] == 0.0` are skipped (bit-neutral for finite `b`,
//!   and it keeps causal-masked `P·V` and `dS·K` cheap);
//! - an accumulating call stores `c[i,j] + Σ`, adding the finished sum once.
//!
//! So the bits of `c[i,j]` depend only on row `i` of `a` and column `j` of
//! `b`: not on `m`, `n`, the tile the element lands in, or the schedule
//! that computed it. A row computed alone (serving decode) equals that
//! row of a full call (prefill), and every layout equals the scalar
//! ascending-`p` reference bitwise.
//!
//! # Schedules
//!
//! Both schedules walk rows of `a` (a transposed `a` is repacked
//! row-major first) and keep a strip of `c[i, j0..j0+W]` in `W`
//! independent register accumulators; `axpy` is the one multiply step.
//! - Calls with at least `PACK_MIN_ROWS` rows pack `b` once per call
//!   into zero-padded `k×NR` column strips, read stride-1.
//! - Smaller calls (decode is `m = 1`) read `b` in place, so the weight
//!   matrix is never repacked per token. For a transposed `b` each column
//!   is contiguous; the schedule loads 4 `p` of each of `ROW_NR` columns
//!   at a time and feeds them to `axpy` in ascending `p`.

use std::borrow::Cow;

/// Columns per register strip in the packed schedule.
const NR: usize = 32;
/// Columns per register strip in the in-place row schedule.
const ROW_NR: usize = 8;
/// Row count from which packing `b` pays for itself: timing `nt` at 1–8
/// rows, the in-place schedule wins at 2–3 rows and packing from 4 on.
const PACK_MIN_ROWS: usize = 4;

/// How a GEMM operand is stored relative to its logical shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trans {
    /// Row-major in its logical shape.
    N,
    /// Row-major in the transposed shape (used transposed).
    T,
}

/// The core: `c[m×n] = a·b`, or `c += a·b` when `accumulate`, under the
/// module's accumulation contract. `a` is the logical `m×k` matrix stored
/// as `la`, `b` the logical `k×n` matrix stored as `lb`.
///
/// # Panics
/// Panics if slice lengths are inconsistent with the dimensions.
pub fn gemm(
    a: &[f32],
    la: Trans,
    b: &[f32],
    lb: Trans,
    c: &mut [f32],
    (m, k, n): (usize, usize, usize),
    accumulate: bool,
) {
    assert_eq!(a.len(), m * k, "gemm: a has wrong length");
    assert_eq!(b.len(), k * n, "gemm: b has wrong length");
    assert_eq!(c.len(), m * n, "gemm: c has wrong length");
    let a: Cow<[f32]> = match la {
        Trans::N => Cow::Borrowed(a),
        Trans::T => {
            let mut rows = vec![0.0; m * k];
            transpose(a, &mut rows, k, m);
            Cow::Owned(rows)
        }
    };
    if m < PACK_MIN_ROWS {
        row_schedule(&a, b, lb, c, (m, k, n), accumulate);
    } else {
        packed_schedule(&a, &pack_strips(b, lb, k, n), c, (m, k, n), accumulate);
    }
}

/// `c = Σ` or `c + Σ`, element by element.
#[inline(always)]
fn store(c: &mut [f32], sums: &[f32], accumulate: bool) {
    for (c, &s) in c.iter_mut().zip(sums) {
        *c = if accumulate { *c + s } else { s };
    }
}

/// Rows of `a` (row-major) times `b` read in place, `ROW_NR` columns at a
/// time, then one at a time for the ragged tail. Both schedules stay out
/// of line: inlined into one body, either one's inner loop can lose its
/// vector registers to the other's.
#[inline(never)]
fn row_schedule(
    a: &[f32],
    b: &[f32],
    lb: Trans,
    c: &mut [f32],
    (m, k, n): (usize, usize, usize),
    accumulate: bool,
) {
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut c[i * n..(i + 1) * n];
        let mut j0 = 0;
        while j0 + ROW_NR <= n {
            let sums = row_strip::<ROW_NR>(a_row, b, lb, (k, n), j0);
            store(&mut c_row[j0..], &sums, accumulate);
            j0 += ROW_NR;
        }
        for j in j0..n {
            store(
                &mut c_row[j..],
                &row_strip::<1>(a_row, b, lb, (k, n), j),
                accumulate,
            );
        }
    }
}

/// Rows of `a` (row-major) times `b` packed into `k×NR` strips.
#[inline(never)]
fn packed_schedule(
    a: &[f32],
    strips: &[f32],
    c: &mut [f32],
    (m, k, n): (usize, usize, usize),
    accumulate: bool,
) {
    for j0 in (0..n).step_by(NR) {
        let strip = &strips[j0 * k..(j0 + NR) * k];
        let cols = (n - j0).min(NR);
        for i in 0..m {
            let sums = packed_strip(&a[i * k..(i + 1) * k], strip);
            store(&mut c[i * n + j0..][..cols], &sums, accumulate);
        }
    }
}

/// The multiply step every schedule is built from: `acc[c] += x·b[c]`
/// for one `p`, skipped when `x == 0.0`. The `W` accumulators are
/// independent, so the loop vectorizes without reassociating any sum.
#[inline(always)]
fn axpy<const W: usize>(acc: &mut [f32; W], x: f32, b: &[f32; W]) {
    if x != 0.0 {
        for (s, &y) in acc.iter_mut().zip(b) {
            *s += x * y;
        }
    }
}

/// `a_row` times one packed `k×NR` strip.
fn packed_strip(a_row: &[f32], strip: &[f32]) -> [f32; NR] {
    let mut acc = [0.0_f32; NR];
    for (&x, bv) in a_row.iter().zip(strip.as_chunks::<NR>().0) {
        axpy(&mut acc, x, bv);
    }
    acc
}

/// `a_row · b[:, j0..j0+W]` with `b` read in place (`(k, n)` its logical
/// shape, stored as `lb`).
fn row_strip<const W: usize>(
    a_row: &[f32],
    b: &[f32],
    lb: Trans,
    (k, n): (usize, usize),
    j0: usize,
) -> [f32; W] {
    let mut acc = [0.0_f32; W];
    match lb {
        Trans::N => {
            for (&x, b_row) in a_row.iter().zip(b.chunks_exact(n)) {
                axpy(&mut acc, x, b_row[j0..].first_chunk().expect("j0 + W <= n"));
            }
        }
        Trans::T => {
            // Column j of b is row j of its storage.
            let cols: [&[f32]; W] = std::array::from_fn(|c| &b[(j0 + c) * k..][..k]);
            let quads: [&[[f32; 4]]; W] = std::array::from_fn(|c| cols[c].as_chunks().0);
            let (a_quads, a_tail) = a_row.as_chunks::<4>();
            for (q, xs) in a_quads.iter().enumerate() {
                let blk: [[f32; 4]; W] = std::array::from_fn(|c| quads[c][q]);
                for (s, &x) in xs.iter().enumerate() {
                    axpy(&mut acc, x, &std::array::from_fn(|c| blk[c][s]));
                }
            }
            let split = k - a_tail.len();
            for (p, &x) in a_tail.iter().enumerate() {
                axpy(&mut acc, x, &std::array::from_fn(|c| cols[c][split + p]));
            }
        }
    }
    acc
}

/// Packs the logical `k×n` matrix `b` (stored as `lb`) into zero-padded
/// `k×NR` column strips: element `(p, j)` lands at
/// `(j/NR · k + p) · NR + j%NR`. Reads follow the storage order.
fn pack_strips(b: &[f32], lb: Trans, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0_f32; n.div_ceil(NR) * NR * k];
    let dst = |p: usize, j: usize| (j / NR * k + p) * NR + j % NR;
    match lb {
        Trans::N => {
            for (p, row) in b.chunks_exact(n.max(1)).enumerate() {
                for (j0, piece) in (0..n).step_by(NR).zip(row.chunks(NR)) {
                    out[dst(p, j0)..][..piece.len()].copy_from_slice(piece);
                }
            }
        }
        Trans::T => {
            for (j, col) in b.chunks_exact(k.max(1)).enumerate() {
                for (p, &v) in col.iter().enumerate() {
                    out[dst(p, j)] = v;
                }
            }
        }
    }
    out
}

/// `c[m×n] = a[m×k] · b[k×n]` (row-major): the input-gradient layout
/// `dX = dY·W` and attention's `P·V`.
///
/// # Panics
/// Panics if slice lengths are inconsistent with the dimensions.
pub fn sgemm(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    gemm(a, Trans::N, b, Trans::N, c, (m, k, n), false);
}

/// `c[m×n] += a[m×k] · b[k×n]`, adding the finished sum to `c` once.
pub fn sgemm_acc(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    gemm(a, Trans::N, b, Trans::N, c, (m, k, n), true);
}

/// `c[m×n] = a[m×k] · b[n×k]^T` — B stored row-major as `n×k` and used
/// transposed. This is the forward and decode layout `y = x·W^T` with W
/// stored `[out, in]`, and attention's `Q·K^T`.
pub fn sgemm_nt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    gemm(a, Trans::N, b, Trans::T, c, (m, k, n), false);
}

/// `c[m×n] = a[k×m]^T · b[k×n]` — A stored row-major as `k×m`, used
/// transposed. This is the weight-gradient layout `dW = dY^T · X`.
pub fn sgemm_tn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    gemm(a, Trans::T, b, Trans::N, c, (m, k, n), false);
}

/// Out-of-place transpose of a row-major `rows×cols` matrix, in square
/// blocks so both the reads and the strided writes stay in cache.
pub fn transpose(src: &[f32], dst: &mut [f32], rows: usize, cols: usize) {
    const BLOCK: usize = 16;
    assert_eq!(src.len(), rows * cols, "transpose: src has wrong length");
    assert_eq!(dst.len(), rows * cols, "transpose: dst has wrong length");
    for r0 in (0..rows).step_by(BLOCK) {
        for c0 in (0..cols).step_by(BLOCK) {
            for r in r0..(r0 + BLOCK).min(rows) {
                for c in c0..(c0 + BLOCK).min(cols) {
                    dst[c * rows + r] = src[r * cols + c];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a[i * k + p] * b[p * n + j];
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    fn seq(len: usize, scale: f32) -> Vec<f32> {
        (0..len)
            .map(|i| ((i * 7 % 13) as f32 - 6.0) * scale)
            .collect()
    }

    #[test]
    fn sgemm_matches_naive() {
        for &(m, k, n) in &[(1, 1, 1), (2, 3, 4), (17, 9, 23), (32, 32, 32)] {
            let a = seq(m * k, 0.25);
            let b = seq(k * n, 0.5);
            let mut c = vec![f32::NAN; m * n];
            sgemm(&a, &b, &mut c, m, k, n);
            let want = naive(&a, &b, m, k, n);
            for (x, y) in c.iter().zip(&want) {
                assert!((x - y).abs() < 1e-4, "{x} vs {y} at ({m},{k},{n})");
            }
        }
    }

    #[test]
    fn sgemm_acc_accumulates() {
        let (m, k, n) = (5, 4, 6);
        let a = seq(m * k, 0.1);
        let b = seq(k * n, 0.2);
        let mut c = vec![1.0; m * n];
        sgemm_acc(&a, &b, &mut c, m, k, n);
        let want: Vec<f32> = naive(&a, &b, m, k, n).iter().map(|v| v + 1.0).collect();
        for (x, y) in c.iter().zip(&want) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn sgemm_nt_matches_explicit_transpose() {
        let (m, k, n) = (7, 5, 9);
        let a = seq(m * k, 0.3);
        let b_t = seq(n * k, 0.2); // stored n×k
        let mut b = vec![0.0; k * n];
        transpose(&b_t, &mut b, n, k);
        let mut c = vec![0.0; m * n];
        sgemm_nt(&a, &b_t, &mut c, m, k, n);
        let want = naive(&a, &b, m, k, n);
        for (x, y) in c.iter().zip(&want) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn sgemm_tn_matches_explicit_transpose() {
        let (m, k, n) = (6, 8, 5);
        let a_t = seq(k * m, 0.15); // stored k×m
        let b = seq(k * n, 0.25);
        let mut a = vec![0.0; m * k];
        transpose(&a_t, &mut a, k, m);
        let mut c = vec![0.0; m * n];
        sgemm_tn(&a_t, &b, &mut c, m, k, n);
        let want = naive(&a, &b, m, k, n);
        for (x, y) in c.iter().zip(&want) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn transpose_involution() {
        let src = seq(12, 1.0);
        let mut t = vec![0.0; 12];
        let mut back = vec![0.0; 12];
        transpose(&src, &mut t, 3, 4);
        transpose(&t, &mut back, 4, 3);
        assert_eq!(src, back);
    }
}
