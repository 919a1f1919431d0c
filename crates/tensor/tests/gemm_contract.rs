//! The GEMM accumulation contract, checked bitwise: every layout equals
//! the scalar ascending-`p` reference (one accumulator from zero, zero
//! `a` terms skipped, `c + Σ` when accumulating), and a row computed alone
//! equals that row of the full call. Shapes span both schedules (fewer
//! than four rows read `b` in place; more pack it) and ragged strip edges.

use proptest::prelude::*;
use zero_tensor::ops::matmul::{gemm, sgemm, sgemm_acc, sgemm_nt, sgemm_tn, Trans};

/// Deterministic values in [-2, 2), with roughly one in `zero_every`
/// entries an exact zero (`0` for none).
fn fill(len: usize, seed: u64, zero_every: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if zero_every > 0 && state.is_multiple_of(zero_every) {
                0.0
            } else {
                ((state >> 40) as f32 / (1u64 << 24) as f32) * 4.0 - 2.0
            }
        })
        .collect()
}

/// Element `(r, c)` of the logical `rows×cols` matrix stored as `t`.
fn at(x: &[f32], t: Trans, rows: usize, cols: usize, r: usize, c: usize) -> f32 {
    match t {
        Trans::N => x[r * cols + c],
        Trans::T => x[c * rows + r],
    }
}

/// The contract, one element at a time.
#[allow(clippy::too_many_arguments)]
fn reference(
    a: &[f32],
    ta: Trans,
    b: &[f32],
    tb: Trans,
    c: &mut [f32],
    (m, k, n): (usize, usize, usize),
    accumulate: bool,
) {
    for i in 0..m {
        for j in 0..n {
            let mut sum = 0.0_f32;
            for p in 0..k {
                let x = at(a, ta, m, k, i, p);
                if x != 0.0 {
                    sum += x * at(b, tb, k, n, p, j);
                }
            }
            let out = &mut c[i * n + j];
            *out = if accumulate { *out + sum } else { sum };
        }
    }
}

/// The signature the four named layout wrappers share.
type Wrapper = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);

fn same_bits(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn check_layouts(
    m: usize,
    k: usize,
    n: usize,
    seed: u64,
    zero_every: u64,
) -> Result<(), TestCaseError> {
    let a = fill(m * k, seed, zero_every);
    let b = fill(k * n, seed ^ 0xB, 0);
    let c0 = fill(m * n, seed ^ 0xC, 0);
    for ta in [Trans::N, Trans::T] {
        for tb in [Trans::N, Trans::T] {
            for accumulate in [false, true] {
                let (mut got, mut want) = (c0.clone(), c0.clone());
                gemm(&a, ta, &b, tb, &mut got, (m, k, n), accumulate);
                reference(&a, ta, &b, tb, &mut want, (m, k, n), accumulate);
                prop_assert!(
                    same_bits(&got, &want),
                    "{ta:?}{tb:?} acc={accumulate} {m}x{k}x{n}"
                );
            }
        }
    }
    // The four named wrappers are those layouts.
    let wrappers: [(Wrapper, Trans, Trans, bool); 4] = [
        (sgemm, Trans::N, Trans::N, false),
        (sgemm_nt, Trans::N, Trans::T, false),
        (sgemm_tn, Trans::T, Trans::N, false),
        (sgemm_acc, Trans::N, Trans::N, true),
    ];
    for (f, ta, tb, accumulate) in wrappers {
        let (mut got, mut want) = (c0.clone(), c0.clone());
        f(&a, &b, &mut got, m, k, n);
        reference(&a, ta, &b, tb, &mut want, (m, k, n), accumulate);
        prop_assert!(
            same_bits(&got, &want),
            "{ta:?}{tb:?} acc={accumulate} {m}x{k}x{n}"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_layout_equals_the_scalar_reference_bitwise(
        few in 0usize..4, many in 0usize..71, k in 0usize..71, n in 0usize..71,
        seed in 0u64..u64::MAX, zero_every in 0u64..6,
    ) {
        // `few` rows take the in-place schedule, `many` mostly the packed one.
        for m in [few, many] {
            check_layouts(m, k, n, seed, zero_every)?;
        }
    }

    #[test]
    fn a_row_computed_alone_equals_that_row_of_the_full_call(
        m in 1usize..71, k in 0usize..71, n in 0usize..71, seed in 0u64..u64::MAX, zero_every in 0u64..6,
    ) {
        // Serving decodes one row at a time what prefill computed in one
        // call; the contract makes the two bitwise equal by construction.
        let a = fill(m * k, seed, zero_every);
        let b = fill(k * n, seed ^ 0xB, 0);
        for ta in [Trans::N, Trans::T] {
            for tb in [Trans::N, Trans::T] {
                let mut full = vec![0.0; m * n];
                gemm(&a, ta, &b, tb, &mut full, (m, k, n), false);
                for i in 0..m {
                    // Row i of the logical A, stored as `ta` with one row.
                    let row: Vec<f32> = (0..k).map(|p| at(&a, ta, m, k, i, p)).collect();
                    let mut alone = vec![0.0; n];
                    gemm(&row, ta, &b, tb, &mut alone, (1, k, n), false);
                    prop_assert!(same_bits(&alone, &full[i * n..(i + 1) * n]), "{ta:?}{tb:?} row {i} of {m}x{k}x{n}");
                }
            }
        }
    }
}

#[test]
fn skipped_zero_terms_keep_non_finite_b_out_of_the_sum() {
    // 0·∞ is NaN; the contract skips the term instead, on every schedule.
    for m in [1, 5] {
        let (k, n) = (3, 40);
        let mut a = vec![1.0_f32; m * k];
        for row in a.chunks_mut(k) {
            row[1] = 0.0;
        }
        let mut b = vec![0.5_f32; k * n];
        b[n..2 * n].fill(f32::INFINITY);
        let mut c = vec![0.0; m * n];
        sgemm(&a, &b, &mut c, m, k, n);
        assert!(c.iter().all(|&v| v == 1.0), "m = {m}: {c:?}");
    }
}
