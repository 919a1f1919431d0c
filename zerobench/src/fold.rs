//! Folds a rank's recorded spans into closed per-step buckets.
//!
//! Rank-thread spans (track 0) nest: a step's `block-fwd` contains the
//! model-parallel hook's `all-reduce` wait, `drain-inflight` contains the
//! reduce-scatter waits it drains, `opt-step` contains `adam-update`. Each
//! span's *self time* (its duration minus the spans directly inside it)
//! goes to the bucket its name maps to, with one exception: a wait inside
//! a wait belongs to the outer wait, so `comm.drain_wait_ms` is the whole
//! end-of-backward drain. Self times of every span telescope to the time
//! the top-level spans cover, so the buckets plus the explicit
//! `core.unattributed_ms` remainder sum exactly to the window.

use std::collections::BTreeMap;

use zero_trace::{intersect_intervals, merge_intervals, Span, SpanCategory, StepTimeline};

pub const UNATTRIBUTED: &str = "core.unattributed_ms";

/// Every bucket a training step folds into, in report order. Spans whose
/// names the fold does not know stay in the unattributed remainder.
pub const TRAIN_BUCKETS: [&str; 12] = [
    "model.embed_ms",
    "model.block_fwd_ms",
    "model.block_refwd_ms",
    "model.block_bwd_ms",
    "model.head_ms",
    "optim.adam_ms",
    "core.ckpt_ms",
    "comm.all_gather.wait_ms",
    "comm.reduce_scatter.wait_ms",
    "comm.all_reduce.wait_ms",
    "comm.drain_wait_ms",
    UNATTRIBUTED,
];

/// The bucket a rank-thread span's self time belongs to.
fn train_bucket(s: &Span) -> Option<&'static str> {
    Some(match (s.cat, s.name) {
        (SpanCategory::Compute, "embed-fwd" | "embed-bwd") => "model.embed_ms",
        (SpanCategory::Compute, "block-fwd") => "model.block_fwd_ms",
        (SpanCategory::Compute, "block-refwd") => "model.block_refwd_ms",
        (SpanCategory::Compute, "block-bwd") => "model.block_bwd_ms",
        (SpanCategory::Compute, "head-fwd-bwd" | "head-loss") => "model.head_ms",
        (SpanCategory::Optimizer, _) => "optim.adam_ms",
        (SpanCategory::Checkpoint, "ckpt-store" | "ckpt-fetch") => "core.ckpt_ms",
        (SpanCategory::Wait, "all-gather") => "comm.all_gather.wait_ms",
        (SpanCategory::Wait, "reduce-scatter") => "comm.reduce_scatter.wait_ms",
        (SpanCategory::Wait, "all-reduce") => "comm.all_reduce.wait_ms",
        (SpanCategory::Wait, "drain-inflight") => "comm.drain_wait_ms",
        _ => return None,
    })
}

/// The bucket a serving rank's span self time belongs to: the batch
/// step's own time is decode compute, its gather waits are comm.
fn serve_bucket(s: &Span) -> Option<&'static str> {
    Some(match (s.cat, s.name) {
        (SpanCategory::Compute, "serve-step") => "model.decode_ms",
        (SpanCategory::Wait, "gather-wait") => "serve.gather_wait_ms",
        _ => return None,
    })
}

/// Self-time sums per bucket, in nanoseconds, over the nested `spans`
/// (all on one thread's track). Returns `Err` if the spans do not nest,
/// which would make self times meaningless.
fn self_times(
    spans: &[&Span],
    bucket: impl Fn(&Span) -> Option<&'static str>,
) -> Result<BTreeMap<&'static str, i64>, String> {
    let mut order: Vec<&Span> = spans.to_vec();
    order.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.end_ns)));
    let mut out: BTreeMap<&'static str, i64> = BTreeMap::new();
    // Open ancestors with the bucket that owns their self time (`None`
    // for names the fold does not know).
    let mut stack: Vec<(&Span, Option<&'static str>)> = Vec::new();
    for s in order {
        while stack.last().is_some_and(|(p, _)| p.end_ns <= s.start_ns) {
            stack.pop();
        }
        let parent = stack.last().copied();
        if let Some((p, _)) = parent {
            if s.end_ns > p.end_ns {
                return Err(format!(
                    "span {} [{}, {}) straddles {} [{}, {})",
                    s.name, s.start_ns, s.end_ns, p.name, p.start_ns, p.end_ns
                ));
            }
        }
        let absorbed =
            parent.is_some_and(|(p, _)| p.cat == SpanCategory::Wait && s.cat == SpanCategory::Wait);
        let owner = if absorbed {
            parent.and_then(|(_, b)| b)
        } else {
            bucket(s)
        };
        if !absorbed {
            let d = s.duration_ns() as i64;
            if let Some(b) = owner {
                *out.entry(b).or_default() += d;
            }
            if let Some((_, Some(pb))) = parent {
                *out.entry(pb).or_default() -= d;
            }
        }
        stack.push((s, owner));
    }
    Ok(out)
}

/// One window's closed ledger: bucket → nanoseconds, including the
/// unattributed remainder, summing to the window length.
pub type Ledger = BTreeMap<&'static str, u64>;

/// Folds the rank-thread spans that lie inside `window` into the
/// training buckets.
pub fn train_ledger(tl: &StepTimeline, window: (u64, u64)) -> Result<Ledger, String> {
    let spans: Vec<&Span> = tl
        .spans
        .iter()
        .filter(|s| s.track == zero_trace::TRACK_MAIN)
        .filter(|s| s.start_ns >= window.0 && s.end_ns <= window.1)
        .collect();
    let times = self_times(&spans, train_bucket)?;
    close(times, &spans, window.1 - window.0)
}

/// Attributed buckets must be non-negative; the remainder is whatever the
/// window holds beyond every attributed nanosecond.
fn close(times: BTreeMap<&'static str, i64>, spans: &[&Span], wall: u64) -> Result<Ledger, String> {
    let mut ledger = Ledger::new();
    let mut attributed = 0u64;
    for (b, ns) in times {
        let ns = u64::try_from(ns).map_err(|_| format!("bucket {b} has negative self time"))?;
        attributed += ns;
        ledger.insert(b, ns);
    }
    let remainder = wall.checked_sub(attributed).ok_or_else(|| {
        format!(
            "{} spans attribute {attributed} ns to a {wall} ns window",
            spans.len()
        )
    })?;
    ledger.insert(UNATTRIBUTED, remainder);
    Ok(ledger)
}

/// A serving rank's ledger over its whole run, from the first batch step's
/// start to the last one's end: decode compute, gather waits, and the
/// scheduler time between steps as the remainder. Request-scoped
/// `queue-wait` spans span many steps on the same track and are left out.
pub fn serve_ledger(tl: &StepTimeline) -> Result<(Ledger, u64), String> {
    let spans: Vec<&Span> = tl
        .spans
        .iter()
        .filter(|s| s.track == zero_trace::TRACK_MAIN && s.name != "queue-wait")
        .collect();
    let steps: Vec<&&Span> = spans.iter().filter(|s| s.name == "serve-step").collect();
    let first = steps
        .iter()
        .map(|s| s.start_ns)
        .min()
        .ok_or("no serve-step spans")?;
    let last = steps
        .iter()
        .map(|s| s.end_ns)
        .max()
        .ok_or("no serve-step spans")?;
    let times = self_times(&spans, serve_bucket)?;
    Ok((close(times, &spans, last - first)?, steps.len() as u64))
}

/// Wall time inside `window` where rank-thread compute (compute spans
/// less the waits nested in them) ran while a byte-moving collective was
/// executing on the progress thread.
pub fn overlap_ns(tl: &StepTimeline, window: (u64, u64)) -> u64 {
    let inside = |s: &Span| s.start_ns >= window.0 && s.end_ns <= window.1;
    let main = |s: &Span| s.track == zero_trace::TRACK_MAIN && inside(s);
    let compute = subtract(
        &tl.intervals_where(|s| main(s) && s.cat == SpanCategory::Compute),
        &tl.intervals_where(|s| main(s) && s.cat == SpanCategory::Wait),
    );
    let moving =
        tl.intervals_where(|s| s.cat == SpanCategory::Collective && s.bytes > 0 && inside(s));
    intersect_intervals(&compute, &moving)
        .iter()
        .map(|(s, e)| e - s)
        .sum()
}

/// `a \ b` for merged, sorted interval sets.
fn subtract(a: &[(u64, u64)], b: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let b = merge_intervals(b.to_vec());
    let mut out = Vec::new();
    for &(mut s, e) in a {
        for &(bs, be) in &b {
            if be <= s || bs >= e {
                continue;
            }
            if bs > s {
                out.push((s, bs));
            }
            s = s.max(be);
            if s >= e {
                break;
            }
        }
        if s < e {
            out.push((s, e));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, cat: SpanCategory, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            cat,
            start_ns,
            end_ns,
            track: 0,
            bytes: 0,
        }
    }

    #[test]
    fn ledger_closes_and_drain_absorbs_its_waits() {
        let tl = StepTimeline {
            spans: vec![
                span("block-fwd", SpanCategory::Compute, 10, 50),
                span("all-reduce", SpanCategory::Wait, 20, 25),
                span("drain-inflight", SpanCategory::Wait, 60, 90),
                span("reduce-scatter", SpanCategory::Wait, 62, 80),
                span("opt-step", SpanCategory::Optimizer, 90, 99),
                span("adam-update", SpanCategory::Optimizer, 91, 98),
                span("mystery", SpanCategory::Compute, 99, 100),
            ],
            instants: vec![],
            counters: vec![],
        };
        let l = train_ledger(&tl, (0, 100)).unwrap();
        assert_eq!(l["model.block_fwd_ms"], 35);
        assert_eq!(l["comm.all_reduce.wait_ms"], 5);
        assert_eq!(l["comm.drain_wait_ms"], 30);
        assert!(!l.contains_key("comm.reduce_scatter.wait_ms"));
        assert_eq!(l["optim.adam_ms"], 9);
        assert_eq!(l[UNATTRIBUTED], 100 - 35 - 5 - 30 - 9);
        assert_eq!(l.values().sum::<u64>(), 100);
    }

    #[test]
    fn straddling_spans_are_rejected() {
        let tl = StepTimeline {
            spans: vec![
                span("block-fwd", SpanCategory::Compute, 0, 50),
                span("block-bwd", SpanCategory::Compute, 40, 60),
            ],
            instants: vec![],
            counters: vec![],
        };
        assert!(train_ledger(&tl, (0, 100)).is_err());
    }

    #[test]
    fn subtract_cuts_holes() {
        assert_eq!(
            subtract(&[(0, 10), (20, 30)], &[(2, 4), (8, 22)]),
            vec![(0, 2), (4, 8), (22, 30)]
        );
    }
}
