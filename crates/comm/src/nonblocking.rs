//! Non-blocking collective machinery: the progress thread, its job queue,
//! and the [`PendingOp`] completion handle.
//!
//! Every communication op a rank issues — blocking or not — is a
//! [`Request`] enqueued on the rank's progress thread. The one exception
//! is an op over a single-member group: it exchanges nothing, so it
//! completes at submit on the caller's thread (no queue slot, no fabric
//! op, no span). The thread drains the queue in FIFO order and runs each
//! op against the rank's private [`Fabric`](crate::world::Fabric), so the
//! *fabric-visible* op order is exactly the issue order. That single
//! property carries all the correctness arguments over from the
//! synchronous engine unchanged:
//!
//! * **Deadlock-freedom** — ranks run an SPMD schedule; identical issue
//!   order per rank means the rings pair up exactly as before.
//! * **Fault coordinates** — "the Nth fabric op on rank R" counts the same
//!   ops in the same order, so [`FaultPlan`](crate::fault::FaultPlan)
//!   triggers hit the same message whether the caller overlapped or not.
//! * **Volume accounting** — the same `send_raw` path records the same
//!   bytes/messages; overlap changes *when*, never *how much*.
//!
//! `start_*` returns the [`PendingOp`] so the caller can compute while the
//! ring runs; blocking callers wait it at once.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::collectives::{finalize, member_index, Codec, Precision, ReduceOp, WireFmt};
use crate::error::CommError;
use crate::group::Group;
use crate::stats::{CollectiveKind, TrafficStats};
use crate::world::Fabric;
use zero_trace::{SpanCategory, TraceRecorder, TRACK_PROGRESS};

/// How often the progress thread re-checks its queue for disconnection.
/// Purely a liveness bound on thread shutdown; queued jobs wake it
/// immediately.
const PROGRESS_TICK: Duration = Duration::from_millis(50);

/// One communication op, self-contained: owns copies of its inputs so it
/// can cross to the progress thread.
pub(crate) enum Request {
    /// In-place ring all-reduce over `group`.
    AllReduce { group: Group, data: Vec<f32>, op: ReduceOp, prec: Precision },
    /// Reduce-scatter with explicit per-member counts, encoded as `wire`;
    /// the result is this rank's reduced chunk (`counts[idx]` elements).
    ReduceScatter {
        group: Group,
        input: Vec<f32>,
        op: ReduceOp,
        counts: Vec<usize>,
        prec: Precision,
        wire: WireFmt,
    },
    /// Ring all-gather with explicit per-member counts, encoded as `wire`;
    /// the result is the full `Σ counts` buffer, identical on every member.
    AllGather { group: Group, shard: Vec<f32>, counts: Vec<usize>, prec: Precision, wire: WireFmt },
    /// Pipelined broadcast from `root`; the result is the final buffer.
    Broadcast { group: Group, root: usize, data: Vec<f32>, prec: Precision },
    /// Chain reduce to `root`; non-roots get their input back unchanged.
    Reduce { group: Group, root: usize, data: Vec<f32>, op: ReduceOp, prec: Precision },
    /// Point-to-point send (empty result).
    Send { dst: usize, data: Vec<f32> },
    /// Point-to-point receive of the next payload from `src`.
    Recv { src: usize },
    /// World barrier (empty result).
    Barrier,
    /// A modeled host↔device memory-tier transfer (ZeRO-Offload traffic):
    /// no fabric messages move, but the transfer occupies the FIFO
    /// progress thread for `delay`, so tier latency serializes with the
    /// rank's collectives and hides behind compute exactly like they do.
    /// Recorded as a byte-tagged [`SpanCategory::Tier`] span named
    /// `label` (empty result).
    TierMove { bytes: u64, delay: Duration, label: &'static str },
}

impl Request {
    /// The stats kind this op's execution time is attributed to, if any.
    pub(crate) fn kind(&self) -> Option<CollectiveKind> {
        match self {
            Request::AllReduce { .. } => Some(CollectiveKind::AllReduce),
            Request::ReduceScatter { .. } => Some(CollectiveKind::ReduceScatter),
            Request::AllGather { .. } => Some(CollectiveKind::AllGather),
            Request::Broadcast { .. } => Some(CollectiveKind::Broadcast),
            Request::Reduce { .. } => Some(CollectiveKind::Reduce),
            Request::Send { .. } | Request::Recv { .. } => Some(CollectiveKind::P2p),
            Request::Barrier | Request::TierMove { .. } => None,
        }
    }

    /// The group a collective runs over (`None` for p2p, barrier, tier).
    pub(crate) fn group(&self) -> Option<&Group> {
        match self {
            Request::AllReduce { group, .. }
            | Request::ReduceScatter { group, .. }
            | Request::AllGather { group, .. }
            | Request::Broadcast { group, .. }
            | Request::Reduce { group, .. } => Some(group),
            Request::Send { .. }
            | Request::Recv { .. }
            | Request::Barrier
            | Request::TierMove { .. } => None,
        }
    }

    /// Completes a collective over a single-member group on the caller's
    /// thread: with no peer there is nothing to exchange, so each op is
    /// its local effect — exactly what a ring of one computes.
    pub(crate) fn run_alone(self, rank: usize) -> Result<Vec<f32>, CommError> {
        if let Some(group) = self.group() {
            member_index(group, rank)?;
        }
        match self {
            Request::AllReduce { mut data, op, .. }
            | Request::Reduce { mut data, op, .. }
            | Request::ReduceScatter { input: mut data, op, .. } => {
                finalize(op, &mut data, 1);
                Ok(data)
            }
            Request::AllGather { mut shard, prec, wire, .. } => {
                Codec::of(wire, prec).seal(&mut shard);
                Ok(shard)
            }
            Request::Broadcast { data, .. } => Ok(data),
            _ => unreachable!("only group collectives run alone"),
        }
    }
}

/// A queued op plus the channel its result is delivered on.
pub(crate) struct Job {
    pub(crate) req: Request,
    pub(crate) done: Sender<Result<Vec<f32>, CommError>>,
}

/// Handle to an in-flight communication op.
///
/// Obtained from `start_reduce_scatter` / `start_all_gather` (or
/// internally by every blocking collective). The op advances on the rank's
/// progress thread regardless of what the holder does; [`PendingOp::wait`]
/// blocks until the result (or the op's typed failure) arrives.
///
/// Dropping the handle without waiting does **not** cancel the op — it
/// still executes, keeping the rank's fabric schedule aligned with its
/// SPMD peers; only the result is discarded.
#[must_use = "an unwaited PendingOp discards its result and any error"]
pub struct PendingOp {
    state: State,
}

enum State {
    /// Finished at submit: a single-member group, or a job that could not
    /// be enqueued because the progress thread is gone.
    Done(Result<Vec<f32>, CommError>),
    /// Queued on the progress thread.
    Queued {
        rank: usize,
        kind: Option<CollectiveKind>,
        done: Receiver<Result<Vec<f32>, CommError>>,
        budget: Duration,
        stats: Arc<TrafficStats>,
        trace: Arc<TraceRecorder>,
    },
}

impl PendingOp {
    pub(crate) fn queued(
        rank: usize,
        kind: Option<CollectiveKind>,
        done: Receiver<Result<Vec<f32>, CommError>>,
        budget: Duration,
        stats: Arc<TrafficStats>,
        trace: Arc<TraceRecorder>,
    ) -> PendingOp {
        PendingOp { state: State::Queued { rank, kind, done, budget, stats, trace } }
    }

    pub(crate) fn done(res: Result<Vec<f32>, CommError>) -> PendingOp {
        PendingOp { state: State::Done(res) }
    }

    /// Blocks until the op completes, returning its result payload (shape
    /// depends on the op — see [`Request`]) or its typed failure.
    ///
    /// The wait is bounded: the fabric bounds every op by its receive
    /// timeouts, and the budget covers the worst legal case for this op
    /// plus everything queued ahead of it, so exceeding it surfaces as
    /// [`CommError::ProgressStalled`] instead of blocking forever. Caller
    /// blocked time is recorded per kind in
    /// [`TrafficStats::timing`](crate::stats::TrafficStats::timing). An op
    /// that finished at submit returns at once and records no wait.
    pub fn wait(self) -> Result<Vec<f32>, CommError> {
        let (rank, kind, done, budget, stats, trace) = match self.state {
            State::Done(res) => return res,
            State::Queued { rank, kind, done, budget, stats, trace } => {
                (rank, kind, done, budget, stats, trace)
            }
        };
        let span = match kind {
            Some(kind) => trace.begin(SpanCategory::Wait, kind.name()),
            None => zero_trace::SpanId::NULL,
        };
        let t0 = Instant::now();
        let res = match done.recv_timeout(budget) {
            Ok(r) => r,
            Err(RecvTimeoutError::Timeout) => {
                Err(CommError::ProgressStalled { rank, waited: budget })
            }
            Err(RecvTimeoutError::Disconnected) => Err(CommError::ProgressLost { rank }),
        };
        if let Some(kind) = kind {
            stats.record_wait(kind, t0.elapsed());
        }
        trace.end(span);
        res
    }
}

/// The per-rank progress loop: drains the FIFO job queue against the
/// rank's fabric until every `Communicator`/`PendingOp` sender is gone.
pub(crate) fn progress_loop(mut fabric: Fabric, jobs: Receiver<Job>, queued: Arc<AtomicUsize>) {
    loop {
        match jobs.recv_timeout(PROGRESS_TICK) {
            Ok(job) => {
                let kind = job.req.kind();
                // One collective span per executed op, byte-tagged with the
                // traffic-counter delta its execution produced: only this
                // thread records sends on this fabric, so the delta is
                // exactly the op's own volume and timeline byte sums
                // reconcile with `TrafficStats` by construction. The span
                // is recorded before the completion send so a waiter that
                // returns is guaranteed to see it in the timeline.
                let (span, bytes_before) = match kind {
                    Some(kind) => (
                        fabric.trace.begin_on(
                            TRACK_PROGRESS,
                            SpanCategory::Collective,
                            kind.name(),
                        ),
                        fabric.stats.bytes(kind),
                    ),
                    None => (zero_trace::SpanId::NULL, 0),
                };
                // Tier moves are not collectives (no fabric traffic, no
                // stats kind) but still get a byte-tagged span on the
                // progress track: the tag is the modeled transfer volume,
                // which the trace-conformance tests reconcile against the
                // plan's tier stream.
                let tier = match &job.req {
                    Request::TierMove { bytes, label, .. } => Some((
                        *bytes,
                        fabric.trace.begin_on(TRACK_PROGRESS, SpanCategory::Tier, label),
                    )),
                    _ => None,
                };
                let t0 = Instant::now();
                let res = exec(&mut fabric, job.req);
                if let Some(kind) = kind {
                    fabric.stats.record_exec(kind, t0.elapsed());
                    fabric.trace.end_with_bytes(span, fabric.stats.bytes(kind) - bytes_before);
                }
                if let Some((bytes, span)) = tier {
                    fabric.trace.end_with_bytes(span, bytes);
                }
                queued.fetch_sub(1, Ordering::SeqCst);
                // The waiter may have dropped its handle; the op already
                // ran (keeping the SPMD schedule aligned), so a missing
                // listener is not an error.
                let _ = job.done.send(res);
            }
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    // `fabric` drops here: endpoints close and peers observe `PeerLost`.
}

/// Runs one request against the fabric. Bodies live in
/// `collectives.rs`/`world.rs` (`impl Fabric`), so every check — fault
/// trigger, membership, sequence, CRC — fires in issue order.
fn exec(fabric: &mut Fabric, req: Request) -> Result<Vec<f32>, CommError> {
    match req {
        Request::AllReduce { group, mut data, op, prec } => {
            fabric.all_reduce(&group, &mut data, op, prec)?;
            Ok(data)
        }
        Request::ReduceScatter { group, input, op, counts, prec, wire } => {
            fabric.reduce_scatter(&group, input, op, &counts, prec, wire)
        }
        Request::AllGather { group, shard, counts, prec, wire } => {
            fabric.all_gather(&group, &shard, &counts, prec, wire)
        }
        Request::Broadcast { group, root, mut data, prec } => {
            fabric.broadcast(&group, root, &mut data, prec)?;
            Ok(data)
        }
        Request::Reduce { group, root, mut data, op, prec } => {
            fabric.reduce(&group, root, &mut data, op, prec)?;
            Ok(data)
        }
        Request::Send { dst, data } => {
            fabric.send_p2p(dst, data)?;
            Ok(Vec::new())
        }
        Request::Recv { src } => fabric.recv_p2p(src),
        Request::Barrier => {
            fabric.barrier()?;
            Ok(Vec::new())
        }
        Request::TierMove { delay, .. } => {
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
            Ok(Vec::new())
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::collectives::{balanced_counts, chunk_range, WireFmt};
    use crate::error::CommError;
    use crate::fault::FaultPlan;
    use crate::group::Group;
    use crate::stats::CollectiveKind;
    use crate::world::{launch, try_launch_with_config, WorldConfig};
    use crate::{Precision, ReduceOp};
    use std::time::{Duration, Instant};
    use zero_trace::SpanCategory;

    const SUM: ReduceOp = ReduceOp::Sum;
    const FP32: Precision = Precision::Fp32;

    #[test]
    fn started_op_completes_while_caller_computes() {
        let n = 4;
        let len = 16;
        let results = launch(n, move |mut c| {
            let g = Group::world(n);
            let input: Vec<f32> = (0..len).map(|i| (i + c.rank()) as f32).collect();
            let counts = balanced_counts(len, n);
            let pending = c.start_reduce_scatter(&g, &input, SUM, &counts, FP32, WireFmt::Raw);
            // "Compute" while the ring runs on the progress thread.
            let local: f32 = (0..1000).map(|x| (x as f32).sqrt()).sum();
            let chunk = pending.wait().unwrap();
            (local, chunk)
        });
        for (rank, (_, got)) in results.iter().enumerate() {
            let r = chunk_range(len, n, rank);
            for (j, &v) in got.iter().enumerate() {
                let want: f32 = (0..n).map(|rr| (r.start + j + rr) as f32).sum();
                assert_eq!(v, want, "rank {rank} element {j}");
            }
        }
    }

    #[test]
    fn multiple_in_flight_ops_complete_in_fifo_order() {
        let n = 3;
        let len = 9;
        let results = launch(n, move |mut c| {
            let g = Group::world(n);
            let counts = balanced_counts(len, n);
            // Queue three all-gathers back to back, then wait in order.
            let mut pendings = Vec::new();
            for round in 0..3 {
                let shard: Vec<f32> = chunk_range(len, n, c.rank())
                    .map(|i| (i * 10 + round) as f32)
                    .collect();
                pendings.push(c.start_all_gather(&g, &shard, &counts, FP32, WireFmt::Raw));
            }
            pendings.into_iter().map(|p| p.wait().unwrap()).collect::<Vec<_>>()
        });
        for got in &results {
            for (round, out) in got.iter().enumerate() {
                let want: Vec<f32> = (0..len).map(|i| (i * 10 + round) as f32).collect();
                assert_eq!(out, &want, "round {round}");
            }
        }
    }

    #[test]
    fn crash_during_in_flight_op_surfaces_typed_error_without_deadlock() {
        // Rank 0's fault plan kills it at its first reduce-scatter — which
        // is in flight (started, not waited) when the fault fires. The
        // victim's wait() must yield the typed InjectedCrash and the peers
        // must observe PeerLost/Timeout, never a deadlock.
        let n = 3;
        let len = 12;
        let config = WorldConfig {
            recv_timeout: Duration::from_millis(200),
            faults: FaultPlan::new().with_crash_at_kind(0, CollectiveKind::ReduceScatter, 0),
            ..WorldConfig::default()
        };
        let out = try_launch_with_config(n, config, move |mut c| {
            let g = Group::world(n);
            let input = vec![1.0_f32; len];
            let counts = balanced_counts(len, n);
            let pending = c.start_reduce_scatter(&g, &input, SUM, &counts, FP32, WireFmt::Raw);
            pending.wait().map(|_| ())
        });
        assert_eq!(
            out[0].as_ref().unwrap(),
            &Err(CommError::InjectedCrash { rank: 0, op: 0 })
        );
        for (rank, res) in out.iter().enumerate().skip(1) {
            match res.as_ref().unwrap() {
                Err(CommError::PeerLost { .. }) | Err(CommError::Timeout { .. }) => {}
                other => panic!("rank {rank}: expected PeerLost/Timeout, got {other:?}"),
            }
        }
    }

    #[test]
    fn dropped_pending_op_still_executes_and_keeps_schedule_aligned() {
        // Dropping a handle discards the result but the op still runs on
        // the progress thread, so a later collective pairs up correctly on
        // every rank.
        let n = 2;
        let results = launch(n, move |mut c| {
            let g = Group::world(n);
            let input = vec![(c.rank() + 1) as f32; 4];
            let counts = balanced_counts(4, n);
            drop(c.start_reduce_scatter(&g, &input, SUM, &counts, FP32, WireFmt::Raw));
            let mut buf = vec![c.rank() as f32; 2];
            c.all_reduce_in(&g, &mut buf, ReduceOp::Sum, Precision::Fp32).unwrap();
            buf[0]
        });
        assert_eq!(results, vec![1.0; n]);
    }

    #[test]
    fn link_latency_is_hidden_by_overlap() {
        // With a modeled per-hop latency, computing while a started op is
        // in flight must block the caller for (measurably) less time than
        // the op executes on the progress thread.
        let n = 2;
        let len = 8;
        let lat = Duration::from_millis(20);
        let config = WorldConfig::with_link_latency(lat);
        let out = try_launch_with_config(n, config, move |mut c| {
            let g = Group::world(n);
            let counts = balanced_counts(len, n);
            let shard: Vec<f32> = chunk_range(len, n, c.rank()).map(|i| i as f32).collect();
            let pending = c.start_all_gather(&g, &shard, &counts, FP32, WireFmt::Raw);
            // Sleep past the single ring hop: by wait() time the result is in.
            std::thread::sleep(lat * 3);
            pending.wait().map(|out| {
                let t = c.stats().timing();
                (out, t.wait_nanos(CollectiveKind::AllGather), t.exec_nanos(CollectiveKind::AllGather))
            })
        });
        for (rank, r) in out.iter().enumerate() {
            let (data, wait_ns, exec_ns) = r.as_ref().unwrap().as_ref().unwrap();
            let want: Vec<f32> = (0..len).map(|i| i as f32).collect();
            assert_eq!(data, &want, "rank {rank}");
            // The hop latency (≥ 20ms) was paid on the progress thread...
            assert!(*exec_ns >= lat.as_nanos() as u64, "rank {rank}: exec {exec_ns}ns");
            // ...while the caller, who slept past it, barely blocked.
            assert!(
                *wait_ns < exec_ns / 2,
                "rank {rank}: wait {wait_ns}ns not hidden vs exec {exec_ns}ns"
            );
        }
    }

    #[test]
    fn single_member_ops_bypass_the_progress_queue() {
        // A multi-second tier move occupies each rank's FIFO; a size-1
        // all-reduce issued behind it must still return at once, move no
        // bytes, and leave no collective span — while a real (size-2)
        // all-reduce issued after it waits its turn behind the move.
        let n = 2;
        let hold = Duration::from_secs(2);
        let out = launch(n, move |mut c| {
            let lone = Group::new(vec![c.rank()]);
            let tier = c.start_tier_move("tier-param-fetch", 1 << 20, hold);
            let t0 = Instant::now();
            let mut buf = vec![(c.rank() + 1) as f32; 4];
            c.all_reduce_in(&lone, &mut buf, ReduceOp::Mean, Precision::Fp32).unwrap();
            let lone_elapsed = t0.elapsed();
            tier.wait().unwrap();
            let tl = c.trace().timeline();
            (buf, lone_elapsed, c.stats().snapshot(), tl)
        });
        for (rank, (buf, elapsed, traffic, tl)) in out.iter().enumerate() {
            assert_eq!(buf, &vec![(rank + 1) as f32; 4], "rank {rank}: identity on a group of one");
            assert!(
                *elapsed < hold / 4,
                "rank {rank}: size-1 all-reduce took {elapsed:?} behind a {hold:?} tier move"
            );
            assert_eq!(traffic.total_bytes(), 0, "rank {rank}");
            assert_eq!(tl.count_named(SpanCategory::Collective, "all-reduce"), 0, "rank {rank}");
        }
    }
}
