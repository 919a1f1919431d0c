//! Ring collectives.
//!
//! These are the same pipelined ring schedules NCCL uses, which is what
//! makes the paper's volume arithmetic hold: a ring all-reduce of Ψ
//! elements moves 2Ψ·(N−1)/N per rank (reduce-scatter Ψ·(N−1)/N plus
//! all-gather Ψ·(N−1)/N), which §7.1 rounds to 2Ψ.
//!
//! Every data-moving collective is built from two primitives, each
//! parameterised by per-member chunk counts and a wire codec (raw
//! fp16/fp32, or int8 blocks — see [`WireFmt`]):
//!
//! * the **ring pass** — n−1 hops over per-member ranges, each hop either
//!   reducing the received chunk into the local one or copying it;
//! * the **pairwise exchange** — n−1 rounds in which every member sends
//!   one payload to, and receives one from, each peer.
//!
//! All-reduce is a reduce pass then a copy pass over the same balanced
//! ranges; reduce-scatter is a reduce pass and all-gather a copy pass; qwZ
//! is the copy pass with the int8 codec; qgZ is a raw pairwise exchange
//! inside each node followed by an int8 one across nodes.
//!
//! All collectives run over an explicit member list so the same code serves
//! the full world and DP/MP subgroups (§ "ZeRO and MP"). Chunking is
//! balanced-uneven (no padding): chunk `i` of `total` over `n` ranks has
//! `total/n + (i < total%n)` elements, and member `i` owns chunk `i`.

use std::borrow::Cow;
use std::ops::Range;

use crate::error::CommError;
use crate::group::Group;
use crate::nonblocking::{PendingOp, Request};
use crate::quant::{quant_wire_bytes, quantize_for_transport, BlockQuantized};
use crate::stats::CollectiveKind;
use crate::world::{Communicator, Fabric};

/// Reduction operator for reduce-style collectives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceOp {
    /// Elementwise sum.
    Sum,
    /// Elementwise sum divided by the group size.
    Mean,
    /// Elementwise maximum.
    Max,
}

/// Logical element width for traffic accounting.
///
/// In-process payloads always travel widened to `f32`, but fp16 tensors
/// must be *accounted* at 2 bytes/element for the paper's arithmetic
/// (gradients and parameters are fp16 in mixed-precision training).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Precision {
    /// 4 bytes per element.
    Fp32,
    /// 2 bytes per element.
    Fp16,
}

impl Precision {
    /// Bytes per element.
    #[inline]
    pub fn bytes(self) -> u64 {
        match self {
            Precision::Fp32 => 4,
            Precision::Fp16 => 2,
        }
    }
}

/// Wire format of a collective: how the buffer is encoded on the wire,
/// and therefore how many bytes each hop carries. Each format is one codec
/// over one schedule: `Raw` and `Int8Block` drive the ring pass, `QgzInt8`
/// the two-level pairwise exchange. `Raw` reproduces the uncompressed
/// collectives exactly; the others are the ZeRO++ compression levers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireFmt {
    /// Uncompressed `prec`-width elements.
    Raw,
    /// qwZ: ring all-gather of block-quantized streams — 1 byte per
    /// element plus one fp32 scale/zero pair per `block` elements. Each
    /// owner encodes its chunk once; the stream is forwarded verbatim.
    Int8Block {
        /// Quantization block length.
        block: usize,
    },
    /// qgZ: two-phase reduce-scatter — raw pairwise exchange inside each
    /// node of `node_size` ranks, block-quantized pairwise exchange
    /// between same-slot ranks across nodes.
    QgzInt8 {
        /// Ranks per node G of the two-tier grouping.
        node_size: usize,
        /// Quantization block length.
        block: usize,
    },
}

/// The element range of chunk `i` when `total` elements are split over `n`
/// owners: sizes differ by at most one, larger chunks first.
pub fn chunk_range(total: usize, n: usize, i: usize) -> Range<usize> {
    debug_assert!(i < n);
    let base = total / n;
    let rem = total % n;
    let start = i * base + i.min(rem);
    let len = base + usize::from(i < rem);
    start..start + len
}

/// Per-member chunk lengths of `total` elements split evenly over `n`
/// owners (the lengths of the [`chunk_range`]s).
pub(crate) fn balanced_counts(total: usize, n: usize) -> Vec<usize> {
    (0..n).map(|i| chunk_range(total, n, i).len()).collect()
}

/// Converts explicit per-member chunk lengths into contiguous ranges.
fn ranges_from_counts(counts: &[usize]) -> Vec<Range<usize>> {
    let mut out = Vec::with_capacity(counts.len());
    let mut cursor = 0;
    for &c in counts {
        out.push(cursor..cursor + c);
        cursor += c;
    }
    out
}

/// Resolves `rank`'s position within `group`, surfacing a missing
/// membership as [`CommError::NotInGroup`] instead of a panic, so a
/// mis-grouped collective call leaves the rank recoverable (peers time out
/// cleanly rather than observing a poisoned thread).
pub(crate) fn member_index(group: &Group, rank: usize) -> Result<usize, CommError> {
    group.local_index(rank).ok_or_else(|| CommError::NotInGroup {
        rank,
        group: group.members().to_vec(),
    })
}

#[inline]
fn apply(op: ReduceOp, dst: &mut [f32], src: &[f32]) {
    debug_assert_eq!(dst.len(), src.len());
    match op {
        ReduceOp::Sum | ReduceOp::Mean => {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d += s;
            }
        }
        ReduceOp::Max => {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = d.max(s);
            }
        }
    }
}

/// Folds one contribution into an accumulator: the first one is copied,
/// later ones are reduced in with `op`.
#[inline]
fn accumulate(op: ReduceOp, dst: &mut [f32], src: &[f32], first: bool) {
    if first {
        dst.copy_from_slice(src);
    } else {
        apply(op, dst, src);
    }
}

#[inline]
pub(crate) fn finalize(op: ReduceOp, buf: &mut [f32], n: usize) {
    if op == ReduceOp::Mean {
        let inv = 1.0 / n as f32;
        for v in buf {
            *v *= inv;
        }
    }
}

/// How chunks travel: raw `prec`-width elements, or int8 blocks.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Codec {
    Raw(Precision),
    Int8 { block: usize },
}

impl Codec {
    /// The ring codec of `wire`.
    ///
    /// # Panics
    /// Panics on [`WireFmt::QgzInt8`], which is a pairwise schedule.
    pub(crate) fn of(wire: WireFmt, prec: Precision) -> Codec {
        match wire {
            WireFmt::Raw => Codec::Raw(prec),
            WireFmt::Int8Block { block } => Codec::Int8 { block },
            WireFmt::QgzInt8 { .. } => panic!("qgZ is a reduce-scatter over pairwise exchanges"),
        }
    }

    /// Logical wire bytes of a `len`-element chunk.
    fn wire_bytes(self, len: usize) -> u64 {
        match self {
            Codec::Raw(prec) => prec.bytes() * len as u64,
            Codec::Int8 { block } => quant_wire_bytes(len, block),
        }
    }

    /// The wire stream of `data` (raw: the elements themselves).
    fn encode(self, data: Cow<'_, [f32]>) -> Vec<f32> {
        match self {
            Codec::Raw(_) => data.into_owned(),
            Codec::Int8 { block } => quantize_for_transport(&data, block).encode(),
        }
    }

    /// The `len` elements a stream carries (raw: borrowed, no copy).
    fn decode(self, stream: &[f32], len: usize) -> Cow<'_, [f32]> {
        match self {
            Codec::Raw(_) => {
                assert_eq!(stream.len(), len, "chunk length mismatch");
                Cow::Borrowed(stream)
            }
            Codec::Int8 { block } => {
                Cow::Owned(BlockQuantized::decode(stream, len, block).dequantize())
            }
        }
    }

    /// Encodes an owner's own chunk and rewrites the chunk to what its
    /// receivers will decode, so every member ends up holding the same
    /// values. A raw chunk is left untouched.
    pub(crate) fn seal(self, chunk: &mut [f32]) -> Vec<f32> {
        let stream = self.encode(Cow::Borrowed(chunk));
        if let Cow::Owned(decoded) = self.decode(&stream, chunk.len()) {
            chunk.copy_from_slice(&decoded);
        }
        stream
    }
}

/// What a ring hop does with the chunk it receives.
#[derive(Clone, Copy)]
enum Hop {
    /// Reduce it into the local chunk (reduce-scatter).
    Reduce(ReduceOp),
    /// Overwrite the local chunk with it (all-gather).
    Copy,
}

/// This rank's position on a group's ring.
struct Ring<'g> {
    members: &'g [usize],
    idx: usize,
}

impl<'g> Ring<'g> {
    fn new(group: &'g Group, rank: usize) -> Result<Ring<'g>, CommError> {
        Ok(Ring { members: group.members(), idx: member_index(group, rank)? })
    }

    fn n(&self) -> usize {
        self.members.len()
    }
}

impl Communicator {
    // ----- world-wide convenience wrappers -----

    /// Ring all-reduce over the whole world, in place.
    pub fn all_reduce(
        &mut self,
        buf: &mut [f32],
        op: ReduceOp,
        prec: Precision,
    ) -> Result<(), CommError> {
        let g = Group::world(self.world_size());
        self.all_reduce_in(&g, buf, op, prec)
    }

    /// Ring reduce-scatter over the whole world. `input` has the full
    /// length; this rank's reduced chunk is written to `out`, which must
    /// have exactly `chunk_range(len, n, rank).len()` elements.
    pub fn reduce_scatter(
        &mut self,
        input: &[f32],
        out: &mut [f32],
        op: ReduceOp,
        prec: Precision,
    ) -> Result<(), CommError> {
        let n = self.world_size();
        let counts = balanced_counts(input.len(), n);
        assert_eq!(out.len(), counts[self.rank()], "reduce_scatter: bad out length");
        let g = Group::world(n);
        let chunk = self.start_reduce_scatter(&g, input, op, &counts, prec, WireFmt::Raw).wait()?;
        out.copy_from_slice(&chunk);
        Ok(())
    }

    /// Ring all-gather over the whole world: this rank contributes `shard`
    /// (its chunk of `out`), and `out` receives every rank's chunk.
    pub fn all_gather(
        &mut self,
        shard: &[f32],
        out: &mut [f32],
        prec: Precision,
    ) -> Result<(), CommError> {
        let n = self.world_size();
        let counts = balanced_counts(out.len(), n);
        let g = Group::world(n);
        let full = self.start_all_gather(&g, shard, &counts, prec, WireFmt::Raw).wait()?;
        out.copy_from_slice(&full);
        Ok(())
    }

    /// Pipelined broadcast from `root` (a global rank) over the whole world.
    pub fn broadcast(
        &mut self,
        root: usize,
        buf: &mut [f32],
        prec: Precision,
    ) -> Result<(), CommError> {
        let g = Group::world(self.world_size());
        self.broadcast_in(&g, root, buf, prec)
    }

    /// Chain reduce to `root` (a global rank); only the root's `buf` holds
    /// the result afterwards.
    pub fn reduce(
        &mut self,
        root: usize,
        buf: &mut [f32],
        op: ReduceOp,
        prec: Precision,
    ) -> Result<(), CommError> {
        let g = Group::world(self.world_size());
        self.reduce_in(&g, root, buf, op, prec)
    }
}

// ----- fabric-side schedules (run on the progress thread) -----
//
// Every membership check, fault trigger (`begin_op`), send, and receive
// happens in issue order on the rank's progress thread. Single-member
// groups never get here: `Communicator::submit` completes them locally.

impl Fabric {
    /// One ring pass over `buf`, split into per-member `ranges`: n−1 hops,
    /// each sending one chunk to the successor and folding the chunk
    /// received from the predecessor into `buf` as `hop` says.
    ///
    /// A copy pass starts from this rank's own chunk and forwards each
    /// received stream verbatim on the next hop, so a lossy codec encodes
    /// every chunk exactly once, at its owner (which keeps the decoded
    /// image): the gathered buffer is bitwise identical on every member
    /// and requantization error never compounds. A reduce pass trails the
    /// copy schedule by one chunk, sending the partial it just reduced;
    /// after it this rank holds the fully reduced chunk `idx`.
    fn ring_pass(
        &mut self,
        ring: &Ring,
        buf: &mut [f32],
        ranges: &[Range<usize>],
        hop: Hop,
        codec: Codec,
        kind: CollectiveKind,
    ) -> Result<(), CommError> {
        let (n, idx) = (ring.n(), ring.idx);
        let next = ring.members[(idx + 1) % n];
        let prev = ring.members[(idx + n - 1) % n];
        let (lag, mut held) = match hop {
            Hop::Reduce(_) => (1, None),
            Hop::Copy => (0, Some(codec.seal(&mut buf[ranges[idx].clone()]))),
        };
        for step in 0..n - 1 {
            let send_c = (idx + 2 * n - lag - step) % n;
            let recv_c = (idx + 2 * n - 1 - lag - step) % n;
            let payload = match held.take() {
                Some(stream) => stream,
                None => codec.encode(Cow::Borrowed(&buf[ranges[send_c].clone()])),
            };
            self.send_raw(next, payload, kind, codec.wire_bytes(ranges[send_c].len()))?;
            let incoming = self.recv_raw(prev)?;
            let dst = &mut buf[ranges[recv_c].clone()];
            match hop {
                Hop::Reduce(op) => apply(op, dst, &codec.decode(&incoming, dst.len())),
                Hop::Copy => {
                    dst.copy_from_slice(&codec.decode(&incoming, dst.len()));
                    held = Some(incoming);
                }
            }
        }
        Ok(())
    }

    /// Pairwise exchange among `peers`, this rank at position `me`: round
    /// `d = 1..k` sends `payload(me + d)` to that peer and receives from
    /// peer `me − d` (mod k), so every ordered pair meets exactly once and
    /// the rounds pair up on every member without deadlock. Returns the
    /// stream each peer sent, by position (this rank's own slot is empty).
    fn pairwise_exchange<'a>(
        &mut self,
        peers: &[usize],
        me: usize,
        codec: Codec,
        kind: CollectiveKind,
        mut payload: impl FnMut(usize) -> Cow<'a, [f32]>,
    ) -> Result<Vec<Vec<f32>>, CommError> {
        let k = peers.len();
        let mut got = vec![Vec::new(); k];
        for d in 1..k {
            let (to, from) = ((me + d) % k, (me + k - d) % k);
            let data = payload(to);
            let bytes = codec.wire_bytes(data.len());
            self.send_raw(peers[to], codec.encode(data), kind, bytes)?;
            got[from] = self.recv_raw(peers[from])?;
        }
        Ok(got)
    }

    /// All-reduce within `group`, in place: a reduce pass then a copy pass
    /// over the same balanced ranges.
    pub(crate) fn all_reduce(
        &mut self,
        group: &Group,
        buf: &mut [f32],
        op: ReduceOp,
        prec: Precision,
    ) -> Result<(), CommError> {
        let ring = Ring::new(group, self.rank)?;
        self.begin_op(CollectiveKind::AllReduce)?;
        let ranges = ranges_from_counts(&balanced_counts(buf.len(), ring.n()));
        let (codec, kind) = (Codec::Raw(prec), CollectiveKind::AllReduce);
        self.ring_pass(&ring, buf, &ranges, Hop::Reduce(op), codec, kind)?;
        self.ring_pass(&ring, buf, &ranges, Hop::Copy, codec, kind)?;
        finalize(op, buf, ring.n());
        Ok(())
    }

    /// Reduce-scatter within `group`; returns this rank's reduced chunk
    /// (`counts[idx]` elements). Zero counts are allowed — ZeRO's
    /// flat-space partitioning produces uneven and sometimes empty
    /// intersections between a layer's range and a rank's shard.
    pub(crate) fn reduce_scatter(
        &mut self,
        group: &Group,
        mut input: Vec<f32>,
        op: ReduceOp,
        counts: &[usize],
        prec: Precision,
        wire: WireFmt,
    ) -> Result<Vec<f32>, CommError> {
        let ring = Ring::new(group, self.rank)?;
        if let WireFmt::QgzInt8 { node_size, block } = wire {
            return self.reduce_scatter_qgz(&ring, &input, op, counts, prec, node_size, block);
        }
        self.begin_op(CollectiveKind::ReduceScatter)?;
        let ranges = ranges_from_counts(counts);
        let (codec, kind) = (Codec::of(wire, prec), CollectiveKind::ReduceScatter);
        self.ring_pass(&ring, &mut input, &ranges, Hop::Reduce(op), codec, kind)?;
        let mut out = input[ranges[ring.idx].clone()].to_vec();
        finalize(op, &mut out, ring.n());
        Ok(out)
    }

    /// ZeRO++ qgZ over a group laid out node-major (`g` consecutive
    /// members per node):
    ///
    /// 1. **raw pairwise exchange inside the node** — node-mate at slot
    ///    `s` collects, at full precision, every chunk destined to a
    ///    slot-`s` rank on any node, then reduces the node's contributions
    ///    locally in slot order;
    /// 2. **int8 pairwise exchange across nodes** — each rank sends its
    ///    local partial for node `m`'s same-slot owner as int8 blocks, and
    ///    sums the decoded partials in node order.
    ///
    /// Only the slow inter-node hop is quantized; the rank's own partial
    /// stays full precision. Accumulation order (slots, then nodes) is
    /// fixed, so results are bit-deterministic across runs. A `g` that
    /// does not divide the group is [`CommError::InvalidTopology`].
    #[allow(clippy::too_many_arguments)]
    fn reduce_scatter_qgz(
        &mut self,
        ring: &Ring,
        input: &[f32],
        op: ReduceOp,
        counts: &[usize],
        prec: Precision,
        g: usize,
        block: usize,
    ) -> Result<Vec<f32>, CommError> {
        let n = ring.n();
        if g == 0 || !n.is_multiple_of(g) {
            return Err(CommError::InvalidTopology { rank: self.rank, world: n, node_size: g });
        }
        self.begin_op(CollectiveKind::ReduceScatter)?;
        let kind = CollectiveKind::ReduceScatter;
        let (nodes, slot, node) = (n / g, ring.idx % g, ring.idx / g);
        let ranges = ranges_from_counts(counts);
        // Mean sums through both phases and divides once at the end.
        let inner = if op == ReduceOp::Mean { ReduceOp::Sum } else { op };
        // The chunk owners at slot `s`, in node order.
        let column = |s: usize| (0..nodes).map(move |m| m * g + s);

        // Phase 1 — the payload to slot `s` concatenates the chunks of
        // every slot-`s` owner in node order.
        let raw = Codec::Raw(prec);
        let mates: Vec<usize> = (0..g).map(|s| ring.members[node * g + s]).collect();
        let from_mates = self.pairwise_exchange(&mates, slot, raw, kind, |s| {
            Cow::Owned(column(s).flat_map(|c| input[ranges[c].clone()].iter().copied()).collect())
        })?;
        // Node-local partials for this rank's slot column, accumulated in
        // slot order so every rank reduces identically.
        let col_len = column(slot).map(|c| counts[c]).sum();
        let mut partial: Vec<Vec<f32>> = column(slot).map(|c| vec![0.0; counts[c]]).collect();
        for (s, stream) in from_mates.iter().enumerate() {
            let mate = (s != slot).then(|| raw.decode(stream, col_len));
            let mut off = 0;
            for (dst, c) in partial.iter_mut().zip(column(slot)) {
                let src = match &mate {
                    Some(buf) => &buf[off..off + counts[c]],
                    None => &input[ranges[c].clone()],
                };
                accumulate(inner, dst, src, s == 0);
                off += counts[c];
            }
        }

        // Phase 2 — node `m`'s same-slot owner receives this node's
        // partial for its chunk as int8 blocks.
        let int8 = Codec::Int8 { block };
        let peers: Vec<usize> = column(slot).map(|c| ring.members[c]).collect();
        let from_nodes =
            self.pairwise_exchange(&peers, node, int8, kind, |m| Cow::Borrowed(&partial[m]))?;
        let mut out = vec![0.0; counts[ring.idx]];
        for (m, stream) in from_nodes.iter().enumerate() {
            let src = if m == node {
                Cow::Borrowed(&partial[node][..])
            } else {
                int8.decode(stream, out.len())
            };
            accumulate(inner, &mut out, &src, m == 0);
        }
        finalize(op, &mut out, n);
        Ok(out)
    }

    /// All-gather within `group`: member `i` contributes `counts[i]`
    /// elements (zero allowed); returns the full `Σ counts` buffer.
    pub(crate) fn all_gather(
        &mut self,
        group: &Group,
        shard: &[f32],
        counts: &[usize],
        prec: Precision,
        wire: WireFmt,
    ) -> Result<Vec<f32>, CommError> {
        let ring = Ring::new(group, self.rank)?;
        self.begin_op(CollectiveKind::AllGather)?;
        let ranges = ranges_from_counts(counts);
        let mut out = vec![0.0; counts.iter().sum()];
        out[ranges[ring.idx].clone()].copy_from_slice(shard);
        let codec = Codec::of(wire, prec);
        self.ring_pass(&ring, &mut out, &ranges, Hop::Copy, codec, CollectiveKind::AllGather)?;
        Ok(out)
    }

    /// Pipelined broadcast within `group` from global rank `root`.
    ///
    /// # Errors
    /// Returns [`CommError::NotInGroup`] if this rank or `root` is not in
    /// `group`.
    pub(crate) fn broadcast(
        &mut self,
        group: &Group,
        root: usize,
        buf: &mut [f32],
        prec: Precision,
    ) -> Result<(), CommError> {
        self.begin_op(CollectiveKind::Broadcast)?;
        let n = group.len();
        let idx = member_index(group, self.rank)?;
        let root_idx = member_index(group, root)?;
        // Position along the chain starting at the root.
        let pos = (idx + n - root_idx) % n;
        let bytes = prec.bytes() * buf.len() as u64;
        if pos > 0 {
            let prev = group.members()[(idx + n - 1) % n];
            let incoming = self.recv_raw(prev)?;
            buf.copy_from_slice(&incoming);
        }
        if pos < n - 1 {
            let next = group.members()[(idx + 1) % n];
            self.send_raw(next, buf.to_vec(), CollectiveKind::Broadcast, bytes)?;
        }
        Ok(())
    }

    /// Chain reduce within `group` to global rank `root`. Afterwards only
    /// the root's `buf` holds the reduced result; other members' buffers
    /// are unchanged.
    ///
    /// # Errors
    /// Returns [`CommError::NotInGroup`] if this rank or `root` is not in
    /// `group`.
    pub(crate) fn reduce(
        &mut self,
        group: &Group,
        root: usize,
        buf: &mut [f32],
        op: ReduceOp,
        prec: Precision,
    ) -> Result<(), CommError> {
        self.begin_op(CollectiveKind::Reduce)?;
        let n = group.len();
        let idx = member_index(group, self.rank)?;
        let root_idx = member_index(group, root)?;
        // Chain: the member farthest *after* the root sends first; partial
        // sums flow backwards around the ring into the root.
        let pos = (idx + n - root_idx) % n; // root has pos 0
        let bytes = prec.bytes() * buf.len() as u64;
        if pos == 0 {
            // Root: receive one partial-sum message from its successor.
            let next = group.members()[(idx + 1) % n];
            let incoming = self.recv_raw(next)?;
            apply(op, buf, &incoming);
            finalize(op, buf, n);
        } else {
            let mut work = buf.to_vec();
            if pos < n - 1 {
                let next = group.members()[(idx + 1) % n];
                let incoming = self.recv_raw(next)?;
                apply(op, &mut work, &incoming);
            }
            let prev = group.members()[(idx + n - 1) % n];
            self.send_raw(prev, work, CollectiveKind::Reduce, bytes)?;
        }
        Ok(())
    }
}

// ----- public group collectives: submit to the progress thread -----

/// Rejects a zero quantization block at submit, on the caller's thread.
fn assert_block(wire: WireFmt) {
    if let WireFmt::Int8Block { block } | WireFmt::QgzInt8 { block, .. } = wire {
        assert!(block > 0, "quantization block size must be positive");
    }
}

impl Communicator {
    /// Ring all-reduce within `group`, in place.
    ///
    /// # Errors
    /// Returns [`CommError::NotInGroup`] if this rank is not a member of
    /// `group`.
    pub fn all_reduce_in(
        &mut self,
        group: &Group,
        buf: &mut [f32],
        op: ReduceOp,
        prec: Precision,
    ) -> Result<(), CommError> {
        let req = Request::AllReduce { group: group.clone(), data: buf.to_vec(), op, prec };
        buf.copy_from_slice(&self.submit(req).wait()?);
        Ok(())
    }

    /// Pipelined broadcast within `group` from global rank `root`.
    ///
    /// # Errors
    /// Returns [`CommError::NotInGroup`] if this rank or `root` is not in
    /// `group`.
    pub fn broadcast_in(
        &mut self,
        group: &Group,
        root: usize,
        buf: &mut [f32],
        prec: Precision,
    ) -> Result<(), CommError> {
        let req =
            Request::Broadcast { group: group.clone(), root, data: buf.to_vec(), prec };
        buf.copy_from_slice(&self.submit(req).wait()?);
        Ok(())
    }

    /// Chain reduce within `group` to global rank `root`. Afterwards only
    /// the root's `buf` holds the reduced result; other members' buffers
    /// are unchanged.
    ///
    /// # Errors
    /// Returns [`CommError::NotInGroup`] if this rank or `root` is not in
    /// `group`.
    pub fn reduce_in(
        &mut self,
        group: &Group,
        root: usize,
        buf: &mut [f32],
        op: ReduceOp,
        prec: Precision,
    ) -> Result<(), CommError> {
        let req =
            Request::Reduce { group: group.clone(), root, data: buf.to_vec(), op, prec };
        buf.copy_from_slice(&self.submit(req).wait()?);
        Ok(())
    }

    /// Starts a reduce-scatter within `group` without blocking: member `i`
    /// receives the reduced `counts[i]`-element chunk of `input` (`Σ
    /// counts` must equal `input.len()`; zero counts are allowed).
    /// [`PendingOp::wait`] yields this rank's chunk. `wire` picks the
    /// encoding: a raw or int8 ring, or qgZ's two-level exchange, whose
    /// raw intra-node phase `prec` prices. The op advances on the
    /// progress thread while the caller computes; blocking callers wait
    /// the handle at once. A non-member gets [`CommError::NotInGroup`].
    ///
    /// # Panics
    /// Panics if `counts` is inconsistent with `group` and `input`, or the
    /// quantization block is zero.
    pub fn start_reduce_scatter(
        &mut self,
        group: &Group,
        input: &[f32],
        op: ReduceOp,
        counts: &[usize],
        prec: Precision,
        wire: WireFmt,
    ) -> PendingOp {
        assert_eq!(counts.len(), group.len(), "reduce_scatter: counts length");
        assert_eq!(counts.iter().sum::<usize>(), input.len(), "reduce_scatter: counts sum");
        assert_block(wire);
        let req = Request::ReduceScatter {
            group: group.clone(),
            input: input.to_vec(),
            op,
            counts: counts.to_vec(),
            prec,
            wire,
        };
        self.submit(req)
    }

    /// Starts an all-gather within `group` without blocking: member `i`
    /// contributes its `counts[i]`-element `shard` (zero allowed), and
    /// [`PendingOp::wait`] yields the full `Σ counts` buffer — identical
    /// on every member, int8 wire included. A non-member gets
    /// [`CommError::NotInGroup`].
    ///
    /// # Panics
    /// Panics if `counts` is inconsistent with `group` and `shard`, on a
    /// zero quantization block, or on [`WireFmt::QgzInt8`] (a
    /// reduce-scatter format).
    pub fn start_all_gather(
        &mut self,
        group: &Group,
        shard: &[f32],
        counts: &[usize],
        prec: Precision,
        wire: WireFmt,
    ) -> PendingOp {
        assert_eq!(counts.len(), group.len(), "all_gather: counts length");
        if let Some(idx) = group.local_index(self.rank()) {
            assert_eq!(shard.len(), counts[idx], "all_gather: bad shard length");
        }
        let qgz = matches!(wire, WireFmt::QgzInt8 { .. });
        assert!(!qgz, "all_gather: qgZ is a reduce-scatter format");
        assert_block(wire);
        let req = Request::AllGather {
            group: group.clone(),
            shard: shard.to_vec(),
            counts: counts.to_vec(),
            prec,
            wire,
        };
        self.submit(req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{launch, launch_with_stats};

    /// Blocking explicit-count reduce-scatter over the whole world.
    fn rs(
        c: &mut Communicator,
        input: &[f32],
        op: ReduceOp,
        counts: &[usize],
        wire: WireFmt,
    ) -> Vec<f32> {
        let g = Group::world(c.world_size());
        c.start_reduce_scatter(&g, input, op, counts, Precision::Fp16, wire).wait().unwrap()
    }

    /// Blocking explicit-count all-gather over the whole world.
    fn ag(c: &mut Communicator, shard: &[f32], counts: &[usize], wire: WireFmt) -> Vec<f32> {
        let g = Group::world(c.world_size());
        c.start_all_gather(&g, shard, counts, Precision::Fp16, wire).wait().unwrap()
    }

    /// Rank r's shard values for uneven counts.
    fn shard_of(counts: &[usize], rank: usize) -> Vec<f32> {
        let offset: usize = counts[..rank].iter().sum();
        (0..counts[rank]).map(|j| ((offset + j) as f32 * 0.13).sin() * 3.0).collect()
    }

    #[test]
    fn chunk_ranges_cover_and_are_balanced() {
        for total in [0usize, 1, 7, 64, 65] {
            for n in [1usize, 2, 3, 5, 8] {
                let mut covered = 0;
                for i in 0..n {
                    let r = chunk_range(total, n, i);
                    assert_eq!(r.start, covered, "chunks must be contiguous");
                    covered = r.end;
                }
                assert_eq!(covered, total, "chunks must cover the buffer");
                let sizes = balanced_counts(total, n);
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "balanced within one element");
            }
        }
    }

    #[test]
    fn all_reduce_sums_across_ranks() {
        for n in [1usize, 2, 3, 4, 7] {
            for len in [1usize, 5, 16, 33] {
                let results = launch(n, |mut c| {
                    let mut buf: Vec<f32> =
                        (0..len).map(|i| (c.rank() * 100 + i) as f32).collect();
                    c.all_reduce(&mut buf, ReduceOp::Sum, Precision::Fp32).unwrap();
                    buf
                });
                let want: Vec<f32> = (0..len)
                    .map(|i| (0..n).map(|r| (r * 100 + i) as f32).sum())
                    .collect();
                for (rank, got) in results.iter().enumerate() {
                    for (g, w) in got.iter().zip(&want) {
                        assert!((g - w).abs() < 1e-3, "n={n} len={len} rank={rank}");
                    }
                }
            }
        }
    }

    #[test]
    fn all_reduce_mean_divides() {
        let results = launch(4, |mut c| {
            let mut buf = vec![(c.rank() + 1) as f32; 8];
            c.all_reduce(&mut buf, ReduceOp::Mean, Precision::Fp32).unwrap();
            buf
        });
        for got in &results {
            for &v in got {
                assert!((v - 2.5).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn all_reduce_max() {
        let results = launch(3, |mut c| {
            let mut buf = vec![c.rank() as f32, -(c.rank() as f32)];
            c.all_reduce(&mut buf, ReduceOp::Max, Precision::Fp32).unwrap();
            buf
        });
        for got in &results {
            assert_eq!(got[0], 2.0);
            assert_eq!(got[1], 0.0);
        }
    }

    #[test]
    fn reduce_scatter_gives_each_rank_its_chunk() {
        let n = 4;
        let len = 10; // uneven: chunks of 3,3,2,2
        let results = launch(n, |mut c| {
            let input: Vec<f32> = (0..len).map(|i| (i + c.rank()) as f32).collect();
            let my_len = chunk_range(len, n, c.rank()).len();
            let mut out = vec![0.0; my_len];
            c.reduce_scatter(&input, &mut out, ReduceOp::Sum, Precision::Fp32).unwrap();
            out
        });
        for (rank, got) in results.iter().enumerate() {
            let r = chunk_range(len, n, rank);
            for (j, &v) in got.iter().enumerate() {
                let i = r.start + j;
                let want: f32 = (0..n).map(|rr| (i + rr) as f32).sum();
                assert_eq!(v, want, "rank {rank} element {i}");
            }
        }
    }

    #[test]
    fn all_gather_reassembles() {
        let n = 3;
        let len = 8; // chunks 3,3,2
        let results = launch(n, |mut c| {
            let r = chunk_range(len, n, c.rank());
            let shard: Vec<f32> = r.clone().map(|i| i as f32 * 2.0).collect();
            let mut out = vec![0.0; len];
            c.all_gather(&shard, &mut out, Precision::Fp32).unwrap();
            out
        });
        let want: Vec<f32> = (0..len).map(|i| i as f32 * 2.0).collect();
        for got in &results {
            assert_eq!(got, &want);
        }
    }

    #[test]
    fn reduce_scatter_with_uneven_and_zero_counts() {
        let n = 4;
        let counts = [5usize, 0, 2, 3];
        let total: usize = counts.iter().sum();
        let results = launch(n, move |mut c| {
            let input: Vec<f32> = (0..total).map(|i| (i * (c.rank() + 1)) as f32).collect();
            rs(&mut c, &input, ReduceOp::Sum, &counts, WireFmt::Raw)
        });
        // Element i of the reduced buffer is i * (1+2+3+4) = 10i.
        let mut offset = 0;
        for (rank, cnt) in counts.iter().enumerate() {
            assert_eq!(results[rank].len(), *cnt, "rank {rank}");
            for (j, &got) in results[rank].iter().enumerate() {
                assert_eq!(got, (10 * (offset + j)) as f32, "rank {rank}");
            }
            offset += cnt;
        }
    }

    #[test]
    fn all_gather_with_uneven_and_zero_counts() {
        let n = 3;
        let counts = [4usize, 0, 3];
        let total: usize = counts.iter().sum();
        let results = launch(n, move |mut c| {
            let offset: usize = counts[..c.rank()].iter().sum();
            let shard: Vec<f32> = (0..counts[c.rank()]).map(|j| (offset + j) as f32).collect();
            ag(&mut c, &shard, &counts, WireFmt::Raw)
        });
        let want: Vec<f32> = (0..total).map(|i| i as f32).collect();
        for got in &results {
            assert_eq!(got, &want);
        }
    }

    #[test]
    fn broadcast_from_each_root() {
        for root in 0..4 {
            let results = launch(4, move |mut c| {
                let mut buf = if c.rank() == root {
                    vec![42.0, root as f32]
                } else {
                    vec![0.0, 0.0]
                };
                c.broadcast(root, &mut buf, Precision::Fp32).unwrap();
                buf
            });
            for got in &results {
                assert_eq!(got, &vec![42.0, root as f32]);
            }
        }
    }

    #[test]
    fn reduce_to_root_only() {
        let results = launch(5, |mut c| {
            let mut buf = vec![1.0_f32; 4];
            c.reduce(2, &mut buf, ReduceOp::Sum, Precision::Fp32).unwrap();
            buf
        });
        assert_eq!(results[2], vec![5.0; 4]);
        for (rank, got) in results.iter().enumerate() {
            if rank != 2 {
                assert_eq!(got, &vec![1.0; 4], "non-roots unchanged");
            }
        }
    }

    #[test]
    fn all_reduce_volume_matches_ring_formula() {
        // A ring all-reduce of `len` f32 elements sends 2·len·(n−1)/n
        // elements per rank — the 2Ψ of §7.1.
        let n = 4;
        let len = 1024; // divisible by n so the formula is exact
        let (_, snaps) = launch_with_stats(n, |mut c| {
            let mut buf = vec![1.0_f32; len];
            c.all_reduce(&mut buf, ReduceOp::Sum, Precision::Fp32).unwrap();
        });
        let want = (2 * len * (n - 1) / n * 4) as u64;
        for s in &snaps {
            assert_eq!(s.bytes(CollectiveKind::AllReduce), want);
        }
    }

    #[test]
    fn fp16_accounting_halves_bytes() {
        let n = 2;
        let len = 100;
        let (_, snaps) = launch_with_stats(n, |mut c| {
            let mut buf = vec![1.0_f32; len];
            c.all_reduce(&mut buf, ReduceOp::Sum, Precision::Fp16).unwrap();
        });
        let want = (2 * len * (n - 1) / n * 2) as u64;
        assert_eq!(snaps[0].bytes(CollectiveKind::AllReduce), want);
    }

    #[test]
    fn single_rank_collectives_are_local() {
        let (_, snaps) = launch_with_stats(1, |mut c| {
            let mut buf = vec![3.0_f32; 7];
            c.all_reduce(&mut buf, ReduceOp::Mean, Precision::Fp32).unwrap();
            assert_eq!(buf, vec![3.0; 7]);
            let mut out = vec![0.0; 7];
            c.reduce_scatter(&buf, &mut out, ReduceOp::Sum, Precision::Fp32).unwrap();
            assert_eq!(out, vec![3.0; 7]);
            let mut gathered = vec![0.0; 7];
            c.all_gather(&out, &mut gathered, Precision::Fp32).unwrap();
            assert_eq!(gathered, vec![3.0; 7]);
            // A lone qwZ owner keeps the decoded image of its own chunk,
            // exactly as it would inside a larger ring.
            let shard = shard_of(&[9], 0);
            let q = ag(&mut c, &shard, &[9], WireFmt::Int8Block { block: 4 });
            assert_eq!(q, quantize_for_transport(&shard, 4).dequantize());
        });
        assert_eq!(snaps[0].total_bytes(), 0, "no traffic for world of 1");
        let messages: u64 = crate::stats::ALL_KINDS.iter().map(|&k| snaps[0].messages(k)).sum();
        assert_eq!(messages, 0, "no messages for world of 1");
    }

    #[test]
    fn non_members_get_a_typed_error() {
        let errs = launch(3, |mut c| {
            let pair = Group::new(vec![(c.rank() + 1) % 3, (c.rank() + 2) % 3]);
            let lone = Group::new(vec![(c.rank() + 1) % 3]);
            let mut buf = vec![1.0_f32; 4];
            [
                c.all_reduce_in(&pair, &mut buf, ReduceOp::Sum, Precision::Fp32).unwrap_err(),
                c.all_reduce_in(&lone, &mut buf, ReduceOp::Sum, Precision::Fp32).unwrap_err(),
            ]
        });
        for (rank, pair) in errs.iter().enumerate() {
            for e in pair {
                assert!(matches!(e, CommError::NotInGroup { rank: r, .. } if *r == rank), "{e:?}");
            }
        }
    }

    #[test]
    fn quant_all_gather_matches_raw_within_block_error() {
        let n = 4;
        let counts = [9usize, 0, 17, 5];
        let block = 4;
        let results = launch(n, move |mut c| {
            let shard = shard_of(&counts, c.rank());
            let raw = ag(&mut c, &shard, &counts, WireFmt::Raw);
            let q = ag(&mut c, &shard, &counts, WireFmt::Int8Block { block });
            (raw, q)
        });
        // All ranks see bitwise-identical gathered buffers...
        for w in results.windows(2) {
            assert_eq!(w[0].1, w[1].1, "quantized gather must agree across ranks");
        }
        // ...and each element is within the per-block error bound of raw.
        let (raw, q) = &results[0];
        let mut offset = 0;
        for (rank, &cnt) in counts.iter().enumerate() {
            let quantized = crate::quant::quantize(&raw[offset..offset + cnt], block)
                .unwrap_or_else(|e| panic!("rank {rank}: {e}"));
            for (b, chunk) in raw[offset..offset + cnt].chunks(block).enumerate() {
                let bound = 0.5 * quantized.scales[b] * (1.0 + 1e-4) + 1e-30;
                for (j, &v) in chunk.iter().enumerate() {
                    let got = q[offset + b * block + j];
                    assert!(
                        (v - got).abs() <= bound,
                        "rank {rank} block {b} elem {j}: {v} vs {got}"
                    );
                }
            }
            offset += cnt;
        }
    }

    #[test]
    fn quant_all_gather_wire_volume_matches_formula() {
        let n = 4;
        let counts = [100usize, 37, 64, 9];
        let block = 16;
        let (_, snaps) = launch_with_stats(n, move |mut c| {
            let shard = shard_of(&counts, c.rank());
            ag(&mut c, &shard, &counts, WireFmt::Int8Block { block });
        });
        // Rank i forwards every chunk except its successor's.
        for (i, s) in snaps.iter().enumerate() {
            let want: u64 = (0..n)
                .filter(|&j| j != (i + 1) % n)
                .map(|j| quant_wire_bytes(counts[j], block))
                .sum();
            assert_eq!(s.bytes(CollectiveKind::AllGather), want, "rank {i}");
        }
    }

    #[test]
    fn qgz_reduce_scatter_matches_raw_within_tolerance() {
        // 4 ranks on 2 "nodes" of 2; Mean semantics like the grad path.
        let n = 4;
        let counts = [11usize, 6, 0, 13];
        let total: usize = counts.iter().sum();
        let qgz = WireFmt::QgzInt8 { node_size: 2, block: 4 };
        let results = launch(n, move |mut c| {
            let input: Vec<f32> =
                (0..total).map(|i| ((i + 3 * c.rank()) as f32 * 0.21).cos() * 2.0).collect();
            let raw = rs(&mut c, &input, ReduceOp::Mean, &counts, WireFmt::Raw);
            let q = rs(&mut c, &input, ReduceOp::Mean, &counts, qgz);
            (raw, q)
        });
        for (rank, (raw, q)) in results.iter().enumerate() {
            assert_eq!(raw.len(), q.len());
            for (j, (&a, &b)) in raw.iter().zip(q).enumerate() {
                // One quantized hop of partials in ±(n/node_size)·range;
                // a loose absolute bound suffices here (tight per-block
                // bounds are covered in quant.rs).
                assert!((a - b).abs() < 0.05, "rank {rank} elem {j}: raw {a} vs qgz {b}");
            }
        }
    }

    #[test]
    fn qgz_is_bit_deterministic_across_runs() {
        let counts = [7usize, 7, 7, 7];
        let qgz = WireFmt::QgzInt8 { node_size: 2, block: 4 };
        let run = || {
            launch(4, move |mut c| {
                let input: Vec<f32> =
                    (0..28).map(|i| ((i * (c.rank() + 2)) as f32 * 0.11).sin()).collect();
                rs(&mut c, &input, ReduceOp::Mean, &counts, qgz)
            })
        };
        let a = run();
        let b = run();
        for (x, y) in a.iter().zip(&b) {
            assert!(x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits()));
        }
    }

    #[test]
    fn qgz_wire_volume_matches_two_phase_formula() {
        let n = 4;
        let node_size = 2;
        let counts = [40usize, 23, 31, 10];
        let total: usize = counts.iter().sum();
        let block = 8;
        let (_, snaps) = launch_with_stats(n, move |mut c| {
            let input = vec![1.0_f32; total];
            rs(&mut c, &input, ReduceOp::Sum, &counts, WireFmt::QgzInt8 { node_size, block });
        });
        let g = node_size;
        let nodes = n / g;
        for (i, s) in snaps.iter().enumerate() {
            let (slot, node) = (i % g, i / g);
            // Phase 1: to each node-mate s', the full column of slot s'.
            let phase1: u64 = (0..g)
                .filter(|&sp| sp != slot)
                .map(|sp| {
                    let col: usize = (0..nodes).map(|m| counts[m * g + sp]).sum();
                    Precision::Fp16.bytes() * col as u64
                })
                .sum();
            // Phase 2: to each other node, the quantized same-slot chunk.
            let phase2: u64 = (0..nodes)
                .filter(|&m| m != node)
                .map(|m| quant_wire_bytes(counts[m * g + slot], block))
                .sum();
            assert_eq!(s.bytes(CollectiveKind::ReduceScatter), phase1 + phase2, "rank {i}");
        }
    }

    #[test]
    fn qgz_rejects_indivisible_node_size() {
        let errs = launch(4, move |mut c| {
            let g = Group::world(4);
            let input = vec![0.0_f32; 8];
            let qgz = WireFmt::QgzInt8 { node_size: 3, block: 4 };
            c.start_reduce_scatter(&g, &input, ReduceOp::Sum, &[2, 2, 2, 2], Precision::Fp32, qgz)
                .wait()
                .unwrap_err()
        });
        for (rank, e) in errs.iter().enumerate() {
            assert_eq!(*e, CommError::InvalidTopology { rank, world: 4, node_size: 3 });
        }
    }

    #[test]
    fn qgz_single_node_group_stays_raw() {
        // node_size == group size: phase 2 degenerates, no quantization of
        // anything this rank keeps — the result is the exact reduction
        // (phase-1 ordering equals slot order on one node).
        let n = 3;
        let counts = [5usize, 4, 3];
        let total: usize = counts.iter().sum();
        let results = launch(n, move |mut c| {
            let input: Vec<f32> = (0..total).map(|i| (i + c.rank() * 7) as f32).collect();
            rs(&mut c, &input, ReduceOp::Sum, &counts, WireFmt::QgzInt8 { node_size: n, block: 4 })
        });
        // Integers sum exactly: compare against the analytic reduction.
        let mut offset = 0;
        for (rank, &cnt) in counts.iter().enumerate() {
            for (j, &got) in results[rank].iter().enumerate().take(cnt) {
                let want: f32 = (0..n).map(|r| (offset + j + r * 7) as f32).sum();
                assert_eq!(got, want, "rank {rank} elem {j}");
            }
            offset += cnt;
        }
    }
}
