//! CB: constant-size fused gradient buckets (§5.2, §6.2).
//!
//! Fusing many small gradients into one large buffer before a collective
//! is how DL stacks keep all-reduce bandwidth-efficient — but a fused
//! buffer proportional to model size "can become inhibiting" (12 GB for a
//! 3B model, §6.2). ZeRO instead uses a *constant-size* bucket: unit
//! gradients accumulate until the bucket reaches its capacity, then a
//! single reduction fires for the fused range. This also implements §5.2's
//! "bucketization strategy … we perform a reduction instead of an
//! all-reduce at the partition boundaries to … overlap computation and
//! communication".
//!
//! Gradients are produced in *reverse* flat order during backward (head
//! unit first, embedding last), so the pending region is always one
//! contiguous flat range growing downward.

/// Accumulates per-unit gradients and hands back the fused pending region
/// whenever it reaches the capacity.
pub struct GradBucket {
    capacity: usize,
    /// Pending spans in arrival (descending) order; contiguity invariant:
    /// each new span ends where the previous began.
    pending: Vec<(std::ops::Range<usize>, Vec<f32>)>,
    pending_elems: usize,
    flushes: u64,
    max_fused: usize,
}

impl GradBucket {
    /// Creates a bucket that flushes at `capacity` elements.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> GradBucket {
        assert!(capacity > 0, "bucket capacity must be positive");
        GradBucket {
            capacity,
            pending: Vec::new(),
            pending_elems: 0,
            flushes: 0,
            max_fused: 0,
        }
    }

    /// Bucket capacity in elements.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Elements currently pending.
    pub fn pending_elems(&self) -> usize {
        self.pending_elems
    }

    /// Number of flushes fired so far.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Largest fused buffer ever assembled (to verify the constant-size
    /// property: ≤ capacity + largest single unit).
    pub fn max_fused_elems(&self) -> usize {
        self.max_fused
    }

    /// Adds one unit's gradients (flat `range`, matching `data`). If the
    /// pending region reaches capacity, returns it flushed: the contiguous
    /// flat range and the fused values in flat order.
    ///
    /// # Panics
    /// Panics if `range`/`data` lengths differ or contiguity (descending,
    /// adjacent) is violated.
    #[must_use = "a flushed bucket must be reduced"]
    pub fn push(
        &mut self,
        range: std::ops::Range<usize>,
        data: Vec<f32>,
    ) -> Option<(std::ops::Range<usize>, Vec<f32>)> {
        assert_eq!(range.len(), data.len(), "bucket: range/data mismatch");
        if let Some((last, _)) = self.pending.last() {
            assert_eq!(
                range.end, last.start,
                "bucket: spans must arrive in descending contiguous order"
            );
        }
        self.pending_elems += data.len();
        self.pending.push((range, data));
        if self.pending_elems >= self.capacity {
            self.flush_all()
        } else {
            None
        }
    }

    /// Flushes whatever is pending (end of backward pass); `None` if the
    /// bucket is empty.
    #[must_use = "a flushed bucket must be reduced"]
    pub fn flush_all(&mut self) -> Option<(std::ops::Range<usize>, Vec<f32>)> {
        let start = self.pending.last()?.0.start;
        let end = self.pending.first()?.0.end;
        let mut fused = vec![0.0; end - start];
        for (r, d) in self.pending.drain(..) {
            fused[r.start - start..r.end - start].copy_from_slice(&d);
        }
        self.max_fused = self.max_fused.max(fused.len());
        self.pending_elems = 0;
        self.flushes += 1;
        Some((start..end, fused))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flushes_when_capacity_reached() {
        let mut b = GradBucket::new(10);
        assert!(b.push(20..26, vec![6.0; 6]).is_none(), "flush only at capacity");
        let (r, d) = b.push(14..20, vec![4.0; 6]).expect("capacity reached");
        assert_eq!(r, 14..26);
        assert_eq!(&d[..6], &[4.0; 6]);
        assert_eq!(&d[6..], &[6.0; 6]);
        assert_eq!(b.pending_elems(), 0);
    }

    #[test]
    fn flush_all_drains_remainder() {
        let mut b = GradBucket::new(100);
        assert!(b.push(5..8, vec![1.0; 3]).is_none());
        assert!(b.push(0..5, vec![2.0; 5]).is_none());
        assert_eq!(b.flush_all().map(|(r, _)| r), Some(0..8));
        assert!(b.flush_all().is_none(), "the empty flush is a no-op");
        assert_eq!(b.flushes(), 1);
    }

    #[test]
    fn oversized_unit_flushes_alone() {
        let mut b = GradBucket::new(4);
        let (r, _) = b.push(10..20, vec![0.0; 10]).expect("over capacity");
        assert_eq!(r.len(), 10);
        assert_eq!(b.max_fused_elems(), 10);
    }

    #[test]
    #[should_panic(expected = "descending contiguous")]
    fn non_contiguous_spans_rejected() {
        let mut b = GradBucket::new(100);
        let _ = b.push(10..20, vec![0.0; 10]);
        let _ = b.push(0..5, vec![0.0; 5]); // gap 5..10
    }

    #[test]
    fn fused_values_are_in_flat_order() {
        let mut b = GradBucket::new(6);
        assert!(b.push(3..6, vec![30.0, 31.0, 32.0]).is_none());
        let (_, got) = b.push(0..3, vec![0.0, 1.0, 2.0]).expect("capacity reached");
        assert_eq!(got, vec![0.0, 1.0, 2.0, 30.0, 31.0, 32.0]);
    }
}
