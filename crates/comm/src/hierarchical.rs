//! Hierarchical (two-level) all-reduce.
//!
//! On a DGX-2 cluster the flat ring crosses the slow inter-node links
//! (N−1) times per element. The standard topology-aware alternative —
//! what NCCL trees/hierarchies approximate — reduces in three phases:
//!
//! 1. **intra-node reduce-scatter** over the fast fabric: each local rank
//!    ends up owning 1/G of the node's sum (G = ranks per node);
//! 2. **inter-node all-reduce** of each owner's chunk across nodes: only
//!    1/G of the data crosses the slow links per rank;
//! 3. **intra-node all-gather** to redistribute the final sums.
//!
//! Total per-rank volume matches the flat ring asymptotically, but the
//! *inter-node* share drops from ≈2Ψ to ≈2Ψ/G — why MP-in-the-node ×
//! DP-across-nodes (the paper's §1 layout) is bandwidth-sane. The
//! distinction is measurable here because phases run in different groups
//! whose traffic is metered separately.

use crate::collectives::{balanced_counts, Precision, ReduceOp, WireFmt};
use crate::error::CommError;
use crate::group::Group;
use crate::world::Communicator;

/// Topology for the two-level reduction: ranks `[node·G, node·G + G)`
/// share a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeTopology {
    /// Ranks per node G.
    pub ranks_per_node: usize,
}

impl NodeTopology {
    /// Creates a topology; world size must be a multiple of `g`.
    pub fn new(g: usize) -> NodeTopology {
        assert!(g > 0, "ranks_per_node must be positive");
        NodeTopology { ranks_per_node: g }
    }

    /// Checked constructor: rejects a node size that does not evenly
    /// divide `world` (which would silently mis-group the tail ranks —
    /// `node_group` would hand them members beyond the world) with a
    /// typed [`CommError::InvalidTopology`].
    pub fn for_world(g: usize, world: usize, rank: usize) -> Result<NodeTopology, CommError> {
        if g == 0 || !world.is_multiple_of(g) {
            return Err(CommError::InvalidTopology { rank, world, node_size: g });
        }
        Ok(NodeTopology { ranks_per_node: g })
    }

    /// The intra-node group of `rank`.
    pub fn node_group(&self, rank: usize) -> Group {
        let g = self.ranks_per_node;
        let base = rank / g * g;
        Group::new((base..base + g).collect())
    }

    /// The inter-node group of `rank`: the same local slot on every node.
    pub fn cross_group(&self, rank: usize, world: usize) -> Group {
        let g = self.ranks_per_node;
        let slot = rank % g;
        Group::new((0..world / g).map(|n| n * g + slot).collect())
    }
}

impl Communicator {
    /// Two-level all-reduce: intra-node reduce-scatter, inter-node
    /// all-reduce of the owned chunk, intra-node all-gather. Numerically
    /// equivalent to [`Communicator::all_reduce`] up to reassociation.
    ///
    /// Returns [`CommError::InvalidTopology`] if the world size is not a
    /// multiple of `topo.ranks_per_node` — the two-level grouping would
    /// otherwise silently assign out-of-world members to the tail node.
    pub fn hierarchical_all_reduce(
        &mut self,
        topo: &NodeTopology,
        buf: &mut [f32],
        op: ReduceOp,
        prec: Precision,
    ) -> Result<(), CommError> {
        let world = self.world_size();
        let g = topo.ranks_per_node;
        if !world.is_multiple_of(g) {
            return Err(CommError::InvalidTopology {
                rank: self.rank(),
                world,
                node_size: g,
            });
        }
        let rank = self.rank();
        let node_group = topo.node_group(rank);
        let cross_group = topo.cross_group(rank, world);
        let counts = balanced_counts(buf.len(), g);

        // Mean semantics: sum through the hierarchy, divide once at the end.
        let inner_op = if op == ReduceOp::Mean { ReduceOp::Sum } else { op };

        // Phase 1: intra-node reduce-scatter; this rank owns one chunk.
        let mut shard = self
            .start_reduce_scatter(&node_group, buf, inner_op, &counts, prec, WireFmt::Raw)
            .wait()?;

        // Phase 2: inter-node all-reduce of the owned chunk only.
        self.all_reduce_in(&cross_group, &mut shard, inner_op, prec)?;

        // Phase 3: intra-node all-gather of the finished chunks.
        let full =
            self.start_all_gather(&node_group, &shard, &counts, prec, WireFmt::Raw).wait()?;
        buf.copy_from_slice(&full);

        if op == ReduceOp::Mean {
            let inv = 1.0 / world as f32;
            for v in buf.iter_mut() {
                *v *= inv;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::CollectiveKind;
    use crate::world::{launch, launch_with_stats};

    #[test]
    fn matches_flat_all_reduce() {
        for (world, g) in [(4usize, 2usize), (8, 4), (6, 3), (8, 1), (4, 4)] {
            let topo = NodeTopology::new(g);
            let len = 37;
            let results = launch(world, move |mut c| {
                let mut a: Vec<f32> = (0..len).map(|i| (c.rank() * 10 + i) as f32).collect();
                let mut b = a.clone();
                c.all_reduce(&mut a, ReduceOp::Sum, Precision::Fp32).unwrap();
                c.hierarchical_all_reduce(&topo, &mut b, ReduceOp::Sum, Precision::Fp32).unwrap();
                (a, b)
            });
            for (flat, hier) in &results {
                for (x, y) in flat.iter().zip(hier) {
                    assert!((x - y).abs() < 1e-3, "world {world} g {g}: {x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn mean_divides_by_world() {
        let topo = NodeTopology::new(2);
        let results = launch(4, move |mut c| {
            let mut buf = vec![(c.rank() + 1) as f32; 8];
            c.hierarchical_all_reduce(&topo, &mut buf, ReduceOp::Mean, Precision::Fp32).unwrap();
            buf
        });
        for r in &results {
            for &v in r {
                assert!((v - 2.5).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn cross_node_volume_shrinks_by_node_size() {
        // The point of the hierarchy: the inter-node phase only moves the
        // 1/G chunk. Compare metered inter-phase bytes against flat.
        let len = 1024usize;
        let world = 8;
        let g = 4;
        let topo = NodeTopology::new(g);
        // Hierarchical: cross-node traffic is exactly the phase-2
        // all-reduce over the (world/g)-rank group of a len/g chunk.
        let (_, snaps) = launch_with_stats(world, move |mut c| {
            let mut buf = vec![1.0_f32; len];
            c.hierarchical_all_reduce(&topo, &mut buf, ReduceOp::Sum, Precision::Fp32).unwrap();
        });
        let cross_nodes = world / g;
        let chunk = len / g;
        let want_cross = (2 * chunk * (cross_nodes - 1) / cross_nodes * 4) as u64;
        // Phase 2 is the only AllReduce-kind traffic in the hierarchy
        // (phases 1/3 are ReduceScatter/AllGather kinds).
        for s in &snaps {
            assert_eq!(s.bytes(CollectiveKind::AllReduce), want_cross);
        }
        // A flat ring would move 2·len·(world−1)/world per rank across
        // mixed links; the hierarchy's slow-link share is G× smaller.
        let flat = 2.0 * len as f64 * (world - 1) as f64 / world as f64 * 4.0;
        assert!(
            (want_cross as f64) < flat / (g as f64 - 1.0),
            "cross-node traffic {want_cross} should be ≪ flat {flat}"
        );
    }

    #[test]
    fn node_and_cross_groups_partition_the_world() {
        let topo = NodeTopology::new(4);
        for rank in 0..8 {
            let ng = topo.node_group(rank);
            let cg = topo.cross_group(rank, 8);
            assert_eq!(ng.len(), 4);
            assert_eq!(cg.len(), 2);
            assert!(ng.contains(rank) && cg.contains(rank));
            // They intersect exactly at `rank`.
            let overlap: Vec<usize> = ng
                .members()
                .iter()
                .filter(|m| cg.contains(**m))
                .copied()
                .collect();
            assert_eq!(overlap, vec![rank]);
        }
    }

    #[test]
    fn indivisible_world_yields_typed_error() {
        // Every rank gets the typed error back (no panic, no deadlock):
        // the divisibility check happens before any message is exchanged.
        let topo = NodeTopology::new(3);
        let errs = launch(4, move |mut c| {
            let mut buf = vec![0.0_f32; 4];
            c.hierarchical_all_reduce(&topo, &mut buf, ReduceOp::Sum, Precision::Fp32)
                .unwrap_err()
        });
        for (rank, e) in errs.iter().enumerate() {
            assert_eq!(*e, CommError::InvalidTopology { rank, world: 4, node_size: 3 });
            assert_eq!(e.rank(), rank);
            assert!(!e.is_self_fault());
        }
    }

    #[test]
    fn checked_constructor_rejects_indivisible_worlds() {
        assert!(NodeTopology::for_world(2, 8, 0).is_ok());
        assert!(NodeTopology::for_world(8, 8, 0).is_ok());
        assert_eq!(
            NodeTopology::for_world(3, 8, 5),
            Err(CommError::InvalidTopology { rank: 5, world: 8, node_size: 3 })
        );
        assert_eq!(
            NodeTopology::for_world(0, 8, 1),
            Err(CommError::InvalidTopology { rank: 1, world: 8, node_size: 0 })
        );
        assert_eq!(NodeTopology::for_world(4, 8, 0).unwrap().ranks_per_node, 4);
    }
}
