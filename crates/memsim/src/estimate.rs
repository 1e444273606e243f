//! Analytical memory estimation (§IV-D).
//!
//! Two estimators cooperate in Buffalo's scheduler:
//!
//! * [`bucket_mem_estimate`] — the paper's *BucketMemEstimator*: the
//!   working memory of the micro-batch a single bucket would generate,
//!   computed from the bucket's degree, output-node count, and the
//!   sampling fanouts (no graph traversal).
//! * [`group_mem_estimate`] — the paper's *RedundancyAwareMemEstimator*:
//!   the memory of a *group* of buckets is **not** the linear sum of the
//!   per-bucket estimates, because micro-batches share input nodes. Each
//!   bucket's contribution is discounted by the grouping ratio of Eq. 1:
//!
//!   ```text
//!   R_group[i] = min(1, I_i / (O_i · D_i · C))        (Eq. 1)
//!   M_group    = Σ  M_est[i] · R_group[i]             (Eq. 2)
//!   ```
//!
//!   where `I`/`O` are the bucket's input/output node counts, `D` its
//!   degree, and `C` the graph's average clustering coefficient.

use crate::shape::GnnShape;

/// Per-bucket statistics the estimators consume. `I`, `O`, and `D` in the
/// paper's notation; all are byproducts of bucketing/micro-batch
/// generation, so collecting them is free (§IV-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketStats {
    /// `D`: the (sampled) degree shared by the bucket's output nodes.
    pub degree: usize,
    /// `O`: number of output nodes in the bucket.
    pub num_output: usize,
    /// `I`: number of distinct layer-`L` input nodes feeding the bucket.
    pub num_input: usize,
}

/// The grouping ratio `R_group` of Eq. 1.
///
/// Returns 1.0 (perfectly linear, no discount) when the denominator is
/// degenerate (empty bucket, zero degree, or non-positive clustering).
///
/// # Examples
///
/// ```
/// use buffalo_memsim::estimate::{grouping_ratio, BucketStats};
///
/// // 10 outputs of degree 8 reached 60 distinct inputs in a graph with
/// // clustering coefficient 0.4: R = 60 / (10 * 8 * 0.4) = 1.875 -> capped at 1.
/// let r = grouping_ratio(&BucketStats { degree: 8, num_output: 10, num_input: 60 }, 0.4);
/// assert_eq!(r, 1.0);
/// // Same bucket in a highly clustered graph discounts:
/// let r = grouping_ratio(&BucketStats { degree: 8, num_output: 10, num_input: 60 }, 1.0);
/// assert!(r < 1.0);
/// ```
pub fn grouping_ratio(stats: &BucketStats, clustering: f64) -> f64 {
    let denom = stats.num_output as f64 * stats.degree as f64 * clustering;
    if denom <= 0.0 {
        return 1.0;
    }
    (stats.num_input as f64 / denom).min(1.0)
}

/// Per-layer node/edge counts of a bucket's dependency closure, input
/// layer first — the byproduct of micro-batch generation the paper says
/// is free to collect (§IV-D: "`I`, `O` and `D` can be obtained during
/// the micro-batch generation").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerCount {
    /// Destinations of the layer.
    pub num_dst: usize,
    /// Sources of the layer (includes the destinations, MFG convention).
    pub num_src: usize,
    /// Message edges of the layer.
    pub num_edges: usize,
}

/// Closure counts for a whole micro-batch, input layer first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClosureCounts {
    /// One entry per layer, `layers[0]` innermost.
    pub layers: Vec<LayerCount>,
}

impl ClosureCounts {
    /// The `I` of Eq. 1: source count of the output layer.
    pub fn output_layer_inputs(&self) -> usize {
        self.layers.last().map_or(0, |l| l.num_src)
    }
}

/// The paper's *BucketMemEstimator* operating on exact closure counts:
/// byte-for-byte the same accounting as
/// [`crate::measure::training_memory`], so a single bucket's estimate is
/// exact and all remaining estimator error comes from the grouping
/// discount of Eq. 1 — which is what Table III quantifies.
pub fn mem_from_counts(counts: &ClosureCounts, shape: &GnnShape) -> u64 {
    assert_eq!(
        counts.layers.len(),
        shape.num_layers,
        "closure depth must equal model depth"
    );
    let dims = shape.layer_dims();
    let per_edge = shape.aggregator.workspace_floats_per_edge_dim();
    let mut bytes = (counts.layers[0].num_src * shape.feat_dim * 4) as u64;
    bytes += shape.parameter_bytes();
    for (layer, &(in_dim, out_dim)) in counts.layers.iter().zip(&dims) {
        bytes += (layer.num_dst * out_dim * 4) as u64;
        bytes += (layer.num_edges as f64 * in_dim as f64 * per_edge * 4.0) as u64;
        // Block structure: dst + src id arrays, offsets, edge indices.
        bytes +=
            (layer.num_dst * 4 + layer.num_src * 4 + (layer.num_dst + 1) * 8 + layer.num_edges * 4)
                as u64;
    }
    bytes
}

/// The fanout-based *approximate* bucket estimator: working memory (bytes)
/// of the micro-batch generated by a single bucket, without building or
/// traversing it. Used by the `ablate-estimator` study; the scheduler
/// itself uses [`mem_from_counts`] on closure counts.
///
/// The estimate expands layer by layer from the output bucket:
/// the bucket's `O` output nodes contribute `O · D` layer-`L` edges
/// reaching `I` distinct inputs; each deeper hop multiplies by the
/// sampling fanout, damped by `(1 - C)` because clustered neighborhoods
/// overlap. Per-layer bytes follow the same accounting rules as
/// [`crate::measure::training_memory`].
///
/// `fanouts` is ordered output layer first, matching
/// `buffalo_sampling::BatchSampler`.
///
/// # Panics
///
/// Panics if `fanouts.len() != shape.num_layers`.
pub fn bucket_mem_estimate(
    stats: &BucketStats,
    shape: &GnnShape,
    fanouts: &[usize],
    clustering: f64,
) -> u64 {
    assert_eq!(
        fanouts.len(),
        shape.num_layers,
        "fanouts must cover every layer"
    );
    let dims = shape.layer_dims(); // input layer first
    let per_edge = shape.aggregator.workspace_floats_per_edge_dim();
    let damp = (1.0 - clustering).clamp(0.15, 1.0);
    let mut bytes = 0.0f64;
    // Walk from the output layer (dims last) inward.
    let mut dst = stats.num_output as f64;
    let mut edges = stats.num_output as f64 * stats.degree as f64;
    let mut inputs = (stats.num_input as f64).max(1.0);
    for (hop, &(in_dim, out_dim)) in dims.iter().rev().enumerate() {
        bytes += dst * out_dim as f64 * 4.0; // activations
        bytes += edges * in_dim as f64 * per_edge * 4.0; // workspace
        bytes += edges * 8.0; // block structure (index + offset share)
                              // Next (deeper) layer: destinations are this layer's inputs.
        dst = inputs;
        let fanout = fanouts.get(hop + 1).copied().unwrap_or(0) as f64;
        edges = inputs * fanout;
        inputs = (edges * damp).max(inputs);
    }
    // Innermost feature rows + parameters.
    bytes += dst * shape.feat_dim as f64 * 4.0;
    bytes += shape.parameter_bytes() as f64;
    bytes as u64
}

/// The paper's *RedundancyAwareMemEstimator* (Eq. 2): estimated memory of
/// a bucket group given each member's per-bucket estimate.
pub fn group_mem_estimate(members: &[(BucketStats, u64)], clustering: f64) -> u64 {
    members
        .iter()
        .map(|(stats, m_est)| (*m_est as f64 * grouping_ratio(stats, clustering)) as u64)
        .sum()
}

/// Relative error (`|est - actual| / actual`) between an estimate and a
/// measured ground truth, as reported in Table III.
///
/// Returns 0.0 when both are zero.
pub fn relative_error(estimated: u64, actual: u64) -> f64 {
    if actual == 0 {
        return if estimated == 0 { 0.0 } else { f64::INFINITY };
    }
    (estimated as f64 - actual as f64).abs() / actual as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::AggregatorKind;

    fn shape() -> GnnShape {
        GnnShape::new(128, 256, 2, 40, AggregatorKind::Lstm)
    }

    #[test]
    fn ratio_caps_at_one() {
        let s = BucketStats {
            degree: 2,
            num_output: 3,
            num_input: 1_000,
        };
        assert_eq!(grouping_ratio(&s, 0.5), 1.0);
    }

    #[test]
    fn ratio_decreases_with_clustering() {
        let s = BucketStats {
            degree: 10,
            num_output: 100,
            num_input: 300,
        };
        let sparse = grouping_ratio(&s, 0.1);
        let dense = grouping_ratio(&s, 0.9);
        assert!(dense < sparse);
    }

    #[test]
    fn ratio_decreases_with_degree() {
        let lo = BucketStats {
            degree: 5,
            num_output: 100,
            num_input: 300,
        };
        let hi = BucketStats {
            degree: 50,
            num_output: 100,
            num_input: 300,
        };
        assert!(grouping_ratio(&hi, 0.5) < grouping_ratio(&lo, 0.5));
    }

    #[test]
    fn degenerate_ratio_is_one() {
        let s = BucketStats {
            degree: 0,
            num_output: 0,
            num_input: 0,
        };
        assert_eq!(grouping_ratio(&s, 0.5), 1.0);
        let s2 = BucketStats {
            degree: 5,
            num_output: 10,
            num_input: 20,
        };
        assert_eq!(grouping_ratio(&s2, 0.0), 1.0);
    }

    #[test]
    fn bucket_estimate_grows_with_degree_and_outputs() {
        let shape = shape();
        let base = BucketStats {
            degree: 10,
            num_output: 1_000,
            num_input: 5_000,
        };
        let more_deg = BucketStats { degree: 20, ..base };
        let more_out = BucketStats {
            num_output: 2_000,
            ..base
        };
        let f = [10, 25];
        let m0 = bucket_mem_estimate(&base, &shape, &f, 0.2);
        assert!(bucket_mem_estimate(&more_deg, &shape, &f, 0.2) > m0);
        assert!(bucket_mem_estimate(&more_out, &shape, &f, 0.2) > m0);
    }

    #[test]
    fn lstm_estimate_exceeds_mean() {
        let stats = BucketStats {
            degree: 10,
            num_output: 500,
            num_input: 2_500,
        };
        let lstm = shape();
        let mean = GnnShape::new(128, 256, 2, 40, AggregatorKind::Mean);
        let f = [10, 25];
        assert!(
            bucket_mem_estimate(&stats, &lstm, &f, 0.2)
                > bucket_mem_estimate(&stats, &mean, &f, 0.2)
        );
    }

    #[test]
    fn group_estimate_is_sub_linear() {
        let shape = shape();
        let f = [10, 25];
        let c = 0.4;
        // Buckets with heavy redundancy: I << O * D * C
        let members: Vec<(BucketStats, u64)> = (0..4)
            .map(|i| {
                let s = BucketStats {
                    degree: 10,
                    num_output: 1_000,
                    num_input: 1_200 + i * 50,
                };
                (s, bucket_mem_estimate(&s, &shape, &f, c))
            })
            .collect();
        let linear: u64 = members.iter().map(|(_, m)| *m).sum();
        let grouped = group_mem_estimate(&members, c);
        assert!(grouped < linear, "grouped={grouped} linear={linear}");
    }

    #[test]
    fn relative_error_basics() {
        assert_eq!(relative_error(110, 100), 0.1);
        assert_eq!(relative_error(90, 100), 0.1);
        assert_eq!(relative_error(0, 0), 0.0);
        assert!(relative_error(1, 0).is_infinite());
    }

    #[test]
    fn mem_from_counts_matches_measure() {
        use crate::measure;
        use buffalo_blocks::Block;
        // Build real blocks and check the count-based estimate reproduces
        // the measured footprint exactly.
        let out = Block::from_parts(vec![0], vec![0, 1], vec![0, 1], vec![1]);
        let inner = Block::from_parts(vec![0, 1], vec![0, 1, 2], vec![0, 1, 3], vec![1, 2, 0]);
        let blocks = vec![inner, out];
        let shape = GnnShape::new(10, 4, 2, 3, AggregatorKind::Lstm);
        let counts = ClosureCounts {
            layers: blocks
                .iter()
                .map(|b| LayerCount {
                    num_dst: b.num_dst(),
                    num_src: b.num_src(),
                    num_edges: b.num_edges(),
                })
                .collect(),
        };
        let measured = measure::training_memory(&blocks, &shape).total();
        assert_eq!(mem_from_counts(&counts, &shape), measured);
    }

    #[test]
    fn output_layer_inputs_reads_last_layer() {
        let counts = ClosureCounts {
            layers: vec![
                LayerCount {
                    num_dst: 10,
                    num_src: 20,
                    num_edges: 30,
                },
                LayerCount {
                    num_dst: 2,
                    num_src: 10,
                    num_edges: 8,
                },
            ],
        };
        assert_eq!(counts.output_layer_inputs(), 10);
    }

    #[test]
    #[should_panic(expected = "closure depth")]
    fn mem_from_counts_rejects_depth_mismatch() {
        let counts = ClosureCounts {
            layers: vec![LayerCount {
                num_dst: 1,
                num_src: 1,
                num_edges: 0,
            }],
        };
        let _ = mem_from_counts(&counts, &shape());
    }

    #[test]
    #[should_panic(expected = "fanouts")]
    fn estimate_rejects_fanout_mismatch() {
        let s = BucketStats {
            degree: 1,
            num_output: 1,
            num_input: 1,
        };
        let _ = bucket_mem_estimate(&s, &shape(), &[10], 0.2);
    }
}
