//! GraphSAGE with mean, max-pool, and LSTM aggregators, implemented over
//! blocks with explicit backward passes.
//!
//! The LSTM path performs *degree bucketing* inside every layer exactly as
//! §II-C describes: destinations are grouped by in-degree so each group
//! runs the recurrent aggregator over equal-length neighbor sequences with
//! no padding.

use buffalo_blocks::{Block, ReverseIndex};
use buffalo_memsim::{AggregatorKind, GnnShape};
use buffalo_tensor::{Linear, LstmCell, LstmState, Param, Tensor};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// One GraphSAGE layer: `h' = σ(W_self · h_dst + W_neigh · AGG(h_srcs))`.
#[derive(Debug, Clone)]
pub struct SageLayer {
    w_self: Linear,
    w_neigh: Linear,
    agg: AggregatorImpl,
    relu: bool,
    in_dim: usize,
}

#[derive(Debug, Clone)]
enum AggregatorImpl {
    Mean,
    MaxPool { proj: Linear },
    Lstm { cell: LstmCell },
}

/// Cached forward state of one [`SageLayer`]: only what backward reads.
#[derive(Debug)]
pub struct SageCache {
    /// The destinations' own input rows (the `h_src` prefix), read by the
    /// `w_self` weight gradient.
    h_dst: Tensor,
    agg: Tensor,
    relu_mask: Option<Vec<bool>>,
    agg_cache: AggCache,
}

#[derive(Debug)]
enum AggCache {
    Mean,
    MaxPool {
        /// All source rows, read by the `proj` weight gradient.
        h_src: Tensor,
        proj: Tensor,
        proj_mask: Vec<bool>,
        /// Per destination, per output dim: the h_src row index that won
        /// the max (`u32::MAX` for degree-0 destinations).
        argmax: Vec<Vec<u32>>,
    },
    Lstm {
        buckets: Vec<LstmBucketCache>,
    },
}

#[derive(Debug)]
struct LstmBucketCache {
    /// Destination indices (rows of the layer output) in this bucket.
    dst_rows: Vec<usize>,
    state: LstmState,
}

impl SageLayer {
    /// Creates a layer `in_dim → out_dim` with the given aggregator.
    /// `relu` enables the output nonlinearity (disabled on the last
    /// layer).
    pub fn new(
        in_dim: usize,
        out_dim: usize,
        aggregator: AggregatorKind,
        relu: bool,
        seed: u64,
    ) -> Self {
        let agg = match aggregator {
            AggregatorKind::Mean => AggregatorImpl::Mean,
            AggregatorKind::MaxPool => AggregatorImpl::MaxPool {
                proj: Linear::new(in_dim, in_dim, seed.wrapping_add(2)),
            },
            AggregatorKind::Lstm => AggregatorImpl::Lstm {
                cell: LstmCell::new(in_dim, seed.wrapping_add(3)),
            },
            AggregatorKind::Attention => {
                // lint:allow(panic-reachability): unreachable from the engine — for_shape routes Attention shapes to GatModel before SageModel::new ever runs; a direct GnnModel::sage call with Attention is a programmer error (suppresses chain: Engine::full_batch → GnnModel::for_shape → GnnModel::sage → SageModel::new → SageLayer::new → panic!)
                panic!("use GatModel for the attention aggregator")
            }
        };
        SageLayer {
            w_self: Linear::new(in_dim, out_dim, seed),
            w_neigh: Linear::new(in_dim, out_dim, seed.wrapping_add(1)),
            agg,
            relu,
            in_dim,
        }
    }

    /// Forward over one block. `h_src` rows follow `block.src_nodes()`
    /// order. The max-pool cache keeps `h_src`: pass it owned to move it
    /// there instead of copying it.
    ///
    /// # Panics
    ///
    /// Panics if `h_src` row count differs from `block.num_src()`.
    pub fn forward(&self, block: &Block, h_src: Cow<'_, Tensor>) -> (Tensor, SageCache) {
        assert_eq!(h_src.rows(), block.num_src(), "h_src row count mismatch");
        assert_eq!(h_src.cols(), self.in_dim, "h_src width mismatch");
        // Destinations are the first `num_dst` sources (prefix invariant).
        let n_dst = block.num_dst();
        let h_dst = Tensor::from_vec(
            n_dst,
            self.in_dim,
            h_src.data()[..n_dst * self.in_dim].to_vec(),
        );
        let (agg, agg_cache) = self.aggregate(block, h_src);
        let mut y = self.w_self.forward(&h_dst);
        y.add_assign(&self.w_neigh.forward(&agg));
        let relu_mask = self.relu.then(|| y.relu_inplace());
        (
            y,
            SageCache {
                h_dst,
                agg,
                relu_mask,
                agg_cache,
            },
        )
    }

    fn aggregate(&self, block: &Block, h_src: Cow<'_, Tensor>) -> (Tensor, AggCache) {
        let n_dst = block.num_dst();
        let dim = self.in_dim;
        match &self.agg {
            AggregatorImpl::Mean => {
                // Parallel over disjoint destination rows; each row still
                // accumulates its sources in block order, so the result is
                // bit-identical for any thread count. The per-source
                // accumulation is an axpy dispatched to the configured
                // SIMD backend.
                let par = buffalo_par::ambient();
                let simd = par.simd;
                let mut agg = Tensor::zeros(n_dst, dim);
                buffalo_par::parallel_rows(agg.data_mut(), dim, &par, |row0, chunk| {
                    for (r, dst_row) in chunk.chunks_exact_mut(dim).enumerate() {
                        let pos = block.src_positions(row0 + r);
                        if pos.is_empty() {
                            continue;
                        }
                        let inv = 1.0 / pos.len() as f32;
                        for &p in pos {
                            simd.axpy(dst_row, h_src.row(p as usize), inv);
                        }
                    }
                });
                (agg, AggCache::Mean)
            }
            AggregatorImpl::MaxPool { proj } => {
                let par = buffalo_par::ambient();
                let mut p = proj.forward(&h_src);
                let proj_mask = p.relu_inplace();
                let mut agg = Tensor::zeros(n_dst, dim);
                let mut argmax = vec![vec![u32::MAX; dim]; n_dst];
                // Each destination row owns its agg row and argmax row, so
                // row chunks can fill both in parallel; per element the max
                // scan keeps block source order (first strict max wins).
                let p_ref = &p;
                let fill = |i0: usize, agg_chunk: &mut [f32], arg_chunk: &mut [Vec<u32>]| {
                    let rows = agg_chunk.chunks_exact_mut(dim).zip(arg_chunk.iter_mut());
                    for (r, (dst_row, arg_row)) in rows.enumerate() {
                        let pos = block.src_positions(i0 + r);
                        if pos.is_empty() {
                            continue;
                        }
                        for (d, (out, slot)) in
                            dst_row.iter_mut().zip(arg_row.iter_mut()).enumerate()
                        {
                            let mut best = f32::NEG_INFINITY;
                            let mut best_p = u32::MAX;
                            for &q in pos {
                                let v = p_ref.get(q as usize, d);
                                if v > best {
                                    best = v;
                                    best_p = q;
                                }
                            }
                            *out = best;
                            *slot = best_p;
                        }
                    }
                };
                let threads = par.effective_threads(n_dst);
                if threads <= 1 || dim == 0 {
                    fill(0, agg.data_mut(), &mut argmax);
                } else {
                    let chunk_rows = n_dst.div_ceil(threads);
                    let fill = &fill;
                    let tasks: Vec<buffalo_par::Task<'_>> = agg
                        .data_mut()
                        .chunks_mut(chunk_rows * dim)
                        .zip(argmax.chunks_mut(chunk_rows))
                        .enumerate()
                        .map(|(ci, (ac, xc))| -> buffalo_par::Task<'_> {
                            Box::new(move || fill(ci * chunk_rows, ac, xc))
                        })
                        .collect();
                    buffalo_par::run_tasks(tasks, threads);
                }
                (
                    agg,
                    AggCache::MaxPool {
                        h_src: h_src.into_owned(),
                        proj: p,
                        proj_mask,
                        argmax,
                    },
                )
            }
            AggregatorImpl::Lstm { cell } => {
                // Degree bucketing (§II-C): group destinations by
                // in-degree so every bucket processes equal-length
                // sequences without padding.
                let mut by_degree: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
                for i in 0..n_dst {
                    let d = block.in_degree(i);
                    if d > 0 {
                        by_degree.entry(d).or_default().push(i);
                    }
                }
                let mut agg = Tensor::zeros(n_dst, dim);
                let mut buckets = Vec::with_capacity(by_degree.len());
                for (degree, dst_rows) in by_degree {
                    let mut seq = Vec::with_capacity(degree);
                    for t in 0..degree {
                        let rows: Vec<usize> = dst_rows
                            .iter()
                            .map(|&i| block.src_positions(i)[t] as usize)
                            .collect();
                        seq.push(h_src.gather_rows(&rows));
                    }
                    let (h_final, state) = cell.forward(&seq);
                    for (j, &i) in dst_rows.iter().enumerate() {
                        agg.row_mut(i).copy_from_slice(h_final.row(j));
                    }
                    buckets.push(LstmBucketCache { dst_rows, state });
                }
                (agg, AggCache::Lstm { buckets })
            }
        }
    }

    /// Backward over one block: accumulates parameter gradients and, when
    /// `input_grad` is set, returns the source-embedding gradient (rows
    /// follow `block.src_nodes()`). Without it every tensor that only the
    /// source gradient reads is skipped; the parameter gradients are the
    /// same bits either way.
    pub fn backward(
        &mut self,
        block: &Block,
        cache: &SageCache,
        dy: &Tensor,
        input_grad: bool,
    ) -> Option<Tensor> {
        let n_dst = block.num_dst();
        let mut dy = dy.clone();
        if let Some(mask) = &cache.relu_mask {
            dy.relu_backward(mask);
        }
        let mut dh_src = if input_grad {
            let dh_dst = self.w_self.backward(&cache.h_dst, &dy);
            let dst_rows: Vec<usize> = (0..n_dst).collect();
            let mut dh_src = Tensor::zeros(block.num_src(), self.in_dim);
            dh_src.scatter_add_rows(&dst_rows, &dh_dst);
            Some(dh_src)
        } else {
            self.w_self.backward_params(&cache.h_dst, &dy);
            None
        };
        match (&mut self.agg, &cache.agg_cache) {
            (AggregatorImpl::Mean, AggCache::Mean) => {
                // The mean's d_agg feeds only the source gradient.
                let Some(dh_src) = dh_src.as_mut() else {
                    self.w_neigh.backward_params(&cache.agg, &dy);
                    return None;
                };
                let d_agg = self.w_neigh.backward(&cache.agg, &dy);
                // Scatter through the reverse (src → dst) index: each
                // source row is written by exactly one thread and
                // accumulates its destinations in ascending order — the
                // same per-element order as the sequential scatter, so the
                // gradient is bit-identical for any thread count.
                let par = buffalo_par::ambient();
                let simd = par.simd;
                let rev = ReverseIndex::new(block);
                let inv: Vec<f32> = (0..n_dst)
                    .map(|i| {
                        let d = block.in_degree(i);
                        if d == 0 {
                            0.0
                        } else {
                            1.0 / d as f32
                        }
                    })
                    .collect();
                let dim = self.in_dim;
                let d_agg_ref = &d_agg;
                buffalo_par::parallel_rows(dh_src.data_mut(), dim, &par, |row0, chunk| {
                    for (r, src_row) in chunk.chunks_exact_mut(dim).enumerate() {
                        for &i in rev.dsts_of(row0 + r) {
                            simd.axpy(src_row, d_agg_ref.row(i as usize), inv[i as usize]);
                        }
                    }
                });
            }
            (
                AggregatorImpl::MaxPool { proj },
                AggCache::MaxPool {
                    h_src,
                    proj: p_cached,
                    proj_mask,
                    argmax,
                },
            ) => {
                let d_agg = self.w_neigh.backward(&cache.agg, &dy);
                // Reverse map from winning projected row q to its (i, d)
                // credit events, in the order the sequential loop visits
                // them (ascending i, then d), so each dproj row can be
                // replayed independently with bit-identical accumulation.
                let rows_p = p_cached.rows();
                let mut counts = vec![0usize; rows_p];
                for arg_row in argmax.iter().take(n_dst) {
                    for &q in arg_row {
                        if q != u32::MAX {
                            counts[q as usize] += 1;
                        }
                    }
                }
                let mut offsets = Vec::with_capacity(rows_p + 1);
                let mut total = 0usize;
                offsets.push(0);
                for &c in &counts {
                    total += c;
                    offsets.push(total);
                }
                let mut cursor = offsets[..rows_p].to_vec();
                let mut events = vec![(0u32, 0u32); total];
                for (i, arg_row) in argmax.iter().enumerate().take(n_dst) {
                    for (d, &q) in arg_row.iter().enumerate() {
                        if q != u32::MAX {
                            let slot = &mut cursor[q as usize];
                            events[*slot] = (i as u32, d as u32);
                            *slot += 1;
                        }
                    }
                }
                let par = buffalo_par::ambient();
                let dim = self.in_dim;
                let mut dproj = Tensor::zeros(rows_p, dim);
                let d_agg_ref = &d_agg;
                let (events_ref, offsets_ref) = (&events, &offsets);
                buffalo_par::parallel_rows(dproj.data_mut(), dim, &par, |row0, chunk| {
                    for (r, row) in chunk.chunks_exact_mut(dim).enumerate() {
                        let q = row0 + r;
                        for &(i, d) in &events_ref[offsets_ref[q]..offsets_ref[q + 1]] {
                            row[d as usize] += d_agg_ref.get(i as usize, d as usize);
                        }
                    }
                });
                dproj.relu_backward(proj_mask);
                match dh_src.as_mut() {
                    Some(dh_src) => dh_src.add_assign(&proj.backward(h_src, &dproj)),
                    None => proj.backward_params(h_src, &dproj),
                }
            }
            // The recurrent aggregator stays destination-major: its cost
            // lives in the LstmCell matmuls, which are parallel internally.
            (AggregatorImpl::Lstm { cell }, AggCache::Lstm { buckets }) => {
                let d_agg = self.w_neigh.backward(&cache.agg, &dy);
                for bucket in buckets {
                    let dh_final = d_agg.gather_rows(&bucket.dst_rows);
                    let dxs = cell.backward(&bucket.state, &dh_final);
                    let Some(dh_src) = dh_src.as_mut() else {
                        continue;
                    };
                    for (t, dx) in dxs.iter().enumerate() {
                        let rows: Vec<usize> = bucket
                            .dst_rows
                            .iter()
                            .map(|&i| block.src_positions(i)[t] as usize)
                            .collect();
                        dh_src.scatter_add_rows(&rows, dx);
                    }
                }
            }
            // lint:allow(panic-reachability): kind invariant — the AggCache variant always matches the aggregator that produced it in forward (suppresses chain: consume_one → SageLayer::backward → unreachable!)
            _ => unreachable!("aggregator/cache mismatch"),
        }
        dh_src
    }

    /// Trainable parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut ps = self.w_self.params_mut();
        ps.extend(self.w_neigh.params_mut());
        match &mut self.agg {
            AggregatorImpl::Mean => {}
            AggregatorImpl::MaxPool { proj } => ps.extend(proj.params_mut()),
            AggregatorImpl::Lstm { cell } => ps.extend(cell.params_mut()),
        }
        ps
    }
}

/// A full GraphSAGE model: one [`SageLayer`] per block.
#[derive(Debug, Clone)]
pub struct SageModel {
    pub(super) layers: Vec<SageLayer>,
}

impl SageModel {
    /// Builds the model for `shape` with deterministic init.
    pub fn new(shape: &GnnShape, seed: u64) -> Self {
        let dims = shape.layer_dims();
        let last = dims.len() - 1;
        let layers = dims
            .iter()
            .enumerate()
            .map(|(l, &(i, o))| {
                SageLayer::new(
                    i,
                    o,
                    shape.aggregator,
                    l != last,
                    seed.wrapping_add(100 * l as u64),
                )
            })
            .collect();
        SageModel { layers }
    }

    /// Model depth.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Forward over `blocks` (input layer first).
    ///
    /// # Panics
    ///
    /// Panics if `blocks.len()` differs from the model depth.
    pub fn forward(&self, blocks: &[Block], features: &Tensor) -> (Tensor, Vec<SageCache>) {
        super::forward_layers(&self.layers, blocks, features, SageLayer::forward)
    }

    /// Backward over `blocks`; accumulates parameter gradients.
    pub fn backward(&mut self, blocks: &[Block], caches: &[SageCache], dlogits: &Tensor) {
        super::backward_layers(
            &mut self.layers,
            blocks,
            caches,
            dlogits,
            SageLayer::backward,
        );
    }

    /// All parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use buffalo_tensor::softmax_cross_entropy;

    /// Block: 2 dsts; dst0 <- {1, 2}, dst1 <- {2, 3, 0}; srcs {0,1,2,3}.
    fn test_block() -> Block {
        Block::from_parts(
            vec![0, 1],
            vec![0, 1, 2, 3],
            vec![0, 2, 5],
            vec![1, 2, 2, 3, 0],
        )
    }

    fn inner_block() -> Block {
        // dsts {0,1,2,3}; srcs {0,1,2,3,4}; each dst i <- {i+1}
        Block::from_parts(
            vec![0, 1, 2, 3],
            vec![0, 1, 2, 3, 4],
            vec![0, 1, 2, 3, 4],
            vec![1, 2, 3, 4],
        )
    }

    fn shape(agg: AggregatorKind) -> GnnShape {
        GnnShape::new(3, 4, 2, 2, agg)
    }

    fn numeric_gradcheck(agg: AggregatorKind) {
        let s = shape(agg);
        let mut model = SageModel::new(&s, 42);
        let blocks = vec![inner_block(), test_block()];
        let x = Tensor::xavier(5, 3, 7);
        let labels = [0u32, 1];
        // Analytic gradient.
        let (logits, caches) = model.forward(&blocks, &x);
        let out = softmax_cross_entropy(&logits, &labels, None);
        for p in model.params_mut() {
            p.zero_grad();
        }
        model.backward(&blocks, &caches, &out.dlogits);
        // Numeric check on a handful of parameters of each kind.
        let loss_of = |m: &SageModel| {
            let (lg, _) = m.forward(&blocks, &x);
            softmax_cross_entropy(&lg, &labels, None).loss
        };
        let eps = 1e-2f32;
        let n_params = model.params_mut().len();
        for pi in 0..n_params {
            let (r, c, analytic, base) = {
                let mut ps = model.params_mut();
                let p = &mut ps[pi];
                let r = p.value.rows() / 2;
                let c = p.value.cols() / 2;
                (r, c, p.grad.get(r, c), p.value.get(r, c))
            };
            {
                let mut ps = model.params_mut();
                ps[pi].value.set(r, c, base + eps);
            }
            let up = loss_of(&model);
            {
                let mut ps = model.params_mut();
                ps[pi].value.set(r, c, base - eps);
            }
            let down = loss_of(&model);
            {
                let mut ps = model.params_mut();
                ps[pi].value.set(r, c, base);
            }
            let numeric = (up - down) / (2.0 * eps);
            assert!(
                (numeric - analytic).abs() < 2e-2,
                "{agg:?} param {pi} ({r},{c}): numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn gradcheck_mean() {
        numeric_gradcheck(AggregatorKind::Mean);
    }

    #[test]
    fn gradcheck_maxpool() {
        numeric_gradcheck(AggregatorKind::MaxPool);
    }

    #[test]
    fn gradcheck_lstm() {
        numeric_gradcheck(AggregatorKind::Lstm);
    }

    #[test]
    fn mean_aggregation_is_exact() {
        let layer = SageLayer::new(2, 2, AggregatorKind::Mean, false, 1);
        let block = Block::from_parts(vec![0], vec![0, 1, 2], vec![0, 2], vec![1, 2]);
        let h = Tensor::from_vec(3, 2, vec![0.0, 0.0, 2.0, 4.0, 6.0, 8.0]);
        let (_, cache) = layer.forward(&block, Cow::Owned(h));
        assert_eq!(cache.agg.row(0), &[4.0, 6.0]);
    }

    #[test]
    fn zero_degree_dst_aggregates_to_zero() {
        let layer = SageLayer::new(2, 2, AggregatorKind::Mean, false, 1);
        // dst 0 has no in-edges.
        let block = Block::from_parts(vec![0], vec![0], vec![0, 0], vec![]);
        let h = Tensor::from_vec(1, 2, vec![1.0, 1.0]);
        let (_, cache) = layer.forward(&block, Cow::Owned(h));
        assert_eq!(cache.agg.row(0), &[0.0, 0.0]);
    }

    #[test]
    fn lstm_buckets_group_by_degree() {
        let layer = SageLayer::new(3, 3, AggregatorKind::Lstm, false, 9);
        let blocks = [inner_block(), test_block()];
        let x = Tensor::xavier(5, 3, 3);
        // Layer over the output block: dst degrees are 2 and 3 — two
        // buckets expected.
        let (h, _) = layer.forward(&blocks[0], Cow::Owned(x));
        let (_, cache) = layer.forward(&blocks[1], Cow::Owned(h));
        match cache.agg_cache {
            AggCache::Lstm { ref buckets } => assert_eq!(buckets.len(), 2),
            _ => panic!("expected LSTM cache"),
        }
    }

    #[test]
    fn forward_output_shape_is_classes() {
        let s = shape(AggregatorKind::Mean);
        let model = SageModel::new(&s, 4);
        let blocks = vec![inner_block(), test_block()];
        let x = Tensor::xavier(5, 3, 8);
        let (logits, _) = model.forward(&blocks, &x);
        assert_eq!((logits.rows(), logits.cols()), (2, 2));
    }

    #[test]
    #[should_panic(expected = "block/layer count mismatch")]
    fn forward_rejects_wrong_depth() {
        let s = shape(AggregatorKind::Mean);
        let model = SageModel::new(&s, 4);
        let x = Tensor::xavier(4, 3, 8);
        let _ = model.forward(&[test_block()], &x);
    }
}
