//! GCN layers over blocks (the Kipf–Welling convolution in the sampled,
//! self-loop-normalized form DGL's `SAGEConv(aggregator="gcn")` uses:
//! `h'_i = σ(W · (h_i + Σ_{j∈N(i)} h_j) / (|N(i)| + 1) + b)`).
//!
//! The paper cites a 2-layer GCN on Reddit as DGL's reference benchmark
//! (§V, "the training throughput of DGL is 2x better than PyG"); this
//! module completes the trio of canonical models next to GraphSAGE and
//! GAT.

use buffalo_blocks::{Block, ReverseIndex};
use buffalo_memsim::GnnShape;
use buffalo_tensor::{Linear, Param, Tensor};

/// One GCN layer.
#[derive(Debug, Clone)]
pub struct GcnLayer {
    lin: Linear,
    relu: bool,
    in_dim: usize,
}

/// Cached forward state of one [`GcnLayer`].
#[derive(Debug)]
pub struct GcnCache {
    agg: Tensor,
    relu_mask: Option<Vec<bool>>,
}

impl GcnLayer {
    /// Creates a layer `in_dim → out_dim`; `relu` enables the output
    /// nonlinearity (off for the last layer).
    pub fn new(in_dim: usize, out_dim: usize, relu: bool, seed: u64) -> Self {
        GcnLayer {
            lin: Linear::new(in_dim, out_dim, seed),
            relu,
            in_dim,
        }
    }

    /// Forward over one block; `h_src` rows follow `block.src_nodes()`.
    ///
    /// # Panics
    ///
    /// Panics if `h_src` shape mismatches the block or layer.
    pub fn forward(&self, block: &Block, h_src: &Tensor) -> (Tensor, GcnCache) {
        assert_eq!(h_src.rows(), block.num_src(), "h_src row count mismatch");
        assert_eq!(h_src.cols(), self.in_dim, "h_src width mismatch");
        let n_dst = block.num_dst();
        let dim = self.in_dim;
        let mut agg = Tensor::zeros(n_dst, dim);
        // Parallel over disjoint destination rows; per row the self term
        // still precedes the neighbors in block order, so the result is
        // bit-identical for any thread count.
        let par = buffalo_par::ambient();
        let simd = par.simd;
        buffalo_par::parallel_rows(agg.data_mut(), dim, &par, |row0, chunk| {
            for (r, row) in chunk.chunks_exact_mut(dim).enumerate() {
                let i = row0 + r;
                let inv = 1.0 / (block.in_degree(i) + 1) as f32;
                // Self contribution (prefix invariant: dst i is src row i).
                simd.axpy(row, h_src.row(i), inv);
                for &p in block.src_positions(i) {
                    simd.axpy(row, h_src.row(p as usize), inv);
                }
            }
        });
        let mut y = self.lin.forward(&agg);
        let relu_mask = self.relu.then(|| y.relu_inplace());
        (y, GcnCache { agg, relu_mask })
    }

    /// Backward over one block: accumulates gradients and, when
    /// `input_grad` is set, returns `dh_src` (otherwise the input gradient
    /// and its scatter are skipped).
    pub fn backward(
        &mut self,
        block: &Block,
        cache: &GcnCache,
        dy: &Tensor,
        input_grad: bool,
    ) -> Option<Tensor> {
        let mut dy = dy.clone();
        if let Some(mask) = &cache.relu_mask {
            dy.relu_backward(mask);
        }
        if !input_grad {
            self.lin.backward_params(&cache.agg, &dy);
            return None;
        }
        let d_agg = self.lin.backward(&cache.agg, &dy);
        let n_dst = block.num_dst();
        let dim = self.in_dim;
        let mut dh_src = Tensor::zeros(block.num_src(), dim);
        // Scatter through the reverse (src → dst) index so each source row
        // is written by one thread. The sequential loop visits destinations
        // in ascending order, adding the self term of destination `i` to
        // row `i` before its neighbor terms — so row `p` receives its self
        // term (if `p` is a destination) between reverse entries `< p` and
        // `>= p`. Replaying in that order keeps the gradient bit-identical
        // for any thread count.
        let par = buffalo_par::ambient();
        let simd = par.simd;
        let rev = ReverseIndex::new(block);
        let inv: Vec<f32> = (0..n_dst)
            .map(|i| 1.0 / (block.in_degree(i) + 1) as f32)
            .collect();
        let d_agg_ref = &d_agg;
        let add = |row: &mut [f32], i: usize| {
            simd.axpy(row, d_agg_ref.row(i), inv[i]);
        };
        buffalo_par::parallel_rows(dh_src.data_mut(), dim, &par, |row0, chunk| {
            for (r, row) in chunk.chunks_exact_mut(dim).enumerate() {
                let p = row0 + r;
                let dsts = rev.dsts_of(p);
                let self_at = if p < n_dst {
                    dsts.partition_point(|&i| (i as usize) < p)
                } else {
                    dsts.len()
                };
                for &i in &dsts[..self_at] {
                    add(row, i as usize);
                }
                if p < n_dst {
                    add(row, p);
                }
                for &i in &dsts[self_at..] {
                    add(row, i as usize);
                }
            }
        });
        Some(dh_src)
    }

    /// Trainable parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.lin.params_mut()
    }
}

/// A full GCN model: one [`GcnLayer`] per block.
#[derive(Debug, Clone)]
pub struct GcnModel {
    pub(super) layers: Vec<GcnLayer>,
}

impl GcnModel {
    /// Builds the model for `shape` (aggregator field ignored).
    pub fn new(shape: &GnnShape, seed: u64) -> Self {
        let dims = shape.layer_dims();
        let last = dims.len() - 1;
        let layers = dims
            .iter()
            .enumerate()
            .map(|(l, &(i, o))| GcnLayer::new(i, o, l != last, seed.wrapping_add(53 * l as u64)))
            .collect();
        GcnModel { layers }
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
    pub fn forward(&self, blocks: &[Block], features: &Tensor) -> (Tensor, Vec<GcnCache>) {
        super::forward_layers(&self.layers, blocks, features, |layer, block, h| {
            layer.forward(block, &h)
        })
    }

    /// Backward over `blocks`; accumulates parameter gradients.
    pub fn backward(&mut self, blocks: &[Block], caches: &[GcnCache], dlogits: &Tensor) {
        super::backward_layers(
            &mut self.layers,
            blocks,
            caches,
            dlogits,
            GcnLayer::backward,
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
    use buffalo_memsim::AggregatorKind;
    use buffalo_tensor::softmax_cross_entropy;

    fn test_block() -> Block {
        Block::from_parts(
            vec![0, 1],
            vec![0, 1, 2, 3],
            vec![0, 2, 5],
            vec![1, 2, 2, 3, 0],
        )
    }

    fn inner_block() -> Block {
        Block::from_parts(
            vec![0, 1, 2, 3],
            vec![0, 1, 2, 3, 4],
            vec![0, 1, 2, 3, 4],
            vec![1, 2, 3, 4],
        )
    }

    #[test]
    fn aggregation_includes_self_with_normalization() {
        let mut layer = GcnLayer::new(2, 2, false, 1);
        // Identity weights, zero bias: output equals the normalized sum.
        layer.lin.w.value = Tensor::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let block = Block::from_parts(vec![0], vec![0, 1], vec![0, 1], vec![1]);
        let h = Tensor::from_vec(2, 2, vec![2.0, 4.0, 6.0, 8.0]);
        let (y, _) = layer.forward(&block, &h);
        // (self + neighbor) / (1 + 1) = ([2,4] + [6,8]) / 2
        assert_eq!(y.row(0), &[4.0, 6.0]);
    }

    #[test]
    fn isolated_dst_keeps_its_own_embedding() {
        let mut layer = GcnLayer::new(2, 2, false, 1);
        layer.lin.w.value = Tensor::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let block = Block::from_parts(vec![0], vec![0], vec![0, 0], vec![]);
        let h = Tensor::from_vec(1, 2, vec![3.0, -1.0]);
        let (y, _) = layer.forward(&block, &h);
        assert_eq!(y.row(0), &[3.0, -1.0]);
    }

    #[test]
    fn gradcheck_gcn_model() {
        let shape = GnnShape::new(3, 4, 2, 2, AggregatorKind::Mean);
        let mut model = GcnModel::new(&shape, 21);
        let blocks = vec![inner_block(), test_block()];
        let x = Tensor::xavier(5, 3, 9);
        let labels = [0u32, 1];
        let (logits, caches) = model.forward(&blocks, &x);
        let out = softmax_cross_entropy(&logits, &labels, None);
        for p in model.params_mut() {
            p.zero_grad();
        }
        model.backward(&blocks, &caches, &out.dlogits);
        let loss_of = |m: &GcnModel| {
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
            model.params_mut()[pi].value.set(r, c, base + eps);
            let up = loss_of(&model);
            model.params_mut()[pi].value.set(r, c, base - eps);
            let down = loss_of(&model);
            model.params_mut()[pi].value.set(r, c, base);
            let numeric = (up - down) / (2.0 * eps);
            assert!(
                (numeric - analytic).abs() < 2e-2,
                "param {pi} ({r},{c}): numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn output_width_is_classes() {
        let shape = GnnShape::new(3, 4, 2, 5, AggregatorKind::Mean);
        let model = GcnModel::new(&shape, 2);
        let x = Tensor::xavier(5, 3, 1);
        let (logits, _) = model.forward(&[inner_block(), test_block()], &x);
        assert_eq!((logits.rows(), logits.cols()), (2, 5));
    }
}
