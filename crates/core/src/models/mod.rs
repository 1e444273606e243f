//! GNN models with explicit forward/backward over blocks.
//!
//! A model consumes the `L` blocks of a (micro-)batch, input layer first,
//! and the feature matrix of the innermost block's source nodes. The
//! forward pass returns logits for the output-layer destinations; the
//! backward pass consumes the loss gradient and accumulates parameter
//! gradients. GNN node features are not trained here, so backward stops
//! at the input layer's parameters: no layer computes a gradient that
//! nothing reads.

mod gat;
mod gcn;
mod sage;

pub use gat::{GatLayer, GatModel};
pub use gcn::{GcnCache, GcnLayer, GcnModel};
pub use sage::{SageCache, SageLayer, SageModel};

use buffalo_blocks::Block;
use buffalo_memsim::{AggregatorKind, GnnShape};
use buffalo_tensor::{Param, Tensor};
use std::borrow::Cow;

/// A trainable GNN: GraphSAGE (any aggregator), GAT, or GCN.
#[derive(Debug, Clone)]
pub enum GnnModel {
    /// GraphSAGE with a configurable aggregator.
    Sage(SageModel),
    /// Graph attention network (single-head attention aggregator).
    Gat(GatModel),
    /// Graph convolutional network (normalized mean with self-loop).
    Gcn(GcnModel),
}

impl GnnModel {
    /// Builds a GraphSAGE model matching `shape`.
    pub fn sage(shape: &GnnShape, seed: u64) -> Self {
        GnnModel::Sage(SageModel::new(shape, seed))
    }

    /// Builds a GAT model matching `shape` (the aggregator field of
    /// `shape` is ignored; attention is used).
    pub fn gat(shape: &GnnShape, seed: u64) -> Self {
        GnnModel::Gat(GatModel::new(shape, seed))
    }

    /// Builds a GCN model matching `shape` (aggregator field ignored).
    pub fn gcn(shape: &GnnShape, seed: u64) -> Self {
        GnnModel::Gcn(GcnModel::new(shape, seed))
    }

    /// Builds the model named by `shape.aggregator`: `Attention` → GAT,
    /// anything else → GraphSAGE.
    pub fn for_shape(shape: &GnnShape, seed: u64) -> Self {
        match shape.aggregator {
            AggregatorKind::Attention => GnnModel::gat(shape, seed),
            _ => GnnModel::sage(shape, seed),
        }
    }

    /// Forward pass over `blocks` (input layer first) with `features`
    /// rows for `blocks[0].src_nodes()`. Returns logits
    /// (`num output dst × classes`) and the cache for backward.
    pub fn forward(&self, blocks: &[Block], features: &Tensor) -> (Tensor, ModelCache) {
        match self {
            GnnModel::Sage(m) => {
                let (logits, c) = m.forward(blocks, features);
                (logits, ModelCache::Sage(c))
            }
            GnnModel::Gat(m) => {
                let (logits, c) = m.forward(blocks, features);
                (logits, ModelCache::Gat(c))
            }
            GnnModel::Gcn(m) => {
                let (logits, c) = m.forward(blocks, features);
                (logits, ModelCache::Gcn(c))
            }
        }
    }

    /// Backward pass; accumulates parameter gradients.
    ///
    /// # Panics
    ///
    /// Panics if the cache kind does not match the model kind.
    pub fn backward(&mut self, blocks: &[Block], cache: &ModelCache, dlogits: &Tensor) {
        match (self, cache) {
            (GnnModel::Sage(m), ModelCache::Sage(c)) => m.backward(blocks, c, dlogits),
            (GnnModel::Gat(m), ModelCache::Gat(c)) => m.backward(blocks, c, dlogits),
            (GnnModel::Gcn(m), ModelCache::Gcn(c)) => m.backward(blocks, c, dlogits),
            // lint:allow(panic-reachability): kind invariant — backward only ever receives the cache returned by this same model's forward (suppresses chain: consume_one → GnnModel::backward → panic!)
            _ => panic!("model/cache kind mismatch"),
        }
    }

    /// All trainable parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        match self {
            GnnModel::Sage(m) => m.params_mut(),
            GnnModel::Gat(m) => m.params_mut(),
            GnnModel::Gcn(m) => m.params_mut(),
        }
    }

    /// Clears all gradients.
    pub fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Model depth (number of blocks consumed per step).
    pub fn num_layers(&self) -> usize {
        match self {
            GnnModel::Sage(m) => m.num_layers(),
            GnnModel::Gat(m) => m.num_layers(),
            GnnModel::Gcn(m) => m.num_layers(),
        }
    }
}

/// Forward-pass cache, matching the model kind.
#[derive(Debug)]
pub enum ModelCache {
    /// GraphSAGE cache.
    Sage(Vec<SageCache>),
    /// GAT cache.
    Gat(Vec<gat::GatCache>),
    /// GCN cache.
    Gcn(Vec<gcn::GcnCache>),
}

/// Runs `forward` over `layers` and `blocks`, input layer first. The input
/// layer borrows `features`; each later layer receives its predecessor's
/// output by value, so a cache that keeps its input moves it instead of
/// copying it.
///
/// # Panics
///
/// Panics if `blocks.len()` differs from the model depth.
fn forward_layers<L, C>(
    layers: &[L],
    blocks: &[Block],
    features: &Tensor,
    forward: impl Fn(&L, &Block, Cow<'_, Tensor>) -> (Tensor, C),
) -> (Tensor, Vec<C>) {
    assert_eq!(blocks.len(), layers.len(), "block/layer count mismatch");
    let mut h = Cow::Borrowed(features);
    let mut caches = Vec::with_capacity(layers.len());
    for (layer, block) in layers.iter().zip(blocks) {
        let (next, cache) = forward(layer, block, h);
        caches.push(cache);
        h = Cow::Owned(next);
    }
    (h.into_owned(), caches)
}

/// Runs `backward` over the layers, output layer first. Every layer but
/// the input one returns its source gradient for the layer below; the
/// input layer is asked for none (`input_grad == false`), so backward
/// stops at its parameters.
fn backward_layers<L, C>(
    layers: &mut [L],
    blocks: &[Block],
    caches: &[C],
    dlogits: &Tensor,
    backward: impl Fn(&mut L, &Block, &C, &Tensor, bool) -> Option<Tensor>,
) {
    let mut dh: Option<Tensor> = None;
    let stack = layers.iter_mut().zip(blocks).zip(caches).enumerate();
    for (l, ((layer, block), cache)) in stack.rev() {
        dh = backward(layer, block, cache, dh.as_ref().unwrap_or(dlogits), l > 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use buffalo_tensor::softmax_cross_entropy;

    /// Input block: dsts {0..4} over srcs {0..6}; dsts 1 and 3 have no
    /// in-edges.
    fn input_block() -> Block {
        Block::from_parts(
            vec![0, 1, 2, 3],
            vec![0, 1, 2, 3, 4, 5],
            vec![0, 2, 2, 5, 5],
            vec![4, 1, 5, 0, 3],
        )
    }

    /// Output block over the input block's destinations.
    fn output_block() -> Block {
        Block::from_parts(
            vec![0, 1],
            vec![0, 1, 2, 3],
            vec![0, 2, 5],
            vec![1, 2, 3, 0, 2],
        )
    }

    /// Every layer's full backward, the input layer's source gradient
    /// included — the reference the production backward must match.
    fn full_backward<L, C>(
        layers: &mut [L],
        blocks: &[Block],
        caches: &[C],
        dlogits: &Tensor,
        backward: impl Fn(&mut L, &Block, &C, &Tensor, bool) -> Option<Tensor>,
    ) {
        let mut dh = dlogits.clone();
        for ((layer, block), cache) in layers.iter_mut().zip(blocks).zip(caches).rev() {
            dh = backward(layer, block, cache, &dh, true).expect("full backward returns dh_src");
        }
        assert_eq!((dh.rows(), dh.cols()), (blocks[0].num_src(), 3));
    }

    fn grad_bits(model: &mut GnnModel) -> Vec<Vec<u32>> {
        model
            .params_mut()
            .iter()
            .map(|p| p.grad.data().iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    #[test]
    fn backward_stopping_at_input_parameters_matches_full_backward_bitwise() {
        let shape = |agg| GnnShape::new(3, 3, 2, 3, agg);
        let models = [
            GnnModel::sage(&shape(AggregatorKind::Mean), 5),
            GnnModel::sage(&shape(AggregatorKind::MaxPool), 6),
            GnnModel::sage(&shape(AggregatorKind::Lstm), 7),
            GnnModel::gcn(&shape(AggregatorKind::Mean), 8),
            GnnModel::gat(&shape(AggregatorKind::Attention), 9),
        ];
        let blocks = [input_block(), output_block()];
        let x = Tensor::xavier(6, 3, 11);
        for mut model in models {
            let (logits, cache) = model.forward(&blocks, &x);
            let dlogits = softmax_cross_entropy(&logits, &[2, 0], None).dlogits;
            let mut reference = model.clone();
            model.zero_grad();
            reference.zero_grad();
            model.backward(&blocks, &cache, &dlogits);
            match (&mut reference, &cache) {
                (GnnModel::Sage(m), ModelCache::Sage(c)) => {
                    full_backward(&mut m.layers, &blocks, c, &dlogits, SageLayer::backward)
                }
                (GnnModel::Gcn(m), ModelCache::Gcn(c)) => {
                    full_backward(&mut m.layers, &blocks, c, &dlogits, GcnLayer::backward)
                }
                (GnnModel::Gat(m), ModelCache::Gat(c)) => {
                    full_backward(&mut m.layers, &blocks, c, &dlogits, GatLayer::backward)
                }
                _ => unreachable!("forward returns the model's own cache kind"),
            }
            let got = grad_bits(&mut model);
            assert_eq!(got, grad_bits(&mut reference), "{model:?}");
            // The input layer's parameters (listed first) did get gradient.
            assert!(got[0].iter().any(|&b| f32::from_bits(b) != 0.0));
        }
    }
}
