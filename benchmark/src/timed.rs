//! Span-recording adaptors around the library's two extension points: [`TimedLayer`] wraps a
//! `bnn_train` layer and [`TimedEps`] wraps an ε source. Both delegate every call unchanged,
//! so a network rebuilt from timed layers computes bit-identical outputs (pinned by
//! `tests/adaptors.rs`); they only add spans while recording is on.

use crate::trace;
use bnn_lfsr::LfsrError;
use bnn_tensor::{Scratch, Tensor, TensorError};
use bnn_train::layers::Layer;
use bnn_train::snapshot::LayerSnapshot;
use bnn_train::{EpsilonSource, Network, SourceState};
use std::ops::DerefMut;

/// Span of one forward ε block.
pub const GENERATE: &str = "lfsr.generate";
/// Span of one backward ε block (LFSR reversal or store replay).
pub const RETRIEVE: &str = "lfsr.retrieve";
/// Span of one layer's parameter update.
pub const UPDATE: &str = "bnn.update";
/// Span of one analytic moment pass.
pub const MOMENT: &str = "bnn.moment";

/// Forward and backward span names per layer index; the per-layer metric table names ten
/// layers, which covers B-LeNet (10 layers) and B-MLP (7).
pub const LAYER_SPANS: [(&str, &str); 10] = [
    ("bnn.L0.fw", "bnn.L0.bw"),
    ("bnn.L1.fw", "bnn.L1.bw"),
    ("bnn.L2.fw", "bnn.L2.bw"),
    ("bnn.L3.fw", "bnn.L3.bw"),
    ("bnn.L4.fw", "bnn.L4.bw"),
    ("bnn.L5.fw", "bnn.L5.bw"),
    ("bnn.L6.fw", "bnn.L6.bw"),
    ("bnn.L7.fw", "bnn.L7.bw"),
    ("bnn.L8.fw", "bnn.L8.bw"),
    ("bnn.L9.fw", "bnn.L9.bw"),
];

/// An ε source whose block calls record [`GENERATE`] / [`RETRIEVE`] spans and ε counts.
/// `P` is anything that dereferences to a source: an owned box for the benchmark's own
/// serving sources, or the `&mut dyn EpsilonSource` a layer call receives.
#[derive(Debug)]
pub struct TimedEps<P>(pub P);

impl<P> EpsilonSource for TimedEps<P>
where
    P: DerefMut,
    P::Target: EpsilonSource,
{
    fn generate_block_into(&mut self, out: &mut [f32]) {
        trace::count(|c| c.eps_generated += out.len() as u64);
        trace::span(GENERATE, || self.0.generate_block_into(out));
    }

    fn retrieve_block_into(&mut self, out: &mut [f32]) {
        trace::count(|c| c.eps_retrieved += out.len() as u64);
        trace::span(RETRIEVE, || self.0.retrieve_block_into(out));
    }

    fn reseed(&mut self, seed: u64) {
        self.0.reseed(seed);
    }

    fn state(&self) -> SourceState {
        self.0.state()
    }

    fn restore(&mut self, state: &SourceState) -> Result<(), LfsrError> {
        self.0.restore(state)
    }

    fn stores_offchip(&self) -> bool {
        self.0.stores_offchip()
    }

    fn stored_values(&self) -> u64 {
        self.0.stored_values()
    }

    fn reset_iteration(&mut self) {
        self.0.reset_iteration();
    }
}

/// A layer whose forward, backward and update calls record spans. Every [`Layer`] method is
/// delegated — `forward_all` included, or fused serving would fall back to the trait's split
/// walk and time a different code path.
pub struct TimedLayer {
    inner: Box<dyn Layer>,
    forward: &'static str,
    backward: &'static str,
    /// Whether to wrap the ε source each per-sample call receives in a [`TimedEps`]. Training
    /// needs this (the trainer owns its sources); serving passes pre-wrapped sources instead.
    time_eps: bool,
}

impl Layer for TimedLayer {
    fn forward(
        &mut self,
        sample: usize,
        input: Tensor,
        eps: &mut dyn EpsilonSource,
        scratch: &mut Scratch,
    ) -> Result<Tensor, TensorError> {
        let (inner, time_eps) = (&mut self.inner, self.time_eps);
        trace::span(self.forward, || {
            if time_eps {
                inner.forward(sample, input, &mut TimedEps(eps), scratch)
            } else {
                inner.forward(sample, input, eps, scratch)
            }
        })
    }

    fn backward(
        &mut self,
        sample: usize,
        grad_output: Tensor,
        eps: &mut dyn EpsilonSource,
        scratch: &mut Scratch,
    ) -> Result<Tensor, TensorError> {
        let (inner, time_eps) = (&mut self.inner, self.time_eps);
        trace::span(self.backward, || {
            if time_eps {
                inner.backward(sample, grad_output, &mut TimedEps(eps), scratch)
            } else {
                inner.backward(sample, grad_output, eps, scratch)
            }
        })
    }

    fn forward_all(
        &mut self,
        stacked: Tensor,
        samples: usize,
        sources: &mut [Box<dyn EpsilonSource>],
        train: bool,
        scratch: &mut Scratch,
    ) -> Result<Tensor, TensorError> {
        let inner = &mut self.inner;
        trace::span(self.forward, || inner.forward_all(stacked, samples, sources, train, scratch))
    }

    fn begin_iteration(&mut self, samples: usize, scratch: &mut Scratch) {
        self.inner.begin_iteration(samples, scratch);
    }

    fn apply_update(&mut self, learning_rate: f32) {
        let inner = &mut self.inner;
        trace::span(UPDATE, || inner.apply_update(learning_rate));
    }

    fn epsilon_count(&self) -> usize {
        self.inner.epsilon_count()
    }

    fn parameter_count(&self) -> usize {
        self.inner.parameter_count()
    }

    fn complexity_loss(&self) -> f32 {
        self.inner.complexity_loss()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn snapshot(&self) -> LayerSnapshot {
        self.inner.snapshot()
    }
}

/// Rebuilds `network` from its snapshot with every layer wrapped in a [`TimedLayer`] (same
/// parameters, same kernel configuration, so the same output bits).
///
/// # Panics
///
/// Panics on a network deeper than [`LAYER_SPANS`] names.
pub fn timed_network(network: &Network, time_eps: bool) -> Network {
    let snapshot = network.snapshot();
    assert!(snapshot.layers.len() <= LAYER_SPANS.len(), "more layers than span names");
    let mut timed = Network::new(snapshot.config);
    for (layer, &(forward, backward)) in snapshot.layers.iter().zip(&LAYER_SPANS) {
        let inner = layer.build(snapshot.config).expect("a live network's snapshot rebuilds");
        timed.push(Box::new(TimedLayer { inner, forward, backward, time_eps }));
    }
    timed.set_kernel(network.kernel());
    timed
}
