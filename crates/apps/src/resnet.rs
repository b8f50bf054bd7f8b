//! ResNet-20 CKKS inference (Lee et al., IEEE Access '22), as evaluated by
//! the MAD paper (Figure 6f–h).
//!
//! Lee et al. evaluate each 3×3 convolution as a packed plaintext
//! matrix–vector product over rotated copies of the feature map, replace
//! ReLU with a composite minimax polynomial (depth ≈ 10), and bootstrap
//! once per layer to replenish levels. [`resnet20_workload`] reproduces
//! that schedule shape.

use simfhe::bootstrap::EVAL_MOD_DEPTH;
use simfhe::params::SchemeParams;
use simfhe::workload::{Workload, WorkloadOp};

/// One convolutional layer's geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConvLayer {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Spatial size (square feature maps).
    pub spatial: usize,
    /// Stride (2 at stage boundaries).
    pub stride: usize,
}

impl ConvLayer {
    /// Rotations needed for the packed 3×3 convolution: nine spatial taps
    /// times the channel-fold factor (Lee et al.'s multiplexed packing).
    pub fn rotation_count(&self) -> usize {
        9 * self.in_channels.div_ceil(16).max(1)
    }
}

/// The ResNet-20 layer stack for CIFAR-10: 3 stages of 6 convolutions at
/// 16/32/64 channels plus the stem, ignoring the final pooling/FC (noise-
/// level cost).
pub fn resnet20_layers() -> Vec<ConvLayer> {
    let mut layers = vec![ConvLayer {
        in_channels: 3,
        out_channels: 16,
        spatial: 32,
        stride: 1,
    }];
    let stages: [(usize, usize, usize); 3] = [(16, 32, 1), (32, 16, 2), (64, 8, 2)];
    for (stage, &(ch, spatial, first_stride)) in stages.iter().enumerate() {
        for i in 0..6 {
            let first = i == 0 && stage > 0;
            layers.push(ConvLayer {
                in_channels: if first { ch / 2 } else { ch },
                out_channels: ch,
                spatial,
                stride: if first { first_stride } else { 1 },
            });
        }
    }
    layers
}

/// Multiplicative depth of the composite-minimax ReLU used by Lee et al.
pub const RELU_DEPTH: usize = 10;

/// `Mult` count of the composite-minimax ReLU evaluation.
pub const RELU_MULTS: usize = 15;

/// Builds the simulator workload for one ResNet-20 inference.
///
/// Each layer: one packed convolution (`MatVec`), the polynomial ReLU, and
/// a bootstrap to replenish the consumed levels (Lee et al. bootstrap every
/// layer; the MAD paper adopts the same structure).
pub fn resnet20_workload(params: &SchemeParams) -> Workload {
    let consumed = 2 * params.fft_iter + 2 + EVAL_MOD_DEPTH;
    assert!(
        params.limbs > consumed,
        "parameters too shallow for ResNet-20"
    );
    let budget = params.limbs - consumed;
    let layers = resnet20_layers();
    let mut w = Workload::new(format!(
        "ResNet-20 inference ({} conv layers)",
        layers.len()
    ));

    for layer in &layers {
        let ell = budget;
        // Convolution as a hoistable matrix–vector product.
        w.push(
            WorkloadOp::MatVec {
                ell,
                diagonals: layer.rotation_count(),
            },
            1,
        );
        // Residual add and packing fixups.
        w.push(WorkloadOp::Add { ell: ell - 1 }, 2);
        // Composite-minimax ReLU: RELU_MULTS Mults over RELU_DEPTH levels.
        let mut e = ell - 1;
        let per_level = RELU_MULTS.div_ceil(RELU_DEPTH);
        let mut remaining = RELU_MULTS;
        while remaining > 0 && e > 1 {
            let m = per_level.min(remaining);
            w.push(WorkloadOp::Mult { ell: e }, m as u64);
            remaining -= m;
            e -= 1;
        }
        // Bootstrap back to the working level.
        w.push(WorkloadOp::Bootstrap { from_limbs: 2 }, 1);
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_stack_is_resnet20_shaped() {
        let layers = resnet20_layers();
        assert_eq!(layers.len(), 19); // stem + 18 residual convs
        assert_eq!(layers[0].in_channels, 3);
        assert_eq!(layers.last().unwrap().out_channels, 64);
        // Channel counts double at stage boundaries while spatial halves.
        assert_eq!(layers[7].in_channels, 16);
        assert_eq!(layers[7].out_channels, 32);
        assert_eq!(layers[7].stride, 2);
    }

    #[test]
    fn rotation_counts_scale_with_channels() {
        let small = ConvLayer {
            in_channels: 16,
            out_channels: 16,
            spatial: 32,
            stride: 1,
        };
        let big = ConvLayer {
            in_channels: 64,
            out_channels: 64,
            spatial: 8,
            stride: 1,
        };
        assert!(big.rotation_count() > small.rotation_count());
        assert_eq!(small.rotation_count(), 9);
        assert_eq!(big.rotation_count(), 36);
    }

    #[test]
    fn workload_bootstraps_once_per_layer() {
        let w = resnet20_workload(&SchemeParams::mad_optimal());
        assert_eq!(w.bootstrap_count(), 19);
    }

    #[test]
    fn resnet_cost_is_bootstrap_dominated() {
        use simfhe::opts::MadConfig;
        use simfhe::primitives::CostModel;
        let params = SchemeParams::mad_practical();
        let model = CostModel::new(params, MadConfig::all());
        let w = resnet20_workload(&params);
        let breakdown = model.workload_breakdown(&w);
        let total = model.workload_cost(&w).dram_total() as f64;
        let boot = breakdown
            .iter()
            .find(|(k, _)| *k == "Bootstrap")
            .map(|&(_, c)| c.dram_total() as f64)
            .unwrap_or(0.0);
        assert!(
            boot / total > 0.5,
            "bootstrapping should dominate ResNet-20 DRAM traffic ({:.0}%)",
            100.0 * boot / total
        );
    }
}
