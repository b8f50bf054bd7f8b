//! ResNet-20 CKKS inference (Lee et al., IEEE Access '22), as evaluated by
//! the MAD paper (Figure 6f–h).
//!
//! Lee et al. evaluate each 3×3 convolution as a packed plaintext
//! matrix–vector product over rotated copies of the feature map, replace
//! ReLU with a composite minimax polynomial (depth ≈ 10), and bootstrap
//! once per layer to replenish levels. [`resnet20_program`] reproduces
//! that schedule shape as one [`Program`].

use simfhe::bootstrap::EVAL_MOD_DEPTH;
use simfhe::params::SchemeParams;
use simfhe::program::{CtDecl, Instr, MatDecl, Program};

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

// The ReLU's products, two a level, fit its depth.
const _: () = assert!(RELU_MULTS.div_ceil(2) <= RELU_DEPTH);

/// Builds one ResNet-20 inference as a program over the input `x`, which
/// enters at the post-bootstrap level budget.
///
/// Each layer: one packed convolution (`BsgsMatVec` over
/// [`ConvLayer::rotation_count`] contiguous diagonals), the residual add
/// and a packing fixup, the polynomial ReLU, and a bootstrap back to the
/// budget (Lee et al. bootstrap every layer; the MAD paper adopts the same
/// structure).
pub fn resnet20_program(params: &SchemeParams) -> Program {
    let consumed = 2 * params.fft_iter + 2 + EVAL_MOD_DEPTH;
    assert!(
        params.limbs > consumed + 1,
        "parameters too shallow for ResNet-20"
    );
    let budget = params.limbs - consumed;
    let slots = params.slots() as usize;
    let layers = resnet20_layers();
    let mult = |dst: &str, a: &str, b: &str| Instr::Mult {
        dst: dst.into(),
        a: a.into(),
        b: b.into(),
    };
    let add = |dst: &str, a: &str, b: &str| Instr::Add {
        dst: dst.into(),
        a: a.into(),
        b: b.into(),
    };

    let mut matrices = Vec::new();
    let mut instrs = Vec::new();
    for (i, layer) in layers.iter().enumerate() {
        let conv = format!("conv{i}");
        matrices.push(MatDecl {
            name: conv.clone(),
            slots,
            offsets: (0..layer.rotation_count()).collect(),
        });
        // Convolution as a hoistable matrix–vector product.
        instrs.push(Instr::BsgsMatVec {
            dst: "y".into(),
            a: "x".into(),
            mat: conv,
        });
        // Residual add and packing fixup.
        instrs.push(add("y", "y", "x"));
        instrs.push(add("o", "y", "y"));
        // Composite-minimax ReLU: RELU_MULTS products, two a level — the
        // odd chain `o ← o·y` and the square `y ← y·y` — and an odd last
        // one closing the chain, `y ← o·y`.
        let mut level = budget - 1;
        let mut remaining = RELU_MULTS;
        while remaining > 0 && level > 1 {
            if remaining > 1 {
                instrs.push(mult("o", "o", "y"));
                instrs.push(mult("y", "y", "y"));
                remaining -= 2;
            } else {
                instrs.push(mult("y", "o", "y"));
                remaining -= 1;
            }
            level -= 1;
        }
        // Bootstrap back to the working level.
        instrs.push(Instr::Bootstrap {
            dst: "x".into(),
            a: "y".into(),
            to_level: budget,
        });
    }
    Program {
        name: format!("ResNet-20 inference ({} conv layers)", layers.len()),
        ct_inputs: vec![CtDecl {
            name: "x".into(),
            level: budget,
        }],
        pt_inputs: Vec::new(),
        matrices,
        instrs,
        outputs: vec!["x".into()],
    }
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
        let p = resnet20_program(&SchemeParams::mad_optimal());
        let bootstraps = p.instrs.iter().filter(|i| i.name() == "Bootstrap");
        assert_eq!(bootstraps.count(), 19);
    }

    #[test]
    fn resnet_cost_is_bootstrap_dominated() {
        use crate::figure6::price;
        use simfhe::opts::MadConfig;
        use simfhe::primitives::CostModel;
        let params = SchemeParams::mad_practical();
        let model = CostModel::new(params, MadConfig::all());
        let p = resnet20_program(&params);
        let priced = price(&model, &p);
        let total = priced.cost.dram_total() as f64;
        let boot: u64 = p
            .instrs
            .iter()
            .zip(&priced.per_instr)
            .filter(|(i, _)| i.name() == "Bootstrap")
            .map(|(_, c)| c.dram_total())
            .sum();
        let boot = boot as f64;
        assert!(
            boot / total > 0.5,
            "bootstrapping should dominate ResNet-20 DRAM traffic ({:.0}%)",
            100.0 * boot / total
        );
    }
}
