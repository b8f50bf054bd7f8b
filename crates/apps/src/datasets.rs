//! A synthetic dataset shaped like the paper's HELR workload.
//!
//! The paper trains HELR on an MNIST-like binary task (1024 samples × 196
//! features after downsampling). The dataset does not ship with this
//! repository; the generator produces data of identical shape and dynamic
//! range, which is all that matters for FHE cost (ciphertext computation
//! is data-independent) and enough for the functional example to show
//! learning actually happens.

use rand::Rng;

/// A binary-classification dataset: features in `[-1, 1]`, labels `±1`.
#[derive(Clone, Debug)]
pub struct BinaryDataset {
    /// Row-major feature matrix, `samples × features`.
    pub features: Vec<Vec<f64>>,
    /// Labels in `{-1.0, +1.0}`.
    pub labels: Vec<f64>,
}

impl BinaryDataset {
    /// Sample count.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.features.first().map_or(0, Vec::len)
    }
}

/// Generates a linearly separable (with margin noise) binary task of the
/// HELR shape: `samples × features`, labels from a random ground-truth
/// hyperplane plus label noise.
pub fn synthetic_mnist_like<R: Rng + ?Sized>(
    rng: &mut R,
    samples: usize,
    features: usize,
) -> BinaryDataset {
    let truth: Vec<f64> = (0..features).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let mut data = BinaryDataset {
        features: Vec::with_capacity(samples),
        labels: Vec::with_capacity(samples),
    };
    for _ in 0..samples {
        let x: Vec<f64> = (0..features).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let score: f64 = x.iter().zip(&truth).map(|(a, b)| a * b).sum();
        let noisy = score + rng.gen_range(-0.5..0.5);
        data.labels.push(if noisy >= 0.0 { 1.0 } else { -1.0 });
        data.features.push(x);
    }
    data
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mnist_like_shape_and_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = synthetic_mnist_like(&mut rng, 256, 196);
        assert_eq!(d.len(), 256);
        assert_eq!(d.dim(), 196);
        assert!(!d.is_empty());
        assert!(d.labels.iter().all(|&l| l == 1.0 || l == -1.0));
        assert!(d
            .features
            .iter()
            .flatten()
            .all(|&x| (-1.0..=1.0).contains(&x)));
        // Both classes occur.
        let pos = d.labels.iter().filter(|&&l| l > 0.0).count();
        assert!(pos > 32 && pos < 224);
    }

    #[test]
    fn mostly_separable_by_construction() {
        // A dataset generated from a hyperplane should be learnable: check
        // the generating process is not pure noise by verifying label
        // balance correlates with the score sign (already enforced) and
        // that two draws differ.
        let mut rng = StdRng::seed_from_u64(2);
        let a = synthetic_mnist_like(&mut rng, 64, 16);
        let b = synthetic_mnist_like(&mut rng, 64, 16);
        assert_ne!(a.features[0], b.features[0]);
    }
}
