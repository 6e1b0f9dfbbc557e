//! Training loops: plain SGD and the paper's alternating re-training
//! (Section III-C: one SGD epoch, then a compression projection, repeated).

use crate::{data::Dataset, loss, model::Sequential, NnError, Result};
use rand::rngs::StdRng;
use rand::RngExt;
use se_tensor::rng;

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    lr: f32,
    momentum: f32,
    epochs: usize,
    batch_size: usize,
    seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig { lr: 0.02, momentum: 0.9, epochs: 10, batch_size: 8, seed: 0 }
    }
}

impl TrainConfig {
    /// Learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Momentum coefficient.
    pub fn momentum(&self) -> f32 {
        self.momentum
    }

    /// Number of epochs.
    pub fn epochs(&self) -> usize {
        self.epochs
    }

    /// Mini-batch size (gradients are accumulated then averaged).
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Shuffle seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Sets the learning rate.
    pub fn with_lr(mut self, lr: f32) -> Self {
        self.lr = lr;
        self
    }

    /// Sets the epoch count.
    pub fn with_epochs(mut self, e: usize) -> Self {
        self.epochs = e;
        self
    }

    /// Sets the mini-batch size.
    pub fn with_batch_size(mut self, b: usize) -> Self {
        self.batch_size = b.max(1);
        self
    }

    /// Sets the shuffle seed.
    pub fn with_seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }
}

/// Outcome of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean loss per epoch, in order.
    pub epoch_losses: Vec<f32>,
    /// Accuracy on the training set after the final epoch.
    pub final_accuracy: f32,
}

fn shuffled_indices(n: usize, r: &mut StdRng) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    // Fisher–Yates with the workspace RNG (keeps rand's shuffle API out of
    // the picture and the ordering stable across rand versions).
    for i in (1..n).rev() {
        let j = r.random_range(0..=i);
        idx.swap(i, j);
    }
    idx
}

/// Runs one epoch of mini-batch SGD; returns the mean sample loss.
///
/// # Errors
///
/// Propagates forward/backward failures.
pub fn train_epoch(
    model: &mut Sequential,
    ds: &Dataset,
    cfg: &TrainConfig,
    r: &mut StdRng,
) -> Result<f32> {
    let order = shuffled_indices(ds.len(), r);
    let mut total_loss = 0.0f64;
    for batch in order.chunks(cfg.batch_size) {
        for &i in batch {
            let logits = model.forward_train(&ds.inputs()[i])?;
            let (loss, grad) = loss::cross_entropy(&logits, ds.labels()[i])?;
            total_loss += f64::from(loss);
            model.backward(&grad)?;
        }
        model.apply_grads(cfg.lr, cfg.momentum, batch.len());
    }
    Ok((total_loss / ds.len() as f64) as f32)
}

/// Classification accuracy of `model` on `ds`, in `[0, 1]`.
///
/// # Errors
///
/// Propagates forward failures.
pub fn evaluate(model: &Sequential, ds: &Dataset) -> Result<f32> {
    let mut correct = 0usize;
    for (x, &label) in ds.inputs().iter().zip(ds.labels()) {
        let logits = model.forward(x)?;
        if loss::argmax(&logits) == label {
            correct += 1;
        }
    }
    Ok(correct as f32 / ds.len() as f32)
}

/// Trains `model` on `ds` for `cfg.epochs()` epochs.
///
/// # Errors
///
/// Returns [`NnError::InvalidConfig`] for a non-positive learning rate and
/// propagates layer failures.
pub fn train(model: &mut Sequential, ds: &Dataset, cfg: &TrainConfig) -> Result<TrainReport> {
    if cfg.lr <= 0.0 || !cfg.lr.is_finite() {
        return Err(NnError::InvalidConfig { reason: format!("lr {} must be positive", cfg.lr) });
    }
    let mut r = rng::seeded(cfg.seed);
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    for _ in 0..cfg.epochs {
        epoch_losses.push(train_epoch(model, ds, cfg, &mut r)?);
    }
    let final_accuracy = evaluate(model, ds)?;
    Ok(TrainReport { epoch_losses, final_accuracy })
}

/// The paper's re-training recipe: alternate one SGD epoch with a weight
/// projection (the SmartExchange algorithm re-applied to keep the `Ce`
/// structure), then project once more at the end so the returned model is
/// exactly in compressed form.
///
/// The projection is supplied as a closure so this crate stays independent
/// of the compression implementation; `se-core`'s layer compression +
/// reconstruction is the intended argument.
///
/// # Errors
///
/// Propagates training and projection failures.
pub fn retrain_with_projection<P>(
    model: &mut Sequential,
    ds: &Dataset,
    cfg: &TrainConfig,
    mut project: P,
) -> Result<TrainReport>
where
    P: FnMut(&mut Sequential) -> Result<()>,
{
    if cfg.lr <= 0.0 || !cfg.lr.is_finite() {
        return Err(NnError::InvalidConfig { reason: format!("lr {} must be positive", cfg.lr) });
    }
    let mut r = rng::seeded(cfg.seed);
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    for _ in 0..cfg.epochs {
        epoch_losses.push(train_epoch(model, ds, cfg, &mut r)?);
        project(model)?;
    }
    let final_accuracy = evaluate(model, ds)?;
    Ok(TrainReport { epoch_losses, final_accuracy })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data;
    use crate::layers::Layer;

    fn mlp(seed: u64) -> Sequential {
        Sequential::new(vec![
            Layer::linear(8, 24, seed).unwrap(),
            Layer::relu(),
            Layer::linear(24, 3, seed + 1).unwrap(),
        ])
    }

    #[test]
    fn training_reduces_loss_and_reaches_high_accuracy() {
        let ds = data::gaussian_clusters(3, &[8], 30, 0.25, 5).unwrap();
        let mut model = mlp(1);
        let cfg = TrainConfig::default().with_epochs(15).with_lr(0.05);
        let report = train(&mut model, &ds, &cfg).unwrap();
        assert!(report.epoch_losses.first().unwrap() > report.epoch_losses.last().unwrap());
        assert!(report.final_accuracy > 0.9, "accuracy {}", report.final_accuracy);
    }

    #[test]
    fn cnn_trains_on_digits() {
        let ds = data::procedural_digits(6, 9).unwrap();
        let mut model = Sequential::new(vec![
            Layer::conv2d(1, 6, 3, 2, 1, 20).unwrap(),
            Layer::relu(),
            Layer::max_pool(2),
            Layer::flatten(),
            Layer::linear(6 * 7 * 7, 10, 21).unwrap(),
        ]);
        let cfg = TrainConfig::default().with_epochs(8).with_lr(0.05).with_batch_size(4);
        let report = train(&mut model, &ds, &cfg).unwrap();
        assert!(report.final_accuracy > 0.8, "accuracy {}", report.final_accuracy);
    }

    #[test]
    fn evaluate_on_untrained_is_chancey() {
        let ds = data::gaussian_clusters(4, &[8], 25, 0.2, 6).unwrap();
        let model = Sequential::new(vec![Layer::linear(8, 4, 3).unwrap()]);
        let acc = evaluate(&model, &ds).unwrap();
        assert!(acc < 0.8); // untrained should not be near-perfect
    }

    #[test]
    fn rejects_bad_lr() {
        let ds = data::gaussian_clusters(2, &[4], 4, 0.1, 7).unwrap();
        let mut model = Sequential::new(vec![Layer::linear(4, 2, 0).unwrap()]);
        assert!(train(&mut model, &ds, &TrainConfig::default().with_lr(0.0)).is_err());
        assert!(train(&mut model, &ds, &TrainConfig::default().with_lr(f32::NAN)).is_err());
    }

    #[test]
    fn retrain_applies_projection_every_epoch() {
        let ds = data::gaussian_clusters(2, &[6], 10, 0.2, 8).unwrap();
        let mut model = Sequential::new(vec![
            Layer::linear(6, 8, 30).unwrap(),
            Layer::relu(),
            Layer::linear(8, 2, 31).unwrap(),
        ]);
        let cfg = TrainConfig::default().with_epochs(4).with_lr(0.03);
        let mut calls = 0;
        let report = retrain_with_projection(&mut model, &ds, &cfg, |m| {
            calls += 1;
            // A crude projection: zero the smallest half of each weight row.
            for layer in m.layers_mut() {
                if let Some(w) = layer.weights_mut() {
                    let n = w.len();
                    let mut idx: Vec<usize> = (0..n).collect();
                    idx.sort_by(|&a, &b| {
                        w.data()[a].abs().partial_cmp(&w.data()[b].abs()).unwrap()
                    });
                    for &i in idx.iter().take(n / 4) {
                        w.data_mut()[i] = 0.0;
                    }
                }
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(calls, 4);
        // Projected model still learns the easy task.
        assert!(report.final_accuracy > 0.8, "accuracy {}", report.final_accuracy);
        // And the structure holds after the final projection.
        let w0 = model.layers()[0].weights().unwrap();
        assert!(w0.sparsity() >= 0.2);
    }

    #[test]
    fn shuffle_is_seeded() {
        let mut a = rng::seeded(1);
        let mut b = rng::seeded(1);
        assert_eq!(shuffled_indices(10, &mut a), shuffled_indices(10, &mut b));
    }
}
