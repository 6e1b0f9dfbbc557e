//! Trainable layers with exact single-sample backpropagation.
//!
//! Layers operate on single-sample tensors (`(C, H, W)` spatial or `(N,)`
//! flat); mini-batches are handled by gradient accumulation in the training
//! loop. This keeps the implementation small and exactly testable with
//! finite differences, and is fast enough for the scaled-down accuracy
//! experiments (see DESIGN.md).

use crate::{NnError, Result};
use se_tensor::conv::{col2im, conv2d, im2col, Conv2dGeom};
use se_tensor::{rng, Mat, Tensor};

/// A 2-D convolution layer (square kernels, symmetric padding).
#[derive(Debug, Clone, PartialEq)]
pub struct Conv2d {
    geom: Conv2dGeom,
    weights: Tensor,
    bias: Vec<f32>,
    grad_w: Tensor,
    grad_b: Vec<f32>,
    vel_w: Tensor,
    vel_b: Vec<f32>,
    cache: Option<(usize, usize, Mat)>, // input H, W, im2col matrix
}

/// A fully-connected layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Linear {
    weights: Tensor, // (out, in)
    bias: Vec<f32>,
    grad_w: Tensor,
    grad_b: Vec<f32>,
    vel_w: Tensor,
    vel_b: Vec<f32>,
    cache: Option<Tensor>, // input
}

/// One trainable or structural layer of a [`Sequential`](crate::model::Sequential)
/// model.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variants documented via constructors below
pub enum Layer {
    Conv2d(Conv2d),
    Linear(Linear),
    ReLU { mask: Option<Vec<bool>> },
    MaxPool2d { size: usize, cache: Option<(Vec<usize>, Vec<usize>)> }, // shape, argmax
    GlobalAvgPool { cache: Option<Vec<usize>> },
    Flatten { cache: Option<Vec<usize>> },
}

impl Layer {
    /// A convolution layer with Kaiming-initialised weights.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidLayer`] for zero-sized dimensions or stride.
    pub fn conv2d(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        seed: u64,
    ) -> Result<Layer> {
        if in_channels == 0 || out_channels == 0 || kernel == 0 || stride == 0 {
            return Err(NnError::InvalidLayer {
                reason: "conv2d dimensions and stride must be positive".into(),
            });
        }
        let geom = Conv2dGeom {
            in_channels,
            out_channels,
            kernel_h: kernel,
            kernel_w: kernel,
            stride,
            padding,
        };
        let mut r = rng::seeded(seed);
        let shape = [out_channels, in_channels, kernel, kernel];
        let fan_in = in_channels * kernel * kernel;
        Ok(Layer::Conv2d(Conv2d {
            geom,
            weights: rng::kaiming_tensor(&mut r, &shape, fan_in),
            bias: vec![0.0; out_channels],
            grad_w: Tensor::zeros(&shape),
            grad_b: vec![0.0; out_channels],
            vel_w: Tensor::zeros(&shape),
            vel_b: vec![0.0; out_channels],
            cache: None,
        }))
    }

    /// A fully-connected layer with Kaiming-initialised weights.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidLayer`] for zero-sized dimensions.
    pub fn linear(in_features: usize, out_features: usize, seed: u64) -> Result<Layer> {
        if in_features == 0 || out_features == 0 {
            return Err(NnError::InvalidLayer {
                reason: "linear dimensions must be positive".into(),
            });
        }
        let mut r = rng::seeded(seed);
        let shape = [out_features, in_features];
        Ok(Layer::Linear(Linear {
            weights: rng::kaiming_tensor(&mut r, &shape, in_features),
            bias: vec![0.0; out_features],
            grad_w: Tensor::zeros(&shape),
            grad_b: vec![0.0; out_features],
            vel_w: Tensor::zeros(&shape),
            vel_b: vec![0.0; out_features],
            cache: None,
        }))
    }

    /// A ReLU activation.
    pub fn relu() -> Layer {
        Layer::ReLU { mask: None }
    }

    /// A max-pooling layer with `size × size` windows and matching stride.
    pub fn max_pool(size: usize) -> Layer {
        Layer::MaxPool2d { size: size.max(1), cache: None }
    }

    /// A global average pool `(C, H, W) → (C,)`.
    pub fn global_avg_pool() -> Layer {
        Layer::GlobalAvgPool { cache: None }
    }

    /// A flattening layer `(C, H, W) → (C·H·W,)`.
    pub fn flatten() -> Layer {
        Layer::Flatten { cache: None }
    }

    /// Inference forward pass (no caching, `&self`).
    ///
    /// # Errors
    ///
    /// Returns shape errors when `x` does not match the layer.
    pub fn forward(&self, x: &Tensor) -> Result<Tensor> {
        match self {
            Layer::Conv2d(c) => {
                let out = conv2d(&c.weights, x, &c.geom)?;
                Ok(add_channel_bias(out, &c.bias))
            }
            Layer::Linear(l) => linear_forward(l, x),
            Layer::ReLU { .. } => Ok(x.map(|v| v.max(0.0))),
            Layer::MaxPool2d { size, .. } => max_pool_forward(x, *size).map(|(y, _)| y),
            Layer::GlobalAvgPool { .. } => global_avg_forward(x),
            Layer::Flatten { .. } => Ok(x.reshape(&[x.len()])?),
        }
    }

    /// Training forward pass: computes the output and caches what backward
    /// needs.
    ///
    /// # Errors
    ///
    /// Returns shape errors when `x` does not match the layer.
    pub fn forward_train(&mut self, x: &Tensor) -> Result<Tensor> {
        match self {
            Layer::Conv2d(c) => {
                let (h, w) = (x.shape()[1], x.shape()[2]);
                let cols = im2col(x, &c.geom)?;
                let w_mat = weights_as_mat(&c.weights)?;
                let out = w_mat.matmul(&cols)?;
                let (e, f) = c.geom.output_size(h, w)?;
                c.cache = Some((h, w, cols));
                let out = Tensor::from_vec(out.into_vec(), &[c.geom.out_channels, e, f])?;
                Ok(add_channel_bias(out, &c.bias))
            }
            Layer::Linear(l) => {
                l.cache = Some(x.clone());
                linear_forward(l, x)
            }
            Layer::ReLU { mask } => {
                *mask = Some(x.data().iter().map(|&v| v > 0.0).collect());
                Ok(x.map(|v| v.max(0.0)))
            }
            Layer::MaxPool2d { size, cache } => {
                let (y, argmax) = max_pool_forward(x, *size)?;
                *cache = Some((x.shape().to_vec(), argmax));
                Ok(y)
            }
            Layer::GlobalAvgPool { cache } => {
                *cache = Some(x.shape().to_vec());
                global_avg_forward(x)
            }
            Layer::Flatten { cache } => {
                *cache = Some(x.shape().to_vec());
                Ok(x.reshape(&[x.len()])?)
            }
        }
    }

    /// Backward pass: accumulates parameter gradients (scaled later by the
    /// optimizer) and returns the gradient w.r.t. the layer input.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidLayer`] if called before
    /// [`Layer::forward_train`].
    pub fn backward(&mut self, dout: &Tensor) -> Result<Tensor> {
        match self {
            Layer::Conv2d(c) => {
                let (h, w, cols) = c.cache.take().ok_or_else(|| no_cache("Conv2d"))?;
                let m = c.geom.out_channels;
                let dout_mat = Mat::from_vec(dout.data().to_vec(), m, dout.len() / m)?;
                // dW = dOut · colsᵀ
                let dw = dout_mat.matmul(&cols.transpose())?;
                accumulate(c.grad_w.data_mut(), dw.data());
                for (i, g) in c.grad_b.iter_mut().enumerate() {
                    *g += dout_mat.row(i).iter().sum::<f32>();
                }
                // dx = col2im(Wᵀ · dOut)
                let w_mat = weights_as_mat(&c.weights)?;
                let dcols = w_mat.transpose().matmul(&dout_mat)?;
                Ok(col2im(&dcols, &c.geom, h, w)?)
            }
            Layer::Linear(l) => {
                let x = l.cache.take().ok_or_else(|| no_cache("Linear"))?;
                let (out_f, in_f) = (l.weights.shape()[0], l.weights.shape()[1]);
                for i in 0..out_f {
                    let d = dout.data()[i];
                    l.grad_b[i] += d;
                    let row = &mut l.grad_w.data_mut()[i * in_f..(i + 1) * in_f];
                    for (g, &xv) in row.iter_mut().zip(x.data()) {
                        *g += d * xv;
                    }
                }
                let mut dx = vec![0.0f32; in_f];
                for i in 0..out_f {
                    let d = dout.data()[i];
                    if d == 0.0 {
                        continue;
                    }
                    let row = &l.weights.data()[i * in_f..(i + 1) * in_f];
                    for (dxv, &wv) in dx.iter_mut().zip(row) {
                        *dxv += d * wv;
                    }
                }
                Ok(Tensor::from_vec(dx, &[in_f])?)
            }
            Layer::ReLU { mask } => {
                let mask = mask.take().ok_or_else(|| no_cache("ReLU"))?;
                let data =
                    dout.data().iter().zip(&mask).map(|(&d, &m)| if m { d } else { 0.0 }).collect();
                Ok(Tensor::from_vec(data, dout.shape())?)
            }
            Layer::MaxPool2d { cache, .. } => {
                let (shape, argmax) = cache.take().ok_or_else(|| no_cache("MaxPool2d"))?;
                let mut dx = vec![0.0f32; shape.iter().product()];
                for (o, &src) in argmax.iter().enumerate() {
                    dx[src] += dout.data()[o];
                }
                Ok(Tensor::from_vec(dx, &shape)?)
            }
            Layer::GlobalAvgPool { cache } => {
                let shape = cache.take().ok_or_else(|| no_cache("GlobalAvgPool"))?;
                let (c, h, w) = (shape[0], shape[1], shape[2]);
                let inv = 1.0 / (h * w) as f32;
                let mut dx = vec![0.0f32; c * h * w];
                for ch in 0..c {
                    let d = dout.data()[ch] * inv;
                    dx[ch * h * w..(ch + 1) * h * w].fill(d);
                }
                Ok(Tensor::from_vec(dx, &shape)?)
            }
            Layer::Flatten { cache } => {
                let shape = cache.take().ok_or_else(|| no_cache("Flatten"))?;
                Ok(dout.reshape(&shape)?)
            }
        }
    }

    /// Applies accumulated gradients with SGD + momentum, averaging over
    /// `batch` samples, then clears the gradients.
    pub fn apply_grads(&mut self, lr: f32, momentum: f32, batch: usize) {
        let scale = 1.0 / batch.max(1) as f32;
        match self {
            Layer::Conv2d(c) => {
                sgd_update(
                    c.weights.data_mut(),
                    c.grad_w.data_mut(),
                    c.vel_w.data_mut(),
                    lr,
                    momentum,
                    scale,
                );
                sgd_update(&mut c.bias, &mut c.grad_b, &mut c.vel_b, lr, momentum, scale);
            }
            Layer::Linear(l) => {
                sgd_update(
                    l.weights.data_mut(),
                    l.grad_w.data_mut(),
                    l.vel_w.data_mut(),
                    lr,
                    momentum,
                    scale,
                );
                sgd_update(&mut l.bias, &mut l.grad_b, &mut l.vel_b, lr, momentum, scale);
            }
            _ => {}
        }
    }

    /// The layer's weight tensor, if it has one
    /// (`(M, C, R, S)` for conv, `(out, in)` for linear).
    pub fn weights(&self) -> Option<&Tensor> {
        match self {
            Layer::Conv2d(c) => Some(&c.weights),
            Layer::Linear(l) => Some(&l.weights),
            _ => None,
        }
    }

    /// Mutable access to the weight tensor (used by compression projections).
    pub fn weights_mut(&mut self) -> Option<&mut Tensor> {
        match self {
            Layer::Conv2d(c) => Some(&mut c.weights),
            Layer::Linear(l) => Some(&mut l.weights),
            _ => None,
        }
    }

    /// Number of trainable parameters.
    pub fn params(&self) -> u64 {
        match self {
            Layer::Conv2d(c) => (c.weights.len() + c.bias.len()) as u64,
            Layer::Linear(l) => (l.weights.len() + l.bias.len()) as u64,
            _ => 0,
        }
    }

    /// The convolution geometry, if this is a conv layer.
    pub fn conv_geom(&self) -> Option<&Conv2dGeom> {
        match self {
            Layer::Conv2d(c) => Some(&c.geom),
            _ => None,
        }
    }
}

fn no_cache(layer: &str) -> NnError {
    NnError::InvalidLayer { reason: format!("{layer}::backward called without forward_train") }
}

fn accumulate(acc: &mut [f32], add: &[f32]) {
    for (a, &b) in acc.iter_mut().zip(add) {
        *a += b;
    }
}

fn sgd_update(w: &mut [f32], g: &mut [f32], v: &mut [f32], lr: f32, momentum: f32, scale: f32) {
    for ((wv, gv), vv) in w.iter_mut().zip(g.iter_mut()).zip(v.iter_mut()) {
        *vv = momentum * *vv + *gv * scale;
        *wv -= lr * *vv;
        *gv = 0.0;
    }
}

fn weights_as_mat(w: &Tensor) -> Result<Mat> {
    let s = w.shape();
    Ok(Mat::from_vec(w.data().to_vec(), s[0], s[1] * s[2] * s[3])?)
}

fn add_channel_bias(mut out: Tensor, bias: &[f32]) -> Tensor {
    let per = out.len() / bias.len().max(1);
    for (c, &b) in bias.iter().enumerate() {
        if b != 0.0 {
            for v in &mut out.data_mut()[c * per..(c + 1) * per] {
                *v += b;
            }
        }
    }
    out
}

fn linear_forward(l: &Linear, x: &Tensor) -> Result<Tensor> {
    let (out_f, in_f) = (l.weights.shape()[0], l.weights.shape()[1]);
    if x.len() != in_f {
        return Err(NnError::InvalidLayer {
            reason: format!("linear expects {in_f} inputs, found {}", x.len()),
        });
    }
    let mut out = Vec::with_capacity(out_f);
    for i in 0..out_f {
        let row = &l.weights.data()[i * in_f..(i + 1) * in_f];
        let dot: f32 = row.iter().zip(x.data()).map(|(&w, &v)| w * v).sum();
        out.push(dot + l.bias[i]);
    }
    Ok(Tensor::from_vec(out, &[out_f])?)
}

fn max_pool_forward(x: &Tensor, size: usize) -> Result<(Tensor, Vec<usize>)> {
    let s = x.shape();
    if s.len() != 3 {
        return Err(NnError::InvalidLayer {
            reason: format!("max_pool expects (C,H,W), found {s:?}"),
        });
    }
    let (c, h, w) = (s[0], s[1], s[2]);
    let (oh, ow) = (h / size, w / size);
    if oh == 0 || ow == 0 {
        return Err(NnError::InvalidLayer {
            reason: format!("max_pool window {size} larger than input {h}x{w}"),
        });
    }
    let mut out = Vec::with_capacity(c * oh * ow);
    let mut argmax = Vec::with_capacity(c * oh * ow);
    for ch in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = f32::NEG_INFINITY;
                let mut best_idx = 0;
                for ky in 0..size {
                    for kx in 0..size {
                        let idx = (ch * h + oy * size + ky) * w + ox * size + kx;
                        let v = x.data()[idx];
                        if v > best {
                            best = v;
                            best_idx = idx;
                        }
                    }
                }
                out.push(best);
                argmax.push(best_idx);
            }
        }
    }
    Ok((Tensor::from_vec(out, &[c, oh, ow])?, argmax))
}

fn global_avg_forward(x: &Tensor) -> Result<Tensor> {
    let s = x.shape();
    if s.len() != 3 {
        return Err(NnError::InvalidLayer {
            reason: format!("global_avg_pool expects (C,H,W), found {s:?}"),
        });
    }
    let (c, h, w) = (s[0], s[1], s[2]);
    let inv = 1.0 / (h * w) as f32;
    let out =
        (0..c).map(|ch| x.data()[ch * h * w..(ch + 1) * h * w].iter().sum::<f32>() * inv).collect();
    Ok(Tensor::from_vec(out, &[c])?)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Central-difference gradient check for a scalar loss `sum(out * d)`.
    fn grad_check_weights(mut layer: Layer, x: &Tensor, tol: f32) {
        let out = layer.forward_train(x).unwrap();
        // Loss = sum(out); dLoss/dout = ones.
        let dout = Tensor::full(out.shape(), 1.0);
        let _ = layer.backward(&dout).unwrap();
        let analytic = match &layer {
            Layer::Conv2d(c) => c.grad_w.clone(),
            Layer::Linear(l) => l.grad_w.clone(),
            _ => panic!("weight grad check on weightless layer"),
        };
        let eps = 1e-2;
        let n_checks = analytic.len().min(12);
        for i in 0..n_checks {
            let orig = layer.weights().unwrap().data()[i];
            layer.weights_mut().unwrap().data_mut()[i] = orig + eps;
            let up = layer.forward(x).unwrap().sum();
            layer.weights_mut().unwrap().data_mut()[i] = orig - eps;
            let down = layer.forward(x).unwrap().sum();
            layer.weights_mut().unwrap().data_mut()[i] = orig;
            let numeric = (up - down) / (2.0 * eps);
            let a = analytic.data()[i];
            assert!(
                (a - numeric).abs() <= tol * (1.0 + numeric.abs()),
                "weight {i}: analytic {a} vs numeric {numeric}"
            );
        }
    }

    fn grad_check_input(mut layer: Layer, x: &Tensor, tol: f32) {
        let out = layer.forward_train(x).unwrap();
        let dout = Tensor::full(out.shape(), 1.0);
        let dx = layer.backward(&dout).unwrap();
        let eps = 1e-2;
        for i in 0..x.len().min(10) {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let up = layer.forward(&xp).unwrap().sum();
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let down = layer.forward(&xm).unwrap().sum();
            let numeric = (up - down) / (2.0 * eps);
            let a = dx.data()[i];
            assert!(
                (a - numeric).abs() <= tol * (1.0 + numeric.abs()),
                "input {i}: analytic {a} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn conv_weight_gradients_match_finite_differences() {
        let mut r = rng::seeded(1);
        let x = rng::normal_tensor(&mut r, &[2, 5, 5], 1.0);
        let layer = Layer::conv2d(2, 3, 3, 1, 1, 2).unwrap();
        grad_check_weights(layer, &x, 2e-2);
    }

    #[test]
    fn conv_input_gradients_match_finite_differences() {
        let mut r = rng::seeded(3);
        let x = rng::normal_tensor(&mut r, &[2, 4, 4], 1.0);
        let layer = Layer::conv2d(2, 2, 3, 2, 1, 4).unwrap();
        grad_check_input(layer, &x, 2e-2);
    }

    #[test]
    fn linear_gradients_match_finite_differences() {
        let mut r = rng::seeded(5);
        let x = rng::normal_tensor(&mut r, &[6], 1.0);
        grad_check_weights(Layer::linear(6, 4, 6).unwrap(), &x, 1e-2);
        grad_check_input(Layer::linear(6, 4, 7).unwrap(), &x, 1e-2);
    }

    #[test]
    fn relu_masks_gradient() {
        let x = Tensor::from_vec(vec![1.0, -1.0, 2.0, -0.5], &[4]).unwrap();
        let mut layer = Layer::relu();
        let out = layer.forward_train(&x).unwrap();
        assert_eq!(out.data(), &[1.0, 0.0, 2.0, 0.0]);
        let dx = layer.backward(&Tensor::full(&[4], 1.0)).unwrap();
        assert_eq!(dx.data(), &[1.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn max_pool_forward_and_backward() {
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
                16.0,
            ],
            &[1, 4, 4],
        )
        .unwrap();
        let mut layer = Layer::max_pool(2);
        let out = layer.forward_train(&x).unwrap();
        assert_eq!(out.shape(), &[1, 2, 2]);
        assert_eq!(out.data(), &[6.0, 8.0, 14.0, 16.0]);
        let dx = layer.backward(&Tensor::full(&[1, 2, 2], 1.0)).unwrap();
        assert_eq!(dx.data()[5], 1.0); // position of 6.0
        assert_eq!(dx.data()[0], 0.0);
        assert_eq!(dx.sum(), 4.0);
    }

    #[test]
    fn global_avg_pool_roundtrip() {
        let x = Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0], &[1, 2, 2]).unwrap();
        let mut layer = Layer::global_avg_pool();
        let out = layer.forward_train(&x).unwrap();
        assert_eq!(out.data(), &[4.0]);
        let dx = layer.backward(&Tensor::full(&[1], 4.0)).unwrap();
        assert_eq!(dx.data(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn flatten_reshapes_both_ways() {
        let x = Tensor::zeros(&[2, 3, 4]);
        let mut layer = Layer::flatten();
        let out = layer.forward_train(&x).unwrap();
        assert_eq!(out.shape(), &[24]);
        let dx = layer.backward(&Tensor::zeros(&[24])).unwrap();
        assert_eq!(dx.shape(), &[2, 3, 4]);
    }

    #[test]
    fn bias_applied_per_channel() {
        let mut layer = Layer::conv2d(1, 2, 1, 1, 0, 11).unwrap();
        if let Layer::Conv2d(c) = &mut layer {
            c.weights.data_mut().fill(0.0);
            c.bias = vec![1.5, -2.5];
        }
        let x = Tensor::zeros(&[1, 2, 2]);
        let out = layer.forward(&x).unwrap();
        assert_eq!(out.data(), &[1.5, 1.5, 1.5, 1.5, -2.5, -2.5, -2.5, -2.5]);
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut layer = Layer::relu();
        assert!(layer.backward(&Tensor::zeros(&[1])).is_err());
    }

    #[test]
    fn sgd_moves_weights_against_gradient() {
        let mut layer = Layer::linear(2, 1, 13).unwrap();
        let before = layer.weights().unwrap().clone();
        let x = Tensor::from_vec(vec![1.0, 1.0], &[2]).unwrap();
        let _ = layer.forward_train(&x).unwrap();
        let _ = layer.backward(&Tensor::full(&[1], 1.0)).unwrap();
        layer.apply_grads(0.1, 0.0, 1);
        let after = layer.weights().unwrap();
        // grad = x = [1,1], so weights decrease by 0.1.
        assert!((after.data()[0] - (before.data()[0] - 0.1)).abs() < 1e-6);
    }

    #[test]
    fn constructors_validate() {
        assert!(Layer::conv2d(0, 1, 3, 1, 1, 0).is_err());
        assert!(Layer::conv2d(1, 1, 3, 0, 1, 0).is_err());
        assert!(Layer::linear(0, 1, 0).is_err());
    }
}
