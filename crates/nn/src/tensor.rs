//! Host-side dense FP32 tensors: the carrier type between layers.
//!
//! Device kernels see raw f16/f32 buffers; the `Tensor` exists on the
//! host to hold activations between launches, feed the im2col packer,
//! and back the f32 reference executor.

use tcsim_f16::F16;

/// Largest element error of a device output against its reference — the
/// number every differential check holds to a tolerance.
///
/// NaN-aware, because `f32::max` drops a NaN operand and would report a
/// NaN output as error 0: an element that is NaN on exactly one side
/// counts as `f32::INFINITY`, so it fails any tolerance; NaN on both sides
/// (and equal infinities) count as 0; otherwise `|got − want|`.
///
/// # Panics
///
/// Panics if the lengths differ.
pub(crate) fn max_abs_err(got: &[f32], want: &[f32]) -> f32 {
    assert_eq!(got.len(), want.len(), "length mismatch");
    got.iter()
        .zip(want)
        .map(|(&g, &w)| match (g.is_nan(), w.is_nan()) {
            (true, true) => 0.0,
            (false, false) if g == w => 0.0, // inf − inf would be NaN
            (false, false) => (g - w).abs(),
            _ => f32::INFINITY,
        })
        .fold(0.0, f32::max)
}

/// A row-major FP32 tensor of arbitrary rank.
#[derive(Clone, Debug, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Builds a tensor from a shape and matching element vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the shape's element count.
    pub fn new(shape: Vec<usize>, data: Vec<f32>) -> Tensor {
        assert_eq!(
            shape.iter().product::<usize>(),
            data.len(),
            "shape {shape:?} does not cover {} elements",
            data.len()
        );
        Tensor { shape, data }
    }

    /// An all-zero tensor.
    pub fn zeros(shape: Vec<usize>) -> Tensor {
        let n = shape.iter().product();
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    /// Builds a tensor by evaluating `f` at each flat index.
    pub fn from_fn(shape: Vec<usize>, f: impl Fn(usize) -> f32) -> Tensor {
        let n = shape.iter().product();
        Tensor {
            shape,
            data: (0..n).map(f).collect(),
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The elements, row-major.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the elements.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reinterprets the same elements under a new shape.
    ///
    /// # Panics
    ///
    /// Panics if the new shape's element count differs.
    pub fn reshape(&self, shape: Vec<usize>) -> Tensor {
        Tensor::new(shape, self.data.clone())
    }

    /// Every element rounded through f16 and back — the value the device
    /// actually sees after im2col packing. Idempotent.
    pub fn quantize_f16(&self) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .map(|&v| F16::from_f32(v).to_f32())
                .collect(),
        }
    }

    /// Largest absolute element difference against `other`. An element
    /// that is NaN on exactly one side counts as `f32::INFINITY`; NaN on
    /// both sides counts as 0.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape, "shape mismatch");
        max_abs_err(&self.data, &other.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_is_idempotent_and_keeps_exact_halves() {
        let t = Tensor::new(vec![2, 2], vec![0.5, -1.25, 0.1, 3.0]);
        let q = t.quantize_f16();
        assert_eq!(q.data()[0], 0.5);
        assert_eq!(q.data()[1], -1.25);
        assert_ne!(q.data()[2], 0.1, "0.1 is not f16-representable");
        assert_eq!(q.quantize_f16(), q);
    }

    #[test]
    fn max_abs_diff_and_reshape() {
        let a = Tensor::from_fn(vec![4], |i| i as f32);
        let b = Tensor::new(vec![4], vec![0.0, 1.5, 2.0, 2.0]);
        assert_eq!(a.max_abs_diff(&b), 1.0);
        assert_eq!(a.reshape(vec![2, 2]).shape(), &[2, 2]);
    }

    #[test]
    fn max_abs_err_counts_a_one_sided_nan_as_infinite() {
        let (nan, inf) = (f32::NAN, f32::INFINITY);
        // Both NaN: the reference overflowed the same way, no error.
        assert_eq!(max_abs_err(&[nan, 1.0], &[nan, 1.5]), 0.5);
        // Exactly one NaN, either side: fails any tolerance.
        assert_eq!(max_abs_err(&[1.0, nan], &[1.0, 2.0]), inf);
        assert_eq!(max_abs_err(&[1.0, 2.0], &[nan, 2.0]), inf);
        // Neither: |got − want|, equal infinities included.
        assert_eq!(max_abs_err(&[1.0, -3.0], &[1.25, -1.0]), 2.0);
        assert_eq!(max_abs_err(&[inf, -inf], &[inf, -inf]), 0.0);
        assert_eq!(max_abs_err(&[inf], &[-inf]), inf);
        assert_eq!(max_abs_err(&[], &[]), 0.0);
        let t = Tensor::new(vec![2], vec![0.0, nan]);
        assert_eq!(t.max_abs_diff(&Tensor::zeros(vec![2])), inf);
    }

    #[test]
    #[should_panic(expected = "does not cover")]
    fn shape_mismatch_is_rejected() {
        let _ = Tensor::new(vec![3], vec![0.0; 4]);
    }
}
