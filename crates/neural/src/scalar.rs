//! The floating-point element type abstraction behind every tensor.
//!
//! The whole stack — [`Tensor`](crate::tensor::Tensor),
//! [`Tape`](crate::tape::Tape), [`ParamStore`](crate::params::ParamStore),
//! [`Adam`](crate::optim::Adam) — is generic over a [`Scalar`], with two
//! implementations:
//!
//! * **`f64`** (the default type parameter everywhere) — the reference
//!   arithmetic. Every pre-existing code path, golden test and gradcheck
//!   oracle runs on `f64`, and the generic rewrite is bit-identical to
//!   the old concrete-`f64` code: `Scalar::from_f64`/`to_f64` are the
//!   identity and every trait method forwards to the corresponding `f64`
//!   intrinsic.
//! * **`f32`** — the training dtype. Half the memory traffic and twice
//!   the SIMD lane count through the same blocked kernels, validated
//!   against the `f64` finite-difference path by the cross-dtype
//!   gradcheck (`crates/neural/tests/cross_dtype.rs`).
//!
//! The trait is deliberately minimal: exactly the operations the kernels
//! and activations use, so a conforming implementation cannot smuggle in
//! alternative arithmetic.

use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Which of the two [`Scalar`] types a value is, as a runtime tag (a
/// training checkpoint records the dtype that wrote it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Dtype {
    /// `f32`.
    F32,
    /// `f64`.
    F64,
}

impl Display for Dtype {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Dtype::F32 => "f32",
            Dtype::F64 => "f64",
        })
    }
}

/// A dense floating-point element type (`f32` or `f64`).
///
/// # Examples
///
/// ```
/// use chainnet_neural::scalar::Scalar;
///
/// fn norm2<S: Scalar>(xs: &[S]) -> f64 {
///     xs.iter().map(|x| x.to_f64() * x.to_f64()).sum::<f64>().sqrt()
/// }
/// assert!((norm2(&[3.0f32, 4.0]) - 5.0).abs() < 1e-6);
/// assert!((norm2(&[3.0f64, 4.0]) - 5.0).abs() < 1e-12);
/// ```
pub trait Scalar:
    Copy
    + PartialEq
    + PartialOrd
    + Default
    + Debug
    + Display
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum<Self>
    + Serialize
    + DeserializeOwned
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Negative infinity (softmax max-reduction seed).
    const NEG_INFINITY: Self;
    /// This type's runtime tag.
    const DTYPE: Dtype;

    /// Lossy conversion from `f64` (identity for `f64`).
    fn from_f64(x: f64) -> Self;
    /// Widening conversion to `f64` (identity for `f64`).
    fn to_f64(self) -> f64;
    /// `e^self`.
    fn exp(self) -> Self;
    /// Hyperbolic tangent.
    fn tanh(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// IEEE-754 maximum (NaN-ignoring, like `f64::max`).
    fn max(self, other: Self) -> Self;
    /// Whether the value is neither NaN nor infinite.
    fn is_finite(self) -> bool;
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const NEG_INFINITY: Self = f64::NEG_INFINITY;
    const DTYPE: Dtype = Dtype::F64;

    #[inline(always)]
    fn from_f64(x: f64) -> Self {
        x
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline(always)]
    fn exp(self) -> Self {
        f64::exp(self)
    }
    #[inline(always)]
    fn tanh(self) -> Self {
        f64::tanh(self)
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f64::abs(self)
    }
    #[inline(always)]
    fn max(self, other: Self) -> Self {
        f64::max(self, other)
    }
    #[inline(always)]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
}

impl Scalar for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const NEG_INFINITY: Self = f32::NEG_INFINITY;
    const DTYPE: Dtype = Dtype::F32;

    #[inline(always)]
    fn from_f64(x: f64) -> Self {
        x as f32
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        f64::from(self)
    }
    #[inline(always)]
    fn exp(self) -> Self {
        f32::exp(self)
    }
    #[inline(always)]
    fn tanh(self) -> Self {
        f32::tanh(self)
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f32::abs(self)
    }
    #[inline(always)]
    fn max(self, other: Self) -> Self {
        f32::max(self, other)
    }
    #[inline(always)]
    fn is_finite(self) -> bool {
        f32::is_finite(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_conversions_are_identity() {
        for x in [0.0, -1.5, 1e300, f64::MIN_POSITIVE] {
            assert_eq!(f64::from_f64(x).to_bits(), x.to_bits());
            assert_eq!(x.to_f64().to_bits(), x.to_bits());
        }
    }

    #[test]
    fn f32_round_trips_through_f64_exactly() {
        // Every f32 is exactly representable in f64, so casting up and
        // back must be lossless.
        for x in [0.1f32, -2.5, 3.4e38, f32::MIN_POSITIVE] {
            assert_eq!(f32::from_f64(x.to_f64()).to_bits(), x.to_bits());
        }
    }

    #[test]
    fn trait_methods_match_intrinsics() {
        let x = 0.37f64;
        assert_eq!(Scalar::exp(x).to_bits(), x.exp().to_bits());
        assert_eq!(Scalar::tanh(x).to_bits(), x.tanh().to_bits());
        assert_eq!(Scalar::sqrt(x).to_bits(), x.sqrt().to_bits());
        assert!(Scalar::is_finite(x));
        assert!(!Scalar::is_finite(f32::NAN));
        assert_eq!(Scalar::max(1.0f32, f32::NAN), 1.0);
    }
}
