//! Symbolic circuit parameters.
//!
//! VQA ansätze contain gates whose angles are affine functions of a small set
//! of trainable parameters (e.g. the QAOA cost layer uses the angle
//! `2·w_{ij}·γ_k` for every edge). [`Angle`] captures exactly that affine
//! form, which is all the paper's workloads require, while keeping parameter
//! binding a single multiply-add.

use std::fmt;

/// Identifier of a trainable circuit parameter (an index into the parameter
/// vector handed to [`crate::circuit::Circuit::bind_ops`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ParamId(pub usize);

impl fmt::Display for ParamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "θ{}", self.0)
    }
}

/// A gate angle of the affine form `coeff · θ[param] + offset`, or a plain
/// constant when `param` is `None`.
///
/// # Examples
///
/// ```
/// use qoncord_circuit::param::{Angle, ParamId};
///
/// let fixed = Angle::constant(1.5);
/// assert_eq!(fixed.resolve(&[]), 1.5);
///
/// let scaled = Angle::scaled(ParamId(0), 2.0);
/// assert_eq!(scaled.resolve(&[0.25]), 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Angle {
    /// Multiplier on the bound parameter value (ignored when `param` is `None`).
    pub coeff: f64,
    /// The trainable parameter, if any.
    pub param: Option<ParamId>,
    /// Constant additive term.
    pub offset: f64,
}

impl Angle {
    /// A constant angle with no trainable parameter.
    pub fn constant(value: f64) -> Self {
        Angle {
            coeff: 0.0,
            param: None,
            offset: value,
        }
    }

    /// The bare parameter `θ[id]`.
    pub fn param(id: ParamId) -> Self {
        Angle {
            coeff: 1.0,
            param: Some(id),
            offset: 0.0,
        }
    }

    /// The scaled parameter `coeff · θ[id]`.
    pub fn scaled(id: ParamId, coeff: f64) -> Self {
        Angle {
            coeff,
            param: Some(id),
            offset: 0.0,
        }
    }

    /// The affine form `coeff · θ[id] + offset`.
    pub fn affine(id: ParamId, coeff: f64, offset: f64) -> Self {
        Angle {
            coeff,
            param: Some(id),
            offset,
        }
    }

    /// Evaluates the angle against a parameter vector.
    ///
    /// # Panics
    ///
    /// Panics if the angle references a parameter index beyond `params.len()`.
    pub fn resolve(&self, params: &[f64]) -> f64 {
        match self.param {
            Some(ParamId(i)) => {
                assert!(
                    i < params.len(),
                    "angle references parameter {i} but only {} were bound",
                    params.len()
                );
                self.coeff * params[i] + self.offset
            }
            None => self.offset,
        }
    }

    /// Returns `true` if the angle depends on a trainable parameter.
    pub fn is_parametric(&self) -> bool {
        self.param.is_some() && self.coeff != 0.0
    }
}

impl From<f64> for Angle {
    fn from(value: f64) -> Self {
        Angle::constant(value)
    }
}

impl From<ParamId> for Angle {
    fn from(id: ParamId) -> Self {
        Angle::param(id)
    }
}

impl fmt::Display for Angle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.param {
            Some(id) if self.offset != 0.0 => write!(f, "{}·{} + {}", self.coeff, id, self.offset),
            Some(id) => write!(f, "{}·{}", self.coeff, id),
            None => write!(f, "{}", self.offset),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_ignores_params() {
        let a = Angle::constant(2.5);
        assert_eq!(a.resolve(&[9.0, 9.0]), 2.5);
        assert!(!a.is_parametric());
    }

    #[test]
    fn param_resolves_by_index() {
        let a = Angle::param(ParamId(1));
        assert_eq!(a.resolve(&[0.0, 7.0]), 7.0);
        assert!(a.is_parametric());
    }

    #[test]
    fn affine_combines_terms() {
        let a = Angle::affine(ParamId(0), 2.0, -1.0);
        assert_eq!(a.resolve(&[3.0]), 5.0);
    }

    #[test]
    #[should_panic(expected = "references parameter")]
    fn out_of_range_param_panics() {
        Angle::param(ParamId(4)).resolve(&[1.0]);
    }

    #[test]
    fn conversions() {
        let c: Angle = 0.5.into();
        assert_eq!(c, Angle::constant(0.5));
        let p: Angle = ParamId(2).into();
        assert_eq!(p, Angle::param(ParamId(2)));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Angle::constant(1.0).to_string(), "1");
        assert_eq!(Angle::scaled(ParamId(0), 2.0).to_string(), "2·θ0");
    }
}
