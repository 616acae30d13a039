use std::fmt;

use serde::{Deserialize, Serialize};

use crate::codec;
use crate::{IrError, TermId};

/// A sparse vector in the signature vector space.
///
/// Stores `(term, value)` pairs sorted by term id, together with the
/// dimensionality of the space. Zero-valued entries are never stored, so two
/// vectors that compare equal have identical storage.
///
/// `SparseVec` is the concrete representation of the paper's weight vectors
/// `v_j = [w_1j, ..., w_Nj]`: the `N` distinct kernel functions induce the
/// orthonormal basis and each stored entry is one non-zero coordinate.
///
/// # Examples
///
/// ```
/// use fmeter_ir::SparseVec;
///
/// let v = SparseVec::from_pairs(8, [(1, 3.0), (5, 4.0)]).unwrap();
/// assert_eq!(v.nnz(), 2);
/// assert_eq!(v.norm_l2(), 5.0);
/// assert_eq!(v.get(5), 4.0);
/// assert_eq!(v.get(2), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SparseVec {
    dim: usize,
    terms: Vec<TermId>,
    values: Vec<f64>,
}

impl SparseVec {
    /// Creates an all-zero vector of the given dimensionality.
    pub fn zeros(dim: usize) -> Self {
        SparseVec {
            dim,
            terms: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Builds a vector from `(term, value)` pairs.
    ///
    /// Pairs may arrive in any order; duplicate term ids are summed and
    /// resulting zero entries are dropped.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::TermOutOfRange`] if any term id is `>= dim`.
    pub fn from_pairs(
        dim: usize,
        pairs: impl IntoIterator<Item = (TermId, f64)>,
    ) -> Result<Self, IrError> {
        let mut entries: Vec<(TermId, f64)> = pairs.into_iter().collect();
        for &(t, _) in &entries {
            if t as usize >= dim {
                return Err(IrError::TermOutOfRange { term: t, dim });
            }
        }
        entries.sort_unstable_by_key(|&(t, _)| t);
        // Single pass: merge duplicate terms as they stream by and evict an
        // entry the moment its accumulated value is (or cancels to) zero.
        let mut terms: Vec<TermId> = Vec::with_capacity(entries.len());
        let mut values: Vec<f64> = Vec::with_capacity(entries.len());
        for (t, v) in entries {
            if terms.last() == Some(&t) {
                let last = values.last_mut().expect("values tracks terms");
                *last += v;
                if *last == 0.0 {
                    terms.pop();
                    values.pop();
                }
            } else if v != 0.0 {
                terms.push(t);
                values.push(v);
            }
        }
        Ok(SparseVec { dim, terms, values })
    }

    /// Wraps parallel arrays already in stored form: terms strictly
    /// ascending and below `dim`, no zero values.
    pub(crate) fn from_sorted(dim: usize, terms: Vec<TermId>, values: Vec<f64>) -> Self {
        debug_assert!(terms.windows(2).all(|w| w[0] < w[1]) && !values.contains(&0.0));
        SparseVec { dim, terms, values }
    }

    /// Builds a vector from a dense slice, storing only non-zero entries.
    pub fn from_dense(dense: &[f64]) -> Self {
        let mut terms = Vec::new();
        let mut values = Vec::new();
        for (i, &v) in dense.iter().enumerate() {
            if v != 0.0 {
                terms.push(i as TermId);
                values.push(v);
            }
        }
        SparseVec {
            dim: dense.len(),
            terms,
            values,
        }
    }

    /// Dimensionality of the vector space this vector lives in.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.terms.len()
    }

    /// Returns `true` if the vector has no non-zero entries.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// Value of the coordinate for `term` (zero when not stored).
    pub fn get(&self, term: TermId) -> f64 {
        match self.terms.binary_search(&term) {
            Ok(pos) => self.values[pos],
            Err(_) => 0.0,
        }
    }

    /// Iterates over the stored `(term, value)` pairs in increasing term order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, f64)> + '_ {
        self.terms.iter().copied().zip(self.values.iter().copied())
    }

    /// The stored term ids, in increasing order.
    ///
    /// Together with [`values`](Self::values) this exposes the raw sparse
    /// layout so allocation-free kernels (the fused distance loops, the
    /// [`CsrMatrix`](crate::CsrMatrix) batch kernels) can run directly over
    /// the slices.
    pub fn terms(&self) -> &[TermId] {
        &self.terms
    }

    /// The stored values, parallel to [`terms`](Self::terms).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Expands to a dense `Vec<f64>` of length [`dim`](Self::dim).
    pub fn to_dense(&self) -> Vec<f64> {
        let mut dense = vec![0.0; self.dim];
        for (t, v) in self.iter() {
            dense[t as usize] = v;
        }
        dense
    }

    /// Dot product with another sparse vector.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::DimensionMismatch`] when the dimensions differ.
    pub fn dot(&self, other: &SparseVec) -> Result<f64, IrError> {
        self.check_dim(other)?;
        // Merge-join over the two sorted term lists.
        let mut acc = 0.0;
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.terms.len() && j < other.terms.len() {
            match self.terms[i].cmp(&other.terms[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    acc += self.values[i] * other.values[j];
                    i += 1;
                    j += 1;
                }
            }
        }
        Ok(acc)
    }

    /// Euclidean (L2) norm.
    pub fn norm_l2(&self) -> f64 {
        self.norm_l2_sq().sqrt()
    }

    /// Squared Euclidean norm `‖v‖²` (no sqrt — the K-means hot path
    /// consumes this directly in `‖x‖² − 2x·c + ‖c‖²`).
    pub fn norm_l2_sq(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum::<f64>()
    }

    /// L1 norm (sum of absolute values).
    pub fn norm_l1(&self) -> f64 {
        self.values.iter().map(|v| v.abs()).sum()
    }

    /// Lp norm for arbitrary order `p >= 1`.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::InvalidOrder`] when `p < 1` or `p` is NaN.
    pub fn norm_lp(&self, p: f64) -> Result<f64, IrError> {
        if p < 1.0 || p.is_nan() {
            return Err(IrError::InvalidOrder(p));
        }
        Ok(self
            .values
            .iter()
            .map(|v| v.abs().powf(p))
            .sum::<f64>()
            .powf(1.0 / p))
    }

    /// Returns a copy scaled by `factor`.
    pub fn scaled(&self, factor: f64) -> SparseVec {
        if factor == 0.0 {
            return SparseVec::zeros(self.dim);
        }
        SparseVec {
            dim: self.dim,
            terms: self.terms.clone(),
            values: self.values.iter().map(|v| v * factor).collect(),
        }
    }

    /// Returns this vector scaled onto the unit L2 ball.
    ///
    /// The zero vector is returned unchanged (there is no direction to keep).
    /// This is the normalisation the paper applies before SVM training.
    pub fn l2_normalized(&self) -> SparseVec {
        let norm = self.norm_l2();
        if norm == 0.0 {
            self.clone()
        } else {
            self.scaled(1.0 / norm)
        }
    }

    /// Element-wise sum.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::DimensionMismatch`] when the dimensions differ.
    pub fn add(&self, other: &SparseVec) -> Result<SparseVec, IrError> {
        self.merge_with(other, |a, b| a + b)
    }

    /// Element-wise difference (`self - other`).
    ///
    /// # Errors
    ///
    /// Returns [`IrError::DimensionMismatch`] when the dimensions differ.
    pub fn sub(&self, other: &SparseVec) -> Result<SparseVec, IrError> {
        self.merge_with(other, |a, b| a - b)
    }

    /// Sum of all stored values (for count vectors: the document length).
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    fn merge_with(
        &self,
        other: &SparseVec,
        combine: impl Fn(f64, f64) -> f64,
    ) -> Result<SparseVec, IrError> {
        self.check_dim(other)?;
        let mut terms = Vec::with_capacity(self.nnz() + other.nnz());
        let mut values = Vec::with_capacity(self.nnz() + other.nnz());
        let (mut i, mut j) = (0usize, 0usize);
        let mut push = |t: TermId, v: f64| {
            if v != 0.0 {
                terms.push(t);
                values.push(v);
            }
        };
        while i < self.terms.len() || j < other.terms.len() {
            if j >= other.terms.len() || (i < self.terms.len() && self.terms[i] < other.terms[j]) {
                push(self.terms[i], combine(self.values[i], 0.0));
                i += 1;
            } else if i >= self.terms.len() || other.terms[j] < self.terms[i] {
                push(other.terms[j], combine(0.0, other.values[j]));
                j += 1;
            } else {
                push(self.terms[i], combine(self.values[i], other.values[j]));
                i += 1;
                j += 1;
            }
        }
        Ok(SparseVec {
            dim: self.dim,
            terms,
            values,
        })
    }

    pub(crate) fn check_dim(&self, other: &SparseVec) -> Result<(), IrError> {
        if self.dim != other.dim {
            Err(IrError::DimensionMismatch {
                left: self.dim,
                right: other.dim,
            })
        } else {
            Ok(())
        }
    }
}

impl fmt::Display for SparseVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SparseVec(dim={}, nnz={})", self.dim, self.nnz())
    }
}

impl FromIterator<(TermId, f64)> for SparseVec {
    /// Collects pairs into a vector whose dimension is one past the largest
    /// term id seen (or zero when empty).
    fn from_iter<I: IntoIterator<Item = (TermId, f64)>>(iter: I) -> Self {
        let pairs: Vec<(TermId, f64)> = iter.into_iter().collect();
        let dim = pairs
            .iter()
            .map(|&(t, _)| t as usize + 1)
            .max()
            .unwrap_or(0);
        SparseVec::from_pairs(dim, pairs).expect("dim computed from max term id")
    }
}

// Binary wire layout (see `crate::codec`): `dim` then the `terms`/`values`
// parallel arrays. Values travel as IEEE-754 bit patterns, so a decoded
// vector is bit-identical to the encoded one. Decoding re-validates the
// storage invariants (terms strictly ascending and in range, no stored
// zeros, arrays parallel) without the re-sort `from_pairs` would do.
impl codec::BinCodec for SparseVec {
    fn encode_bin(&self, out: &mut Vec<u8>) {
        codec::put_usize(out, self.dim);
        codec::put_u32s(out, &self.terms);
        codec::put_f64s(out, &self.values);
    }

    fn decode_bin(r: &mut codec::Reader<'_>) -> Result<Self, codec::CodecError> {
        let dim = r.get_usize()?;
        let terms = r.get_u32s()?;
        let values = r.get_f64s()?;
        if terms.len() != values.len() {
            return Err(codec::CodecError::new(format!(
                "SparseVec arrays disagree: {} terms vs {} values",
                terms.len(),
                values.len()
            )));
        }
        for pair in terms.windows(2) {
            if pair[0] >= pair[1] {
                return Err(codec::CodecError::new(
                    "SparseVec terms not strictly ascending",
                ));
            }
        }
        if let Some(&t) = terms.last() {
            if t as usize >= dim {
                return Err(codec::CodecError::new(format!(
                    "SparseVec term {t} out of range for dim {dim}"
                )));
            }
        }
        if values.contains(&0.0) {
            return Err(codec::CodecError::new("SparseVec stores a zero value"));
        }
        Ok(SparseVec { dim, terms, values })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(pairs: &[(TermId, f64)]) -> SparseVec {
        SparseVec::from_pairs(16, pairs.iter().copied()).unwrap()
    }

    #[test]
    fn zeros_has_no_entries() {
        let z = SparseVec::zeros(10);
        assert_eq!(z.dim(), 10);
        assert_eq!(z.nnz(), 0);
        assert!(z.is_zero());
        assert_eq!(z.norm_l2(), 0.0);
    }

    #[test]
    fn from_pairs_sorts_and_merges_duplicates() {
        let a = v(&[(5, 1.0), (2, 2.0), (5, 3.0)]);
        assert_eq!(a.get(5), 4.0);
        assert_eq!(a.get(2), 2.0);
        assert_eq!(a.nnz(), 2);
        let collected: Vec<_> = a.iter().collect();
        assert_eq!(collected, vec![(2, 2.0), (5, 4.0)]);
    }

    #[test]
    fn from_pairs_drops_zeros_and_cancellations() {
        let a = v(&[(1, 0.0), (2, 5.0), (2, -5.0), (3, 1.0)]);
        assert_eq!(a.nnz(), 1);
        assert_eq!(a.get(3), 1.0);
    }

    #[test]
    fn from_pairs_single_pass_handles_cancel_then_readd() {
        // A run of duplicates that cancels mid-stream must not shadow a
        // later contribution to the same term.
        let a = v(&[(2, 5.0), (2, -5.0), (2, 3.0), (7, 0.0)]);
        assert_eq!(a.nnz(), 1);
        assert_eq!(a.get(2), 3.0);
    }

    #[test]
    fn terms_values_expose_sorted_storage() {
        let a = v(&[(5, 1.0), (2, 2.0)]);
        assert_eq!(a.terms(), &[2, 5]);
        assert_eq!(a.values(), &[2.0, 1.0]);
        assert_eq!(a.norm_l2_sq(), 5.0);
    }

    #[test]
    fn from_pairs_rejects_out_of_range() {
        let err = SparseVec::from_pairs(4, [(4, 1.0)]).unwrap_err();
        assert_eq!(err, IrError::TermOutOfRange { term: 4, dim: 4 });
    }

    #[test]
    fn dense_round_trip() {
        let dense = vec![0.0, 1.5, 0.0, -2.0];
        let s = SparseVec::from_dense(&dense);
        assert_eq!(s.nnz(), 2);
        assert_eq!(s.to_dense(), dense);
    }

    #[test]
    fn dot_product_matches_dense() {
        let a = v(&[(0, 1.0), (3, 2.0), (7, -1.0)]);
        let b = v(&[(3, 4.0), (7, 2.0), (9, 100.0)]);
        assert_eq!(a.dot(&b).unwrap(), 2.0 * 4.0 + -2.0);
    }

    #[test]
    fn dot_dimension_mismatch() {
        let a = SparseVec::zeros(3);
        let b = SparseVec::zeros(4);
        assert_eq!(
            a.dot(&b).unwrap_err(),
            IrError::DimensionMismatch { left: 3, right: 4 }
        );
    }

    #[test]
    fn norms_agree_on_345_triangle() {
        let a = v(&[(0, 3.0), (1, 4.0)]);
        assert_eq!(a.norm_l2(), 5.0);
        assert_eq!(a.norm_l1(), 7.0);
        assert!((a.norm_lp(2.0).unwrap() - 5.0).abs() < 1e-12);
        assert!((a.norm_lp(1.0).unwrap() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn lp_norm_rejects_bad_order() {
        let a = v(&[(0, 1.0)]);
        assert!(matches!(a.norm_lp(0.5), Err(IrError::InvalidOrder(_))));
        assert!(matches!(a.norm_lp(f64::NAN), Err(IrError::InvalidOrder(_))));
    }

    #[test]
    fn l2_normalized_is_unit_length() {
        let a = v(&[(0, 3.0), (1, 4.0)]);
        let n = a.l2_normalized();
        assert!((n.norm_l2() - 1.0).abs() < 1e-12);
        assert!((n.get(0) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn l2_normalized_zero_vector_is_noop() {
        let z = SparseVec::zeros(5);
        assert_eq!(z.l2_normalized(), z);
    }

    #[test]
    fn add_and_sub_are_elementwise() {
        let a = v(&[(1, 1.0), (2, 2.0)]);
        let b = v(&[(2, 3.0), (4, 4.0)]);
        let sum = a.add(&b).unwrap();
        assert_eq!(sum.get(1), 1.0);
        assert_eq!(sum.get(2), 5.0);
        assert_eq!(sum.get(4), 4.0);
        let diff = a.sub(&b).unwrap();
        assert_eq!(diff.get(2), -1.0);
        assert_eq!(diff.get(4), -4.0);
    }

    #[test]
    fn sub_self_is_zero() {
        let a = v(&[(1, 1.0), (2, 2.0)]);
        let d = a.sub(&a).unwrap();
        assert!(d.is_zero());
    }

    #[test]
    fn scaled_by_zero_is_zero() {
        let a = v(&[(1, 1.0)]);
        assert!(a.scaled(0.0).is_zero());
    }

    #[test]
    fn from_iterator_infers_dim() {
        let s: SparseVec = [(2u32, 1.0), (9u32, 2.0)].into_iter().collect();
        assert_eq!(s.dim(), 10);
        assert_eq!(s.nnz(), 2);
    }

    #[test]
    fn display_mentions_shape() {
        let a = v(&[(1, 1.0)]);
        assert_eq!(a.to_string(), "SparseVec(dim=16, nnz=1)");
    }
}
