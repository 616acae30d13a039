//! Contiguous CSR (compressed sparse row) storage for a corpus of
//! signature vectors.
//!
//! Clustering and search iterate over *all* pairs of signatures; keeping
//! every row in one packed `(indices, values)` buffer removes the
//! per-vector pointer chase and lets the pairwise kernels run
//! allocation-free over slices. L2 norms and squared norms are cached per
//! row at construction so cosine similarity and the K-means norm trick
//! never recompute them.

use serde::{Deserialize, Serialize, Value};

use crate::codec;

use crate::distance::{cosine_similarity_with_norms, sq_norm};
use crate::{IrError, Metric, SparseVec, TermId};

/// Minimum number of pairwise distances before
/// [`CsrMatrix::pairwise_condensed`] fans out across threads; below this
/// the spawn overhead dominates.
const PARALLEL_PAIR_THRESHOLD: usize = 4096;

/// A corpus of sparse vectors packed into one CSR buffer.
///
/// Row `i` occupies `indices[indptr[i]..indptr[i + 1]]` (sorted term ids)
/// and the parallel `values` range. Construction caches each row's L2
/// norm and squared norm.
///
/// # Examples
///
/// ```
/// use fmeter_ir::{CsrMatrix, Metric, SparseVec};
///
/// let rows = vec![
///     SparseVec::from_pairs(4, [(0, 3.0)]).unwrap(),
///     SparseVec::from_pairs(4, [(1, 4.0)]).unwrap(),
/// ];
/// let m = CsrMatrix::from_rows(&rows).unwrap();
/// assert_eq!(m.len(), 2);
/// assert_eq!(m.nnz(), 2);
/// let d = m.pairwise_condensed(Metric::Euclidean).unwrap();
/// assert!((d[0] - 5.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CsrMatrix {
    dim: usize,
    indptr: Vec<usize>,
    indices: Vec<TermId>,
    values: Vec<f64>,
    norms: Vec<f64>,
    sq_norms: Vec<f64>,
}

// Serde surface for packed corpora (nothing in the SignatureDb envelope
// embeds a CsrMatrix today — this is for callers persisting their own
// matrix artifacts). Implemented by hand so (a) the cached norms stay
// out of the serialized layout (they are derived data, recomputed on
// load) and (b) deserialization routes through `from_raw_parts`, whose
// invariant checks turn a corrupted or hand-edited payload into an
// error instead of a kernel that indexes out of bounds.
impl Serialize for CsrMatrix {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("dim".to_string(), self.dim.to_value()),
            ("indptr".to_string(), self.indptr.to_value()),
            ("indices".to_string(), self.indices.to_value()),
            ("values".to_string(), self.values.to_value()),
        ])
    }
}

impl Deserialize for CsrMatrix {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let dim = usize::from_value(v.get_field("dim")?)?;
        let indptr = Vec::from_value(v.get_field("indptr")?)?;
        let indices = Vec::from_value(v.get_field("indices")?)?;
        let values = Vec::from_value(v.get_field("values")?)?;
        CsrMatrix::from_raw_parts(dim, indptr, indices, values)
            .map_err(|e| serde::Error(format!("invalid CsrMatrix: {e}")))
    }
}

impl CsrMatrix {
    /// An empty matrix over a fixed `dim`-dimensional space, grown one
    /// row at a time with [`push_row`](Self::push_row) — the streaming
    /// counterpart of [`from_rows`](Self::from_rows).
    pub fn new(dim: usize) -> Self {
        CsrMatrix {
            dim,
            indptr: vec![0],
            indices: Vec::new(),
            values: Vec::new(),
            norms: Vec::new(),
            sq_norms: Vec::new(),
        }
    }

    /// Packs a slice of sparse vectors into one CSR buffer.
    ///
    /// An empty slice yields an empty matrix of dimension zero.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::DimensionMismatch`] when the rows disagree on
    /// dimensionality.
    pub fn from_rows(rows: &[SparseVec]) -> Result<Self, IrError> {
        let dim = rows.first().map_or(0, SparseVec::dim);
        let total_nnz: usize = rows.iter().map(SparseVec::nnz).sum();
        let mut indptr = Vec::with_capacity(rows.len() + 1);
        let mut indices = Vec::with_capacity(total_nnz);
        let mut values = Vec::with_capacity(total_nnz);
        let mut norms = Vec::with_capacity(rows.len());
        let mut sq_norms = Vec::with_capacity(rows.len());
        indptr.push(0);
        for row in rows {
            if row.dim() != dim {
                return Err(IrError::DimensionMismatch {
                    left: dim,
                    right: row.dim(),
                });
            }
            indices.extend_from_slice(row.terms());
            values.extend_from_slice(row.values());
            indptr.push(indices.len());
            let sq = sq_norm(row.values());
            sq_norms.push(sq);
            norms.push(sq.sqrt());
        }
        Ok(CsrMatrix {
            dim,
            indptr,
            indices,
            values,
            norms,
            sq_norms,
        })
    }

    /// Builds a matrix from raw CSR parts (e.g. assembled directly by
    /// [`TfIdfModel::transform_corpus_csr`](crate::TfIdfModel::transform_corpus_csr)
    /// without intermediate [`SparseVec`]s). Norms are computed here.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::TermOutOfRange`] when an index is `>= dim` and
    /// [`IrError::DimensionMismatch`] when the parts are inconsistent
    /// (`indptr` not monotone from 0 to `indices.len()`, `indices` and
    /// `values` lengths differ, or a row's terms are not strictly
    /// increasing).
    pub fn from_raw_parts(
        dim: usize,
        indptr: Vec<usize>,
        indices: Vec<TermId>,
        values: Vec<f64>,
    ) -> Result<Self, IrError> {
        let shape_err = IrError::DimensionMismatch {
            left: indices.len(),
            right: values.len(),
        };
        if indices.len() != values.len() {
            return Err(shape_err);
        }
        if indptr.first() != Some(&0) || indptr.last() != Some(&indices.len()) {
            return Err(shape_err);
        }
        for w in indptr.windows(2) {
            // Bound-check before slicing: a non-monotone indptr whose
            // middle value overshoots indices.len() must error, not panic.
            if w[0] > w[1] || w[1] > indices.len() {
                return Err(shape_err);
            }
            let row = &indices[w[0]..w[1]];
            for pair in row.windows(2) {
                if pair[0] >= pair[1] {
                    return Err(shape_err);
                }
            }
            if let Some(&t) = row.last() {
                if t as usize >= dim {
                    return Err(IrError::TermOutOfRange { term: t, dim });
                }
            }
        }
        let rows = indptr.len() - 1;
        let mut norms = Vec::with_capacity(rows);
        let mut sq_norms = Vec::with_capacity(rows);
        for w in indptr.windows(2) {
            let sq = sq_norm(&values[w[0]..w[1]]);
            sq_norms.push(sq);
            norms.push(sq.sqrt());
        }
        Ok(CsrMatrix {
            dim,
            indptr,
            indices,
            values,
            norms,
            sq_norms,
        })
    }

    /// Internal constructor for callers that guarantee the CSR invariants
    /// by construction (sorted in-range rows, consistent `indptr`); only
    /// norms are computed. Debug builds still verify.
    pub(crate) fn from_parts_trusted(
        dim: usize,
        indptr: Vec<usize>,
        indices: Vec<TermId>,
        values: Vec<f64>,
    ) -> Self {
        debug_assert!(
            CsrMatrix::from_raw_parts(dim, indptr.clone(), indices.clone(), values.clone()).is_ok(),
            "trusted CSR parts violate the layout invariants"
        );
        let rows = indptr.len().saturating_sub(1);
        let mut norms = Vec::with_capacity(rows);
        let mut sq_norms = Vec::with_capacity(rows);
        for w in indptr.windows(2) {
            let sq = sq_norm(&values[w[0]..w[1]]);
            sq_norms.push(sq);
            norms.push(sq.sqrt());
        }
        CsrMatrix {
            dim,
            indptr,
            indices,
            values,
            norms,
            sq_norms,
        }
    }

    /// Appends one row to the matrix, returning its row index — the
    /// streaming-ingest path: a daemon can keep a packed corpus matrix
    /// current as signatures arrive, instead of re-packing all rows
    /// before every re-clustering pass. Norms are cached exactly as the
    /// batch constructors do.
    ///
    /// An empty matrix (dimension zero, no rows) adopts the first pushed
    /// row's dimension.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::DimensionMismatch`] when the row's dimension
    /// differs from the matrix's.
    pub fn push_row(&mut self, row: &SparseVec) -> Result<usize, IrError> {
        if self.is_empty() && self.nnz() == 0 && self.dim == 0 {
            self.dim = row.dim();
            if self.indptr.is_empty() {
                self.indptr.push(0);
            }
        }
        if row.dim() != self.dim {
            return Err(IrError::DimensionMismatch {
                left: self.dim,
                right: row.dim(),
            });
        }
        self.indices.extend_from_slice(row.terms());
        self.values.extend_from_slice(row.values());
        self.indptr.push(self.indices.len());
        let sq = sq_norm(row.values());
        self.sq_norms.push(sq);
        self.norms.push(sq.sqrt());
        Ok(self.len() - 1)
    }

    /// Number of rows (documents).
    pub fn len(&self) -> usize {
        self.indptr.len().saturating_sub(1)
    }

    /// Returns `true` when the matrix has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dimensionality of the vector space.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Total number of stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Row `i` as `(terms, values)` slices, sorted by term id.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len()`.
    pub fn row(&self, i: usize) -> (&[TermId], &[f64]) {
        let (lo, hi) = (self.indptr[i], self.indptr[i + 1]);
        (&self.indices[lo..hi], &self.values[lo..hi])
    }

    /// Cached L2 norm of row `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len()`.
    pub fn norm(&self, i: usize) -> f64 {
        self.norms[i]
    }

    /// Cached squared L2 norm of row `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len()`.
    pub fn sq_norm(&self, i: usize) -> f64 {
        self.sq_norms[i]
    }

    /// Copies row `i` back out as a standalone [`SparseVec`].
    ///
    /// # Panics
    ///
    /// Panics when `i >= len()`.
    pub fn row_to_sparse(&self, i: usize) -> SparseVec {
        let (terms, values) = self.row(i);
        // Rows are sorted and in range by construction; only the stored
        // zeros `from_raw_parts` admits need normalising away.
        if values.contains(&0.0) {
            return SparseVec::from_pairs(self.dim, terms.iter().copied().zip(values.to_vec()))
                .expect("CSR terms are in range");
        }
        SparseVec::from_sorted(self.dim, terms.to_vec(), values.to_vec())
    }

    /// Distance between rows `i` and `j` under `metric`, allocation-free.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::InvalidOrder`] for a Minkowski order `p < 1`.
    ///
    /// # Panics
    ///
    /// Panics when `i` or `j` is out of range.
    pub fn row_distance(&self, i: usize, j: usize, metric: Metric) -> Result<f64, IrError> {
        metric.validate()?;
        Ok(self.row_distance_unchecked(i, j, metric))
    }

    #[inline]
    fn row_distance_unchecked(&self, i: usize, j: usize, metric: Metric) -> f64 {
        let (at, av) = self.row(i);
        let (bt, bv) = self.row(j);
        match metric {
            // Cosine reuses the cached norms instead of re-deriving them.
            Metric::Cosine => {
                1.0 - cosine_similarity_with_norms(at, av, bt, bv, self.norms[i], self.norms[j])
            }
            _ => metric.distance_slices_unchecked(at, av, bt, bv),
        }
    }

    /// Computes all pairwise distances into a condensed upper-triangular
    /// vector of length `n * (n - 1) / 2`: the distance between rows
    /// `i < j` lands at `i * (2n - i - 1) / 2 + (j - i - 1)` (scipy's
    /// `pdist` layout).
    ///
    /// Large inputs are fanned out across threads with
    /// [`std::thread::scope`]; every pair is computed independently, so
    /// the result is identical regardless of thread count.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::InvalidOrder`] for a Minkowski order `p < 1`.
    pub fn pairwise_condensed(&self, metric: Metric) -> Result<Vec<f64>, IrError> {
        let mut out = Vec::new();
        self.pairwise_condensed_into(metric, &mut out)?;
        Ok(out)
    }

    /// Like [`pairwise_condensed`](Self::pairwise_condensed) but reuses
    /// `out`'s allocation across calls.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::InvalidOrder`] for a Minkowski order `p < 1`.
    pub fn pairwise_condensed_into(
        &self,
        metric: Metric,
        out: &mut Vec<f64>,
    ) -> Result<(), IrError> {
        metric.validate()?;
        let n = self.len();
        let pairs = n * n.saturating_sub(1) / 2;
        out.clear();
        out.resize(pairs, 0.0);
        if pairs == 0 {
            return Ok(());
        }
        let threads = if pairs >= PARALLEL_PAIR_THRESHOLD {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
                .min(n - 1)
        } else {
            1
        };
        // Dot-product metrics take the scatter/gather row kernel: row i
        // is scattered into a dense scratch once, then every d(i, j)
        // gathers over row j's support only — half the memory touches of
        // a merge join and none of its data-dependent branches.
        let gather = matches!(metric, Metric::Euclidean | Metric::Cosine);
        if threads <= 1 {
            if gather {
                let mut dense = vec![0.0f64; self.dim];
                let mut idx = 0;
                for i in 0..n - 1 {
                    self.scatter_row(i, &mut dense);
                    for j in i + 1..n {
                        out[idx] = self.row_distance_gather(i, j, metric, &dense);
                        idx += 1;
                    }
                    self.unscatter_row(i, &mut dense);
                }
            } else {
                let mut idx = 0;
                for i in 0..n - 1 {
                    for j in i + 1..n {
                        out[idx] = self.row_distance_unchecked(i, j, metric);
                        idx += 1;
                    }
                }
            }
            return Ok(());
        }
        // Chop the condensed buffer into per-row slices (row i owns the
        // n-1-i distances to rows i+1..n) and deal rows round-robin so
        // every thread gets a mix of long (early) and short (late) rows.
        let mut row_slices: Vec<(usize, &mut [f64])> = Vec::with_capacity(n - 1);
        let mut rest = out.as_mut_slice();
        for i in 0..n - 1 {
            let (head, tail) = rest.split_at_mut(n - 1 - i);
            row_slices.push((i, head));
            rest = tail;
        }
        let mut buckets: Vec<Vec<(usize, &mut [f64])>> = (0..threads).map(|_| Vec::new()).collect();
        for (k, item) in row_slices.into_iter().enumerate() {
            buckets[k % threads].push(item);
        }
        std::thread::scope(|s| {
            for bucket in buckets {
                s.spawn(move || {
                    // Per-thread dense scratch; every row is owned by
                    // exactly one bucket, so each row scatters once.
                    let mut dense = if gather {
                        vec![0.0f64; self.dim]
                    } else {
                        Vec::new()
                    };
                    for (i, row_out) in bucket {
                        if gather {
                            self.scatter_row(i, &mut dense);
                            for (off, slot) in row_out.iter_mut().enumerate() {
                                *slot = self.row_distance_gather(i, i + 1 + off, metric, &dense);
                            }
                            self.unscatter_row(i, &mut dense);
                        } else {
                            for (off, slot) in row_out.iter_mut().enumerate() {
                                *slot = self.row_distance_unchecked(i, i + 1 + off, metric);
                            }
                        }
                    }
                });
            }
        });
        Ok(())
    }

    /// Writes row `i`'s values into the dense scratch (support only).
    fn scatter_row(&self, i: usize, dense: &mut [f64]) {
        let (terms, values) = self.row(i);
        for (&t, &v) in terms.iter().zip(values) {
            dense[t as usize] = v;
        }
    }

    /// Zeroes row `i`'s support in the dense scratch (O(nnz), not O(dim)).
    fn unscatter_row(&self, i: usize, dense: &mut [f64]) {
        let (terms, _) = self.row(i);
        for &t in terms {
            dense[t as usize] = 0.0;
        }
    }

    /// Distance between scattered row `i` and row `j` for the dot-product
    /// metrics, gathering over `j`'s support only.
    ///
    /// Euclidean accumulates `(vj - xi_t)²` over `j`'s terms plus the
    /// squared mass of `i`'s terms outside `j` as `sq_i - Σ shared xi²`;
    /// for identical rows both corrections cancel exactly (the shared sum
    /// replays `sq_norm`'s own addition order), so duplicates keep their
    /// precise 0.0 distance. Results can differ from the merge-join
    /// kernel in the last bits (different accumulation grouping), which
    /// is why the tests compare the two at 1e-12 rather than bitwise.
    #[inline]
    fn row_distance_gather(&self, i: usize, j: usize, metric: Metric, dense: &[f64]) -> f64 {
        let (terms, values) = self.row(j);
        match metric {
            Metric::Euclidean => {
                let mut acc = 0.0f64;
                let mut shared_sq = 0.0f64;
                for (&t, &v) in terms.iter().zip(values) {
                    let c = dense[t as usize];
                    let diff = v - c;
                    acc += diff * diff;
                    shared_sq += c * c;
                }
                (acc + (self.sq_norms[i] - shared_sq)).max(0.0).sqrt()
            }
            Metric::Cosine => {
                let denom = self.norms[i] * self.norms[j];
                if denom == 0.0 {
                    return 1.0;
                }
                let mut dot = 0.0f64;
                for (&t, &v) in terms.iter().zip(values) {
                    dot += v * dense[t as usize];
                }
                1.0 - (dot / denom).clamp(-1.0, 1.0)
            }
            _ => unreachable!("gather path is Euclidean/Cosine only"),
        }
    }

    /// Index of the pair `(i, j)`, `i < j`, in the condensed layout of
    /// [`pairwise_condensed`](Self::pairwise_condensed).
    ///
    /// # Panics
    ///
    /// Panics when `i >= j` or `j >= len()`.
    pub fn condensed_index(&self, i: usize, j: usize) -> usize {
        let n = self.len();
        assert!(i < j && j < n, "condensed index requires i < j < n");
        i * (2 * n - i - 1) / 2 + (j - i - 1)
    }
}

// Binary wire layout (see `crate::codec`): the same four fields the JSON
// surface persists — the cached norms stay off the wire — and decoding
// routes through `from_raw_parts` so its invariant checks run on the binary
// path too.
impl codec::BinCodec for CsrMatrix {
    fn encode_bin(&self, out: &mut Vec<u8>) {
        codec::put_usize(out, self.dim);
        codec::put_usizes(out, &self.indptr);
        codec::put_u32s(out, &self.indices);
        codec::put_f64s(out, &self.values);
    }

    fn decode_bin(r: &mut codec::Reader<'_>) -> Result<Self, codec::CodecError> {
        let dim = r.get_usize()?;
        let indptr = r.get_usizes()?;
        let indices = r.get_u32s()?;
        let values = r.get_f64s()?;
        CsrMatrix::from_raw_parts(dim, indptr, indices, values)
            .map_err(|e| codec::CodecError::new(format!("invalid CsrMatrix: {e}")))
    }
}

#[cfg(test)]
mod tests {
    mod serde_surface {
        use crate::{CsrMatrix, SparseVec};

        #[test]
        fn round_trips_and_recomputes_norms() {
            let rows = vec![
                SparseVec::from_pairs(6, [(0, 3.0), (4, 4.0)]).unwrap(),
                SparseVec::zeros(6),
                SparseVec::from_pairs(6, [(2, -1.5)]).unwrap(),
            ];
            let m = CsrMatrix::from_rows(&rows).unwrap();
            let json = serde_json::to_string(&m).unwrap();
            // Derived data (norms) stays out of the persisted layout.
            assert!(!json.contains("norms"));
            let restored: CsrMatrix = serde_json::from_str(&json).unwrap();
            assert_eq!(restored, m);
            assert!((restored.norm(0) - 5.0).abs() < 1e-12);
            assert_eq!(restored.norm(1), 0.0);
        }

        #[test]
        fn rejects_corrupted_layout() {
            // indptr not monotone / out of bounds must error, not panic.
            for bad in [
                r#"{"dim":4,"indptr":[0,5],"indices":[1],"values":[1.0]}"#,
                r#"{"dim":4,"indptr":[0,1],"indices":[9],"values":[1.0]}"#,
                r#"{"dim":4,"indptr":[0,2],"indices":[2,1],"values":[1.0,2.0]}"#,
                r#"{"dim":4,"indptr":[0,1],"indices":[1,2],"values":[1.0]}"#,
            ] {
                assert!(
                    serde_json::from_str::<CsrMatrix>(bad).is_err(),
                    "accepted corrupt matrix {bad}"
                );
            }
        }
    }

    use super::*;
    use crate::euclidean_distance;

    fn rows() -> Vec<SparseVec> {
        vec![
            SparseVec::from_pairs(8, [(0, 1.0), (3, 2.0)]).unwrap(),
            SparseVec::from_pairs(8, [(3, -1.0), (5, 4.0)]).unwrap(),
            SparseVec::zeros(8),
            SparseVec::from_pairs(8, [(0, 1.0), (3, 2.0)]).unwrap(),
        ]
    }

    #[test]
    fn from_rows_packs_and_caches_norms() {
        let rs = rows();
        let m = CsrMatrix::from_rows(&rs).unwrap();
        assert_eq!(m.len(), 4);
        assert_eq!(m.dim(), 8);
        assert_eq!(m.nnz(), 6);
        assert!(!m.is_empty());
        for (i, r) in rs.iter().enumerate() {
            assert_eq!(m.row_to_sparse(i), *r);
            assert!((m.norm(i) - r.norm_l2()).abs() < 1e-15);
            assert!((m.sq_norm(i) - r.norm_l2() * r.norm_l2()).abs() < 1e-12);
        }
    }

    #[test]
    fn push_row_matches_batch_construction() {
        let rs = rows();
        let batch = CsrMatrix::from_rows(&rs).unwrap();
        let mut incremental = CsrMatrix::from_rows(&rs[..2]).unwrap();
        assert_eq!(incremental.push_row(&rs[2]).unwrap(), 2);
        assert_eq!(incremental.push_row(&rs[3]).unwrap(), 3);
        assert_eq!(incremental, batch);
        // Growing from empty adopts the first row's dimension.
        let mut from_empty = CsrMatrix::from_rows(&[]).unwrap();
        for (i, r) in rs.iter().enumerate() {
            assert_eq!(from_empty.push_row(r).unwrap(), i);
        }
        assert_eq!(from_empty, batch);
        let mut from_default = CsrMatrix::default();
        for r in &rs {
            from_default.push_row(r).unwrap();
        }
        assert_eq!(from_default, batch);
        // Dimension mismatches are rejected once the dimension is set.
        assert!(matches!(
            from_empty.push_row(&SparseVec::zeros(5)),
            Err(IrError::DimensionMismatch { left: 8, right: 5 })
        ));
    }

    #[test]
    fn from_rows_rejects_mixed_dims() {
        let rs = vec![SparseVec::zeros(4), SparseVec::zeros(5)];
        assert!(matches!(
            CsrMatrix::from_rows(&rs),
            Err(IrError::DimensionMismatch { left: 4, right: 5 })
        ));
    }

    #[test]
    fn empty_matrix() {
        let m = CsrMatrix::from_rows(&[]).unwrap();
        assert!(m.is_empty());
        assert_eq!(m.pairwise_condensed(Metric::Euclidean).unwrap(), vec![]);
    }

    #[test]
    fn pairwise_matches_pointwise_distances() {
        let rs = rows();
        let m = CsrMatrix::from_rows(&rs).unwrap();
        for metric in [
            Metric::Euclidean,
            Metric::Manhattan,
            Metric::Minkowski(3.0),
            Metric::Cosine,
        ] {
            let cond = m.pairwise_condensed(metric).unwrap();
            assert_eq!(cond.len(), 6);
            for i in 0..rs.len() {
                for j in i + 1..rs.len() {
                    let expected = metric.distance(&rs[i], &rs[j]).unwrap();
                    let got = cond[m.condensed_index(i, j)];
                    assert!(
                        (got - expected).abs() < 1e-12,
                        "{metric:?} ({i},{j}): {got} vs {expected}"
                    );
                    let direct = m.row_distance(i, j, metric).unwrap();
                    assert!((direct - expected).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn duplicate_rows_have_zero_distance() {
        let m = CsrMatrix::from_rows(&rows()).unwrap();
        let cond = m.pairwise_condensed(Metric::Euclidean).unwrap();
        assert_eq!(cond[m.condensed_index(0, 3)], 0.0);
    }

    #[test]
    fn parallel_path_agrees_with_serial() {
        // Enough rows that pairs >= PARALLEL_PAIR_THRESHOLD.
        let n = 128;
        let rs: Vec<SparseVec> = (0..n)
            .map(|i| {
                SparseVec::from_pairs(
                    64,
                    (0..8u32).map(|k| (((i as u32) * 7 + k * 5) % 64, (i + k as usize) as f64)),
                )
                .unwrap()
            })
            .collect();
        let m = CsrMatrix::from_rows(&rs).unwrap();
        let cond = m.pairwise_condensed(Metric::Euclidean).unwrap();
        assert!(n * (n - 1) / 2 >= PARALLEL_PAIR_THRESHOLD);
        for i in 0..n {
            for j in i + 1..n {
                // The batch kernel gathers over a dense scratch, so it can
                // differ from the merge-join pointwise kernel in the last
                // bits — but not beyond.
                let expected = euclidean_distance(&rs[i], &rs[j]).unwrap();
                let got = cond[m.condensed_index(i, j)];
                assert!(
                    (got - expected).abs() <= 1e-12 * (1.0 + expected),
                    "({i},{j}): {got} vs {expected}"
                );
            }
        }
    }

    #[test]
    fn pairwise_into_reuses_buffer_and_rejects_bad_order() {
        let m = CsrMatrix::from_rows(&rows()).unwrap();
        let mut buf = vec![99.0; 2];
        m.pairwise_condensed_into(Metric::Manhattan, &mut buf)
            .unwrap();
        assert_eq!(buf.len(), 6);
        assert!(matches!(
            m.pairwise_condensed(Metric::Minkowski(0.5)),
            Err(IrError::InvalidOrder(_))
        ));
    }

    #[test]
    fn from_raw_parts_validates() {
        // Valid two-row matrix.
        let m = CsrMatrix::from_raw_parts(4, vec![0, 2, 3], vec![0, 2, 1], vec![1.0, 2.0, 3.0])
            .unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m.row(0), (&[0u32, 2][..], &[1.0, 2.0][..]));
        // Length mismatch.
        assert!(CsrMatrix::from_raw_parts(4, vec![0, 1], vec![0], vec![]).is_err());
        // Non-monotone indptr.
        assert!(CsrMatrix::from_raw_parts(4, vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0]).is_err());
        // Non-monotone indptr whose middle value overshoots indices.len()
        // (regression: used to panic on the row slice instead of erroring).
        assert!(
            CsrMatrix::from_raw_parts(4, vec![0, 5, 3], vec![0, 1, 2], vec![1.0, 1.0, 1.0])
                .is_err()
        );
        // Unsorted row.
        assert!(CsrMatrix::from_raw_parts(4, vec![0, 2], vec![2, 0], vec![1.0, 1.0]).is_err());
        // Term out of range.
        assert!(matches!(
            CsrMatrix::from_raw_parts(2, vec![0, 1], vec![5], vec![1.0]),
            Err(IrError::TermOutOfRange { term: 5, dim: 2 })
        ));
    }

    #[test]
    #[should_panic(expected = "i < j < n")]
    fn condensed_index_rejects_bad_pair() {
        let m = CsrMatrix::from_rows(&rows()).unwrap();
        m.condensed_index(2, 2);
    }
}
