//! Sharded search: a deterministic doc→shard router, a [`Shard`] unit
//! that owns its own slice of the posting store, and a top-k merge that
//! is bit-identical to searching one flat index over the same corpus.
//!
//! A document's cosine score is a pure per-document function of its own
//! postings and the query — it never depends on which other documents
//! share the index. Splitting a corpus across shards therefore changes
//! *where* each document is scored but not *what* it scores: every
//! member of the flat top-k is also in its own shard's top-k (a shard
//! holds a subset of the flat competitors), so concatenating the
//! per-shard top-k lists and re-ranking by the flat comparator — score
//! descending, then global doc id ascending — reproduces the flat
//! result exactly, bit for bit. [`merge_topk`] implements that merge;
//! the shard-local WAND term bounds (and the block maxima the block-max
//! path refines them with) are just the flat bounds restricted to the
//! shard's postings, so pruning stays sound per shard.

use std::cmp::Ordering;

use crate::{CsrMatrix, DocId, InvertedIndex, IrError, SearchHit, SearchScratch, SparseVec};

/// Deterministic round-robin doc→shard router.
///
/// Global doc id `d` lives in shard `d % num_shards` at local id
/// `d / num_shards`. The mapping is invertible and stable under
/// sequential id assignment: appending global ids `0, 1, 2, …` appends
/// local ids `0, 1, 2, …` within every shard, so shard-local indexes
/// assign exactly the local ids the router predicts.
///
/// # Examples
///
/// ```
/// use fmeter_ir::ShardRouter;
///
/// let router = ShardRouter::new(3);
/// assert_eq!(router.shard_of(7), 1);
/// assert_eq!(router.local_of(7), 2);
/// assert_eq!(router.global_of(1, 2), 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    num_shards: usize,
}

impl ShardRouter {
    /// Creates a router over `num_shards` shards (clamped to at least 1).
    pub fn new(num_shards: usize) -> Self {
        ShardRouter {
            num_shards: num_shards.max(1),
        }
    }

    /// Number of shards this router distributes over.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// The shard holding global doc `doc`.
    pub fn shard_of(&self, doc: DocId) -> usize {
        doc % self.num_shards
    }

    /// The shard-local id of global doc `doc`.
    pub fn local_of(&self, doc: DocId) -> DocId {
        doc / self.num_shards
    }

    /// The global doc id of `local` within `shard` (inverse of
    /// [`shard_of`](Self::shard_of)/[`local_of`](Self::local_of)).
    pub fn global_of(&self, shard: usize, local: DocId) -> DocId {
        local * self.num_shards + shard
    }
}

/// One shard of a sharded corpus: its own [`InvertedIndex`] (postings
/// and WAND max-impact bounds over shard-local ids) plus the shard's
/// vectors packed in a [`CsrMatrix`], one row per local id — the only
/// stored copy of each vector, which refits re-weight and vacuums
/// re-route from.
///
/// All public entry points speak *global* doc ids; the shard translates
/// through its [`ShardRouter`] internally and rejects misrouted ids.
#[derive(Debug, Clone)]
pub struct Shard {
    shard: usize,
    router: ShardRouter,
    index: InvertedIndex,
    vectors: CsrMatrix,
}

impl Shard {
    /// Creates the empty shard `shard` of a `router.num_shards()`-way
    /// layout over a `dim`-term space.
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of range for the router.
    pub fn new(shard: usize, router: ShardRouter, dim: usize) -> Self {
        assert!(
            shard < router.num_shards(),
            "shard {shard} out of range for {} shards",
            router.num_shards()
        );
        Shard {
            shard,
            router,
            index: InvertedIndex::new(dim),
            vectors: CsrMatrix::new(dim),
        }
    }

    /// Builds shard `shard` in one pass from its `(vector, live)` rows
    /// (row `l` is local id `l`): live rows are indexed, dead ones kept
    /// as tombstoned rows. The postings come out fully compacted.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::DimensionMismatch`] on a vector of another
    /// dimension.
    pub fn from_rows(
        shard: usize,
        router: ShardRouter,
        dim: usize,
        rows: &[(SparseVec, bool)],
    ) -> Result<Self, IrError> {
        let mut out = Shard::new(shard, router, dim);
        for (local, (vector, live)) in rows.iter().enumerate() {
            out.vectors.push_row(vector)?;
            // Claim the id empty; the rebuild below writes every posting.
            out.index.insert(SparseVec::zeros(dim))?;
            if !live {
                out.index.remove(local)?;
            }
        }
        let live = rows.iter().enumerate().filter(|(_, (_, live))| *live);
        out.index
            .rebuild_postings(live.map(|(local, (vector, _))| (local, vector)))?;
        Ok(out)
    }

    /// Reassembles shard `shard` from a loaded index and its vector rows
    /// (row `l` is local id `l`).
    ///
    /// # Errors
    ///
    /// Returns [`IrError::DimensionMismatch`] when the index and the
    /// rows disagree on the dimension or the number of local ids.
    pub fn from_parts(
        shard: usize,
        router: ShardRouter,
        index: InvertedIndex,
        vectors: CsrMatrix,
    ) -> Result<Self, IrError> {
        if index.dim() != vectors.dim() || index.len() != vectors.len() {
            return Err(IrError::DimensionMismatch {
                left: index.len(),
                right: vectors.len(),
            });
        }
        let mut out = Shard::new(shard, router, index.dim());
        out.index = index;
        out.vectors = vectors;
        Ok(out)
    }

    /// This shard's position in the layout.
    pub fn shard_id(&self) -> usize {
        self.shard
    }

    /// The router that maps global ids onto this layout.
    pub fn router(&self) -> ShardRouter {
        self.router
    }

    /// Dimensionality of the term space.
    pub fn dim(&self) -> usize {
        self.index.dim()
    }

    /// Number of local id slots assigned (live + tombstoned).
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Returns `true` when no document was ever routed here.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Number of live documents in this shard.
    pub fn live_len(&self) -> usize {
        self.index.live_len()
    }

    /// The shard-local inverted index (postings + WAND bounds).
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }

    /// The shard's vectors, packed row-per-local-id. Tombstoned locals
    /// keep their last row — check [`is_live`](Self::is_live).
    pub fn vectors(&self) -> &CsrMatrix {
        &self.vectors
    }

    /// Returns `true` when global doc `doc` is routed here and live.
    pub fn is_live(&self, doc: DocId) -> bool {
        self.router.shard_of(doc) == self.shard && self.index.is_live(self.router.local_of(doc))
    }

    /// Indexes `vector` as global doc `global`, which must be the next
    /// id the router assigns to this shard (sequential global inserts
    /// keep every shard's local id space dense automatically).
    ///
    /// # Errors
    ///
    /// Returns [`IrError::DocNotLive`] when `global` is misrouted (wrong
    /// shard) or out of order, and [`IrError::DimensionMismatch`] on a
    /// vector dimension mismatch.
    pub fn insert(&mut self, global: DocId, vector: SparseVec) -> Result<DocId, IrError> {
        if vector.dim() != self.index.dim() {
            return Err(IrError::DimensionMismatch {
                left: self.index.dim(),
                right: vector.dim(),
            });
        }
        if self.router.shard_of(global) != self.shard
            || self.router.local_of(global) != self.index.len()
        {
            return Err(IrError::DocNotLive(global));
        }
        self.vectors
            .push_row(&vector)
            .expect("dimension checked above");
        let local = self.index.insert(vector).expect("dimension checked above");
        debug_assert_eq!(local, self.router.local_of(global));
        Ok(global)
    }

    /// Tombstones global doc `global`.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::DocNotLive`] when `global` is misrouted, never
    /// inserted, or already removed.
    pub fn remove(&mut self, global: DocId) -> Result<(), IrError> {
        if self.router.shard_of(global) != self.shard {
            return Err(IrError::DocNotLive(global));
        }
        self.index.remove(self.router.local_of(global))
    }

    /// Fully compacts this shard's postings (see
    /// [`InvertedIndex::optimize`]).
    pub fn optimize(&mut self) {
        self.index.optimize();
    }

    /// Switches this shard's flat posting weights between exact `f64`
    /// and 8-bit quantized storage (see
    /// [`InvertedIndex::set_quantization`]).
    ///
    /// Quantization grids are shard-local: each shard fits its per-term
    /// scale/offset to *its own* postings, so a shard's grid is at least
    /// as tight as the flat index's (a subset's min/max range can only
    /// shrink) and the `scale / 2` error bound still holds per posting.
    /// Within one stored corpus the merge contract is unchanged — every
    /// search path scores the same dequantized stored weights, so
    /// [`merge_topk`] over uniformly quantized shards reproduces their
    /// own exhaustive ranking bit for bit.
    pub fn set_quantization(&mut self, mode: crate::QuantizationMode) {
        self.index.set_quantization(mode);
    }

    /// Compacts a one-shard layout in place, vector rows included (see
    /// [`InvertedIndex::renumber_compact`] for the `remap` contract).
    ///
    /// # Panics
    ///
    /// Panics with more than one shard, whose routing renumbering breaks.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::DocNotLive`] for a bad `remap`; the shard is
    /// then unchanged.
    pub fn renumber_compact(&mut self, remap: &[Option<DocId>]) -> Result<(), IrError> {
        assert_eq!(self.router.num_shards(), 1, "only a lone shard renumbers");
        self.index.renumber_compact(remap)?;
        // The index accepted `remap`, so it has one entry per row.
        let (mut indptr, mut indices, mut values) = (vec![0], Vec::new(), Vec::new());
        for l in (0..self.vectors.len()).filter(|&l| remap[l].is_some()) {
            let (terms, vals) = self.vectors.row(l);
            indices.extend_from_slice(terms);
            values.extend_from_slice(vals);
            indptr.push(indices.len());
        }
        self.vectors = CsrMatrix::from_parts_trusted(self.dim(), indptr, indices, values);
        Ok(())
    }

    /// Finds this shard's `k` best hits for `query`, reported under
    /// *global* doc ids. Scores are bit-identical to what a flat index
    /// over the whole corpus computes for the same documents.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::DimensionMismatch`] when the query dimension
    /// differs from the shard dimension.
    pub fn search_with(
        &self,
        query: &SparseVec,
        k: usize,
        scratch: &mut SearchScratch,
    ) -> Result<Vec<SearchHit>, IrError> {
        let mut hits = self.index.search_with(query, k, scratch)?;
        for h in &mut hits {
            h.doc = self.router.global_of(self.shard, h.doc);
        }
        Ok(hits)
    }
}

/// Merges per-shard top-k hit lists (global doc ids) into the global
/// top-k, bit-identical to a flat index's top-k over the union corpus
/// given each shard's own top-k for the same `k`.
///
/// Membership and presentation use different tie rules, copied from
/// the flat heap: the top-k *selection* order is score descending then
/// doc id **descending** (the flat heap evicts the lowest-id entry at a
/// tied k-boundary, so the highest ids survive), while the returned
/// list is *presented* score descending then doc id **ascending** (the
/// flat final sort).
pub fn merge_topk<I>(per_shard: I, k: usize) -> Vec<SearchHit>
where
    I: IntoIterator<Item = Vec<SearchHit>>,
{
    let mut all: Vec<SearchHit> = per_shard.into_iter().flatten().collect();
    all.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(Ordering::Equal)
            .then(b.doc.cmp(&a.doc))
    });
    all.truncate(k);
    all.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(Ordering::Equal)
            .then(a.doc.cmp(&b.doc))
    });
    all
}

/// Searches every shard sequentially and merges — the single-threaded
/// reference the concurrent fan-out (and the tests) compare against.
///
/// # Errors
///
/// Returns [`IrError::DimensionMismatch`] when the query dimension
/// differs from the shards' dimension.
pub fn search_sharded<'a>(
    shards: impl IntoIterator<Item = &'a Shard>,
    query: &SparseVec,
    k: usize,
    scratch: &mut SearchScratch,
) -> Result<Vec<SearchHit>, IrError> {
    let mut per_shard = Vec::new();
    for shard in shards {
        per_shard.push(shard.search_with(query, k, scratch)?);
    }
    Ok(merge_topk(per_shard, k))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus(n: usize, dim: u32) -> Vec<SparseVec> {
        (0..n)
            .map(|i| {
                let base = (i as u32 * 5) % (dim - 3);
                SparseVec::from_pairs(
                    dim as usize,
                    [
                        (base, 1.0 + (i % 9) as f64),
                        (base + 1, 0.5 + (i % 4) as f64),
                        (dim - 1, 0.25),
                    ],
                )
                .unwrap()
            })
            .collect()
    }

    fn build_sharded(docs: &[SparseVec], num_shards: usize, dim: usize) -> Vec<Shard> {
        let router = ShardRouter::new(num_shards);
        let mut shards: Vec<Shard> = (0..num_shards)
            .map(|s| Shard::new(s, router, dim))
            .collect();
        for (d, v) in docs.iter().enumerate() {
            shards[router.shard_of(d)].insert(d, v.clone()).unwrap();
        }
        shards
    }

    #[test]
    fn router_is_invertible_and_dense() {
        for num_shards in 1..=5 {
            let router = ShardRouter::new(num_shards);
            let mut next_local = vec![0usize; num_shards];
            for doc in 0..97 {
                let s = router.shard_of(doc);
                let l = router.local_of(doc);
                assert_eq!(router.global_of(s, l), doc);
                // Sequential global ids assign sequential local ids.
                assert_eq!(l, next_local[s]);
                next_local[s] += 1;
            }
        }
        assert_eq!(ShardRouter::new(0).num_shards(), 1, "clamped to 1");
    }

    #[test]
    fn sharded_search_is_bit_identical_to_flat() {
        let dim = 32u32;
        let docs = corpus(300, dim);
        let mut flat = InvertedIndex::new(dim as usize);
        for d in &docs {
            flat.insert(d.clone()).unwrap();
        }
        let mut scratch = SearchScratch::new();
        for num_shards in [1usize, 2, 3, 7] {
            let shards = build_sharded(&docs, num_shards, dim as usize);
            for k in [1usize, 5, 300] {
                for qseed in 0..6usize {
                    let q = &docs[qseed * 37 % docs.len()];
                    let expected = flat.search_with(q, k, &mut scratch).unwrap();
                    let got = search_sharded(&shards, q, k, &mut scratch).unwrap();
                    assert_eq!(got, expected, "shards={num_shards} k={k} qseed={qseed}");
                }
            }
        }
    }

    #[test]
    fn sharded_search_matches_flat_after_removals() {
        let dim = 24u32;
        let docs = corpus(120, dim);
        let mut flat = InvertedIndex::new(dim as usize);
        for d in &docs {
            flat.insert(d.clone()).unwrap();
        }
        let mut shards = build_sharded(&docs, 4, dim as usize);
        for d in (0..120).step_by(3) {
            flat.remove(d).unwrap();
            shards[d % 4].remove(d).unwrap();
        }
        let mut scratch = SearchScratch::new();
        for qseed in 0..5usize {
            let q = &docs[qseed * 23 % docs.len()];
            let expected = flat.search_with(q, 10, &mut scratch).unwrap();
            let got = search_sharded(&shards, q, 10, &mut scratch).unwrap();
            assert_eq!(got, expected, "qseed={qseed}");
        }
    }

    #[test]
    fn ties_break_on_global_doc_id_across_shards() {
        // Identical vectors land in different shards; at a tied
        // k-boundary the flat heap keeps the highest doc ids (it evicts
        // the lowest-id tie) and presents them ascending — the merge
        // must reproduce both rules exactly.
        let dim = 4usize;
        let v = SparseVec::from_pairs(dim, [(0, 2.0)]).unwrap();
        let docs = vec![v.clone(); 6];
        let mut flat = InvertedIndex::new(dim);
        for d in &docs {
            flat.insert(d.clone()).unwrap();
        }
        let shards = build_sharded(&docs, 3, dim);
        let mut scratch = SearchScratch::new();
        let expected = flat.search_with(&v, 4, &mut scratch).unwrap();
        let hits = search_sharded(&shards, &v, 4, &mut scratch).unwrap();
        assert_eq!(hits, expected);
        let ids: Vec<DocId> = hits.iter().map(|h| h.doc).collect();
        assert_eq!(ids, [2, 3, 4, 5]);
    }

    #[test]
    fn insert_rejects_misrouted_and_disordered_ids() {
        let router = ShardRouter::new(2);
        let mut shard = Shard::new(0, router, 4);
        let v = SparseVec::from_pairs(4, [(0, 1.0)]).unwrap();
        // Doc 1 belongs to shard 1.
        assert_eq!(shard.insert(1, v.clone()), Err(IrError::DocNotLive(1)));
        // Doc 2 is not the next local slot (doc 0 first).
        assert_eq!(shard.insert(2, v.clone()), Err(IrError::DocNotLive(2)));
        shard.insert(0, v.clone()).unwrap();
        assert_eq!(shard.insert(2, v.clone()).unwrap(), 2);
        assert!(shard.insert(0, v.clone()).is_err(), "no re-insert");
        assert!(shard.insert(4, SparseVec::zeros(5)).is_err(), "wrong dim");
        assert_eq!(shard.len(), 2);
        assert_eq!(shard.live_len(), 2);
        assert!(shard.is_live(0) && shard.is_live(2));
        assert!(!shard.is_live(1), "doc 1 is not even routed here");
    }

    #[test]
    fn from_rows_indexes_live_rows_and_keeps_dead_ones() {
        let dim = 8usize;
        let docs = corpus(20, dim as u32);
        let mut shards = build_sharded(&docs, 2, dim);
        // Rebuild shard 0 from scaled rows with doc 4 dead, as a refit
        // would hand down re-weighted vectors.
        let rows: Vec<(SparseVec, bool)> = (0..20)
            .step_by(2)
            .map(|d| (docs[d].scaled(3.0), d != 4))
            .collect();
        shards[0] = Shard::from_rows(0, shards[0].router(), dim, &rows).unwrap();
        assert_eq!(shards[0].len(), 10);
        assert!(!shards[0].is_live(4) && shards[0].is_live(6));
        // A row of another dimension is rejected.
        let bad = [(SparseVec::zeros(dim + 1), true)];
        assert!(Shard::from_rows(0, shards[0].router(), dim, &bad).is_err());
        // The flat reference rebuilds from the very same vectors (bitwise
        // identity demands identical inputs — normalising a scaled copy
        // is only mathematically, not bitwise, a no-op).
        let mut flat = InvertedIndex::new(dim);
        for v in &docs {
            flat.insert(v.clone()).unwrap();
        }
        flat.remove(4).unwrap();
        let flat_live: Vec<(DocId, SparseVec)> = (0..20)
            .filter(|&d| d != 4)
            .map(|d| {
                if d % 2 == 0 {
                    (d, docs[d].scaled(3.0))
                } else {
                    (d, docs[d].clone())
                }
            })
            .collect();
        flat.rebuild_postings(flat_live.iter().map(|(d, v)| (*d, v)))
            .unwrap();
        let mut scratch = SearchScratch::new();
        for q in docs.iter().take(5) {
            let expected = flat.search_with(q, 8, &mut scratch).unwrap();
            let got = search_sharded(&shards, q, 8, &mut scratch).unwrap();
            assert_eq!(got, expected);
        }
        // The packed vectors hold every row, the dead one included.
        for d in [4, 6] {
            let local = shards[0].router().local_of(d);
            assert_eq!(
                shards[0].vectors().row_to_sparse(local),
                docs[d].scaled(3.0)
            );
        }
    }

    #[test]
    fn sharded_block_max_is_bit_identical_to_flat() {
        // Per-shard explicit block-max search merged by merge_topk must
        // reproduce the flat exhaustive ranking bit for bit, including
        // through tombstones.
        let dim = 32u32;
        let docs = corpus(400, dim);
        let mut flat = InvertedIndex::new(dim as usize);
        for d in &docs {
            flat.insert(d.clone()).unwrap();
        }
        let mut shards = build_sharded(&docs, 3, dim as usize);
        for s in &mut shards {
            s.optimize();
        }
        for d in (0..400).step_by(7) {
            flat.remove(d).unwrap();
            shards[d % 3].remove(d).unwrap();
        }
        let mut scratch = SearchScratch::new();
        for qseed in 0..6usize {
            let q = &docs[qseed * 37 % docs.len()];
            let expected = flat.search_exhaustive(q, 10, &mut scratch).unwrap();
            let per_shard: Vec<Vec<SearchHit>> = shards
                .iter()
                .map(|s| {
                    let mut hits = s.index().search_block_max(q, 10, &mut scratch).unwrap();
                    for h in &mut hits {
                        h.doc = s.router().global_of(s.shard_id(), h.doc);
                    }
                    hits
                })
                .collect();
            let got = merge_topk(per_shard, 10);
            assert_eq!(got, expected, "qseed={qseed}");
        }
    }

    #[test]
    fn quantized_shards_merge_their_own_exhaustive_ranking() {
        // Quantization grids are shard-local, so the oracle is each
        // shard's own exhaustive scan over its dequantized weights —
        // search_with must match it bitwise after the merge, and the
        // quantized ranking must stay close to the exact one.
        let dim = 32u32;
        let docs = corpus(400, dim);
        let mut shards = build_sharded(&docs, 3, dim as usize);
        for s in &mut shards {
            s.optimize();
            s.set_quantization(crate::QuantizationMode::Int8);
            assert_eq!(s.index().quantization(), crate::QuantizationMode::Int8);
        }
        let mut exact_shards = build_sharded(&docs, 3, dim as usize);
        for s in &mut exact_shards {
            s.optimize();
        }
        let mut scratch = SearchScratch::new();
        for qseed in 0..6usize {
            let q = &docs[qseed * 37 % docs.len()];
            let got = search_sharded(&shards, q, 10, &mut scratch).unwrap();
            let oracle: Vec<Vec<SearchHit>> = shards
                .iter()
                .map(|s| {
                    let mut hits = s.index().search_exhaustive(q, 10, &mut scratch).unwrap();
                    for h in &mut hits {
                        h.doc = s.router().global_of(s.shard_id(), h.doc);
                    }
                    hits
                })
                .collect();
            assert_eq!(got, merge_topk(oracle, 10), "qseed={qseed}");
            // Recall vs the exact shards: the 8-bit grid should barely
            // move a 10-deep ranking on this corpus.
            let exact = search_sharded(&exact_shards, q, 10, &mut scratch).unwrap();
            let exact_ids: Vec<DocId> = exact.iter().map(|h| h.doc).collect();
            let hit = got.iter().filter(|h| exact_ids.contains(&h.doc)).count();
            assert!(hit >= 9, "qseed={qseed}: recall {hit}/10");
        }
    }

    #[test]
    fn merge_topk_truncates_and_handles_empty() {
        assert!(merge_topk(Vec::<Vec<SearchHit>>::new(), 5).is_empty());
        let merged = merge_topk(
            vec![
                vec![SearchHit { doc: 2, score: 0.5 }],
                vec![
                    SearchHit { doc: 1, score: 0.9 },
                    SearchHit { doc: 3, score: 0.1 },
                ],
            ],
            2,
        );
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].doc, 1);
        assert_eq!(merged[1].doc, 2);
    }
}
