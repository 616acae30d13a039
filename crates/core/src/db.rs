use std::collections::HashMap;
use std::io::{Read, Write};
use std::sync::Arc;

use fmeter_ir::{
    search_sharded, Corpus, DocId, InvertedIndex, IrError, SearchHit, SearchScratch, Shard,
    ShardRouter, SparseVec, TermCounts, TfIdfModel, TfIdfOptions,
};
use fmeter_kernel_sim::Nanos;
use fmeter_ml::{KMeans, Linkage};
use serde::{Deserialize, Serialize};

use crate::{FmeterError, RawSignature, Signature};

/// A syndrome: the centroid of a cluster of signatures, labelled with the
/// cluster's dominant class.
///
/// "The centroid of a cluster of signatures can then be used as a
/// syndrome which characterizes a manifestation of a common behavior"
/// (paper §2.2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Syndrome {
    /// Cluster centroid in tf-idf space.
    pub centroid: SparseVec,
    /// Most frequent label among member signatures (`None` if members are
    /// unlabelled).
    pub dominant_label: Option<String>,
    /// Indices (into the database) of the member signatures.
    pub members: Vec<usize>,
}

/// When an incremental [`SignatureDb`] re-publishes its idf weights.
///
/// Inserted signatures are weighted with the idf generation current at
/// insert time; as the document frequencies drift away from it, stored
/// vectors slowly lose comparability. A *refit* recomputes idf and
/// re-weights every affected signature (see [`SignatureDb::refit`]).
/// The policy decides when the database does this by itself.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RefitPolicy {
    /// Never refit automatically; the owner calls
    /// [`SignatureDb::refit`] (e.g. from a daemon's idle loop).
    Manual,
    /// Refit after every `n` mutations (inserts + removals). `n = 0`
    /// behaves like [`Manual`](RefitPolicy::Manual).
    EveryN(usize),
    /// Refit as soon as either bound is crossed: the published idf
    /// weights drifted more than `max_idf_drift` (see
    /// [`TfIdfModel::idf_drift`]), or more than `max_stale_fraction` of
    /// the live corpus worth of mutations accumulated since the last
    /// refit.
    Threshold {
        /// Maximum tolerated idf drift before an automatic refit.
        max_idf_drift: f64,
        /// Maximum tolerated `mutations / live docs` ratio.
        max_stale_fraction: f64,
    },
}

impl Default for RefitPolicy {
    /// The streaming-daemon default: refit at 10% idf drift or after
    /// mutations totalling a quarter of the corpus, whichever first.
    fn default() -> Self {
        RefitPolicy::Threshold {
            max_idf_drift: 0.1,
            max_stale_fraction: 0.25,
        }
    }
}

/// Outcome of one [`SignatureDb::refit`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RefitStats {
    /// The idf generation this refit published.
    pub epoch: u64,
    /// Terms whose idf value changed.
    pub changed_terms: usize,
    /// Live signatures that were re-transformed (they contained at
    /// least one changed term).
    pub reweighted_docs: usize,
    /// The drift absorbed, as measured just before the refit.
    pub max_idf_drift: f64,
}

/// When an incremental [`SignatureDb`] compacts its tombstoned slots.
///
/// Removals leave permanent holes: the raw counts, the stored vector,
/// and the doc-epoch bookkeeping of a removed signature all stay
/// allocated so that doc ids remain stable. A long-horizon daemon with
/// a sliding retention window therefore grows without bound — one dead
/// slot per evicted interval. [`SignatureDb::vacuum`] reclaims that
/// memory by renumbering; this policy decides when the database does it
/// by itself (on the removal path, right after the refit policy runs).
///
/// **An automatic vacuum renumbers doc ids**, exactly like a manual
/// one. Callers holding doc ids across mutations must either keep the
/// policy at [`Never`](VacuumPolicy::Never) and vacuum at moments they
/// control, or translate their ids through
/// [`SignatureDb::last_vacuum`]'s remap after every removal.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum VacuumPolicy {
    /// Never vacuum automatically; the owner calls
    /// [`SignatureDb::vacuum`] (e.g. alongside a manual refit).
    Never,
    /// Vacuum as soon as tombstoned slots exceed `max_dead_fraction` of
    /// the slot space *and* at least `min_dead` slots are dead (the
    /// floor keeps small databases from vacuuming on every removal).
    DeadFraction {
        /// Maximum tolerated `dead slots / total slots` ratio.
        max_dead_fraction: f64,
        /// Minimum number of dead slots before a vacuum can trigger.
        min_dead: usize,
    },
}

impl Default for VacuumPolicy {
    /// Defaults to [`Never`](VacuumPolicy::Never): compaction
    /// invalidates external doc ids, so it must be opted into.
    fn default() -> Self {
        VacuumPolicy::Never
    }
}

/// Outcome of one [`SignatureDb::vacuum`] pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VacuumStats {
    /// Tombstoned slots whose raw counts, vectors, and bookkeeping were
    /// reclaimed.
    pub dropped_slots: usize,
    /// Live signatures surviving the compaction (`== len()`).
    pub live_docs: usize,
    /// Old doc id → new doc id; `None` for slots that were dead.
    /// Indexed by pre-vacuum doc id over the pre-vacuum slot space.
    pub remap: Vec<Option<DocId>>,
}

/// Outcome of one [`SignatureDb::recluster`] pass: the syndromes plus
/// how they were obtained.
#[derive(Debug, Clone, PartialEq)]
pub struct Recluster {
    /// The clustered syndromes, identical in shape to what
    /// [`SignatureDb::syndromes`] returns.
    pub syndromes: Vec<Syndrome>,
    /// `true` when the pass warm-started from the cached assignment
    /// ([`KMeans::fit_warm`]); `false` for a cold, multi-restart run.
    pub warm: bool,
    /// Lloyd iterations the (final) K-means run performed.
    pub iterations: usize,
}

/// The clustering state [`SignatureDb::recluster`] carries between
/// calls so a steady-state pass costs O(changed), not O(n · restarts).
///
/// Derived state, like [`VacuumStats`]: never persisted (a loaded
/// database starts cold) and never written to the WAL — it is rebuilt
/// by the first `recluster` after recovery.
#[derive(Debug, Clone)]
pub(crate) struct ClusterCache {
    k: usize,
    seed: u64,
    /// Per-slot cluster assignment from the last pass; `None` for slots
    /// inserted since, removed, or never clustered.
    assignment: Vec<Option<usize>>,
    /// Centroids from the last pass (used to attach new docs to their
    /// nearest cluster before warm-starting).
    centroids: Vec<SparseVec>,
}

/// Label and interval of one stored signature. Labels are shared, so a
/// copy-on-write piece clone copies no label bytes.
#[derive(Debug, Clone)]
struct SlotMeta {
    label: Option<Arc<str>>,
    started_at: Nanos,
    ended_at: Nanos,
}

impl SlotMeta {
    fn of(raw: &RawSignature) -> Self {
        SlotMeta {
            label: raw.label.as_deref().map(Arc::from),
            started_at: raw.started_at,
            ended_at: raw.ended_at,
        }
    }
}

/// One shard of the store: postings plus the CSR rows holding each
/// stored vector once, and every local slot's label and interval.
#[derive(Debug, Clone)]
pub struct ShardPiece {
    shard: Shard,
    meta: Vec<SlotMeta>,
}

impl ShardPiece {
    /// The shard's inverted index, block-max bounds, and packed vectors.
    pub fn shard(&self) -> &Shard {
        &self.shard
    }

    /// Appends global doc `doc` (the next id its shard expects).
    fn push(&mut self, doc: DocId, vector: SparseVec, meta: SlotMeta) {
        self.shard
            .insert(doc, vector)
            .expect("sequential global ids of the database's dimension");
        self.meta.push(meta);
    }

    fn local(&self, doc: DocId) -> usize {
        self.shard.router().local_of(doc)
    }

    fn vector(&self, doc: DocId) -> SparseVec {
        self.shard.vectors().row_to_sparse(self.local(doc))
    }

    fn label(&self, doc: DocId) -> Option<&str> {
        self.meta[self.local(doc)].label.as_deref()
    }

    /// Encodes every slot as a `Vec<Signature>` would, straight from
    /// the rows (a lone piece's local ids are the global ones).
    pub(crate) fn encode_signatures(&self, out: &mut Vec<u8>) {
        use fmeter_ir::codec;
        codec::put_usize(out, self.meta.len());
        for (local, meta) in self.meta.iter().enumerate() {
            let (terms, values) = self.shard.vectors().row(local);
            codec::put_usize(out, self.shard.dim());
            codec::put_u32s(out, terms);
            codec::put_f64s(out, values);
            codec::put_opt_str(out, meta.label.as_deref());
            codec::put_u64(out, meta.started_at.0);
            codec::put_u64(out, meta.ended_at.0);
        }
    }

    pub(crate) fn signature(&self, doc: DocId) -> Signature {
        let meta = &self.meta[self.local(doc)];
        Signature {
            vector: self.vector(doc),
            label: meta.label.as_deref().map(str::to_owned),
            started_at: meta.started_at,
            ended_at: meta.ended_at,
        }
    }
}

/// Copies each merged hit's signature out of its piece.
pub(crate) fn resolve_hits(
    router: ShardRouter,
    pieces: &[Arc<ShardPiece>],
    hits: Vec<SearchHit>,
) -> Vec<(DocId, Signature, f64)> {
    hits.into_iter()
        .map(|h| {
            (
                h.doc,
                pieces[router.shard_of(h.doc)].signature(h.doc),
                h.score,
            )
        })
        .collect()
}

/// Majority label among `labels`; ties break towards the lexically
/// smaller label.
pub(crate) fn vote<'a>(labels: impl Iterator<Item = Option<&'a str>>) -> Option<String> {
    let mut votes: HashMap<&str, usize> = HashMap::new();
    for label in labels.flatten() {
        *votes.entry(label).or_default() += 1;
    }
    votes
        .into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(a.0)))
        .map(|(label, _)| label.to_string())
}

/// A labelled database of indexable signatures.
///
/// This is the paper's envisioned operator workflow (§2.2): signatures
/// from forensically identified behaviours are labelled and stored; new
/// signatures are compared against the database by similarity search,
/// classified, or clustered into syndromes.
///
/// Build it from raw daemon output with [`SignatureDb::build`]: the
/// tf-idf model is fitted on the full corpus, every signature is
/// transformed and indexed.
///
/// # Streaming ingest
///
/// The database is *incremental*: a monitoring daemon keeps one
/// `SignatureDb` alive and feeds it as intervals stream off the machine
/// — [`insert`](Self::insert) / [`insert_batch`](Self::insert_batch)
/// append signatures, [`remove`](Self::remove) tombstones them (e.g. a
/// sliding retention window), and the tf-idf document frequencies are
/// maintained in place throughout. Because re-deriving idf on every
/// insert would re-weight the whole corpus each time, published idf
/// weights are versioned by an *epoch*: inserts are transformed with
/// the current (possibly stale) generation, and a
/// [`refit`](Self::refit) — manual or driven by the
/// [`RefitPolicy`] — republishes idf and re-weights the affected
/// signatures in one pass. After a refit the database is exactly what
/// [`build`](Self::build) would produce over the surviving corpus.
///
/// Doc ids are stable for the lifetime of the database: removal leaves
/// a permanent hole, [`signature`](Self::signature) stays addressable
/// by doc id, and [`len`](Self::len) counts live signatures only —
/// until a [`vacuum`](Self::vacuum), which deliberately renumbers the
/// live ids densely and reclaims the dead slots' memory.
///
/// The signatures live in [`ShardPiece`]s routed by a [`ShardRouter`]:
/// one piece when built or loaded, re-routed once by a
/// [`SignatureService`](crate::SignatureService), whose readers then
/// search the pieces themselves. The piece count changes where
/// documents are scored, never what they score.
///
/// # Persistence
///
/// [`save`](Self::save) writes a versioned envelope (magic, format
/// version, section table) and [`load`](Self::load) reads *any*
/// supported historical format, migrating it forward — including the
/// bare unversioned JSON that pre-envelope releases wrote. See the
/// [`persist`](crate::persist) module for the format contract.
#[derive(Debug, Clone)]
pub struct SignatureDb {
    pub(crate) model: TfIdfModel,
    /// Raw interval counts per doc-id slot (kept so refits can
    /// re-transform and removals can un-observe exactly).
    pub(crate) corpus: Corpus,
    /// Current idf generation; bumped by every refit.
    pub(crate) epoch: u64,
    /// Idf generation each stored vector was (re)computed under.
    pub(crate) doc_epoch: Vec<u64>,
    pub(crate) refit_policy: RefitPolicy,
    /// Inserts + removals since the last refit (staleness measure).
    pub(crate) mutations_since_refit: usize,
    pub(crate) vacuum_policy: VacuumPolicy,
    /// Vacuums performed over the database's lifetime (survives
    /// save/load; observability for long-horizon daemons).
    pub(crate) vacuums: u64,
    /// Stats (incl. the id remap) of the most recent vacuum in this
    /// process. *Not* persisted — a remap is only meaningful to the
    /// process whose ids it invalidated.
    pub(crate) last_vacuum: Option<VacuumStats>,
    /// Warm-start state for [`recluster`](Self::recluster). Derived,
    /// not persisted (see [`ClusterCache`]).
    pub(crate) cluster_cache: Option<ClusterCache>,
    pub(crate) router: ShardRouter,
    /// One piece per shard, `Arc`-shared with published snapshots; a
    /// mutation copies only the piece it touches.
    pub(crate) pieces: Vec<Arc<ShardPiece>>,
}

impl SignatureDb {
    /// Fits tf-idf over `raw` and indexes every signature.
    ///
    /// # Errors
    ///
    /// Returns [`FmeterError::NoSignatures`] when `raw` is empty.
    pub fn build(raw: &[RawSignature]) -> Result<Self, FmeterError> {
        Self::build_with(raw, TfIdfOptions::default())
    }

    /// Fits with explicit tf/idf options (used by the weighting-scheme
    /// ablation).
    ///
    /// # Errors
    ///
    /// Returns [`FmeterError::NoSignatures`] when `raw` is empty.
    pub fn build_with(raw: &[RawSignature], options: TfIdfOptions) -> Result<Self, FmeterError> {
        let first = raw.first().ok_or(FmeterError::NoSignatures)?;
        let dim = first.counts.len();
        let mut corpus = Corpus::new(dim);
        for r in raw {
            corpus.push(r.to_term_counts());
        }
        let model = TfIdfModel::fit_with(&corpus, options)?;
        let router = ShardRouter::new(1);
        let rows: Vec<(SparseVec, bool)> =
            corpus.iter().map(|d| (model.transform(d), true)).collect();
        let piece = ShardPiece {
            shard: Shard::from_rows(0, router, dim, &rows)?,
            meta: raw.iter().map(SlotMeta::of).collect(),
        };
        let n = raw.len();
        Ok(SignatureDb {
            model,
            corpus,
            epoch: 0,
            doc_epoch: vec![0; n],
            refit_policy: RefitPolicy::default(),
            mutations_since_refit: 0,
            vacuum_policy: VacuumPolicy::default(),
            vacuums: 0,
            last_vacuum: None,
            cluster_cache: None,
            router,
            pieces: vec![Arc::new(piece)],
        })
    }

    /// Appends one signature, weighting it with the current idf
    /// generation, and returns its stable [`DocId`].
    ///
    /// Document frequencies are updated immediately; the published idf
    /// weights are not (they change only at a [`refit`](Self::refit)).
    /// The configured [`RefitPolicy`] is consulted after the insert, so
    /// a drift- or staleness-crossing insert triggers a refit before
    /// this method returns — observable through [`epoch`](Self::epoch).
    ///
    /// # Errors
    ///
    /// Returns a dimension mismatch when the raw counts do not match the
    /// database's function space.
    pub fn insert(&mut self, raw: &RawSignature) -> Result<DocId, FmeterError> {
        let id = self.insert_stale(raw)?;
        self.maybe_refit();
        Ok(id)
    }

    /// Appends a batch of signatures, returning their [`DocId`]s.
    ///
    /// Equivalent to calling [`insert`](Self::insert) for each element,
    /// except the refit policy is consulted once after the whole batch —
    /// a mid-batch drift crossing does not split the batch across two
    /// idf generations.
    ///
    /// # Errors
    ///
    /// Returns a dimension mismatch when any element has the wrong
    /// dimension; the batch is then refused whole and nothing is
    /// inserted.
    pub fn insert_batch(&mut self, raw: &[RawSignature]) -> Result<Vec<DocId>, FmeterError> {
        for r in raw {
            self.check_insert(r)?;
        }
        let mut ids = Vec::with_capacity(raw.len());
        for r in raw {
            ids.push(self.insert_stale(r)?);
        }
        self.maybe_refit();
        Ok(ids)
    }

    /// Refuses counts outside the function space (an insert's only error).
    pub(crate) fn check_insert(&self, raw: &RawSignature) -> Result<(), FmeterError> {
        if raw.counts.len() != self.dim() {
            return Err(IrError::DimensionMismatch {
                left: self.dim(),
                right: raw.counts.len(),
            }
            .into());
        }
        Ok(())
    }

    /// Refuses ids of no live signature (a removal's only error).
    pub(crate) fn check_remove(&self, doc: DocId) -> Result<(), FmeterError> {
        if !self.is_live(doc) {
            return Err(IrError::DocNotLive(doc).into());
        }
        Ok(())
    }

    /// The shared insert path: mutate df, transform with the current
    /// (stale) generation, index, and track the epoch — no policy check.
    fn insert_stale(&mut self, raw: &RawSignature) -> Result<DocId, FmeterError> {
        self.check_insert(raw)?;
        let counts = raw.to_term_counts();
        self.model.observe(&counts);
        let vector = self.model.transform(&counts);
        let id = self.num_slots();
        let s = self.router.shard_of(id);
        Arc::make_mut(&mut self.pieces[s]).push(id, vector, SlotMeta::of(raw));
        self.corpus.push(counts);
        self.doc_epoch.push(self.epoch);
        self.mutations_since_refit += 1;
        if let Some(cache) = &mut self.cluster_cache {
            cache.assignment.push(None);
        }
        Ok(id)
    }

    /// Tombstones a stored signature: it stops appearing in search,
    /// classification, and clustering immediately, and its contribution
    /// leaves the document frequencies. The doc id is never reused.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::DocNotLive`] (wrapped) when `doc` was never
    /// assigned or is already removed.
    pub fn remove(&mut self, doc: DocId) -> Result<(), FmeterError> {
        self.check_remove(doc)?;
        let s = self.router.shard_of(doc);
        Arc::make_mut(&mut self.pieces[s]).shard.remove(doc)?;
        self.model
            .unobserve(self.corpus.doc(doc).expect("slot exists for live doc"));
        self.mutations_since_refit += 1;
        if let Some(cache) = &mut self.cluster_cache {
            cache.assignment[doc] = None;
        }
        // Vacuum before refit: vacuuming is pure renumbering (it moves
        // postings, touching no floats) and changes none of the refit
        // policy's inputs, so when both are due the refit's single
        // posting rebuild runs over the already-renumbered survivors —
        // one weight-recomputing rewrite serves both maintenance tasks.
        self.maybe_vacuum();
        self.maybe_refit();
        Ok(())
    }

    /// Compacts the database in place: tombstoned slots are dropped for
    /// good (raw counts, stored vectors, postings, epoch bookkeeping)
    /// and the surviving signatures are renumbered to dense doc ids
    /// `0..len()` in their original order.
    ///
    /// This is the memory-reclamation half of the streaming contract:
    /// [`remove`](Self::remove) keeps doc ids stable by leaving
    /// permanent holes, so a daemon with a sliding retention window
    /// grows one dead slot per evicted interval forever; `vacuum`
    /// trades id stability for bounded memory at a moment the caller
    /// (or the [`VacuumPolicy`]) chooses.
    ///
    /// **Every external doc id is invalidated on purpose.** The
    /// returned [`VacuumStats::remap`] translates old ids to new ones
    /// (`None` = the slot was dead); anything holding ids — syndrome
    /// member lists, eviction cursors, ids handed to other systems —
    /// must be remapped or rebuilt.
    ///
    /// The tf-idf model is untouched (document frequencies already
    /// describe the live corpus only) and the epoch does not advance:
    /// per-doc idf generations carry over, so a stale database stays
    /// exactly as stale. One piece is renumbered *in place* (one O(nnz)
    /// pass of moves via [`InvertedIndex::renumber_compact`]); several
    /// are re-routed once, since renumbering moves docs between shards.
    /// No weight is recomputed, so search stays bit-identical to a fresh
    /// [`build`](Self::build) over the surviving corpus.
    pub fn vacuum(&mut self) -> VacuumStats {
        let slots = self.num_slots();
        let live: Vec<bool> = (0..slots).map(|d| self.is_live(d)).collect();
        let mut remap: Vec<Option<DocId>> = vec![None; slots];
        let mut next = 0usize;
        for (d, slot) in remap.iter_mut().enumerate() {
            if live[d] {
                *slot = Some(next);
                next += 1;
            }
        }
        if let [piece] = &mut self.pieces[..] {
            let piece = Arc::make_mut(piece);
            piece
                .shard
                .renumber_compact(&remap)
                .expect("live flags mirror the index tombstones");
            let meta = std::mem::take(&mut piece.meta);
            piece.meta = meta
                .into_iter()
                .zip(&live)
                .filter_map(|(m, &l)| l.then_some(m))
                .collect();
        } else {
            self.pieces = self.route(self.router, (0..slots).filter(|&d| live[d]));
        }
        // Repack the side arrays with moves (no clones, no re-weighting).
        let dim = self.dim();
        let old_corpus = std::mem::replace(&mut self.corpus, Corpus::new(dim));
        let mut corpus = Corpus::new(dim);
        for (d, counts) in old_corpus.into_iter().enumerate() {
            if live[d] {
                corpus.push(counts);
            }
        }
        self.corpus = corpus;
        let old_epochs = std::mem::take(&mut self.doc_epoch);
        self.doc_epoch = old_epochs
            .into_iter()
            .enumerate()
            .filter(|(d, _)| live[*d])
            .map(|(_, e)| e)
            .collect();
        if let Some(cache) = &mut self.cluster_cache {
            // Renumber the warm-start assignments alongside the doc ids;
            // dead slots (already `None`) drop out of the vector.
            let old = std::mem::take(&mut cache.assignment);
            cache.assignment = old
                .into_iter()
                .enumerate()
                .filter(|(d, _)| live[*d])
                .map(|(_, a)| a)
                .collect();
        }
        self.vacuums += 1;
        let stats = VacuumStats {
            dropped_slots: slots - next,
            live_docs: next,
            remap,
        };
        self.last_vacuum = Some(stats.clone());
        stats
    }

    /// Copies the slots `slots` yields into fresh, compacted pieces of
    /// `router`'s layout (the `i`-th becomes doc `i`, keeping liveness
    /// and the quantization mode), one piece at a time so only one
    /// piece's rows are ever copied out at once.
    fn route(
        &self,
        router: ShardRouter,
        slots: impl Iterator<Item = DocId>,
    ) -> Vec<Arc<ShardPiece>> {
        let slots: Vec<DocId> = slots.collect();
        (0..router.num_shards())
            .map(|s| {
                let (rows, meta): (Vec<_>, Vec<_>) = (0..)
                    .map(|local| router.global_of(s, local))
                    .take_while(|&new| new < slots.len())
                    .map(|new| {
                        let (old, from) = (slots[new], self.piece(slots[new]));
                        let meta = from.meta[from.local(old)].clone();
                        ((from.vector(old), from.shard.is_live(old)), meta)
                    })
                    .unzip();
                let mut shard = Shard::from_rows(s, router, self.dim(), &rows)
                    .expect("stored vectors share the database dimension");
                shard.set_quantization(self.quantization());
                Arc::new(ShardPiece { shard, meta })
            })
            .collect()
    }

    /// Re-routes into `num_shards` pieces (at least 1), keeping doc ids
    /// and search results.
    pub(crate) fn reshard(&mut self, num_shards: usize) {
        let router = ShardRouter::new(num_shards);
        if router != self.router {
            self.pieces = self.route(router, 0..self.num_slots());
            self.router = router;
        }
    }

    /// Number of pieces the stored signatures are routed across.
    pub fn num_shards(&self) -> usize {
        self.router.num_shards()
    }

    /// The piece holding doc `doc`.
    fn piece(&self, doc: DocId) -> &ShardPiece {
        &self.pieces[self.router.shard_of(doc)]
    }

    /// Every slot as one piece in global ids (a save's flat `index` and
    /// `signatures` sections): the lone piece, or several re-routed.
    pub(crate) fn flat_piece(&self) -> Arc<ShardPiece> {
        match &self.pieces[..] {
            [piece] => Arc::clone(piece),
            _ => self
                .route(ShardRouter::new(1), 0..self.num_slots())
                .remove(0),
        }
    }

    /// The lone piece of a loaded database.
    pub(crate) fn piece_from_parts(
        index: InvertedIndex,
        signatures: Vec<Signature>,
    ) -> Result<Arc<ShardPiece>, FmeterError> {
        let mut vectors = fmeter_ir::CsrMatrix::new(index.dim());
        let mut meta = Vec::with_capacity(signatures.len());
        for sig in signatures {
            vectors.push_row(&sig.vector)?;
            meta.push(SlotMeta {
                label: sig.label.map(Arc::from),
                started_at: sig.started_at,
                ended_at: sig.ended_at,
            });
        }
        let shard = Shard::from_parts(0, ShardRouter::new(1), index, vectors)?;
        Ok(Arc::new(ShardPiece { shard, meta }))
    }

    /// Runs the configured [`VacuumPolicy`], vacuuming when due.
    fn maybe_vacuum(&mut self) -> Option<&VacuumStats> {
        let VacuumPolicy::DeadFraction {
            max_dead_fraction,
            min_dead,
        } = self.vacuum_policy
        else {
            return None;
        };
        let dead = self.num_slots() - self.len();
        let due =
            dead >= min_dead.max(1) && dead as f64 >= max_dead_fraction * self.num_slots() as f64;
        if due {
            self.vacuum();
            self.last_vacuum.as_ref()
        } else {
            None
        }
    }

    /// The automatic-vacuum policy (defaults to
    /// [`VacuumPolicy::Never`]).
    pub fn vacuum_policy(&self) -> VacuumPolicy {
        self.vacuum_policy
    }

    /// Replaces the automatic-vacuum policy.
    pub fn set_vacuum_policy(&mut self, policy: VacuumPolicy) {
        self.vacuum_policy = policy;
    }

    /// Number of vacuums performed over the database's lifetime
    /// (persisted across save/load).
    pub fn vacuums(&self) -> u64 {
        self.vacuums
    }

    /// Stats of the most recent vacuum in this process, if any —
    /// including the old→new id remap an automatic
    /// ([`VacuumPolicy`]-driven) vacuum produced. Cleared by neither
    /// mutations nor refits, but not persisted: a loaded database
    /// starts with `None`.
    pub fn last_vacuum(&self) -> Option<&VacuumStats> {
        self.last_vacuum.as_ref()
    }

    /// Fraction of the slot space occupied by tombstones (`0.0` for an
    /// empty database) — what [`VacuumPolicy::DeadFraction`] watches.
    pub fn dead_fraction(&self) -> f64 {
        if self.num_slots() == 0 {
            0.0
        } else {
            (self.num_slots() - self.len()) as f64 / self.num_slots() as f64
        }
    }

    /// Republishes the idf weights from the current document
    /// frequencies and re-weights every affected live signature in one
    /// pass, bumping the epoch.
    ///
    /// Only signatures containing at least one changed term are
    /// re-transformed (an unchanged-idf support yields a bit-identical
    /// vector); each piece's postings are then rewritten once from its
    /// live vectors — which also purges any tombstoned postings and
    /// tightens the per-term max-impact bounds. After this call the
    /// database matches a from-scratch [`build`](Self::build) over the
    /// surviving corpus exactly.
    pub fn refit(&mut self) -> RefitStats {
        self.epoch += 1;
        self.mutations_since_refit = 0;
        let refit = self.model.refit_idf();
        let mut stats = RefitStats {
            epoch: self.epoch,
            changed_terms: refit.changed_terms.len(),
            reweighted_docs: 0,
            max_idf_drift: refit.max_drift,
        };
        if refit.changed_terms.is_empty() {
            // No re-weighting to do, but the refit contract still
            // promises a tombstone-free posting store with tight bounds
            // (reachable e.g. under IdfMode::Unit, or when mutations net
            // out) — optimize() purges if any tombstones linger.
            for piece in &mut self.pieces {
                Arc::make_mut(piece).shard.optimize();
            }
            return stats;
        }
        let mut changed = vec![false; self.dim()];
        for &t in &refit.changed_terms {
            changed[t as usize] = true;
        }
        let (router, dim, mode) = (self.router, self.dim(), self.quantization());
        for (s, piece) in self.pieces.iter_mut().enumerate() {
            let piece = Arc::make_mut(piece);
            let mut rows = Vec::with_capacity(piece.meta.len());
            for local in 0..piece.meta.len() {
                let d = router.global_of(s, local);
                let live = piece.shard.is_live(d);
                let doc = self.corpus.doc(d).expect("slot exists");
                if live && doc.iter().any(|(t, _)| changed[t as usize]) {
                    self.doc_epoch[d] = self.epoch;
                    stats.reweighted_docs += 1;
                    rows.push((self.model.transform(doc), live));
                } else {
                    rows.push((piece.vector(d), live));
                }
            }
            piece.shard = Shard::from_rows(s, router, dim, &rows)
                .expect("stored vectors share the database dimension");
            piece.shard.set_quantization(mode);
        }
        stats
    }

    /// Runs the configured [`RefitPolicy`], refitting when due. The
    /// drift bound is checked with [`TfIdfModel::idf_drift_cached`] —
    /// one `ln` per term *dirtied* since the last check instead of one
    /// per dimension — so the policy costs O(dim) arithmetic, not
    /// O(dim) transcendentals, on every mutation.
    fn maybe_refit(&mut self) -> Option<RefitStats> {
        let due = match self.refit_policy {
            RefitPolicy::Manual => false,
            RefitPolicy::EveryN(n) => n > 0 && self.mutations_since_refit >= n,
            RefitPolicy::Threshold {
                max_idf_drift,
                max_stale_fraction,
            } => {
                let live = self.len();
                self.mutations_since_refit > 0
                    && ((live > 0
                        && self.mutations_since_refit as f64 >= max_stale_fraction * live as f64)
                        || self.model.idf_drift_cached() > max_idf_drift)
            }
        };
        due.then(|| self.refit())
    }

    /// The automatic-refit policy (defaults to
    /// [`RefitPolicy::default`]).
    pub fn refit_policy(&self) -> RefitPolicy {
        self.refit_policy
    }

    /// Replaces the automatic-refit policy.
    pub fn set_refit_policy(&mut self, policy: RefitPolicy) {
        self.refit_policy = policy;
    }

    /// The current idf generation (bumped by every refit).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The idf generation `doc`'s stored vector was last computed
    /// under; `None` for unassigned ids.
    pub fn doc_epoch(&self, doc: DocId) -> Option<u64> {
        self.doc_epoch.get(doc).copied()
    }

    /// Inserts + removals since the last refit.
    pub fn mutations_since_refit(&self) -> usize {
        self.mutations_since_refit
    }

    /// How far the published idf weights lag behind the maintained
    /// document frequencies (see [`TfIdfModel::idf_drift`]).
    pub fn idf_drift(&self) -> f64 {
        self.model.idf_drift()
    }

    /// Returns `true` when `doc` names a live (inserted, not removed)
    /// signature.
    pub fn is_live(&self, doc: DocId) -> bool {
        self.piece(doc).shard.is_live(doc)
    }

    /// Number of live signatures.
    pub fn len(&self) -> usize {
        self.pieces.iter().map(|p| p.shard.live_len()).sum()
    }

    /// Number of doc-id slots ever assigned (live + tombstoned).
    pub fn num_slots(&self) -> usize {
        self.corpus.len()
    }

    /// Returns `true` when no live signature is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dimensionality of the signature space.
    pub fn dim(&self) -> usize {
        self.model.dim()
    }

    /// The fitted tf-idf model.
    pub fn model(&self) -> &TfIdfModel {
        &self.model
    }

    /// The stored signature at `doc`, copied out of its piece. Removed
    /// slots keep their last contents — check [`is_live`](Self::is_live)
    /// when iterating a database that saw removals.
    ///
    /// # Panics
    ///
    /// Panics when `doc >= num_slots()`.
    pub fn signature(&self, doc: DocId) -> Signature {
        assert!(doc < self.num_slots(), "doc {doc} was never assigned");
        self.piece(doc).signature(doc)
    }

    /// The label stored at slot `doc`.
    fn label(&self, doc: DocId) -> Option<&str> {
        self.piece(doc).label(doc)
    }

    /// Transforms raw interval counts with the database's tf-idf model
    /// (for querying with fresh, unlabelled intervals).
    pub fn transform(&self, counts: &TermCounts) -> SparseVec {
        self.model.transform(counts)
    }

    /// How the index stores its compacted posting weights (see
    /// [`fmeter_ir::QuantizationMode`]).
    pub fn quantization(&self) -> fmeter_ir::QuantizationMode {
        self.pieces[0].shard.index().quantization()
    }

    /// Switches the index's compacted posting weights between exact
    /// `f64` and 8-bit quantized storage (~4x smaller resident
    /// postings, per-weight error at most half a quantization step —
    /// see [`InvertedIndex::set_quantization`]). The mode survives
    /// vacuums, refits, and v6+ saves; saving as an older format
    /// version downgrades to the dequantized `f64` weights.
    pub fn set_quantization(&mut self, mode: fmeter_ir::QuantizationMode) {
        for piece in &mut self.pieces {
            Arc::make_mut(piece).shard.set_quantization(mode);
        }
    }

    /// Finds the `k` most similar stored signatures to a fresh interval,
    /// as `(doc id, signature, score)` rows, best first.
    ///
    /// Each piece goes through [`Shard::search_with`], which at database
    /// scale dispatches to the block-max WAND early-exit top-k, and the
    /// per-piece lists merge into the global top-k. For a steady query
    /// stream, prefer [`search_with`](Self::search_with) with a
    /// long-lived scratch.
    ///
    /// # Errors
    ///
    /// Propagates dimension mismatches.
    pub fn search(
        &self,
        counts: &TermCounts,
        k: usize,
    ) -> Result<Vec<(DocId, Signature, f64)>, FmeterError> {
        self.search_with(counts, k, &mut SearchScratch::new())
    }

    /// Like [`search`](Self::search) but reuses `scratch` across calls,
    /// so a daemon querying the database continuously performs no
    /// per-query candidate allocations.
    ///
    /// # Errors
    ///
    /// Propagates dimension mismatches.
    pub fn search_with(
        &self,
        counts: &TermCounts,
        k: usize,
        scratch: &mut SearchScratch,
    ) -> Result<Vec<(DocId, Signature, f64)>, FmeterError> {
        let shards = self.pieces.iter().map(|p| p.shard());
        let hits = search_sharded(shards, &self.transform(counts), k, scratch)?;
        Ok(resolve_hits(self.router, &self.pieces, hits))
    }

    /// Classifies a fresh interval by majority label among its `k`
    /// nearest stored signatures. Returns `None` when no labelled
    /// neighbour is found.
    ///
    /// # Errors
    ///
    /// Propagates dimension mismatches.
    pub fn classify(&self, counts: &TermCounts, k: usize) -> Result<Option<String>, FmeterError> {
        let hits = self.search(counts, k)?;
        Ok(vote(hits.iter().map(|(_, sig, _)| sig.label.as_deref())))
    }

    /// The live doc ids in ascending order, with their stored vectors.
    fn live_vectors(&self) -> (Vec<DocId>, Vec<SparseVec>) {
        let live_ids: Vec<DocId> = (0..self.num_slots()).filter(|&d| self.is_live(d)).collect();
        let vectors = live_ids.iter().map(|&d| self.piece(d).vector(d)).collect();
        (live_ids, vectors)
    }

    /// Clusters all signatures into `k` syndromes with seeded K-means.
    ///
    /// # Errors
    ///
    /// Propagates clustering failures (e.g. fewer signatures than `k`).
    pub fn syndromes(&self, k: usize, seed: u64) -> Result<Vec<Syndrome>, FmeterError> {
        let (live_ids, vectors) = self.live_vectors();
        let result = KMeans::new(k).seed(seed).restarts(3).run(&vectors)?;
        Ok(self.syndromes_from(&live_ids, result.centroids, &result.assignments))
    }

    /// Labels a K-means result as syndromes: builds one [`Syndrome`]
    /// per centroid, distributes the live doc ids into member lists,
    /// and votes each cluster's dominant label (ties break towards the
    /// lexically smaller label, deterministically).
    fn syndromes_from(
        &self,
        live_ids: &[usize],
        centroids: Vec<SparseVec>,
        assignments: &[usize],
    ) -> Vec<Syndrome> {
        let mut syndromes: Vec<Syndrome> = centroids
            .into_iter()
            .map(|centroid| Syndrome {
                centroid,
                dominant_label: None,
                members: Vec::new(),
            })
            .collect();
        for (i, &cluster) in assignments.iter().enumerate() {
            syndromes[cluster].members.push(live_ids[i]);
        }
        for syndrome in &mut syndromes {
            syndrome.dominant_label = vote(syndrome.members.iter().map(|&m| self.label(m)));
        }
        syndromes
    }

    /// Incremental syndrome maintenance: like
    /// [`syndromes`](Self::syndromes), but warm-started from the
    /// previous pass so a steady-state call costs O(changed docs) Lloyd
    /// work instead of a full multi-restart K-means.
    ///
    /// The first call (or any call after [`load`](Self::load), which
    /// starts cold) runs exactly what `syndromes(k, seed)` runs and
    /// caches the resulting assignment per doc slot. Subsequent calls
    /// with the *same* `k` and `seed` attach every doc inserted since
    /// to its nearest cached centroid and resume Lloyd iterations from
    /// there ([`KMeans::fit_warm`]): with no churn the pass converges in
    /// one assignment sweep with bit-identical centroids, and with
    /// bounded churn it converges in the few iterations the moved
    /// points need. The cache follows removals and [`vacuum`]
    /// renumbering automatically; changing `k` or `seed` — or churn so
    /// heavy that a cached cluster lost all its members — falls back to
    /// the cold path (observable via [`Recluster::warm`]).
    ///
    /// The cache is derived state: it is not persisted and not written
    /// to the write-ahead log, so a crash simply means the next
    /// `recluster` after recovery is a cold one.
    ///
    /// [`vacuum`]: Self::vacuum
    ///
    /// # Errors
    ///
    /// Propagates clustering failures (e.g. fewer signatures than `k`).
    pub fn recluster(&mut self, k: usize, seed: u64) -> Result<Recluster, FmeterError> {
        let (live_ids, vectors) = self.live_vectors();
        let prev = self.warm_assignment(k, seed, &live_ids, &vectors);
        let (result, warm) = match prev {
            Some(prev) => match KMeans::new(k).seed(seed).fit_warm(&vectors, &prev) {
                Ok(result) => (result, true),
                // Defensive: any warm-start rejection (all guarded
                // against above) degrades to a cold run, never an error.
                Err(_) => (KMeans::new(k).seed(seed).restarts(3).run(&vectors)?, false),
            },
            None => (KMeans::new(k).seed(seed).restarts(3).run(&vectors)?, false),
        };
        let mut assignment = vec![None; self.num_slots()];
        for (i, &d) in live_ids.iter().enumerate() {
            assignment[d] = Some(result.assignments[i]);
        }
        self.cluster_cache = Some(ClusterCache {
            k,
            seed,
            assignment,
            centroids: result.centroids.clone(),
        });
        Ok(Recluster {
            syndromes: self.syndromes_from(&live_ids, result.centroids, &result.assignments),
            warm,
            iterations: result.iterations,
        })
    }

    /// Builds the warm-start assignment for [`recluster`] from the
    /// cache, or `None` when a cold run is required: no cache, `k` or
    /// `seed` changed, too few points, or churn emptied a cached
    /// cluster (a [`KMeans::fit_warm`] precondition).
    fn warm_assignment(
        &self,
        k: usize,
        seed: u64,
        live_ids: &[usize],
        vectors: &[SparseVec],
    ) -> Option<Vec<usize>> {
        let cache = self.cluster_cache.as_ref()?;
        if cache.k != k || cache.seed != seed || k == 0 || vectors.len() < k {
            return None;
        }
        let mut prev = Vec::with_capacity(live_ids.len());
        for (i, &d) in live_ids.iter().enumerate() {
            match cache.assignment.get(d).copied().flatten() {
                Some(a) if a < k => prev.push(a),
                Some(_) => return None,
                // Inserted since the last pass: attach to the nearest
                // cached centroid (same metric K-means assigns with).
                None => {
                    let mut best: Option<(usize, f64)> = None;
                    for (c, centroid) in cache.centroids.iter().enumerate() {
                        let d2 = fmeter_ir::euclidean_distance_sq(&vectors[i], centroid)
                            .expect("cached centroids share the database dimension");
                        if best.is_none_or(|(_, bd)| d2 < bd) {
                            best = Some((c, d2));
                        }
                    }
                    prev.push(best?.0);
                }
            }
        }
        let mut counts = vec![0usize; k];
        for &a in &prev {
            counts[a] += 1;
        }
        counts.iter().all(|&c| c > 0).then_some(prev)
    }

    /// Meta-clustering (paper §2.2, §6): clusters syndrome *centroids*
    /// hierarchically to discover which entire behaviour classes are
    /// similar in how they use the kernel. Returns per-syndrome group
    /// assignments for `groups` groups.
    ///
    /// # Errors
    ///
    /// Propagates clustering failures.
    pub fn meta_cluster(syndromes: &[Syndrome], groups: usize) -> Result<Vec<usize>, FmeterError> {
        let centroids: Vec<SparseVec> = syndromes.iter().map(|s| s.centroid.clone()).collect();
        let tree = fmeter_ml::Agglomerative::new(Linkage::Average).fit(&centroids)?;
        Ok(tree.cut(groups))
    }

    /// The `k` most discriminative functions of a syndrome: the terms
    /// whose centroid weight most exceeds the corpus-wide mean weight.
    ///
    /// This is what an operator reads when labelling a syndrome — "this
    /// cluster is the one hammering the journal commit path". Returns
    /// `(term id, centroid weight, lift over corpus mean)` sorted by
    /// lift; map term ids to names with the kernel's symbol table or a
    /// parsed [`SymbolMap`](crate::SymbolMap).
    pub fn explain_syndrome(&self, syndrome: &Syndrome, k: usize) -> Vec<(u32, f64, f64)> {
        // Corpus mean weight per term (live signatures only).
        let mut mean = vec![0.0f64; self.dim()];
        for d in (0..self.num_slots()).filter(|&d| self.is_live(d)) {
            let piece = self.piece(d);
            let (terms, weights) = piece.shard.vectors().row(piece.local(d));
            for (&t, &w) in terms.iter().zip(weights) {
                mean[t as usize] += w;
            }
        }
        let n = self.len().max(1) as f64;
        for m in &mut mean {
            *m /= n;
        }
        let mut ranked: Vec<(u32, f64, f64)> = syndrome
            .centroid
            .iter()
            .map(|(t, w)| (t, w, w - mean[t as usize]))
            .collect();
        ranked.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(&b.0)));
        ranked.truncate(k);
        ranked
    }

    /// Serialises the database in the current on-disk format: a tagged
    /// envelope (magic, format version, section table) whose layout is
    /// specified and version-tabled in the [`persist`](crate::persist)
    /// module. Older formats load via [`load`](Self::load)'s migration
    /// chain; to *write* an older format (e.g. for a fleet that has not
    /// upgraded yet), use
    /// [`save_as_version`](Self::save_as_version).
    ///
    /// # Errors
    ///
    /// Propagates I/O and serialisation failures.
    pub fn save<W: Write>(&self, writer: W) -> Result<(), FmeterError> {
        crate::persist::save(self, crate::persist::CURRENT_FORMAT_VERSION, writer)
    }

    /// Serialises the database as a specific historical format version
    /// (`0` = the pre-envelope bare JSON). Downgrading is lossy where
    /// the older format has no room for newer state: a v1 (or v0) save
    /// drops the vacuum policy and counter, which load back as their
    /// defaults. Primarily for fixture generation and mixed-version
    /// fleets.
    ///
    /// # Errors
    ///
    /// Returns [`FmeterError::UnsupportedFormat`] for unknown versions
    /// and propagates I/O and serialisation failures.
    pub fn save_as_version<W: Write>(&self, version: u32, writer: W) -> Result<(), FmeterError> {
        crate::persist::save(self, version, writer)
    }

    /// Loads a database previously written by [`save`](Self::save) —
    /// by *any* release: the reader detects the format version (the
    /// pre-envelope bare JSON counts as version 0) and migrates the
    /// payload forward through every version table entry up to the
    /// current one. A database saved by version N−1 code therefore
    /// loads on version N with search/classify behaviour identical to
    /// the state it was saved in.
    ///
    /// # Errors
    ///
    /// Propagates I/O and deserialisation failures; returns
    /// [`FmeterError::UnsupportedFormat`] when the file was written by
    /// a *newer* format than this build understands.
    pub fn load<R: Read>(reader: R) -> Result<Self, FmeterError> {
        crate::persist::load(reader)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmeter_kernel_sim::Nanos;

    /// Two synthetic behaviour classes over an 8-function space.
    fn sample_raw() -> Vec<RawSignature> {
        let mut raw = Vec::new();
        for i in 0..6u64 {
            // Class A: functions 0-3 hot.
            raw.push(RawSignature {
                counts: vec![50 + i, 40, 30, 20, 0, 1, 0, 0],
                started_at: Nanos(i * 100),
                ended_at: Nanos((i + 1) * 100),
                label: Some("a".into()),
            });
            // Class B: functions 4-7 hot.
            raw.push(RawSignature {
                counts: vec![0, 1, 0, 0, 60, 50 + i, 40, 30],
                started_at: Nanos(i * 100),
                ended_at: Nanos((i + 1) * 100),
                label: Some("b".into()),
            });
        }
        raw
    }

    #[test]
    fn build_indexes_everything() {
        let db = SignatureDb::build(&sample_raw()).unwrap();
        assert_eq!(db.len(), 12);
        assert_eq!(db.dim(), 8);
        assert!(!db.is_empty());
        assert_eq!(db.num_slots(), 12);
    }

    #[test]
    fn empty_input_rejected() {
        assert!(matches!(
            SignatureDb::build(&[]),
            Err(FmeterError::NoSignatures)
        ));
    }

    #[test]
    fn quantization_survives_save_load_and_vacuum() {
        let mut db = SignatureDb::build(&sample_raw()).unwrap();
        db.set_quantization(fmeter_ir::QuantizationMode::Int8);
        assert_eq!(db.quantization(), fmeter_ir::QuantizationMode::Int8);
        // Vacuums rewrite the flat postings; the mode must persist.
        db.remove(0).unwrap();
        db.vacuum();
        assert_eq!(db.quantization(), fmeter_ir::QuantizationMode::Int8);
        // And so must a current-version save/load round trip.
        let mut bytes = Vec::new();
        db.save(&mut bytes).unwrap();
        let back = SignatureDb::load(&bytes[..]).unwrap();
        assert_eq!(back.quantization(), fmeter_ir::QuantizationMode::Int8);
        let probe = TermCounts::from_dense(&[48, 41, 29, 22, 0, 0, 0, 0]);
        let a = db.search(&probe, 3).unwrap();
        let b = back.search(&probe, 3).unwrap();
        assert_eq!(a.len(), b.len());
        for ((_, s1, sc1), (_, s2, sc2)) in a.iter().zip(&b) {
            assert_eq!(s1.label, s2.label);
            assert_eq!(sc1.to_bits(), sc2.to_bits());
        }
    }

    #[test]
    fn search_finds_same_class() {
        let db = SignatureDb::build(&sample_raw()).unwrap();
        let query = TermCounts::from_dense(&[45, 38, 28, 22, 0, 0, 0, 0]);
        let hits = db.search(&query, 3).unwrap();
        assert_eq!(hits.len(), 3);
        for (_, sig, score) in &hits {
            assert_eq!(sig.label.as_deref(), Some("a"));
            assert!(*score > 0.5);
        }
    }

    #[test]
    fn search_with_scratch_reuse_matches_search() {
        let db = SignatureDb::build(&sample_raw()).unwrap();
        let mut scratch = SearchScratch::new();
        for dense in [
            [45u64, 38, 28, 22, 0, 0, 0, 0],
            [0, 0, 0, 0, 55, 48, 41, 33],
        ] {
            let query = TermCounts::from_dense(&dense);
            let fresh = db.search(&query, 4).unwrap();
            let reused = db.search_with(&query, 4, &mut scratch).unwrap();
            assert_eq!(fresh.len(), reused.len());
            for ((_, s1, d1), (_, s2, d2)) in fresh.iter().zip(&reused) {
                assert_eq!(s1.label, s2.label);
                assert_eq!(d1, d2);
            }
        }
    }

    #[test]
    fn classify_votes_by_neighbours() {
        let db = SignatureDb::build(&sample_raw()).unwrap();
        let a_query = TermCounts::from_dense(&[45, 38, 28, 22, 0, 0, 0, 0]);
        assert_eq!(db.classify(&a_query, 5).unwrap().as_deref(), Some("a"));
        let b_query = TermCounts::from_dense(&[0, 0, 0, 0, 55, 48, 41, 33]);
        assert_eq!(db.classify(&b_query, 5).unwrap().as_deref(), Some("b"));
    }

    #[test]
    fn syndromes_recover_classes() {
        let db = SignatureDb::build(&sample_raw()).unwrap();
        let syndromes = db.syndromes(2, 7).unwrap();
        assert_eq!(syndromes.len(), 2);
        let labels: Vec<_> = syndromes
            .iter()
            .map(|s| s.dominant_label.clone().unwrap())
            .collect();
        assert!(labels.contains(&"a".to_string()));
        assert!(labels.contains(&"b".to_string()));
        // Each syndrome has 6 members, all of its class.
        for s in &syndromes {
            assert_eq!(s.members.len(), 6);
        }
    }

    #[test]
    fn recluster_first_call_is_cold_and_matches_syndromes() {
        let mut db = SignatureDb::build(&sample_raw()).unwrap();
        let cold = db.syndromes(2, 7).unwrap();
        let pass = db.recluster(2, 7).unwrap();
        assert!(!pass.warm, "no cache yet: the first pass must run cold");
        assert_eq!(pass.syndromes, cold);
    }

    #[test]
    fn recluster_steady_state_warm_starts_bit_identically() {
        let mut db = SignatureDb::build(&sample_raw()).unwrap();
        let first = db.recluster(2, 7).unwrap();
        let second = db.recluster(2, 7).unwrap();
        assert!(second.warm, "unchanged corpus must take the warm path");
        assert_eq!(
            second.iterations, 1,
            "a converged assignment is a Lloyd fixpoint"
        );
        assert_eq!(second.syndromes, first.syndromes);
    }

    #[test]
    fn recluster_cache_invalidates_on_config_change() {
        let mut db = SignatureDb::build(&sample_raw()).unwrap();
        db.recluster(2, 7).unwrap();
        // Different k and different seed each force a cold pass…
        assert!(!db.recluster(3, 7).unwrap().warm);
        assert!(!db.recluster(3, 8).unwrap().warm);
        // …and each cold pass re-primes the cache for its own config.
        assert!(db.recluster(3, 8).unwrap().warm);
    }

    #[test]
    fn recluster_follows_churn_and_vacuum() {
        let mut db = SignatureDb::build(&sample_raw()).unwrap();
        db.recluster(2, 7).unwrap();
        // Churn: remove one doc of each class, insert a fresh class-A
        // signature. The cache survives (inserted doc attaches to its
        // nearest cached centroid) and the pass stays warm.
        db.remove(0).unwrap();
        db.remove(1).unwrap();
        db.insert(&RawSignature {
            counts: vec![52, 41, 29, 21, 0, 1, 0, 0],
            started_at: Nanos(0),
            ended_at: Nanos(1),
            label: Some("a".into()),
        })
        .unwrap();
        let churned = db.recluster(2, 7).unwrap();
        assert!(churned.warm, "bounded churn should keep the warm path");
        let labels: Vec<_> = churned
            .syndromes
            .iter()
            .map(|s| s.dominant_label.clone().unwrap())
            .collect();
        assert!(labels.contains(&"a".to_string()) && labels.contains(&"b".to_string()));
        // Vacuum renumbers doc ids; the cached assignment must follow.
        db.vacuum();
        let after_vacuum = db.recluster(2, 7).unwrap();
        assert!(after_vacuum.warm, "vacuum renumbering must not go cold");
        for s in &after_vacuum.syndromes {
            for &m in &s.members {
                assert!(db.is_live(m), "member ids must be post-vacuum ids");
            }
        }
        // And the result agrees with a from-scratch clustering of the
        // compacted corpus.
        let cold = db.syndromes(2, 7).unwrap();
        let warm_members: Vec<_> = after_vacuum
            .syndromes
            .iter()
            .map(|s| {
                let mut m = s.members.clone();
                m.sort_unstable();
                m
            })
            .collect();
        for s in &cold {
            let mut m = s.members.clone();
            m.sort_unstable();
            assert!(warm_members.contains(&m), "partition diverged: {m:?}");
        }
    }

    #[test]
    fn recluster_cache_is_not_persisted() {
        let mut db = SignatureDb::build(&sample_raw()).unwrap();
        db.recluster(2, 7).unwrap();
        let mut bytes = Vec::new();
        db.save(&mut bytes).unwrap();
        let mut back = SignatureDb::load(&bytes[..]).unwrap();
        let pass = back.recluster(2, 7).unwrap();
        assert!(!pass.warm, "a loaded database must recluster cold once");
        assert!(back.recluster(2, 7).unwrap().warm);
    }

    #[test]
    fn meta_clustering_groups_similar_syndromes() {
        let db = SignatureDb::build(&sample_raw()).unwrap();
        // Over-cluster into 4, then meta-cluster back into 2 groups.
        let syndromes = db.syndromes(4, 3).unwrap();
        let groups = SignatureDb::meta_cluster(&syndromes, 2).unwrap();
        assert_eq!(groups.len(), 4);
        // Syndromes with the same dominant label should land together.
        for (i, a) in syndromes.iter().enumerate() {
            for (j, b) in syndromes.iter().enumerate() {
                if a.dominant_label == b.dominant_label {
                    assert_eq!(groups[i], groups[j]);
                }
            }
        }
    }

    #[test]
    fn explain_surfaces_class_specific_terms() {
        let db = SignatureDb::build(&sample_raw()).unwrap();
        let syndromes = db.syndromes(2, 7).unwrap();
        for syndrome in &syndromes {
            let explanation = db.explain_syndrome(syndrome, 3);
            assert!(!explanation.is_empty());
            // Lifts are sorted descending and positive at the head.
            assert!(explanation[0].2 > 0.0);
            for pair in explanation.windows(2) {
                assert!(pair[0].2 >= pair[1].2);
            }
            // Class "a" lives on terms 0-3, class "b" on 4-7: the top
            // discriminative term must come from the right band.
            let top_term = explanation[0].0;
            match syndrome.dominant_label.as_deref() {
                Some("a") => assert!(top_term <= 3, "a-syndrome explained by {top_term}"),
                Some("b") => assert!(top_term >= 4, "b-syndrome explained by {top_term}"),
                other => panic!("unexpected label {other:?}"),
            }
        }
    }

    #[test]
    fn save_load_round_trip() {
        let db = SignatureDb::build(&sample_raw()).unwrap();
        let mut buffer = Vec::new();
        db.save(&mut buffer).unwrap();
        let restored = SignatureDb::load(&buffer[..]).unwrap();
        assert_eq!(restored.len(), db.len());
        let query = TermCounts::from_dense(&[45, 38, 28, 22, 0, 0, 0, 0]);
        assert_eq!(
            restored.classify(&query, 3).unwrap(),
            db.classify(&query, 3).unwrap()
        );
    }

    /// A raw class-A-shaped signature with a distinguishing count.
    fn raw_a(i: u64, label: Option<&str>) -> RawSignature {
        RawSignature {
            counts: vec![50 + i, 40, 30, 20, 0, 1, 0, 0],
            started_at: Nanos(i * 100),
            ended_at: Nanos((i + 1) * 100),
            label: label.map(str::to_owned),
        }
    }

    /// Compares every live incremental signature and search result with a
    /// from-scratch build over the surviving raw corpus.
    fn assert_matches_rebuild(db: &SignatureDb, surviving: &[RawSignature]) {
        let fresh = SignatureDb::build(surviving).unwrap();
        assert_eq!(db.len(), fresh.len());
        let live: Vec<usize> = (0..db.num_slots()).filter(|&d| db.is_live(d)).collect();
        for (&d, f) in live
            .iter()
            .zip((0..fresh.num_slots()).map(|d| fresh.signature(d)))
        {
            assert_eq!(
                db.signature(d).vector,
                f.vector,
                "doc {d} vector drifted from rebuild"
            );
        }
        for probe in surviving.iter().take(4) {
            let q = probe.to_term_counts();
            let a = db.search(&q, 5).unwrap();
            let b = fresh.search(&q, 5).unwrap();
            assert_eq!(a.len(), b.len());
            for ((_, s1, d1), (_, s2, d2)) in a.iter().zip(&b) {
                assert_eq!(s1.label, s2.label);
                assert!((d1 - d2).abs() < 1e-9, "{d1} vs {d2}");
            }
            assert_eq!(db.classify(&q, 3).unwrap(), fresh.classify(&q, 3).unwrap());
        }
    }

    #[test]
    fn insert_then_refit_matches_rebuild() {
        let mut raw = sample_raw();
        let mut db = SignatureDb::build(&raw).unwrap();
        db.set_refit_policy(RefitPolicy::Manual);
        for i in 20..26u64 {
            let r = raw_a(i, Some("a"));
            let id = db.insert(&r).unwrap();
            assert_eq!(id, raw.len());
            raw.push(r);
        }
        assert_eq!(db.len(), 18);
        assert!(db.idf_drift() > 0.0 || db.mutations_since_refit() > 0);
        let stats = db.refit();
        assert_eq!(stats.epoch, 1);
        assert_eq!(db.epoch(), 1);
        assert_eq!(db.mutations_since_refit(), 0);
        assert_matches_rebuild(&db, &raw);
    }

    #[test]
    fn insert_batch_matches_sequential_inserts() {
        let raw = sample_raw();
        let mut a = SignatureDb::build(&raw).unwrap();
        let mut b = SignatureDb::build(&raw).unwrap();
        a.set_refit_policy(RefitPolicy::Manual);
        b.set_refit_policy(RefitPolicy::Manual);
        let extra: Vec<RawSignature> = (30..34).map(|i| raw_a(i, Some("a"))).collect();
        let batch_ids = a.insert_batch(&extra).unwrap();
        let single_ids: Vec<usize> = extra.iter().map(|r| b.insert(r).unwrap()).collect();
        assert_eq!(batch_ids, single_ids);
        for d in 0..a.num_slots() {
            assert_eq!(a.signature(d).vector, b.signature(d).vector);
        }
    }

    #[test]
    fn remove_hides_signature_and_updates_df() {
        let raw = sample_raw();
        let mut db = SignatureDb::build(&raw).unwrap();
        db.set_refit_policy(RefitPolicy::Manual);
        // Remove all six "b" signatures (odd doc ids).
        for d in (1..12).step_by(2) {
            db.remove(d).unwrap();
        }
        assert_eq!(db.len(), 6);
        assert_eq!(db.num_slots(), 12);
        assert!(!db.is_live(1));
        assert!(db.is_live(0));
        let b_query = TermCounts::from_dense(&[0, 0, 0, 0, 55, 48, 41, 33]);
        // No live "b" signature remains to vote.
        for (_, sig, _) in db.search(&b_query, 5).unwrap() {
            assert_eq!(sig.label.as_deref(), Some("a"));
        }
        db.refit();
        let surviving: Vec<RawSignature> = raw.iter().step_by(2).cloned().collect();
        assert_matches_rebuild(&db, &surviving);
        // Double removal and unknown ids are rejected.
        assert!(db.remove(1).is_err());
        assert!(db.remove(99).is_err());
    }

    #[test]
    fn threshold_policy_triggers_refit_automatically() {
        let mut db = SignatureDb::build(&sample_raw()).unwrap();
        db.set_refit_policy(RefitPolicy::Threshold {
            max_idf_drift: 0.05,
            max_stale_fraction: 0.25,
        });
        assert_eq!(db.epoch(), 0);
        // 12 docs: the fourth mutation crosses 25% staleness at the
        // latest; drift likely crosses sooner.
        for i in 0..4u64 {
            db.insert(&raw_a(40 + i, Some("a"))).unwrap();
        }
        assert!(db.epoch() >= 1, "threshold policy never fired");
        assert!(db.mutations_since_refit() < 4);
    }

    #[test]
    fn every_n_policy_counts_mutations() {
        let mut db = SignatureDb::build(&sample_raw()).unwrap();
        db.set_refit_policy(RefitPolicy::EveryN(3));
        for i in 0..2u64 {
            db.insert(&raw_a(50 + i, Some("a"))).unwrap();
        }
        assert_eq!(db.epoch(), 0);
        db.remove(0).unwrap(); // third mutation
        assert_eq!(db.epoch(), 1);
        assert_eq!(db.mutations_since_refit(), 0);
    }

    #[test]
    fn refit_without_mutations_changes_nothing() {
        let mut db = SignatureDb::build(&sample_raw()).unwrap();
        let before: Vec<SparseVec> = (0..db.num_slots())
            .map(|d| db.signature(d).vector)
            .collect();
        let stats = db.refit();
        assert_eq!(stats.changed_terms, 0);
        assert_eq!(stats.reweighted_docs, 0);
        assert_eq!(stats.max_idf_drift, 0.0);
        assert_eq!(db.epoch(), 1);
        for (d, b) in before.iter().enumerate() {
            assert_eq!(&db.signature(d).vector, b);
        }
    }

    #[test]
    fn save_load_round_trips_epoch_state() {
        let mut db = SignatureDb::build(&sample_raw()).unwrap();
        db.set_refit_policy(RefitPolicy::EveryN(100));
        db.insert(&raw_a(60, Some("a"))).unwrap();
        db.refit();
        db.insert(&raw_a(61, Some("a"))).unwrap();
        db.remove(1).unwrap();
        let mut buffer = Vec::new();
        db.save(&mut buffer).unwrap();
        let mut restored = SignatureDb::load(&buffer[..]).unwrap();
        assert_eq!(restored.epoch(), db.epoch());
        assert_eq!(restored.len(), db.len());
        assert_eq!(restored.num_slots(), db.num_slots());
        assert_eq!(restored.refit_policy(), db.refit_policy());
        assert_eq!(restored.mutations_since_refit(), db.mutations_since_refit());
        for d in 0..db.num_slots() {
            assert_eq!(restored.is_live(d), db.is_live(d));
            assert_eq!(restored.doc_epoch(d), db.doc_epoch(d));
        }
        assert!((restored.idf_drift() - db.idf_drift()).abs() < 1e-15);
        // The restored database keeps mutating identically.
        let r = raw_a(62, Some("a"));
        assert_eq!(restored.insert(&r).unwrap(), db.insert(&r).unwrap());
        assert_eq!(restored.refit(), db.refit());
    }

    #[test]
    fn vacuum_renumbers_and_matches_rebuild() {
        let raw = sample_raw();
        let mut db = SignatureDb::build(&raw).unwrap();
        db.set_refit_policy(RefitPolicy::Manual);
        // Remove all six "b" signatures (odd doc ids), leaving holes.
        for d in (1..12).step_by(2) {
            db.remove(d).unwrap();
        }
        assert_eq!(db.num_slots(), 12);
        assert!((db.dead_fraction() - 0.5).abs() < 1e-12);
        let epoch_before = db.epoch();
        let stats = db.vacuum();
        assert_eq!(stats.dropped_slots, 6);
        assert_eq!(stats.live_docs, 6);
        assert_eq!(db.num_slots(), 6, "dead slots reclaimed");
        assert_eq!(db.len(), 6);
        assert_eq!(db.dead_fraction(), 0.0);
        assert_eq!(db.vacuums(), 1);
        assert_eq!(
            db.epoch(),
            epoch_before,
            "vacuum does not advance the epoch"
        );
        assert_eq!(db.last_vacuum(), Some(&stats));
        // The remap sends live slot 2k to k and dead slots to None.
        for d in 0..12 {
            if d % 2 == 0 {
                assert_eq!(stats.remap[d], Some(d / 2));
            } else {
                assert_eq!(stats.remap[d], None);
            }
        }
        // Renumbered ids are live and freshly dense.
        for d in 0..6 {
            assert!(db.is_live(d));
        }
        // After a refit (the stored vectors still carry the pre-removal
        // idf generation) the compacted database behaves exactly like a
        // fresh build over the survivors.
        db.refit();
        let surviving: Vec<RawSignature> = raw.iter().step_by(2).cloned().collect();
        assert_matches_rebuild(&db, &surviving);
        let syndromes = db.syndromes(1, 7).unwrap();
        assert_eq!(syndromes[0].members.len(), 6);
        // Ids keep extending densely after the vacuum.
        let id = db.insert(&raw_a(70, Some("a"))).unwrap();
        assert_eq!(id, 6);
    }

    #[test]
    fn vacuum_after_refit_churn_matches_rebuild() {
        // Vacuum on a database whose epochs are mid-drift: insert, refit,
        // insert more (stale docs at mixed epochs), remove some, vacuum.
        let mut raw = sample_raw();
        let mut db = SignatureDb::build(&raw).unwrap();
        db.set_refit_policy(RefitPolicy::Manual);
        for i in 20..24u64 {
            let r = raw_a(i, Some("a"));
            db.insert(&r).unwrap();
            raw.push(r);
        }
        db.refit();
        for i in 24..28u64 {
            let r = raw_a(i, Some("a"));
            db.insert(&r).unwrap();
            raw.push(r);
        }
        for d in [0usize, 5, 13, 17] {
            db.remove(d).unwrap();
        }
        let stats = db.vacuum();
        assert_eq!(stats.dropped_slots, 4);
        // Per-doc epochs carry over through the renumbering.
        assert!(db.num_slots() == db.len());
        let surviving: Vec<RawSignature> = (0..raw.len())
            .filter(|d| ![0usize, 5, 13, 17].contains(d))
            .map(|d| raw[d].clone())
            .collect();
        db.refit();
        assert_matches_rebuild(&db, &surviving);
    }

    #[test]
    fn vacuum_policy_triggers_on_dead_fraction() {
        let mut db = SignatureDb::build(&sample_raw()).unwrap();
        db.set_refit_policy(RefitPolicy::Manual);
        db.set_vacuum_policy(VacuumPolicy::DeadFraction {
            max_dead_fraction: 0.25,
            min_dead: 3,
        });
        assert_eq!(db.vacuum_policy(), db.vacuum_policy());
        db.remove(1).unwrap();
        db.remove(3).unwrap();
        // 2 dead of 12 slots: under both bounds, nothing happens.
        assert_eq!(db.num_slots(), 12);
        assert!(db.last_vacuum().is_none());
        // Third removal crosses min_dead and the 25% fraction.
        db.remove(5).unwrap();
        assert_eq!(db.vacuums(), 1);
        assert_eq!(db.num_slots(), 9, "auto-vacuum compacted the slots");
        let stats = db.last_vacuum().expect("auto-vacuum records its remap");
        assert_eq!(stats.dropped_slots, 3);
        assert_eq!(stats.remap.len(), 12);
        assert_eq!(stats.remap[1], None);
        assert_eq!(stats.remap[2], Some(1));
    }

    #[test]
    fn vacuum_on_clean_database_is_identity() {
        let mut db = SignatureDb::build(&sample_raw()).unwrap();
        let before: Vec<SparseVec> = (0..db.num_slots())
            .map(|d| db.signature(d).vector)
            .collect();
        let stats = db.vacuum();
        assert_eq!(stats.dropped_slots, 0);
        assert_eq!(stats.live_docs, 12);
        assert!(stats.remap.iter().enumerate().all(|(d, m)| *m == Some(d)));
        for (d, b) in before.iter().enumerate() {
            assert_eq!(&db.signature(d).vector, b);
        }
        let query = TermCounts::from_dense(&[45, 38, 28, 22, 0, 0, 0, 0]);
        assert_eq!(db.classify(&query, 3).unwrap().as_deref(), Some("a"));
    }

    #[test]
    fn save_load_round_trips_vacuum_state() {
        let mut db = SignatureDb::build(&sample_raw()).unwrap();
        db.set_refit_policy(RefitPolicy::Manual);
        db.set_vacuum_policy(VacuumPolicy::DeadFraction {
            max_dead_fraction: 0.9,
            min_dead: 100,
        });
        db.remove(2).unwrap();
        db.vacuum();
        let mut buffer = Vec::new();
        db.save(&mut buffer).unwrap();
        let restored = SignatureDb::load(&buffer[..]).unwrap();
        assert_eq!(restored.vacuum_policy(), db.vacuum_policy());
        assert_eq!(restored.vacuums(), 1);
        assert_eq!(restored.num_slots(), db.num_slots());
        assert!(
            restored.last_vacuum().is_none(),
            "the remap is process-local state"
        );
    }

    #[test]
    fn syndromes_ignore_removed_signatures() {
        let mut db = SignatureDb::build(&sample_raw()).unwrap();
        db.set_refit_policy(RefitPolicy::Manual);
        for d in (1..12).step_by(2) {
            db.remove(d).unwrap();
        }
        db.refit();
        let syndromes = db.syndromes(1, 7).unwrap();
        assert_eq!(syndromes[0].members.len(), 6);
        assert!(syndromes[0].members.iter().all(|&m| db.is_live(m)));
        assert_eq!(syndromes[0].dominant_label.as_deref(), Some("a"));
    }
}
