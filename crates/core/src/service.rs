//! Concurrently-readable signature serving: a single-writer
//! [`ShardWriter`] over a sharded [`SignatureDb`], immutable
//! [`ShardSnapshot`] generations published by atomic swap, and the
//! [`SignatureService`] facade that fans queries across the shards on a
//! persistent worker pool.
//!
//! The concurrency model (see `docs/ARCHITECTURE.md` for the narrative):
//!
//! * **One writer.** All mutations — insert, remove, refit, vacuum —
//!   funnel through the `ShardWriter` behind a mutex. Its
//!   [`SignatureDb`] stores the signatures as the shard pieces
//!   themselves (one [`ShardPiece`] per router slot), so there is no
//!   mirror to keep in lockstep.
//! * **Immutable snapshots.** After every mutation the writer publishes
//!   a new [`ShardSnapshot`] — an [`Arc`]'d, never-mutated view holding
//!   the tf-idf model and `Arc` clones of the database's pieces. The
//!   first mutation after a publish that touches a piece copies it
//!   ([`Arc::make_mut`]); untouched pieces stay shared.
//! * **Non-blocking reads.** A search clones the current snapshot `Arc`
//!   under a momentary read lock (no allocation, no wait on the writer)
//!   and then runs entirely against that immutable generation: a
//!   concurrent refit or vacuum builds the *next* generation elsewhere
//!   and can never stall or tear an in-flight query.
//!
//! Sharded results are **bit-identical** to a one-shard database's: a
//! document's cosine score depends only on its own postings and the
//! query, every member of the global top-k is in its own shard's top-k,
//! and [`merge_topk`] re-ranks with exactly the flat comparator (see
//! `fmeter_ir::shard`).
//!
//! The service can additionally run in **durable mode**
//! ([`SignatureService::from_db_durable`] /
//! [`SignatureService::recover_durable`]): the writer validates every
//! mutation, then appends it to a [`DurableLog`] *before* applying it,
//! and checkpoints on the log's policy, so a crash at any point loses at
//! most the unsynced WAL tail (see the [`wal`](crate::wal) module and
//! `docs/PERSISTENCE.md`). A failing WAL degrades the log's
//! [`WalHealth`] rather than poisoning the writer — mutations and
//! queries keep working in memory while the log backs off and retries.

use std::io::{Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

use fmeter_ir::{
    merge_topk, search_sharded, DocId, IrError, SearchHit, SearchScratch, ShardRouter, SparseVec,
    TermCounts, TfIdfModel,
};
use parking_lot::{Mutex, RwLock};

use crate::db::resolve_hits;
use crate::wal::{DurableLog, DurableOptions, RecoveryReport, WalHealth, WalOp};
use crate::{
    persist, FmeterError, RawSignature, Recluster, RefitPolicy, RefitStats, ShardPiece, Signature,
    SignatureDb, VacuumPolicy, VacuumStats,
};

/// One immutable, published generation of the sharded store.
///
/// A snapshot is never mutated after publication: readers score against
/// it for as long as they hold the [`Arc`], no matter how many
/// generations the writer publishes meanwhile. Equal-generation reads
/// are deterministic — searching the same snapshot twice returns
/// bit-identical results.
#[derive(Debug, Clone)]
pub struct ShardSnapshot {
    generation: u64,
    epoch: u64,
    model: TfIdfModel,
    router: ShardRouter,
    pieces: Vec<Arc<ShardPiece>>,
}

impl ShardSnapshot {
    /// The publication sequence number (monotone across the service's
    /// lifetime; one publish per mutation).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The idf generation this snapshot's weights were computed under.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of live signatures in this generation.
    pub fn len(&self) -> usize {
        self.pieces.iter().map(|p| p.shard().live_len()).sum()
    }

    /// Returns `true` when the generation holds no live signature.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of doc-id slots (live + tombstoned).
    pub fn num_slots(&self) -> usize {
        self.pieces.iter().map(|p| p.shard().len()).sum()
    }

    /// Number of shards in the layout.
    pub fn num_shards(&self) -> usize {
        self.router.num_shards()
    }

    /// Dimensionality of the signature space.
    pub fn dim(&self) -> usize {
        self.model.dim()
    }

    /// The doc→shard router of this layout.
    pub fn router(&self) -> ShardRouter {
        self.router
    }

    /// The tf-idf model of this generation.
    pub fn model(&self) -> &TfIdfModel {
        &self.model
    }

    /// The per-shard pieces of this generation.
    pub fn pieces(&self) -> &[Arc<ShardPiece>] {
        &self.pieces
    }

    /// Returns `true` when `doc` is live in this generation.
    pub fn is_live(&self, doc: DocId) -> bool {
        self.pieces[self.router.shard_of(doc)].shard().is_live(doc)
    }

    /// The stored signature at `doc`, if the slot exists (tombstoned
    /// slots keep their last contents — check [`is_live`](Self::is_live)).
    pub fn signature(&self, doc: DocId) -> Option<Signature> {
        (doc < self.num_slots()).then(|| self.pieces[self.router.shard_of(doc)].signature(doc))
    }

    /// Transforms raw interval counts with this generation's model.
    pub fn transform(&self, counts: &TermCounts) -> SparseVec {
        self.model.transform(counts)
    }

    /// Sequential in-thread search over this generation — the reference
    /// the pooled fan-out (and the stress test's serial replay) is
    /// compared against. Results are `(doc id, signature, score)`.
    ///
    /// # Errors
    ///
    /// Propagates dimension mismatches.
    pub fn search(
        &self,
        counts: &TermCounts,
        k: usize,
        scratch: &mut SearchScratch,
    ) -> Result<Vec<(DocId, Signature, f64)>, FmeterError> {
        let shards = self.pieces.iter().map(|p| p.shard());
        let hits = search_sharded(shards, &self.transform(counts), k, scratch)?;
        Ok(resolve_hits(self.router, &self.pieces, hits))
    }
}

/// The single-writer mutation path of the sharded store: a
/// [`SignatureDb`] plus, in durable mode, the [`DurableLog`] its
/// mutations are validated, then written ahead to — a refused mutation
/// leaves no trace in the log.
///
/// Readers search the database's own pieces, so a consistent
/// [`ShardSnapshot`] is published with nothing but `Arc` clones. All
/// the database's semantics — policies, epochs, doc-id stability,
/// remaps — carry over unchanged.
#[derive(Debug)]
pub struct ShardWriter {
    db: SignatureDb,
    /// Crash-consistency engine, when the writer runs in durable mode:
    /// mutations append here *before* they apply.
    durable: Option<DurableLog>,
}

impl ShardWriter {
    /// Wraps `db`, re-routed into `num_shards` pieces (clamped to at
    /// least 1).
    pub fn new(mut db: SignatureDb, num_shards: usize) -> Self {
        db.reshard(num_shards);
        ShardWriter { db, durable: None }
    }

    /// Like [`new`](Self::new), in **durable mode**: a fresh
    /// crash-consistency directory is initialised at `dir`. Recover a
    /// crashed instance with [`recover`](Self::recover).
    ///
    /// # Errors
    ///
    /// Fails when `dir` already holds a durable database, and
    /// propagates I/O failures writing the initial checkpoint.
    pub fn create(
        dir: &Path,
        db: SignatureDb,
        num_shards: usize,
        opts: DurableOptions,
    ) -> Result<Self, FmeterError> {
        let mut writer = Self::new(db, num_shards);
        writer.durable = Some(DurableLog::create(dir, &writer.db, opts)?);
        Ok(writer)
    }

    /// Recovers the durably-acked state from `dir` in its saved shard
    /// layout, continuing in durable mode (see [`DurableLog::recover`]).
    ///
    /// # Errors
    ///
    /// Fails when `dir` holds no loadable checkpoint generation.
    pub fn recover(
        dir: &Path,
        opts: DurableOptions,
    ) -> Result<(Self, RecoveryReport), FmeterError> {
        let (db, log, report) = DurableLog::recover(dir, opts)?;
        let durable = Some(log);
        Ok((ShardWriter { db, durable }, report))
    }

    /// The durability engine, when running in durable mode.
    pub fn durable_log(&self) -> Option<&DurableLog> {
        self.durable.as_ref()
    }

    /// Mutable access to the durability engine (sync and
    /// fault-injection hooks; the log cannot corrupt the database).
    pub fn durable_log_mut(&mut self) -> Option<&mut DurableLog> {
        self.durable.as_mut()
    }

    /// Health of the durability layer; `None` when not durable.
    pub fn durability_health(&self) -> Option<WalHealth> {
        self.durable.as_ref().map(|log| log.health())
    }

    /// Takes a checkpoint now.
    ///
    /// # Errors
    ///
    /// Fails when the writer has no durable log attached, and
    /// propagates checkpoint I/O failures (the writer stays usable —
    /// the log folds the failure into its retry backoff).
    pub fn checkpoint(&mut self) -> Result<(), FmeterError> {
        match &mut self.durable {
            Some(log) => log.checkpoint(&self.db),
            None => Err(FmeterError::Persist(
                "writer has no durable log attached".into(),
            )),
        }
    }

    /// Applies one *validated* mutation: WAL-append `op` when durable,
    /// apply `f`, then run the checkpoint policy.
    fn logged<R>(
        &mut self,
        op: impl FnOnce() -> WalOp,
        f: impl FnOnce(&mut SignatureDb) -> R,
    ) -> R {
        if let Some(log) = &mut self.durable {
            log.append(&op());
        }
        let out = f(&mut self.db);
        if let Some(log) = &mut self.durable {
            log.maybe_checkpoint(&self.db);
        }
        out
    }

    /// Persists a policy change by checkpointing immediately (policy
    /// changes are not WAL ops). A failure is propagated — until a
    /// checkpoint lands, recovery would replay the WAL under the *old*
    /// policy — and also folds into the log's retry backoff, so the
    /// writer itself stays usable.
    fn persist_policy_change(&mut self) -> Result<(), FmeterError> {
        match &mut self.durable {
            Some(log) => log.checkpoint_with_backoff(&self.db),
            None => Ok(()),
        }
    }

    /// The database the writer mutates.
    pub fn db(&self) -> &SignatureDb {
        &self.db
    }

    /// Unwraps the writer back into its database, dropping the durable
    /// log (if any) — acked state stays on disk.
    pub fn into_db(self) -> SignatureDb {
        self.db
    }

    /// Publishes the current state as an immutable snapshot stamped with
    /// `generation`: one `Arc` clone per piece plus a model clone.
    pub fn publish(&self, generation: u64) -> ShardSnapshot {
        ShardSnapshot {
            generation,
            epoch: self.db.epoch(),
            model: self.db.model().clone(),
            router: self.db.router,
            pieces: self.db.pieces.clone(),
        }
    }

    /// Appends one signature (see [`SignatureDb::insert`]).
    ///
    /// # Errors
    ///
    /// Propagates dimension mismatches; a refused insert is not logged.
    pub fn insert(&mut self, raw: &RawSignature) -> Result<DocId, FmeterError> {
        self.db.check_insert(raw)?;
        self.logged(|| WalOp::Insert(raw.clone()), |db| db.insert(raw))
    }

    /// Appends a batch of signatures (see [`SignatureDb::insert_batch`]).
    ///
    /// # Errors
    ///
    /// Returns a dimension mismatch when any element has the wrong
    /// dimension; the batch is then refused whole — nothing is
    /// inserted and nothing is logged.
    pub fn insert_batch(&mut self, raw: &[RawSignature]) -> Result<Vec<DocId>, FmeterError> {
        for r in raw {
            self.db.check_insert(r)?;
        }
        self.logged(
            || WalOp::InsertBatch(raw.to_vec()),
            |db| db.insert_batch(raw),
        )
    }

    /// Tombstones a stored signature (see [`SignatureDb::remove`]).
    ///
    /// # Errors
    ///
    /// Returns [`IrError::DocNotLive`] (wrapped) when `doc` was never
    /// assigned or is already removed; the refused remove is not logged.
    pub fn remove(&mut self, doc: DocId) -> Result<(), FmeterError> {
        self.db.check_remove(doc)?;
        self.logged(|| WalOp::Remove(doc), |db| db.remove(doc))
    }

    /// Republishes idf and re-weights affected signatures (see
    /// [`SignatureDb::refit`]).
    pub fn refit(&mut self) -> RefitStats {
        self.logged(|| WalOp::Refit, SignatureDb::refit)
    }

    /// Compacts tombstoned slots, renumbering doc ids (see
    /// [`SignatureDb::vacuum`]).
    pub fn vacuum(&mut self) -> VacuumStats {
        self.logged(|| WalOp::Vacuum, SignatureDb::vacuum)
    }

    /// Warm-started syndrome maintenance (see
    /// [`SignatureDb::recluster`]).
    ///
    /// Deliberately *not* a WAL op: reclustering only touches the
    /// database's derived warm-start cache — no weights, doc ids, or
    /// postings change — so recovery simply starts the cache cold and
    /// the published pieces stay valid untouched.
    ///
    /// # Errors
    ///
    /// Propagates clustering failures (e.g. fewer signatures than `k`).
    pub fn recluster(&mut self, k: usize, seed: u64) -> Result<Recluster, FmeterError> {
        self.db.recluster(k, seed)
    }

    /// Replaces the automatic-refit policy. In durable mode the change
    /// is persisted by an immediate checkpoint.
    ///
    /// # Errors
    ///
    /// Propagates a checkpoint failure (durable mode only): the policy
    /// *is* applied in memory but is not yet durable — retry, or accept
    /// that a crash before the next successful checkpoint recovers
    /// under the old policy. The writer stays usable either way.
    /// Infallible when not durable.
    pub fn set_refit_policy(&mut self, policy: RefitPolicy) -> Result<(), FmeterError> {
        self.db.set_refit_policy(policy);
        self.persist_policy_change()
    }

    /// Replaces the automatic-vacuum policy. In durable mode the change
    /// is persisted by an immediate checkpoint (see
    /// [`ShardWriter::set_refit_policy`] for the failure contract).
    ///
    /// # Errors
    ///
    /// Propagates a checkpoint failure in durable mode.
    pub fn set_vacuum_policy(&mut self, policy: VacuumPolicy) -> Result<(), FmeterError> {
        self.db.set_vacuum_policy(policy);
        self.persist_policy_change()
    }
}

/// One per-shard unit of query work dispatched to the pool.
struct QueryJob {
    piece: Arc<ShardPiece>,
    query: Arc<SparseVec>,
    k: usize,
    reply: mpsc::Sender<Result<Vec<SearchHit>, IrError>>,
}

/// A message to a pool worker: query work, or an order to exit (the
/// fault-injection hook behind [`SignatureService::kill_worker`]).
enum Job {
    Query(QueryJob),
    Die,
}

/// Shared state behind the service handle.
struct ServiceInner {
    writer: Mutex<ShardWriter>,
    current: RwLock<Arc<ShardSnapshot>>,
    generation: AtomicU64,
    /// One channel per pool worker; shard `s` is served by worker
    /// `s % workers.len()`. Senders are mutex-wrapped so the service
    /// handle stays `Sync` across std versions.
    workers: Vec<Mutex<mpsc::Sender<Job>>>,
    /// Join handles, indexed like `workers`; a slot goes `None` once
    /// its thread has been reaped (shutdown or an injected kill).
    handles: Mutex<Vec<Option<JoinHandle<()>>>>,
}

impl Drop for ServiceInner {
    fn drop(&mut self) {
        // Disconnect the job channels so the workers' recv() loops end,
        // then reap the threads.
        self.workers.clear();
        for handle in self.handles.get_mut().drain(..).flatten() {
            let _ = handle.join();
        }
    }
}

/// The concurrently-readable facade over a sharded [`SignatureDb`].
///
/// Cloning the service clones a handle to the same store (shared
/// writer, shared snapshot, shared worker pool) — hand clones to reader
/// threads. Queries fan out across the shards on a persistent worker
/// pool (one long-lived thread per pool slot, each owning its
/// [`SearchScratch`] — the same pattern as parallel K-means) and are
/// merged with the flat comparator, so results are bit-identical to
/// [`SignatureDb::search`] on the equivalent flat database.
///
/// Mutations serialize on the writer; searches run against the
/// published [`ShardSnapshot`] and never wait for an in-progress
/// refit, vacuum, or insert.
#[derive(Clone)]
pub struct SignatureService {
    inner: Arc<ServiceInner>,
}

impl std::fmt::Debug for SignatureService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snapshot = self.snapshot();
        f.debug_struct("SignatureService")
            .field("generation", &snapshot.generation())
            .field("epoch", &snapshot.epoch())
            .field("len", &snapshot.len())
            .field("num_shards", &snapshot.num_shards())
            .finish()
    }
}

impl SignatureService {
    /// Fits tf-idf over `raw` and serves it from `num_shards` shards.
    ///
    /// # Errors
    ///
    /// Returns [`FmeterError::NoSignatures`] when `raw` is empty.
    pub fn build(raw: &[RawSignature], num_shards: usize) -> Result<Self, FmeterError> {
        Ok(Self::from_db(SignatureDb::build(raw)?, num_shards))
    }

    /// Serves an existing database from `num_shards` shards (clamped to
    /// at least 1).
    pub fn from_db(db: SignatureDb, num_shards: usize) -> Self {
        Self::from_writer(ShardWriter::new(db, num_shards))
    }

    /// Serves `db` from `num_shards` shards in **durable mode**: a
    /// fresh crash-consistency directory is initialised at `dir`
    /// (checkpoint + WAL + manifest) and every subsequent mutation is
    /// WAL-appended before it applies. Recover a crashed instance with
    /// [`recover_durable`](Self::recover_durable).
    ///
    /// # Errors
    ///
    /// Fails when `dir` already holds a durable database, and
    /// propagates I/O failures writing the initial checkpoint.
    pub fn from_db_durable(
        db: SignatureDb,
        num_shards: usize,
        dir: &Path,
        opts: DurableOptions,
    ) -> Result<Self, FmeterError> {
        Ok(Self::from_writer(ShardWriter::create(
            dir, db, num_shards, opts,
        )?))
    }

    /// Recovers the durably-acked state from `dir` (newest loadable
    /// checkpoint + WAL replay up to the first torn record, falling
    /// back a generation when the newest checkpoint is damaged) and
    /// serves it from its saved shard layout, continuing in durable
    /// mode. The report says what was recovered.
    ///
    /// # Errors
    ///
    /// Fails when `dir` holds no loadable checkpoint generation.
    pub fn recover_durable(
        dir: &Path,
        opts: DurableOptions,
    ) -> Result<(Self, RecoveryReport), FmeterError> {
        let (writer, report) = ShardWriter::recover(dir, opts)?;
        Ok((Self::from_writer(writer), report))
    }

    /// Wraps a prepared writer (durable or not) in the service facade:
    /// publishes generation 0 and spins up the worker pool.
    fn from_writer(writer: ShardWriter) -> Self {
        let snapshot = Arc::new(writer.publish(0));
        let pool = writer
            .db()
            .num_shards()
            .clamp(1, 16)
            .min(
                std::thread::available_parallelism()
                    .map(usize::from)
                    .unwrap_or(1),
            )
            .max(1);
        let mut workers = Vec::with_capacity(pool);
        let mut handles = Vec::with_capacity(pool);
        for _ in 0..pool {
            let (sender, receiver) = mpsc::channel::<Job>();
            workers.push(Mutex::new(sender));
            handles.push(Some(std::thread::spawn(move || {
                let mut scratch = SearchScratch::new();
                while let Ok(job) = receiver.recv() {
                    match job {
                        Job::Query(job) => {
                            let hits =
                                job.piece
                                    .shard()
                                    .search_with(&job.query, job.k, &mut scratch);
                            let _ = job.reply.send(hits);
                        }
                        Job::Die => break,
                    }
                }
            })));
        }
        SignatureService {
            inner: Arc::new(ServiceInner {
                writer: Mutex::new(writer),
                current: RwLock::new(snapshot),
                generation: AtomicU64::new(0),
                workers,
                handles: Mutex::new(handles),
            }),
        }
    }

    /// Loads a persisted database (any supported format version) and
    /// serves it from its saved shard layout (see
    /// [`save`](Self::save)).
    ///
    /// # Errors
    ///
    /// Propagates envelope and migration failures.
    pub fn load<R: Read>(reader: R) -> Result<Self, FmeterError> {
        let (db, num_shards) = persist::load_sharded(reader)?;
        Ok(Self::from_db(db, num_shards))
    }

    /// Saves the store through the versioned envelope, including the
    /// shard layout (format v3+); a plain [`SignatureDb::load`] reads
    /// the same bytes and simply drops the layout.
    ///
    /// # Errors
    ///
    /// Propagates serialization and I/O failures.
    pub fn save<W: Write>(&self, writer: W) -> Result<(), FmeterError> {
        let guard = self.inner.writer.lock();
        persist::save(guard.db(), persist::CURRENT_FORMAT_VERSION, writer)
    }

    /// The currently published generation. The returned `Arc` stays
    /// valid (and immutable) for as long as the caller holds it, no
    /// matter what the writer does meanwhile.
    pub fn snapshot(&self) -> Arc<ShardSnapshot> {
        self.inner.current.read().clone()
    }

    /// Finds the `k` stored signatures most similar to a fresh
    /// interval, fanning the query across the shards on the worker
    /// pool. Results are `(doc id, signature, score)`, bit-identical to
    /// the flat [`SignatureDb::search`] over the same corpus.
    ///
    /// # Errors
    ///
    /// Propagates dimension mismatches.
    pub fn search(
        &self,
        counts: &TermCounts,
        k: usize,
    ) -> Result<Vec<(DocId, Signature, f64)>, FmeterError> {
        let snapshot = self.snapshot();
        self.search_snapshot(&snapshot, counts, k)
    }

    /// Like [`search`](Self::search), against a caller-held generation
    /// — use this to run several queries against one consistent view.
    ///
    /// # Errors
    ///
    /// Propagates dimension mismatches.
    pub fn search_snapshot(
        &self,
        snapshot: &ShardSnapshot,
        counts: &TermCounts,
        k: usize,
    ) -> Result<Vec<(DocId, Signature, f64)>, FmeterError> {
        let query = Arc::new(snapshot.transform(counts));
        let (reply, replies) = mpsc::channel();
        let mut per_shard: Vec<Vec<SearchHit>> = Vec::with_capacity(snapshot.pieces().len());
        let mut pending = 0usize;
        for (s, piece) in snapshot.pieces().iter().enumerate() {
            let job = Job::Query(QueryJob {
                piece: piece.clone(),
                query: query.clone(),
                k,
                reply: reply.clone(),
            });
            let worker = &self.inner.workers[s % self.inner.workers.len()];
            if worker.lock().send(job).is_ok() {
                pending += 1;
            } else {
                // The worker is gone (pool shutdown, or a killed
                // thread): score the shard inline — same snapshot,
                // same results.
                let mut scratch = SearchScratch::new();
                per_shard.push(piece.shard().search_with(&query, k, &mut scratch)?);
            }
        }
        // Drop our sender so a lost worker surfaces as a disconnect
        // instead of a deadlock.
        drop(reply);
        for _ in 0..pending {
            match replies.recv() {
                Ok(hits) => per_shard.push(hits?),
                Err(_) => {
                    // A worker died mid-query; fall back to the
                    // sequential reference, which is bit-identical.
                    return snapshot.search(counts, k, &mut SearchScratch::new());
                }
            }
        }
        Ok(resolve_hits(
            snapshot.router,
            &snapshot.pieces,
            merge_topk(per_shard, k),
        ))
    }

    /// Classifies a fresh interval by majority label among its `k`
    /// nearest stored signatures (same vote and tie-break as
    /// [`SignatureDb::classify`]).
    ///
    /// # Errors
    ///
    /// Propagates dimension mismatches.
    pub fn classify(&self, counts: &TermCounts, k: usize) -> Result<Option<String>, FmeterError> {
        let hits = self.search(counts, k)?;
        Ok(crate::db::vote(
            hits.iter().map(|(_, sig, _)| sig.label.as_deref()),
        ))
    }

    /// Appends one signature and publishes the next generation.
    ///
    /// # Errors
    ///
    /// Propagates dimension mismatches.
    pub fn insert(&self, raw: &RawSignature) -> Result<DocId, FmeterError> {
        let mut writer = self.inner.writer.lock();
        let id = writer.insert(raw)?;
        self.publish(&writer);
        Ok(id)
    }

    /// Appends a batch of signatures and publishes the next generation
    /// (one publish for the whole batch).
    ///
    /// # Errors
    ///
    /// Returns a dimension mismatch when any element has the wrong
    /// dimension; the batch is refused whole and nothing is published.
    pub fn insert_batch(&self, raw: &[RawSignature]) -> Result<Vec<DocId>, FmeterError> {
        let mut writer = self.inner.writer.lock();
        let ids = writer.insert_batch(raw)?;
        self.publish(&writer);
        Ok(ids)
    }

    /// Tombstones a stored signature and publishes the next generation.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::DocNotLive`] (wrapped) when `doc` was never
    /// assigned or is already removed.
    pub fn remove(&self, doc: DocId) -> Result<(), FmeterError> {
        let mut writer = self.inner.writer.lock();
        let result = writer.remove(doc);
        if result.is_ok() {
            self.publish(&writer);
        }
        result
    }

    /// Refits idf over the live corpus and publishes the re-weighted
    /// generation. In-flight and future reads on older snapshots are
    /// untouched.
    pub fn refit(&self) -> RefitStats {
        let mut writer = self.inner.writer.lock();
        let stats = writer.refit();
        self.publish(&writer);
        stats
    }

    /// Compacts tombstoned slots (renumbering doc ids — see
    /// [`SignatureDb::vacuum`]) and publishes the renumbered
    /// generation. Snapshots taken before the vacuum keep serving the
    /// old ids.
    pub fn vacuum(&self) -> VacuumStats {
        let mut writer = self.inner.writer.lock();
        let stats = writer.vacuum();
        self.publish(&writer);
        stats
    }

    /// Warm-started syndrome maintenance over the writer's
    /// database (see [`SignatureDb::recluster`]): the first call runs a
    /// cold multi-restart K-means, steady-state calls resume from the
    /// cached assignment in O(changed docs). No generation is published
    /// — snapshots do not carry syndromes, and the pass mutates only
    /// the writer-side warm-start cache.
    ///
    /// # Errors
    ///
    /// Propagates clustering failures (e.g. fewer signatures than `k`).
    pub fn recluster(&self, k: usize, seed: u64) -> Result<Recluster, FmeterError> {
        self.inner.writer.lock().recluster(k, seed)
    }

    /// Replaces the automatic-refit policy.
    ///
    /// # Errors
    ///
    /// In durable mode the change is persisted by an immediate
    /// checkpoint; a checkpoint failure is propagated (the policy is
    /// applied in memory, the service stays usable — see
    /// [`ShardWriter::set_refit_policy`]). Infallible when not durable.
    pub fn set_refit_policy(&self, policy: RefitPolicy) -> Result<(), FmeterError> {
        self.inner.writer.lock().set_refit_policy(policy)
    }

    /// Replaces the automatic-vacuum policy.
    ///
    /// # Errors
    ///
    /// Propagates a checkpoint failure in durable mode (see
    /// [`SignatureService::set_refit_policy`]).
    pub fn set_vacuum_policy(&self, policy: VacuumPolicy) -> Result<(), FmeterError> {
        self.inner.writer.lock().set_vacuum_policy(policy)
    }

    /// Stats (incl. the id remap) of the most recent vacuum, if any.
    pub fn last_vacuum(&self) -> Option<VacuumStats> {
        self.inner.writer.lock().db().last_vacuum().cloned()
    }

    /// Number of live signatures in the published generation.
    pub fn len(&self) -> usize {
        self.snapshot().len()
    }

    /// Returns `true` when the published generation is empty.
    pub fn is_empty(&self) -> bool {
        self.snapshot().is_empty()
    }

    /// Number of doc-id slots in the published generation.
    pub fn num_slots(&self) -> usize {
        self.snapshot().num_slots()
    }

    /// The published generation's idf epoch.
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch()
    }

    /// The current publication sequence number.
    pub fn generation(&self) -> u64 {
        self.inner.generation.load(Ordering::Acquire)
    }

    /// Number of shards in the layout.
    pub fn num_shards(&self) -> usize {
        self.snapshot().num_shards()
    }

    /// Dimensionality of the signature space.
    pub fn dim(&self) -> usize {
        self.snapshot().dim()
    }

    /// Returns `true` when `doc` is live in the published generation.
    pub fn is_live(&self, doc: DocId) -> bool {
        self.snapshot().is_live(doc)
    }

    /// Vacuums performed over the store's lifetime.
    pub fn vacuums(&self) -> u64 {
        self.inner.writer.lock().db().vacuums()
    }

    /// Takes a durability checkpoint now (durable mode only).
    ///
    /// # Errors
    ///
    /// Fails when the service is not durable, and propagates checkpoint
    /// I/O failures (the service stays usable — the log folds the
    /// failure into its retry backoff).
    pub fn checkpoint(&self) -> Result<(), FmeterError> {
        self.inner.writer.lock().checkpoint()
    }

    /// Health of the durability layer; `None` when the service does not
    /// run in durable mode.
    pub fn durability_health(&self) -> Option<WalHealth> {
        self.inner.writer.lock().durability_health()
    }

    /// Runs `f` against the durable log under the writer lock (sync and
    /// fault-injection hooks); `None` when not durable.
    #[doc(hidden)]
    pub fn with_durable_log<R>(&self, f: impl FnOnce(&mut DurableLog) -> R) -> Option<R> {
        self.inner.writer.lock().durable_log_mut().map(f)
    }

    /// Fault injection: kills pool worker `i` (modulo the pool size)
    /// and waits for its thread to exit. Queries keep succeeding — the
    /// dead worker's shards are scored inline on the calling thread —
    /// and stay bit-identical, since every fallback scores the same
    /// immutable snapshot.
    #[doc(hidden)]
    pub fn kill_worker(&self, i: usize) {
        if self.inner.workers.is_empty() {
            return;
        }
        let idx = i % self.inner.workers.len();
        // The worker drains jobs in order, so Die is processed after
        // anything already queued; join makes the death deterministic.
        let _ = self.inner.workers[idx].lock().send(Job::Die);
        if let Some(handle) = self.inner.handles.lock()[idx].take() {
            let _ = handle.join();
        }
    }

    /// Number of pool workers still alive (used by the stress tests to
    /// assert the kill hook really took a thread down).
    #[doc(hidden)]
    pub fn live_workers(&self) -> usize {
        self.inner
            .handles
            .lock()
            .iter()
            .filter(|h| h.is_some())
            .count()
    }

    /// Stamps and swaps in the next generation. Called with the writer
    /// lock held (mutations serialize), so generation numbers and
    /// snapshot contents advance together; readers only ever take the
    /// `current` read lock for the duration of an `Arc` clone.
    fn publish(&self, writer: &ShardWriter) {
        let generation = self.inner.generation.fetch_add(1, Ordering::AcqRel) + 1;
        let snapshot = Arc::new(writer.publish(generation));
        *self.inner.current.write() = snapshot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmeter_kernel_sim::Nanos;

    fn raw(i: usize, label: &str, dim: usize) -> RawSignature {
        let mut counts = vec![0u64; dim];
        counts[i % dim] = 5 + (i % 7) as u64;
        counts[(i * 3 + 1) % dim] = 2 + (i % 4) as u64;
        counts[(i + dim / 2) % dim] = 1;
        RawSignature {
            counts,
            started_at: Nanos(i as u64 * 100),
            ended_at: Nanos(i as u64 * 100 + 100),
            label: Some(label.to_string()),
        }
    }

    fn sample(n: usize, dim: usize) -> Vec<RawSignature> {
        (0..n)
            .map(|i| raw(i, if i % 2 == 0 { "even" } else { "odd" }, dim))
            .collect()
    }

    fn assert_same_hits(
        service_hits: &[(DocId, Signature, f64)],
        db_hits: &[(DocId, Signature, f64)],
    ) {
        assert_eq!(service_hits.len(), db_hits.len());
        for ((doc, sig, score), (db_doc, db_sig, db_score)) in service_hits.iter().zip(db_hits) {
            assert_eq!(score, db_score, "scores must be bit-identical");
            assert_eq!(sig, db_sig);
            assert_eq!(doc, db_doc);
        }
    }

    #[test]
    fn service_search_is_bit_identical_to_flat_db() {
        let raws = sample(40, 12);
        let db = SignatureDb::build(&raws).unwrap();
        for num_shards in [1, 2, 3, 5] {
            let service = SignatureService::build(&raws, num_shards).unwrap();
            assert_eq!(service.num_shards(), num_shards);
            for probe in raws.iter().step_by(7) {
                let q = probe.to_term_counts();
                let expected = db.search(&q, 6).unwrap();
                let got = service.search(&q, 6).unwrap();
                assert_same_hits(&got, &expected);
                assert_eq!(
                    service.classify(&q, 5).unwrap(),
                    db.classify(&q, 5).unwrap()
                );
            }
        }
    }

    #[test]
    fn mutations_stay_in_lockstep_with_flat_db() {
        let raws = sample(30, 10);
        let extra = sample(60, 10);
        let mut db = SignatureDb::build(&raws).unwrap();
        db.set_refit_policy(RefitPolicy::EveryN(9));
        let service = SignatureService::build(&raws, 3).unwrap();
        service.set_refit_policy(RefitPolicy::EveryN(9)).unwrap();

        db.insert_batch(&extra[30..45]).unwrap();
        service.insert_batch(&extra[30..45]).unwrap();
        for doc in [1, 4, 10, 33] {
            db.remove(doc).unwrap();
            service.remove(doc).unwrap();
        }
        assert_eq!(service.len(), db.len());
        assert_eq!(service.epoch(), db.epoch());
        for probe in extra.iter().step_by(11) {
            let q = probe.to_term_counts();
            let expected = db.search(&q, 8).unwrap();
            let got = service.search(&q, 8).unwrap();
            assert_same_hits(&got, &expected);
        }

        // Explicit refit + vacuum keep the mirrors aligned too.
        db.refit();
        let db_stats = db.vacuum();
        service.refit();
        let service_stats = service.vacuum();
        assert_eq!(service_stats.remap, db_stats.remap);
        assert_eq!(service.len(), db.len());
        assert_eq!(service.num_slots(), db.num_slots());
        for probe in extra.iter().step_by(13) {
            let q = probe.to_term_counts();
            let expected = db.search(&q, 8).unwrap();
            let got = service.search(&q, 8).unwrap();
            assert_same_hits(&got, &expected);
        }
    }

    #[test]
    fn snapshots_are_immutable_across_mutations() {
        let raws = sample(24, 8);
        let service = SignatureService::build(&raws, 4).unwrap();
        let before = service.snapshot();
        let q = raws[3].to_term_counts();
        let hits_before = service.search_snapshot(&before, &q, 5).unwrap();
        let gen_before = before.generation();

        service.insert_batch(&sample(40, 8)[24..]).unwrap();
        service.remove(2).unwrap();
        service.refit();
        service.vacuum();

        // The old generation still serves exactly its old answers.
        assert_eq!(before.generation(), gen_before);
        assert_eq!(
            service.search_snapshot(&before, &q, 5).unwrap(),
            hits_before
        );
        let mut scratch = SearchScratch::new();
        assert_eq!(before.search(&q, 5, &mut scratch).unwrap(), hits_before);
        // And the service moved on: one publish per mutation call.
        assert_eq!(service.generation(), gen_before + 4);
        assert!(service.snapshot().generation() == service.generation());
    }

    #[test]
    fn sequential_snapshot_search_matches_pooled_fanout() {
        let raws = sample(50, 16);
        let service = SignatureService::build(&raws, 5).unwrap();
        let snapshot = service.snapshot();
        let mut scratch = SearchScratch::new();
        for probe in raws.iter().step_by(9) {
            let q = probe.to_term_counts();
            assert_eq!(
                service.search_snapshot(&snapshot, &q, 7).unwrap(),
                snapshot.search(&q, 7, &mut scratch).unwrap()
            );
        }
    }

    #[test]
    fn durable_service_recovers_its_acked_state() {
        let dir = std::env::temp_dir().join(format!(
            "fmeter-svc-durable-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let raws = sample(20, 8);
        let service = SignatureService::from_db_durable(
            SignatureDb::build(&raws[..12]).unwrap(),
            3,
            &dir,
            DurableOptions::default(),
        )
        .unwrap();
        assert_eq!(service.durability_health(), Some(WalHealth::Healthy));
        service.insert_batch(&raws[12..]).unwrap();
        service.remove(3).unwrap();
        let q = raws[5].to_term_counts();
        let expected = service.search(&q, 6).unwrap();
        drop(service); // "crash": no explicit checkpoint of the tail

        let (recovered, report) =
            SignatureService::recover_durable(&dir, DurableOptions::default()).unwrap();
        assert_eq!(report.replayed_ops, 2, "batch insert + remove");
        assert!(!report.torn_tail);
        assert_eq!(recovered.num_shards(), 3, "saved layout restored");
        assert_eq!(recovered.len(), 19);
        assert_eq!(recovered.search(&q, 6).unwrap(), expected);
        // Durable mode keeps working after recovery.
        recovered.insert(&raw(99, "odd", 8)).unwrap();
        recovered.checkpoint().unwrap();
        assert_eq!(recovered.durability_health(), Some(WalHealth::Healthy));
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_durable_service_reports_no_health_and_refuses_checkpoints() {
        let service = SignatureService::build(&sample(8, 6), 2).unwrap();
        assert_eq!(service.durability_health(), None);
        assert!(service.checkpoint().is_err());
        assert!(service.with_durable_log(|_| ()).is_none());
    }

    #[test]
    fn killed_workers_leave_results_bit_identical() {
        let raws = sample(36, 10);
        let db = SignatureDb::build(&raws).unwrap();
        let service = SignatureService::build(&raws, 4).unwrap();
        let alive = service.live_workers();
        service.kill_worker(0);
        assert_eq!(service.live_workers(), alive - 1);
        // Kill the entire pool: every shard falls back to inline
        // scoring, still against the same immutable snapshot.
        for i in 0..alive {
            service.kill_worker(i);
        }
        assert_eq!(service.live_workers(), 0);
        for probe in raws.iter().step_by(5) {
            let q = probe.to_term_counts();
            let expected = db.search(&q, 6).unwrap();
            let got = service.search(&q, 6).unwrap();
            assert_same_hits(&got, &expected);
        }
    }

    #[test]
    fn shard_writer_round_trips_into_db() {
        let raws = sample(20, 8);
        let db = SignatureDb::build(&raws).unwrap();
        let reference = db.clone();
        let mut writer = ShardWriter::new(db, 3);
        writer.remove(5).unwrap();
        let snapshot = writer.publish(1);
        assert_eq!(snapshot.len(), 19);
        assert!(!snapshot.is_live(5));
        assert_eq!(snapshot.signature(7).unwrap(), reference.signature(7));
        let db = writer.into_db();
        assert_eq!(db.len(), 19);
    }

    #[test]
    fn resharding_keeps_the_quantization_mode() {
        let mut db = SignatureDb::build(&sample(40, 12)).unwrap();
        db.set_quantization(fmeter_ir::QuantizationMode::Int8);
        for num_shards in [1, 4] {
            let service = SignatureService::from_db(db.clone(), num_shards);
            let modes = |svc: &SignatureService| -> Vec<fmeter_ir::QuantizationMode> {
                svc.snapshot()
                    .pieces()
                    .iter()
                    .map(|p| p.shard().index().quantization())
                    .collect()
            };
            assert_eq!(
                modes(&service),
                vec![fmeter_ir::QuantizationMode::Int8; num_shards],
                "S={num_shards}: every served piece keeps the mode"
            );
            let mut bytes = Vec::new();
            service.save(&mut bytes).unwrap();
            let back = SignatureService::load(&bytes[..]).unwrap();
            assert_eq!(
                modes(&back),
                vec![fmeter_ir::QuantizationMode::Int8; num_shards],
                "S={num_shards}: a save/load round trip keeps the mode"
            );
        }
    }
}
