//! Pieces shared by the workloads: phase bookkeeping, the durable
//! store loop (classify → insert → evict → recluster), the exhaustive
//! search oracle, and the per-query shard decomposition of the traced
//! run.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use fmeter_core::{
    DurableOptions, RawSignature, RefitPolicy, ShardSnapshot, Signature, SignatureDb,
    SignatureService, VacuumPolicy,
};
use fmeter_ir::{merge_topk, SearchHit, SearchScratch, TermCounts};

use crate::host::{Pacer, SETUP_SAMPLES};
use crate::spans::{Spans, Trace};
use crate::stats::Metrics;

/// Result type of the benchmark's own code: errors are reported as text.
pub type Res<T> = Result<T, String>;

/// Converts any displayable error into the benchmark's error text.
pub fn err<E: std::fmt::Display>(context: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{context}: {e}")
}

/// One measured stretch of a run.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// How long the phase measures.
    pub seconds: f64,
    /// Whether spans are recorded.
    pub traced: bool,
}

/// What one phase measured.
#[derive(Debug, Default)]
pub struct PhaseResult {
    /// Per completed op, its latency (µs), behind `op_p50_us` and
    /// `op_p99_us`.
    pub op_us: Vec<f64>,
    /// Per op, how long it occupied its client (µs), in completion
    /// order per client; `ops_per_s` is computed from these.
    pub busy_us: Vec<f64>,
    /// Closed-loop clients issuing the ops.
    pub clients: usize,
    /// Verdicts equal to the label, and verdicts given.
    pub verdicts: (u64, u64),
    /// Oracle top-10 members returned, and oracle top-10 members.
    pub recall: (u64, u64),
    /// Ops attempted and ops that errored or returned a wrong result.
    pub attempted: u64,
    pub failed: u64,
    /// Spans of a traced phase.
    pub trace: Trace,
    /// Per-layer metrics the workload derived from this phase.
    pub layers: Metrics,
    /// Host reference samples taken during the phase (µs).
    pub host_us: Vec<f64>,
}

/// What a whole workload run measured.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Wall time of each repetition of the set-up.
    pub setup_s: Vec<f64>,
    /// Host reference samples taken around the set-ups (µs).
    pub setup_host_us: Vec<f64>,
    /// One entry per requested phase.
    pub phases: Vec<PhaseResult>,
    /// End-of-run correctness checks: `(description, passed)`.
    pub checks: Vec<(String, bool)>,
    /// Per-layer metrics measured after the last phase (recovery).
    pub layers: Metrics,
}

/// Runs `setup` `n` times, timing each and sampling the host reference
/// before each and after the last, and returns the last state;
/// `discard` releases an earlier state before the next set-up.
pub fn set_up<T>(
    n: usize,
    result: &mut RunResult,
    mut setup: impl FnMut() -> Res<T>,
    mut discard: impl FnMut(T) -> Res<()>,
) -> Res<T> {
    let mut pacer = Pacer::new();
    let mut state = None;
    for _ in 0..n.max(1) {
        if let Some(s) = state.take() {
            discard(s)?;
        }
        pacer.burst(SETUP_SAMPLES);
        let (s, secs) = timed(&mut setup);
        result.setup_s.push(secs);
        state = Some(s?);
    }
    pacer.burst(SETUP_SAMPLES);
    result.setup_host_us = pacer.samples;
    state.ok_or_else(|| "no set-up ran".to_string())
}

/// The `discard` of [`set_up`] for states that need no clean-up.
pub fn release<T>(state: T) -> Res<()> {
    drop(state);
    Ok(())
}

/// Times `f`, returning its result and the elapsed seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Microseconds between two instants.
pub fn us(a: Instant, b: Instant) -> f64 {
    b.duration_since(a).as_secs_f64() * 1e6
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}

/// A fresh, empty scratch directory under `out`.
pub fn scratch_dir(out: &Path, name: &str) -> Res<PathBuf> {
    let dir = out.join(format!("{name}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(err("clearing scratch dir"))?;
    }
    std::fs::create_dir_all(out).map_err(err("creating output dir"))?;
    Ok(dir)
}

/// The exhaustive oracle: every shard scored with
/// `InvertedIndex::search_exhaustive` over the same live docs, merged.
pub fn oracle_top(
    snapshot: &ShardSnapshot,
    counts: &TermCounts,
    k: usize,
    scratch: &mut SearchScratch,
) -> Res<Vec<SearchHit>> {
    let query = snapshot.transform(counts);
    let router = snapshot.router();
    let mut per_shard = Vec::with_capacity(snapshot.pieces().len());
    for (s, piece) in snapshot.pieces().iter().enumerate() {
        let mut hits = piece
            .shard()
            .index()
            .search_exhaustive(&query, k, scratch)
            .map_err(err("exhaustive search"))?;
        for h in &mut hits {
            h.doc = router.global_of(s, h.doc);
        }
        per_shard.push(hits);
    }
    Ok(merge_topk(per_shard, k))
}

/// How many of the oracle's docs `got` contains, and the oracle's size.
pub fn recall_of(got: &[(usize, Signature, f64)], oracle: &[SearchHit]) -> (u64, u64) {
    let hits = oracle
        .iter()
        .filter(|o| got.iter().any(|g| g.0 == o.doc))
        .count();
    (hits as u64, oracle.len() as u64)
}

/// Fingerprint of a result list: doc ids and exact score bits.
pub fn fingerprint(hits: &[(usize, Signature, f64)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (doc, _, score) in hits {
        for word in [*doc as u64, score.to_bits()] {
            h ^= word;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h ^ hits.len() as u64
}

/// Timings of one query taken apart layer by layer (traced run only).
#[derive(Debug, Clone)]
pub struct QueryParts {
    /// 0 = probe from an indexed class, 1 = held-out class.
    pub class: usize,
    pub transform_us: f64,
    /// Per shard: production `Shard::search_with` time.
    pub shard_us: Vec<f64>,
    /// Per shard: `search_exhaustive` time on the same query.
    pub exhaustive_us: Vec<f64>,
    pub merge_us: f64,
    pub seq_us: f64,
    pub pooled_us: f64,
}

/// Runs one query through each layer separately against `snapshot`,
/// recording spans under a root `decompose` span: tf-idf transform,
/// each shard's production search and its exhaustive baseline,
/// `merge_topk`, the sequential snapshot search and the pooled service
/// search.
#[allow(clippy::too_many_arguments)]
pub fn decompose(
    service: &SignatureService,
    snapshot: &Arc<ShardSnapshot>,
    counts: &TermCounts,
    k: usize,
    class: usize,
    op: u64,
    spans: &mut Spans,
    scratch: &mut SearchScratch,
) -> Res<QueryParts> {
    let root = spans.enter(op, "decompose");
    let t0 = Instant::now();
    let query = snapshot.transform(counts);
    let t1 = Instant::now();
    spans.record(op, "tfidf.transform", t0, t1);
    let mut shard_us = Vec::new();
    let mut exhaustive_us = Vec::new();
    let mut per_shard = Vec::new();
    for piece in snapshot.pieces() {
        let a = Instant::now();
        let hits = piece
            .shard()
            .search_with(&query, k, scratch)
            .map_err(err("shard search"))?;
        let b = Instant::now();
        let ex = piece
            .shard()
            .index()
            .search_exhaustive(&query, k, scratch)
            .map_err(err("exhaustive search"))?;
        let c = Instant::now();
        std::hint::black_box(ex);
        spans.record(op, "shard.search", a, b);
        spans.record(op, "shard.exhaustive", b, c);
        shard_us.push(us(a, b));
        exhaustive_us.push(us(b, c));
        per_shard.push(hits);
    }
    let a = Instant::now();
    let merged = merge_topk(per_shard, k);
    let b = Instant::now();
    std::hint::black_box(merged);
    spans.record(op, "shard.merge", a, b);
    let seq = snapshot
        .search(counts, k, scratch)
        .map_err(err("sequential search"))?;
    let c = Instant::now();
    spans.record(op, "service.seq_search", b, c);
    let pooled = service
        .search_snapshot(snapshot, counts, k)
        .map_err(err("pooled search"))?;
    let d = Instant::now();
    spans.record(op, "service.search", c, d);
    spans.exit(root);
    if fingerprint(&seq) != fingerprint(&pooled) {
        return Err("pooled search differs from the sequential snapshot search".into());
    }
    Ok(QueryParts {
        class,
        transform_us: us(t0, t1),
        shard_us,
        exhaustive_us,
        merge_us: us(a, b),
        seq_us: us(b, c),
        pooled_us: us(c, d),
    })
}

/// Settings of a durable store workload.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    pub shards: usize,
    pub window: usize,
    pub classify_k: usize,
    pub recluster_k: usize,
    pub recluster_every: u64,
    pub refit: RefitPolicy,
    pub vacuum: VacuumPolicy,
    pub durable: DurableOptions,
}

/// Background work that fired during one op (traced run only).
#[derive(Debug, Clone, Copy, Default)]
pub struct Background {
    pub refit: bool,
    pub vacuum: bool,
    pub checkpoint: bool,
    pub recluster_cold: bool,
}

impl Background {
    /// Whether anything fired.
    pub fn any(&self) -> bool {
        self.refit || self.vacuum || self.checkpoint || self.recluster_cold
    }
}

/// Counters read before and after an op (outside its timing) to tag
/// its background work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counters {
    epoch: u64,
    vacuums: u64,
    checkpoint_gen: u64,
    wal_bytes: u64,
}

impl Counters {
    /// The background work that fired between `self` and `after`, and
    /// the WAL bytes appended when no checkpoint intervened.
    pub fn since(
        self,
        after: Counters,
        recluster: Option<(bool, f64)>,
    ) -> (Background, Option<u64>) {
        let background = Background {
            refit: after.epoch != self.epoch,
            vacuum: after.vacuums != self.vacuums,
            checkpoint: after.checkpoint_gen != self.checkpoint_gen,
            recluster_cold: matches!(recluster, Some((false, _))),
        };
        let wal =
            (after.checkpoint_gen == self.checkpoint_gen).then(|| after.wal_bytes - self.wal_bytes);
        (background, wal)
    }
}

/// What one store op returned: its verdict and, when one ran, whether
/// the recluster was warm and how long it took (ms).
#[derive(Debug, Clone, Default)]
pub struct Ingested {
    pub verdict: Option<String>,
    pub recluster: Option<(bool, f64)>,
}

/// A durable sharded service fed as a sliding window: classify, insert,
/// evict the oldest live doc, and refresh syndromes every few ops.
pub struct Store {
    pub service: SignatureService,
    pub dir: PathBuf,
    cfg: StoreConfig,
    oldest: usize,
    vacuums_seen: u64,
    seed: u64,
}

impl Store {
    /// Builds the database, serves it durably from `dir`, applies the
    /// policies and runs the first (cold) recluster so the timed loop
    /// starts on the warm path.
    pub fn create(raw: &[RawSignature], dir: &Path, cfg: StoreConfig, seed: u64) -> Res<Store> {
        let db = SignatureDb::build(raw).map_err(err("building the database"))?;
        let service = SignatureService::from_db_durable(db, cfg.shards, dir, cfg.durable)
            .map_err(err("creating the durable service"))?;
        service
            .set_refit_policy(cfg.refit)
            .map_err(err("refit policy"))?;
        service
            .set_vacuum_policy(cfg.vacuum)
            .map_err(err("vacuum policy"))?;
        service
            .recluster(cfg.recluster_k, seed)
            .map_err(err("first recluster"))?;
        let vacuums_seen = service.vacuums();
        Ok(Store {
            service,
            dir: dir.to_path_buf(),
            cfg,
            oldest: 0,
            vacuums_seen,
            seed,
        })
    }

    /// The counters background work moves.
    pub fn counters(&self) -> Counters {
        let (checkpoint_gen, wal_bytes) = self
            .service
            .with_durable_log(|log| (log.generation(), log.wal_bytes()))
            .unwrap_or((0, 0));
        Counters {
            epoch: self.service.epoch(),
            vacuums: self.service.vacuums(),
            checkpoint_gen,
            wal_bytes,
        }
    }

    /// One daemon-side op for interval `op`: classify `sig`, insert it,
    /// evict down to the window, and recluster when due. Stage spans
    /// nest in the caller's open span.
    pub fn ingest(&mut self, op: u64, sig: &RawSignature, spans: &mut Spans) -> Res<Ingested> {
        let service = &self.service;
        let k = self.cfg.classify_k;
        let verdict = spans
            .span(op, "service.classify", || {
                service.classify(&sig.to_term_counts(), k)
            })
            .map_err(err("classify"))?;
        spans
            .span(op, "service.insert", || service.insert(sig))
            .map_err(err("insert"))?;
        while service.len() > self.cfg.window {
            while !service.is_live(self.oldest) {
                self.oldest += 1;
            }
            let doc = self.oldest;
            spans
                .span(op, "service.remove", || service.remove(doc))
                .map_err(err("evict"))?;
            // A removal can cross the vacuum bound and renumber every
            // doc: follow the cursor through the remap.
            let vacuums = service.vacuums();
            if vacuums != self.vacuums_seen {
                self.vacuums_seen = vacuums;
                let stats = service.last_vacuum().ok_or("vacuum left no stats")?;
                self.oldest = (self.oldest..stats.remap.len())
                    .find_map(|d| stats.remap[d])
                    .unwrap_or(0);
            }
        }
        let mut recluster = None;
        if op.is_multiple_of(self.cfg.recluster_every) {
            let (kk, seed) = (self.cfg.recluster_k, self.seed);
            let (rc, secs) = spans.span(op, "service.recluster", || {
                timed(|| service.recluster(kk, seed))
            });
            let rc = rc.map_err(err("recluster"))?;
            recluster = Some((rc.warm, secs * 1e3));
        }
        Ok(Ingested { verdict, recluster })
    }

    /// Spot-checks the production top-10 search against the exhaustive
    /// oracle on the current snapshot.
    pub fn recall(&self, counts: &TermCounts, scratch: &mut SearchScratch) -> Res<(u64, u64)> {
        let snapshot = self.service.snapshot();
        let got = self
            .service
            .search_snapshot(&snapshot, counts, 10)
            .map_err(err("search"))?;
        let oracle = oracle_top(&snapshot, counts, 10, scratch)?;
        Ok(recall_of(&got, &oracle))
    }

    /// Drops the service as a crash would (no shutdown checkpoint),
    /// recovers it from the durable directory, and checks that the live
    /// count and the verdicts on `probes` survived. Then reclusters the
    /// recovered store, which starts cold. Removes the directory.
    pub fn crash_and_recover(
        self,
        probes: &[TermCounts],
        ops: u64,
        result: &mut RunResult,
    ) -> Res<()> {
        let k = self.cfg.classify_k;
        let live = self.service.len();
        let verdicts: Vec<Option<String>> = probes
            .iter()
            .map(|p| self.service.classify(p, k).map_err(err("classify")))
            .collect::<Res<_>>()?;
        let dir = self.dir.clone();
        let disk = dir_bytes(&dir);
        drop(self.service);
        let (recovered, secs) = timed(|| SignatureService::recover_durable(&dir, self.cfg.durable));
        let (service, report) = recovered.map_err(err("recover_durable"))?;
        let after: Vec<Option<String>> = probes
            .iter()
            .map(|p| service.classify(p, k).map_err(err("classify")))
            .collect::<Res<_>>()?;
        result.checks.push((
            format!(
                "recovered live count {} equals pre-crash {live}",
                service.len()
            ),
            service.len() == live,
        ));
        result.checks.push((
            format!(
                "recovered verdicts on {} probes equal pre-crash verdicts",
                probes.len()
            ),
            after == verdicts,
        ));
        let (rc, cold_s) = timed(|| service.recluster(self.cfg.recluster_k, self.seed));
        let rc = rc.map_err(err("recluster after recovery"))?;
        result
            .checks
            .push(("first recluster after recovery runs cold".into(), !rc.warm));
        let m = &mut result.layers;
        crate::stats::put(m, "persist.recover_ms", secs * 1e3, "ms", 1);
        crate::stats::put(
            m,
            "persist.replayed_ops",
            report.replayed_ops as f64,
            "count",
            1,
        );
        crate::stats::put(m, "db.recluster_cold_ms", cold_s * 1e3, "ms", 1);
        crate::stats::put(
            m,
            "wal.disk_bytes_per_op",
            disk as f64 / ops.max(1) as f64,
            "bytes",
            ops as usize,
        );
        drop(service);
        std::fs::remove_dir_all(&dir).map_err(err("removing the durable dir"))?;
        Ok(())
    }
}

/// Per-layer metrics of a traced store phase: stage latencies, the
/// background-work attribution, and the stage reconciliation.
pub fn store_layers(
    phase: &mut PhaseResult,
    tagged: &[(Background, f64)],
    reclusters: &[(bool, f64)],
    wal_bytes: &[f64],
    op_span: &str,
) {
    use crate::stats::{put, put_median};
    let t = &phase.trace;
    let m = &mut phase.layers;
    put_median(m, "service.classify_us", &t.us("service.classify"), "us");
    put_median(m, "service.insert_us", &t.us("service.insert"), "us");
    put_median(m, "service.remove_us", &t.us("service.remove"), "us");
    let pick = |f: fn(&Background) -> bool| -> Vec<f64> {
        tagged
            .iter()
            .filter(|(b, _)| f(b))
            .map(|(_, us)| *us)
            .collect()
    };
    let refit = pick(|b| b.refit);
    let vacuum = pick(|b| b.vacuum);
    let checkpoint = pick(|b| b.checkpoint);
    let clean = pick(|b| !b.any());
    let dirty = pick(|b| b.any());
    put(m, "db.refits", refit.len() as f64, "count", tagged.len());
    put_median(m, "db.refit_op_us", &refit, "us");
    put(m, "db.vacuums", vacuum.len() as f64, "count", tagged.len());
    put_median(m, "db.vacuum_op_us", &vacuum, "us");
    put(
        m,
        "wal.checkpoints",
        checkpoint.len() as f64,
        "count",
        tagged.len(),
    );
    put_median(m, "wal.checkpoint_op_us", &checkpoint, "us");
    put(
        m,
        "bg.tagged_ops",
        dirty.len() as f64,
        "count",
        tagged.len(),
    );
    put_median(m, "bg.tagged_op_us", &dirty, "us");
    if !clean.is_empty() {
        put(
            m,
            "bg.clean_op_p99_us",
            crate::stats::tail(&clean).0,
            "us",
            clean.len(),
        );
    }
    let warm: Vec<f64> = reclusters.iter().filter(|r| r.0).map(|r| r.1).collect();
    put_median(m, "db.recluster_warm_ms", &warm, "ms");
    if !reclusters.is_empty() {
        put(
            m,
            "db.recluster_warm_frac",
            warm.len() as f64 / reclusters.len() as f64,
            "fraction",
            reclusters.len(),
        );
    }
    put_median(m, "wal.bytes_per_op", wal_bytes, "bytes");
    reconcile_layers(m, t, op_span);
}

/// Share of an op's time its stage spans may leave unexplained.
pub const RECONCILE_TOLERANCE: f64 = 0.05;

/// Reconciles every `op_name` span against its stage spans: the median
/// and 95th percentile of the unexplained residue (as a fraction of the
/// op), and how many ops exceed [`RECONCILE_TOLERANCE`].
pub fn reconcile_layers(m: &mut Metrics, trace: &Trace, op_name: &str) {
    use crate::stats::{put, put_median};
    let residues = trace.residues(op_name);
    if residues.is_empty() {
        return;
    }
    put_median(m, "reconcile.residue_frac", &residues, "fraction");
    put(
        m,
        "reconcile.residue_p95_frac",
        crate::spans::p95(&residues),
        "fraction",
        residues.len(),
    );
    let over = residues
        .iter()
        .filter(|r| r.abs() > RECONCILE_TOLERANCE)
        .count();
    put(
        m,
        "reconcile.over_tolerance",
        over as f64,
        "count",
        residues.len(),
    );
}

/// Per-layer metrics of decomposed queries: transform, per-shard
/// search (median and the slowest shard's median), the slowest shard
/// per query split by probe class, merge, chosen-over-exhaustive
/// ratios, and the pool hop.
pub fn query_layers(m: &mut Metrics, parts: &[QueryParts]) {
    use crate::stats::{median, put, put_median};
    if parts.is_empty() {
        return;
    }
    let col = |f: &dyn Fn(&QueryParts) -> f64| -> Vec<f64> { parts.iter().map(f).collect() };
    put_median(m, "tfidf.transform_us", &col(&|p| p.transform_us), "us");
    put_median(m, "shard.merge_us", &col(&|p| p.merge_us), "us");
    put_median(m, "service.search_us", &col(&|p| p.pooled_us), "us");
    put_median(m, "service.seq_search_us", &col(&|p| p.seq_us), "us");
    put_median(
        m,
        "service.pool_hop_us",
        &col(&|p| p.pooled_us - p.seq_us),
        "us",
    );
    let shards = parts[0].shard_us.len();
    let all: Vec<f64> = parts.iter().flat_map(|p| p.shard_us.clone()).collect();
    put_median(m, "shard.search_us", &all, "us");
    let per_shard_p50 = (0..shards)
        .map(|s| median(&col(&|p| p.shard_us[s])))
        .fold(0.0, f64::max);
    put(m, "shard.search_max_us", per_shard_p50, "us", all.len());
    let worst = |p: &QueryParts| p.shard_us.iter().copied().fold(0.0, f64::max);
    put_median(m, "shard.worst_us", &col(&worst), "us");
    let ratio = |p: &QueryParts, s: usize| p.shard_us[s] / p.exhaustive_us[s].max(1e-3);
    let ratios: Vec<f64> = parts
        .iter()
        .flat_map(|p| (0..shards).map(move |s| ratio(p, s)))
        .collect();
    put_median(m, "shard.chosen_over_exhaustive", &ratios, "ratio");
    let mut max_cell = 0.0f64;
    for class in 0..2 {
        let of: Vec<&QueryParts> = parts.iter().filter(|p| p.class == class).collect();
        if of.is_empty() {
            continue;
        }
        let name = ["shard.worst_indexed_us", "shard.worst_heldout_us"][class];
        let w: Vec<f64> = of.iter().map(|p| worst(p)).collect();
        put_median(m, name, &w, "us");
        let r: Vec<f64> = of
            .iter()
            .flat_map(|p| (0..shards).map(move |s| ratio(p, s)))
            .collect();
        let name = [
            "shard.chosen_over_exhaustive_indexed",
            "shard.chosen_over_exhaustive_heldout",
        ][class];
        put_median(m, name, &r, "ratio");
        for s in 0..shards {
            let cell: Vec<f64> = of.iter().map(|p| ratio(p, s)).collect();
            max_cell = max_cell.max(median(&cell));
        }
    }
    put(
        m,
        "shard.chosen_over_exhaustive_max",
        max_cell,
        "ratio",
        ratios.len(),
    );
}

/// Prints the per-shard table of decomposed queries by probe class.
pub fn print_shard_table(parts: &[QueryParts]) {
    use crate::stats::median;
    if parts.is_empty() {
        return;
    }
    println!(
        "{:<10} {:>5} {:>8} {:>12} {:>14} {:>10}",
        "class", "shard", "queries", "chosen_p50", "exhaustive_p50", "ratio_p50"
    );
    for class in 0..2 {
        let of: Vec<&QueryParts> = parts.iter().filter(|p| p.class == class).collect();
        if of.is_empty() {
            continue;
        }
        for s in 0..of[0].shard_us.len() {
            let c: Vec<f64> = of.iter().map(|p| p.shard_us[s]).collect();
            let e: Vec<f64> = of.iter().map(|p| p.exhaustive_us[s]).collect();
            let r: Vec<f64> = of
                .iter()
                .map(|p| p.shard_us[s] / p.exhaustive_us[s].max(1e-3))
                .collect();
            println!(
                "{:<10} {:>5} {:>8} {:>12.2} {:>14.2} {:>10.3}",
                ["indexed", "held-out"][class],
                s,
                of.len(),
                median(&c),
                median(&e),
                median(&r)
            );
        }
    }
}
