//! `dashboard-query`: read-only top-10 search from two reader threads
//! against a static 4-shard service. Half the probes are fresh draws
//! from indexed classes, half come from classes held out of the corpus,
//! where no shard holds a strong match.

use std::collections::HashSet;
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use fmeter_bench::synthetic_raw_signatures;
use fmeter_core::{RawSignature, SignatureDb, SignatureService};
use fmeter_ir::{SearchScratch, TermCounts};

use crate::common::{
    decompose, err, fingerprint, oracle_top, print_shard_table, query_layers, recall_of, release,
    set_up, us, Phase, PhaseResult, QueryParts, Res, RunResult,
};
use crate::spans::Spans;
use crate::stats::SplitMix;

/// Sizes of one dashboard-query run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Set-up repetitions (`setup_s` is their median).
    pub setups: usize,
    /// Indexed docs.
    pub docs: usize,
    /// Classes in the generator; the last `held_out` never enter the
    /// corpus.
    pub classes: usize,
    pub held_out: usize,
    pub dim: usize,
    pub shards: usize,
    pub readers: usize,
    pub k: usize,
    /// Distinct probes (half indexed, half held out) the readers cycle
    /// through.
    pub probes: usize,
}

impl Config {
    /// The benchmark's size.
    pub fn full() -> Self {
        Config {
            setups: crate::SETUPS,
            docs: 40_000,
            classes: 64,
            held_out: 16,
            dim: 1000,
            shards: 4,
            readers: 2,
            k: 10,
            probes: 128,
        }
    }

    /// A small run that reaches every layer of this workload quickly.
    pub fn probe() -> Self {
        Config {
            setups: 1,
            docs: 4000,
            probes: 64,
            ..Self::full()
        }
    }
}

struct Probe {
    counts: TermCounts,
    label: String,
    /// 0 = indexed class, 1 = held-out class.
    class: usize,
}

fn class_of(sig: &RawSignature) -> usize {
    sig.label
        .as_deref()
        .and_then(|l| l.strip_prefix("class"))
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

fn inputs(cfg: &Config, seed: u64) -> (Vec<RawSignature>, Vec<Probe>) {
    let indexed = cfg.classes - cfg.held_out;
    // Every class gets the same share of the generator's output; keep
    // the indexed classes until the corpus is full.
    let generated = cfg.docs * cfg.classes / indexed + cfg.classes;
    let corpus: Vec<RawSignature> = synthetic_raw_signatures(generated, cfg.classes, cfg.dim, seed)
        .into_iter()
        .filter(|s| class_of(s) < indexed)
        .take(cfg.docs)
        .collect();
    let fresh = synthetic_raw_signatures(cfg.probes * 2, cfg.classes, cfg.dim, seed ^ 0xda5b_0a7d);
    let (mut inside, mut outside): (Vec<Probe>, Vec<Probe>) = fresh
        .iter()
        .map(|s| {
            let held = class_of(s) >= indexed;
            Probe {
                counts: s.to_term_counts(),
                label: s.label.clone().unwrap_or_default(),
                class: usize::from(held),
            }
        })
        .partition(|p| p.class == 0);
    inside.truncate(cfg.probes / 2);
    outside.truncate(cfg.probes / 2);
    // Interleave, so every stretch of the probe list mixes both kinds.
    let mut probes = Vec::with_capacity(cfg.probes);
    let mut outside = outside.into_iter();
    for p in inside {
        probes.push(p);
        probes.extend(outside.next());
    }
    probes.extend(outside);
    (corpus, probes)
}

/// Runs the workload: inputs generated from `seed`, three timed
/// set-ups (tf-idf fit, index build, sharding, pool start), then
/// `phases`.
pub fn run(cfg: &Config, seed: u64, phases: &[Phase], _out: &Path) -> Res<RunResult> {
    let (corpus, probes) = inputs(cfg, seed);
    let mut result = RunResult::default();
    let service = set_up(
        cfg.setups,
        &mut result,
        || {
            SignatureDb::build(&corpus)
                .map(|db| SignatureService::from_db(db, cfg.shards))
                .map_err(err("building the service"))
        },
        release,
    )?;
    drop(corpus);
    // The reference for every probe on the one static snapshot: the
    // sequential snapshot search (which pooled results must equal bit
    // for bit), its `classify` verdict, and recall against the exhaustive
    // oracle.
    let snapshot = service.snapshot();
    let mut scratch = SearchScratch::new();
    let mut reference = Vec::with_capacity(probes.len());
    for p in &probes {
        let seq = snapshot
            .search(&p.counts, cfg.k, &mut scratch)
            .map_err(err("sequential search"))?;
        let oracle = oracle_top(&snapshot, &p.counts, cfg.k, &mut scratch)?;
        let verdict = service
            .classify(&p.counts, cfg.k)
            .map_err(err("classify"))?;
        let correct = verdict.as_deref() == Some(p.label.as_str());
        reference.push((fingerprint(&seq), correct, recall_of(&seq, &oracle)));
    }
    let epoch = Instant::now();
    for (i, phase) in phases.iter().enumerate() {
        let mut r = PhaseResult::default();
        let barrier = Barrier::new(cfg.readers);
        let outcomes: Vec<Res<Reader>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..cfg.readers)
                .map(|t| {
                    let (service, snapshot, probes, barrier) =
                        (&service, &snapshot, &probes, &barrier);
                    let mut rng = SplitMix(seed ^ ((i * cfg.readers + t) as u64 + 1) << 20);
                    scope.spawn(move || {
                        reader(
                            cfg, service, snapshot, probes, *phase, epoch, t, &mut rng, barrier,
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| Err("reader panicked".into())))
                .collect()
        });
        let mut parts = Vec::new();
        for outcome in outcomes {
            let reader = outcome?;
            r.op_us.extend(&reader.op_us);
            r.busy_us.extend(&reader.op_us);
            r.trace.absorb(reader.spans);
            parts.extend(reader.parts);
            r.failed += reader.failed;
            r.host_us.extend(reader.host_us);
            for (probe, fp) in reader.results {
                r.attempted += 1;
                let (want, correct, recall) = reference[probe];
                if fp != want {
                    r.failed += 1;
                }
                if probes[probe].class == 0 {
                    r.verdicts.1 += 1;
                    r.verdicts.0 += u64::from(correct);
                }
                r.recall.0 += recall.0;
                r.recall.1 += recall.1;
            }
        }
        r.clients = cfg.readers;
        if phase.traced {
            query_layers(&mut r.layers, &parts);
            crate::common::reconcile_layers(&mut r.layers, &r.trace, "query");
            print_shard_table(&parts);
        }
        result.phases.push(r);
    }
    Ok(result)
}

struct Reader {
    op_us: Vec<f64>,
    /// `(probe index, result fingerprint)` of every query.
    results: Vec<(usize, u64)>,
    failed: u64,
    spans: Vec<crate::spans::Span>,
    parts: Vec<QueryParts>,
    host_us: Vec<f64>,
}

/// Readers run in rounds of this length; between rounds both pause
/// while reader 0 times the host reference.
const ROUND: Duration = Duration::from_millis(100);

#[allow(clippy::too_many_arguments)]
fn reader(
    cfg: &Config,
    service: &SignatureService,
    snapshot: &Arc<fmeter_core::ShardSnapshot>,
    probes: &[Probe],
    phase: Phase,
    epoch: Instant,
    thread: usize,
    rng: &mut SplitMix,
    barrier: &Barrier,
) -> Res<Reader> {
    let mut spans = Spans::new(phase.traced, epoch, thread as u32);
    let mut scratch = SearchScratch::new();
    let mut out = Reader {
        op_us: Vec::new(),
        results: Vec::new(),
        failed: 0,
        spans: Vec::new(),
        parts: Vec::new(),
        host_us: Vec::new(),
    };
    let mut seen: HashSet<usize> = HashSet::new();
    barrier.wait();
    let start = Instant::now();
    let mut op = (thread as u64) << 40;
    let rounds = (phase.seconds / ROUND.as_secs_f64()).ceil().max(1.0) as u32;
    for round in 1..=rounds {
        let deadline = start + ROUND * round;
        while Instant::now() < deadline {
            op += 1;
            query(
                cfg,
                service,
                snapshot,
                probes,
                phase,
                op,
                rng,
                &mut spans,
                &mut scratch,
                &mut seen,
                &mut out,
            );
        }
        barrier.wait();
        if thread == 0 {
            out.host_us.push(crate::host::sample());
        }
        barrier.wait();
    }
    out.spans = spans.into_spans();
    Ok(out)
}

/// One query of a reader, plus its layer-by-layer re-run the first
/// time the reader meets the probe in a traced phase.
#[allow(clippy::too_many_arguments)]
fn query(
    cfg: &Config,
    service: &SignatureService,
    snapshot: &Arc<fmeter_core::ShardSnapshot>,
    probes: &[Probe],
    phase: Phase,
    op: u64,
    rng: &mut SplitMix,
    spans: &mut Spans,
    scratch: &mut SearchScratch,
    seen: &mut HashSet<usize>,
    out: &mut Reader,
) {
    let idx = rng.below(probes.len());
    let probe = &probes[idx];
    let t0 = Instant::now();
    let open = spans.enter(op, "query");
    let hits = spans.span(op, "service.search", || {
        service.search(&probe.counts, cfg.k)
    });
    spans.exit(open);
    let t1 = Instant::now();
    match hits {
        Ok(hits) => {
            out.op_us.push(us(t0, t1));
            out.results.push((idx, fingerprint(&hits)));
        }
        Err(e) => {
            eprintln!("dashboard-query op {op}: {e}");
            out.failed += 1;
        }
    }
    if phase.traced && seen.insert(idx) {
        match decompose(
            service,
            snapshot,
            &probe.counts,
            cfg.k,
            probe.class,
            op,
            spans,
            scratch,
        ) {
            Ok(p) => out.parts.push(p),
            Err(e) => {
                eprintln!("dashboard-query op {op}: {e}");
                out.failed += 1;
            }
        }
    }
}
