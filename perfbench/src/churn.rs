//! `store-churn`: the fleet collector. A durable 4-shard service over a
//! 10k-doc corpus is fed pre-generated signatures; each interval
//! classifies one, inserts it and evicts the oldest doc, so the live
//! size stays fixed while refits, vacuums, checkpoints and warm
//! reclusters fire under their policies. The run ends with a crash
//! (the service is dropped without a shutdown checkpoint) and a
//! recovery whose state is checked against the pre-crash state.

use std::path::Path;
use std::time::Instant;

use fmeter_bench::synthetic_raw_signatures;
use fmeter_core::{
    CheckpointPolicy, DurableOptions, RawSignature, RefitPolicy, SyncPolicy, VacuumPolicy,
};
use fmeter_ir::SearchScratch;

use crate::common::{
    decompose, query_layers, scratch_dir, set_up, store_layers, us, Phase, PhaseResult, Res,
    RunResult, Store, StoreConfig,
};
use crate::host::Pacer;
use crate::spans::{Spans, Trace};

/// Sizes of one store-churn run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Set-up repetitions (`setup_s` is their median).
    pub setups: usize,
    /// Live docs (the base corpus and the window).
    pub base: usize,
    /// Pre-generated signatures streamed in (cycled when exhausted).
    pub stream: usize,
    pub classes: usize,
    pub dim: usize,
    pub store: StoreConfig,
    /// Every how many intervals the production search is checked
    /// against the exhaustive oracle, and (traced) taken apart.
    pub recall_every: u64,
}

impl Config {
    /// The benchmark's size.
    pub fn full() -> Self {
        Config {
            setups: crate::SETUPS,
            base: 10_000,
            stream: 4096,
            classes: 50,
            dim: 1000,
            store: StoreConfig {
                shards: 4,
                window: 10_000,
                classify_k: 5,
                recluster_k: 8,
                recluster_every: 64,
                refit: RefitPolicy::Threshold {
                    max_idf_drift: 0.1,
                    max_stale_fraction: 0.1,
                },
                vacuum: VacuumPolicy::DeadFraction {
                    max_dead_fraction: 0.05,
                    min_dead: 64,
                },
                durable: DurableOptions {
                    sync: SyncPolicy::EveryN(16),
                    checkpoint: CheckpointPolicy::Every {
                        ops: Some(1024),
                        wal_bytes: None,
                        interval: None,
                    },
                },
            },
            recall_every: 16,
        }
    }

    /// A small run that reaches every layer of this workload quickly.
    pub fn probe() -> Self {
        let mut c = Self::full();
        c.setups = 1;
        c.base = 1000;
        c.stream = 512;
        c.store.window = 1000;
        c.store.recluster_every = 16;
        c.store.vacuum = VacuumPolicy::DeadFraction {
            max_dead_fraction: 0.02,
            min_dead: 8,
        };
        c.store.durable.checkpoint = CheckpointPolicy::Every {
            ops: Some(64),
            wal_bytes: None,
            interval: None,
        };
        c.recall_every = 4;
        c
    }
}

/// Runs the workload: inputs generated from `seed`, three timed
/// set-ups, then `phases`, then the crash and recovery.
pub fn run(cfg: &Config, seed: u64, phases: &[Phase], out: &Path) -> Res<RunResult> {
    let base = synthetic_raw_signatures(cfg.base, cfg.classes, cfg.dim, seed);
    let stream = synthetic_raw_signatures(cfg.stream, cfg.classes, cfg.dim, seed ^ 0x5eed_c4a1);
    let mut result = RunResult::default();
    let mut store = set_up(
        cfg.setups,
        &mut result,
        || Store::create(&base, &scratch_dir(out, "churn-wal")?, cfg.store, seed),
        drop_store,
    )?;
    let epoch = Instant::now();
    let mut op = 0u64;
    for phase in phases {
        let r = run_phase(cfg, &mut store, &stream, *phase, epoch, &mut op)?;
        result.phases.push(r);
    }
    let probes: Vec<_> = stream
        .iter()
        .step_by(cfg.stream / 16)
        .map(RawSignature::to_term_counts)
        .collect();
    let ops = result.phases.iter().map(|p| p.op_us.len() as u64).sum();
    store.crash_and_recover(&probes, ops, &mut result)?;
    Ok(result)
}

fn drop_store(store: Store) -> Res<()> {
    let dir = store.dir.clone();
    drop(store);
    std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {}: {e}", dir.display()))
}

fn run_phase(
    cfg: &Config,
    store: &mut Store,
    stream: &[RawSignature],
    phase: Phase,
    epoch: Instant,
    op: &mut u64,
) -> Res<PhaseResult> {
    let mut spans = Spans::new(phase.traced, epoch, 0);
    let mut r = PhaseResult::default();
    let mut tagged = Vec::new();
    let mut reclusters = Vec::new();
    let mut wal_bytes = Vec::new();
    let mut parts = Vec::new();
    let mut scratch = SearchScratch::new();
    let mut pacer = Pacer::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < phase.seconds {
        *op += 1;
        r.attempted += 1;
        let sig = &stream[(*op as usize - 1) % stream.len()];
        let before = phase.traced.then(|| store.counters());
        let t0 = Instant::now();
        let open = spans.enter(*op, "interval");
        let ingested = store.ingest(*op, sig, &mut spans);
        spans.exit(open);
        let t1 = Instant::now();
        let ingested = match ingested {
            Ok(i) => i,
            Err(e) => {
                eprintln!("store-churn op {op}: {e}");
                r.failed += 1;
                continue;
            }
        };
        r.op_us.push(us(t0, t1));
        r.busy_us.push(us(t0, t1));
        if ingested.verdict.is_some() {
            r.verdicts.1 += 1;
            if ingested.verdict == sig.label {
                r.verdicts.0 += 1;
            }
        }
        if let Some(before) = before {
            let (background, wal) = before.since(store.counters(), ingested.recluster);
            tagged.push((background, us(t0, t1)));
            reclusters.extend(ingested.recluster);
            wal_bytes.extend(wal.map(|b| b as f64));
        }
        if op.is_multiple_of(cfg.recall_every) {
            let counts = sig.to_term_counts();
            match store.recall(&counts, &mut scratch) {
                Ok((hit, of)) => {
                    r.recall.0 += hit;
                    r.recall.1 += of;
                    if hit != of {
                        r.failed += 1;
                    }
                }
                Err(e) => {
                    eprintln!("store-churn op {op}: {e}");
                    r.failed += 1;
                }
            }
            if phase.traced {
                let snapshot = store.service.snapshot();
                match decompose(
                    &store.service,
                    &snapshot,
                    &counts,
                    cfg.store.classify_k,
                    0,
                    *op,
                    &mut spans,
                    &mut scratch,
                ) {
                    Ok(p) => parts.push(p),
                    Err(e) => {
                        eprintln!("store-churn op {op}: {e}");
                        r.failed += 1;
                    }
                }
            }
        }
        pacer.tick();
    }
    r.host_us = pacer.samples;
    let mut trace = Trace::default();
    trace.absorb(spans.into_spans());
    r.trace = trace;
    if phase.traced {
        query_layers(&mut r.layers, &parts);
        store_layers(&mut r, &tagged, &reclusters, &wal_bytes, "interval");
    }
    Ok(r)
}
