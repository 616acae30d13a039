//! `daemon-pipeline`: the paper's always-on daemon on one simulated
//! host. Each interval runs the kernel simulator under the Fmeter
//! tracer, collects the interval's signature, classifies it against a
//! durable sharded service, inserts it, evicts the oldest doc from the
//! retention window, and refreshes syndromes every few intervals.

use std::path::Path;
use std::time::Instant;

use fmeter_bench::standard_kernel;
use fmeter_core::{
    CheckpointPolicy, DurableOptions, Fmeter, RawSignature, RefitPolicy, SignatureLogger,
    SyncPolicy, VacuumPolicy,
};
use fmeter_ir::{SearchScratch, TermCounts};
use fmeter_kernel_sim::{CpuId, Kernel, Nanos};
use fmeter_trace::DeltaCursor;
use fmeter_workloads::{ApacheBench, Dbench, KCompile, RollingMix, Scp, WithBackground, Workload};

use crate::common::{
    decompose, err, query_layers, release, scratch_dir, set_up, store_layers, us, Phase,
    PhaseResult, Res, RunResult, Store, StoreConfig,
};
use crate::host::Pacer;
use crate::spans::{Spans, Trace};
use crate::stats::put_median;

/// Sizes of one daemon-pipeline run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Set-up repetitions (`setup_s` is their median).
    pub setups: usize,
    /// Bootstrap intervals per class; the store's window is four times
    /// this, so eviction starts with the first interval.
    pub bootstrap_per_class: usize,
    pub cpus: usize,
    pub interval_ms: u64,
    pub store: StoreConfig,
    /// Every how many intervals the production search is checked
    /// against the exhaustive oracle (outside the timed op).
    pub recall_every: u64,
}

const CLASSES: [&str; 4] = ["kcompile", "scp", "dbench", "apachebench"];

impl Config {
    /// The benchmark's size.
    pub fn full() -> Self {
        Config {
            setups: crate::SETUPS,
            bootstrap_per_class: 32,
            cpus: 4,
            interval_ms: 8,
            store: StoreConfig {
                shards: 4,
                window: 128,
                classify_k: 5,
                recluster_k: 4,
                recluster_every: 6,
                refit: RefitPolicy::Threshold {
                    max_idf_drift: 0.5,
                    max_stale_fraction: 0.2,
                },
                vacuum: VacuumPolicy::DeadFraction {
                    max_dead_fraction: 0.2,
                    min_dead: 8,
                },
                durable: DurableOptions {
                    sync: SyncPolicy::EveryN(16),
                    checkpoint: CheckpointPolicy::Every {
                        ops: Some(256),
                        wal_bytes: None,
                        interval: None,
                    },
                },
            },
            recall_every: 8,
        }
    }

    /// A small run that reaches every layer of this workload quickly.
    pub fn probe() -> Self {
        let mut c = Self::full();
        c.setups = 1;
        c.bootstrap_per_class = 6;
        c.store.window = 24;
        c.store.durable.checkpoint = CheckpointPolicy::Every {
            ops: Some(24),
            wal_bytes: None,
            interval: None,
        };
        c.recall_every = 2;
        c
    }
}

struct Host {
    kernel: Kernel,
    fmeter: Fmeter,
    logger: SignatureLogger,
    mix: RollingMix,
    store: Store,
}

fn setup(cfg: &Config, seed: u64, out: &Path, cpus: &[CpuId]) -> Res<Host> {
    let mut kernel = standard_kernel(seed);
    let fmeter = Fmeter::install(&mut kernel);
    let interval = Nanos::from_millis(cfg.interval_ms);
    let mut logger = fmeter.logger(interval, kernel.now());
    let mut raw: Vec<RawSignature> = Vec::new();
    for (i, label) in CLASSES.iter().enumerate() {
        let wseed = seed ^ ((i as u64 + 1) << 12);
        let primary: Box<dyn Workload> = match i {
            0 => Box::new(KCompile::new(wseed)),
            1 => Box::new(Scp::new(wseed)),
            2 => Box::new(Dbench::new(wseed)),
            _ => Box::new(ApacheBench::new(wseed)),
        };
        let mut w = WithBackground::new(primary, wseed, 0.05, 0.45);
        logger.resync(kernel.now());
        raw.extend(
            logger
                .collect(
                    &mut kernel,
                    &mut w,
                    cpus,
                    cfg.bootstrap_per_class,
                    Some(label),
                )
                .map_err(err("bootstrap collection"))?,
        );
    }
    let dir = scratch_dir(out, "daemon-wal")?;
    let store = Store::create(&raw, &dir, cfg.store, seed)?;
    logger.resync(kernel.now());
    Ok(Host {
        kernel,
        fmeter,
        logger,
        mix: RollingMix::standard(seed, 300..=900),
        store,
    })
}

/// Runs the workload: three timed set-ups, then `phases`, then a crash
/// and recovery of the durable store.
pub fn run(cfg: &Config, seed: u64, phases: &[Phase], out: &Path) -> Res<RunResult> {
    let cpus: Vec<CpuId> = (0..cfg.cpus).map(CpuId).collect();
    let mut result = RunResult::default();
    let mut host = set_up(
        cfg.setups,
        &mut result,
        || setup(cfg, seed, out, &cpus),
        release,
    )?;
    let epoch = Instant::now();
    let mut op = 0u64;
    let mut probes: Vec<TermCounts> = Vec::new();
    for phase in phases {
        let r = run_phase(cfg, &mut host, *phase, epoch, &mut op, &mut probes, &cpus)?;
        result.phases.push(r);
    }
    let ops = result.phases.iter().map(|p| p.op_us.len() as u64).sum();
    host.store.crash_and_recover(&probes, ops, &mut result)?;
    Ok(result)
}

fn run_phase(
    cfg: &Config,
    host: &mut Host,
    phase: Phase,
    epoch: Instant,
    op: &mut u64,
    probes: &mut Vec<TermCounts>,
    cpus: &[CpuId],
) -> Res<PhaseResult> {
    let mut spans = Spans::new(phase.traced, epoch, 0);
    let mut r = PhaseResult::default();
    let tracer = host.fmeter.tracer().clone();
    let interval = Nanos::from_millis(cfg.interval_ms);
    // Counter totals at the phase start: the intervals' call counts
    // must add up to exactly the counters' growth.
    let base = tracer.snapshot(host.kernel.now());
    host.logger.resync(host.kernel.now());
    let mut cursor = DeltaCursor::new(base.clone());
    let mut signature_calls = 0u64;
    let mut step_calls = 0u64;
    let mut tagged = Vec::new();
    let mut reclusters = Vec::new();
    let mut wal_bytes = Vec::new();
    let mut parts = Vec::new();
    let mut collect_us = Vec::new();
    let mut step_us = Vec::new();
    let mut calls_per_interval = Vec::new();
    let mut scratch = SearchScratch::new();
    let mut pacer = Pacer::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < phase.seconds {
        *op += 1;
        r.attempted += 1;
        let before = phase.traced.then(|| host.store.counters());
        let t0 = Instant::now();
        let open = spans.enter(*op, "interval");
        let label = host.mix.name().to_string();
        let sig = if phase.traced {
            // The logger's collect taken apart into its layers: the
            // simulated kernel runs the interval, the tracer's counters
            // are snapshotted, and the cursor takes the delta.
            let c = spans.enter(*op, "logger.collect");
            let deadline = cursor.previous().taken_at() + interval;
            let a = Instant::now();
            let mut i = 0usize;
            while host.kernel.now() < deadline {
                let stats = host
                    .mix
                    .step(&mut host.kernel, cpus[i % cpus.len()])
                    .map_err(err("kernel step"))?;
                step_calls += stats.kernel_calls;
                i += 1;
            }
            let b = Instant::now();
            spans.record(*op, "kernel_sim.step", a, b);
            step_us.push(us(a, b));
            let now = host.kernel.now();
            let snap = spans.span(*op, "trace.snapshot", || tracer.snapshot(now));
            let (counts, started_at, ended_at) =
                spans.span(*op, "trace.delta", || cursor.advance(snap));
            spans.exit(c);
            RawSignature {
                counts,
                started_at,
                ended_at,
                label: Some(label.clone()),
            }
        } else {
            host.logger
                .collect_one(&mut host.kernel, &mut host.mix, cpus, Some(&label))
                .map_err(err("collect_one"))?
        };
        let t1 = Instant::now();
        let total = sig.total_calls();
        signature_calls += total;
        let ingested = host.store.ingest(*op, &sig, &mut spans);
        let t2 = Instant::now();
        spans.exit(open);
        let ingested = match ingested {
            Ok(i) => i,
            Err(e) => {
                eprintln!("daemon-pipeline op {op}: {e}");
                r.failed += 1;
                continue;
            }
        };
        r.op_us.push(us(t1, t2));
        r.busy_us.push(us(t0, t2));
        if ingested.verdict.is_some() {
            r.verdicts.1 += 1;
            if ingested.verdict.as_deref() == Some(label.as_str()) {
                r.verdicts.0 += 1;
            }
        }
        if let Some(before) = before {
            collect_us.push(us(t0, t1));
            calls_per_interval.push(total as f64);
            let (background, wal) = before.since(host.store.counters(), ingested.recluster);
            tagged.push((background, us(t1, t2)));
            reclusters.extend(ingested.recluster);
            wal_bytes.extend(wal.map(|b| b as f64));
        }
        if op.is_multiple_of(cfg.recall_every) {
            let counts = sig.to_term_counts();
            match host.store.recall(&counts, &mut scratch) {
                Ok((hit, of)) => {
                    r.recall.0 += hit;
                    r.recall.1 += of;
                    if hit != of {
                        r.failed += 1;
                    }
                }
                Err(e) => {
                    eprintln!("daemon-pipeline op {op}: {e}");
                    r.failed += 1;
                }
            }
            if phase.traced {
                let snapshot = host.store.service.snapshot();
                match decompose(
                    &host.store.service,
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
                        eprintln!("daemon-pipeline op {op}: {e}");
                        r.failed += 1;
                    }
                }
            }
            if probes.len() < 16 {
                probes.push(counts);
            }
        }
        pacer.tick();
    }
    r.host_us = pacer.samples;
    let growth = tracer.snapshot(host.kernel.now()).total() - base.total();
    if growth != signature_calls {
        eprintln!(
            "daemon-pipeline: intervals counted {signature_calls} calls, counters grew {growth}"
        );
        r.failed += 1;
    }
    if phase.traced && step_calls != signature_calls {
        eprintln!(
            "daemon-pipeline: kernel steps made {step_calls} calls, intervals counted {signature_calls}"
        );
        r.failed += 1;
    }
    let mut trace = Trace::default();
    trace.absorb(spans.into_spans());
    r.trace = trace;
    if phase.traced {
        let m = &mut r.layers;
        put_median(m, "logger.collect_us", &collect_us, "us");
        put_median(m, "kernel_sim.step_us", &step_us, "us");
        put_median(
            m,
            "kernel_sim.calls_per_interval",
            &calls_per_interval,
            "count",
        );
        put_median(m, "trace.snapshot_us", &r.trace.us("trace.snapshot"), "us");
        put_median(m, "trace.delta_us", &r.trace.us("trace.delta"), "us");
        query_layers(m, &parts);
        store_layers(&mut r, &tagged, &reclusters, &wal_bytes, "interval");
    }
    Ok(r)
}
