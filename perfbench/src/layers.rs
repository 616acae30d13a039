//! The per-layer metric registry and the tracer calibration every traced
//! run performs.

use std::sync::Arc;
use std::time::Instant;

use fmeter_core::Fmeter;
use fmeter_kernel_sim::{CpuId, Kernel, KernelConfig, NullTracer};
use fmeter_trace::{measure_fmeter_increment, measure_ftrace_append};
use fmeter_workloads::{Dbench, Workload};

use crate::common::{err, Res};
use crate::stats::{median, put, Metrics};
use crate::Workload as W;

/// One per-layer metric: its name, its unit, and the workload probed
/// for it when the traced workload does not measure it (`None`: a
/// calibration every traced run performs).
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub probe: Option<W>,
}

const D: W = W::DaemonPipeline;
const C: W = W::StoreChurn;
const Q: W = W::DashboardQuery;
const S: W = W::SyndromeBatch;

const fn layer(name: &'static str, unit: &'static str, probe: W) -> Layer {
    Layer {
        name,
        unit,
        probe: Some(probe),
    }
}

const fn calibration(name: &'static str) -> Layer {
    Layer {
        name,
        unit: "ns",
        probe: None,
    }
}

/// Every per-layer metric, in the order `BENCHMARK.json` lists them.
pub const LAYERS: &[Layer] = &[
    layer("kernel_sim.step_us", "us", D),
    layer("kernel_sim.calls_per_interval", "count", D),
    calibration("trace.fmeter_ns_per_call"),
    calibration("trace.ftrace_ns_per_call"),
    calibration("trace.overhead_ns_per_call"),
    layer("trace.snapshot_us", "us", D),
    layer("trace.delta_us", "us", D),
    layer("logger.collect_us", "us", D),
    layer("tfidf.transform_us", "us", Q),
    layer("shard.search_us", "us", Q),
    layer("shard.search_max_us", "us", Q),
    layer("shard.worst_us", "us", Q),
    layer("shard.worst_indexed_us", "us", Q),
    layer("shard.worst_heldout_us", "us", Q),
    layer("shard.merge_us", "us", Q),
    layer("shard.chosen_over_exhaustive", "ratio", Q),
    layer("shard.chosen_over_exhaustive_max", "ratio", Q),
    layer("shard.chosen_over_exhaustive_indexed", "ratio", Q),
    layer("shard.chosen_over_exhaustive_heldout", "ratio", Q),
    layer("service.search_us", "us", Q),
    layer("service.seq_search_us", "us", Q),
    layer("service.pool_hop_us", "us", Q),
    layer("service.classify_us", "us", C),
    layer("service.insert_us", "us", C),
    layer("service.remove_us", "us", C),
    layer("db.refits", "count", C),
    layer("db.refit_op_us", "us", C),
    layer("db.vacuums", "count", C),
    layer("db.vacuum_op_us", "us", C),
    layer("db.recluster_warm_ms", "ms", C),
    layer("db.recluster_cold_ms", "ms", C),
    layer("db.recluster_warm_frac", "fraction", C),
    layer("wal.bytes_per_op", "bytes", C),
    layer("wal.disk_bytes_per_op", "bytes", C),
    layer("wal.checkpoints", "count", C),
    layer("wal.checkpoint_op_us", "us", C),
    layer("persist.recover_ms", "ms", C),
    layer("persist.replayed_ops", "count", C),
    layer("bg.tagged_ops", "count", C),
    layer("bg.tagged_op_us", "us", C),
    layer("bg.clean_op_p99_us", "us", C),
    layer("ann.build_ms", "ms", S),
    layer("kmeans.cold_ms", "ms", S),
    layer("kmeans.purity", "fraction", S),
    layer("hierarchical.fit_snn_ms", "ms", S),
    layer("hierarchical.purity", "fraction", S),
    layer("reconcile.residue_frac", "fraction", D),
    layer("reconcile.residue_p95_frac", "fraction", D),
    layer("reconcile.over_tolerance", "count", D),
];

/// Repetitions of each calibration (the median is reported).
const REPEATS: usize = 5;

/// Dbench steps per overhead replay.
const REPLAY_STEPS: usize = 300;

/// The tracer's fast paths and the whole-kernel tracing overhead:
/// `measure_fmeter_increment` and `measure_ftrace_append` (the paper's
/// Tables 1–3 per-call costs), and one seeded op sequence replayed on
/// fresh kernels under `NullTracer` and under the Fmeter tracer, in
/// alternation.
pub fn calibrate(seed: u64, m: &mut Metrics) -> Res<()> {
    let fmeter: Vec<f64> = (0..REPEATS)
        .map(|_| measure_fmeter_increment(2_000_000))
        .collect();
    let ftrace: Vec<f64> = (0..REPEATS)
        .map(|_| measure_ftrace_append(200_000))
        .collect();
    put(
        m,
        "trace.fmeter_ns_per_call",
        median(&fmeter),
        "ns",
        REPEATS,
    );
    put(
        m,
        "trace.ftrace_ns_per_call",
        median(&ftrace),
        "ns",
        REPEATS,
    );
    let mut per_call = [Vec::new(), Vec::new()];
    for _ in 0..REPEATS {
        for (mode, out) in per_call.iter_mut().enumerate() {
            out.push(replay(seed, mode == 1)?);
        }
    }
    put(
        m,
        "trace.overhead_ns_per_call",
        median(&per_call[1]) - median(&per_call[0]),
        "ns",
        REPEATS,
    );
    Ok(())
}

/// Wall-clock ns per instrumented call of a fixed dbench step sequence
/// on a fresh one-CPU kernel, with or without the Fmeter tracer.
fn replay(seed: u64, counting: bool) -> Res<f64> {
    let mut kernel = Kernel::new(KernelConfig {
        num_cpus: 1,
        seed,
        ..KernelConfig::default()
    })
    .map_err(err("kernel"))?;
    if counting {
        Fmeter::install(&mut kernel);
    } else {
        kernel.set_tracer(Arc::new(NullTracer));
    }
    let mut workload = Dbench::new(seed);
    let mut calls = 0u64;
    let start = Instant::now();
    for _ in 0..REPLAY_STEPS {
        calls += workload
            .step(&mut kernel, CpuId(0))
            .map_err(err("replay step"))?
            .kernel_calls;
    }
    let ns = start.elapsed().as_nanos() as f64;
    std::hint::black_box(&kernel);
    Ok(ns / calls.max(1) as f64)
}
