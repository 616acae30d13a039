//! End-to-end benchmark of the Fmeter pipeline.
//!
//! ```text
//! fmeter-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Runs one workload, checks its outputs, prints every metric by name
//! with its unit and sample count, and ends with one JSON line
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones; with `--trace 1` the run
//! measures half its time untraced and half traced (spans recorded
//! around every call into a layer), prints both halves' end-to-end
//! numbers side by side, and reports the per-layer metrics. See
//! `perfbench/README.md` for the workloads and metric definitions.

mod churn;
mod common;
mod daemon;
mod dashboard;
mod host;
mod layers;
mod spans;
mod stats;
mod syndrome;

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use common::{Phase, PhaseResult, Res, RunResult};
use stats::{median, put, put_note, tail, Metric, Metrics};

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// How long a probe of another workload measures, when the traced
/// workload does not reach a layer itself.
const PROBE_SECONDS: f64 = 1.0;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    DaemonPipeline,
    StoreChurn,
    DashboardQuery,
    SyndromeBatch,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::DaemonPipeline,
        Workload::StoreChurn,
        Workload::DashboardQuery,
        Workload::SyndromeBatch,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::DaemonPipeline => "daemon-pipeline",
            Workload::StoreChurn => "store-churn",
            Workload::DashboardQuery => "dashboard-query",
            Workload::SyndromeBatch => "syndrome-batch",
        }
    }

    fn run(self, probe: bool, seed: u64, phases: &[Phase], out: &Path) -> Res<RunResult> {
        match self {
            Workload::DaemonPipeline => {
                let cfg = if probe {
                    daemon::Config::probe()
                } else {
                    daemon::Config::full()
                };
                daemon::run(&cfg, seed, phases, out)
            }
            Workload::StoreChurn => {
                let cfg = if probe {
                    churn::Config::probe()
                } else {
                    churn::Config::full()
                };
                churn::run(&cfg, seed, phases, out)
            }
            Workload::DashboardQuery => {
                let cfg = if probe {
                    dashboard::Config::probe()
                } else {
                    dashboard::Config::full()
                };
                dashboard::run(&cfg, seed, phases, out)
            }
            Workload::SyndromeBatch => {
                let cfg = if probe {
                    syndrome::Config::probe()
                } else {
                    syndrome::Config::full()
                };
                syndrome::run(&cfg, seed, phases, out)
            }
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Res<Args> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(key) = it.next() {
        let key = key
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {key:?}"))?
            .to_string();
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        map.insert(key, value);
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("--{k} is required"));
    let name = get("workload")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let out = map
        .get("out")
        .map_or_else(|| PathBuf::from("perfbench/out"), PathBuf::from);
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        out,
    })
}

/// Slices the throughput is computed over.
const SLICES: usize = 20;

/// Closed-loop throughput: `clients` × ops ÷ the time they kept a
/// client busy, taken as the median over [`SLICES`] runs of consecutive
/// ops, so a short slow stretch of a shared host does not swing it.
fn throughput(busy_us: &[f64], clients: usize) -> f64 {
    let per = busy_us.len().div_ceil(SLICES).max(1);
    let rates: Vec<f64> = busy_us
        .chunks(per)
        .map(|c| clients as f64 * c.len() as f64 * 1e6 / c.iter().sum::<f64>().max(1e-3))
        .collect();
    median(&rates)
}

/// The end-to-end metrics of one phase, times scaled to the reference
/// host (see `host.rs`); each note gives the raw value.
fn end_to_end(run: &RunResult, phase: &PhaseResult) -> Metrics {
    let mut m = Metrics::new();
    let fs = host::factor(&run.setup_host_us);
    let fp = host::factor(&phase.host_us);
    let raw = |v: f64, f: f64| format!("raw {v}, host factor {f:.4}");
    let setup = median(&run.setup_s);
    put_note(
        &mut m,
        "setup_s",
        setup * fs,
        "s",
        run.setup_s.len(),
        raw(setup, fs),
    );
    let ops = throughput(&phase.busy_us, phase.clients.max(1));
    put_note(
        &mut m,
        "ops_per_s",
        ops / fp,
        "1/s",
        phase.op_us.len(),
        raw(ops, fp),
    );
    let p50 = median(&phase.op_us);
    put_note(
        &mut m,
        "op_p50_us",
        p50 * fp,
        "us",
        phase.op_us.len(),
        raw(p50, fp),
    );
    let (p99, q) = tail(&phase.op_us);
    put_note(
        &mut m,
        "op_p99_us",
        p99 * fp,
        "us",
        phase.op_us.len(),
        format!("p{:.1}, {}", q * 100.0, raw(p99, fp)),
    );
    put(&mut m, "peak_rss_mb", stats::peak_rss_mb(), "MB", 1);
    let share = |(a, b): (u64, u64)| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    put(
        &mut m,
        "verdict_accuracy",
        share(phase.verdicts),
        "fraction",
        phase.verdicts.1 as usize,
    );
    put(
        &mut m,
        "recall_at_10",
        share(phase.recall),
        "fraction",
        phase.recall.1 as usize,
    );
    m
}

fn print_metrics(prefix: &str, m: &Metrics) {
    for (name, x) in m {
        let note = if x.note.is_empty() {
            String::new()
        } else {
            format!(", {}", x.note)
        };
        println!(
            "{prefix} {name} = {} {} (n={}{note})",
            x.value, x.unit, x.samples
        );
    }
}

fn json(correct: bool, attempted: u64, failed: u64, m: &BTreeMap<&str, Metric>) -> Res<String> {
    let mut body = Vec::new();
    for (name, x) in m {
        if !x.value.is_finite() {
            return Err(format!("{name} is not a finite number"));
        }
        body.push(format!(
            "\"{name}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            x.value, x.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

/// Runs a short traced probe of `owner` and returns the per-layer
/// metrics it measured; its failed ops and checks add to `failed`.
fn probe(args: &Args, owner: Workload, failed: &mut u64) -> Res<Metrics> {
    let phase = Phase {
        seconds: PROBE_SECONDS,
        traced: true,
    };
    let run = owner.run(true, args.seed, &[phase], &args.out)?;
    for (check, ok) in &run.checks {
        if !ok {
            eprintln!("probe {}: check failed: {check}", owner.name());
            *failed += 1;
        }
    }
    let mut m = run.layers;
    for p in run.phases {
        *failed += p.failed;
        m.extend(p.layers);
    }
    Ok(m)
}

/// Fills the per-layer metrics the traced workload did not produce
/// itself, from short probes of the workloads that reach those layers.
fn fill_from_probes(args: &Args, layers_out: &mut Metrics, failed: &mut u64) -> Res<()> {
    let mut probes: BTreeMap<Workload, Metrics> = BTreeMap::new();
    for layer in layers::LAYERS {
        let Some(owner) = layer.probe else {
            continue;
        };
        if layers_out.contains_key(layer.name) {
            continue;
        }
        let measured = match probes.entry(owner) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(probe(args, owner, failed)?),
        };
        let mut metric = measured
            .get(layer.name)
            .cloned()
            .ok_or_else(|| format!("no probe measured {}", layer.name))?;
        metric.note = format!("from a {} probe", owner.name());
        layers_out.insert(layer.name, metric);
    }
    Ok(())
}

fn run(args: &Args) -> Res<bool> {
    let phases: Vec<Phase> = if args.trace {
        vec![
            Phase {
                seconds: args.seconds / 2.0,
                traced: false,
            },
            Phase {
                seconds: args.seconds / 2.0,
                traced: true,
            },
        ]
    } else {
        vec![Phase {
            seconds: args.seconds,
            traced: false,
        }]
    };
    let name = args.workload.name();
    println!(
        "workload {name}: seed {}, {} s measured, trace {}, {} set-ups",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        SETUPS
    );
    let mut result = args.workload.run(false, args.seed, &phases, &args.out)?;
    let attempted: u64 = result.phases.iter().map(|p| p.attempted).sum();
    let mut failed: u64 = result.phases.iter().map(|p| p.failed).sum();
    for (check, ok) in &result.checks {
        println!("check {}: {check}", if *ok { "ok" } else { "FAILED" });
        failed += u64::from(!ok);
    }
    let untraced = end_to_end(&result, &result.phases[0]);
    print_metrics("end-to-end", &untraced);
    let metrics = if args.trace {
        let traced = end_to_end(&result, &result.phases[1]);
        print_metrics("end-to-end (traced half)", &traced);
        let phase = &mut result.phases[1];
        let mut m = std::mem::take(&mut phase.layers);
        m.extend(std::mem::take(&mut result.layers));
        layers::calibrate(args.seed, &mut m)?;
        fill_from_probes(args, &mut m, &mut failed)?;
        println!("self time per span ({name}, traced half):");
        phase.trace.print_self_times();
        let path = args.out.join(format!("spans-{name}-{}.tsv", args.seed));
        phase
            .trace
            .write(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
        m.retain(|k, _| layers::LAYERS.iter().any(|l| l.name == *k));
        for layer in layers::LAYERS {
            match m.get(layer.name) {
                Some(x) if x.unit == layer.unit => {}
                Some(x) => return Err(format!("{} measured in {}", layer.name, x.unit)),
                None => return Err(format!("{} was not measured", layer.name)),
            }
        }
        // At most 1% of the ops may leave more than the tolerance of
        // their time outside their stage spans.
        let over = &m["reconcile.over_tolerance"];
        let ok = over.value <= 0.01 * over.samples as f64;
        println!(
            "check {}: {} of {} ops leave more than {}% of their time outside stage spans",
            if ok { "ok" } else { "FAILED" },
            over.value,
            over.samples,
            common::RECONCILE_TOLERANCE * 100.0
        );
        failed += u64::from(!ok);
        print_metrics("per-layer", &m);
        m
    } else {
        untraced
    };
    let correct = failed == 0;
    println!("{}", json(correct, attempted, failed, &metrics)?);
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fmeter-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("fmeter-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
