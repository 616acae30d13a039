//! `syndrome-batch`: the paper's offline analysis (§5). Over a labelled
//! 10k-signature corpus, one op is a full clustering pass: cold K-means
//! (k = 50, one thread) and the ANN-backed agglomerative clustering
//! (`fit_snn`), each scored for purity against the labels.

use std::path::Path;
use std::time::Instant;

use fmeter_bench::{synthetic_raw_signatures, tfidf_vectors};
use fmeter_ir::{euclidean_distance_sq, AnnGraph, SparseVec};
use fmeter_ml::metrics::purity;
use fmeter_ml::{Agglomerative, KMeans, Linkage, SnnParams};

use crate::common::{err, release, set_up, us, Phase, PhaseResult, Res, RunResult};
use crate::host::{Pacer, SETUP_SAMPLES};
use crate::spans::{Spans, Trace};
use crate::stats::{put_median, SplitMix};

/// Sizes of one syndrome-batch run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Set-up repetitions (`setup_s` is their median).
    pub setups: usize,
    pub docs: usize,
    pub classes: usize,
    pub dim: usize,
    /// Clusters asked of both algorithms.
    pub k: usize,
    /// Points whose ANN neighbours are checked against exact ones.
    pub recall_queries: usize,
    /// Purity below this floor makes a pass a failure.
    pub purity_floor: f64,
}

impl Config {
    /// The benchmark's size.
    pub fn full() -> Self {
        Config {
            setups: crate::SETUPS,
            docs: 10_000,
            classes: 50,
            dim: 1000,
            k: 50,
            recall_queries: 200,
            purity_floor: 0.5,
        }
    }

    /// A small run that reaches every layer of this workload quickly.
    pub fn probe() -> Self {
        Config {
            setups: 1,
            docs: 1000,
            k: 10,
            classes: 10,
            recall_queries: 50,
            ..Self::full()
        }
    }
}

/// Runs the workload: inputs generated from `seed`, three timed
/// set-ups (tf-idf fit and transform of the corpus), then `phases`,
/// then the ANN recall check.
pub fn run(cfg: &Config, seed: u64, phases: &[Phase], _out: &Path) -> Res<RunResult> {
    let raw = synthetic_raw_signatures(cfg.docs, cfg.classes, cfg.dim, seed);
    let classes: Vec<usize> = (0..cfg.docs).map(|i| i % cfg.classes).collect();
    let mut result = RunResult::default();
    let points = set_up(
        cfg.setups,
        &mut result,
        || tfidf_vectors(&raw).map_err(err("tf-idf")),
        release,
    )?;
    drop(raw);
    let params = SnnParams::default();
    let epoch = Instant::now();
    let mut op = 0u64;
    for phase in phases {
        let mut spans = Spans::new(phase.traced, epoch, 0);
        let mut r = PhaseResult::default();
        let mut kmeans_purity = Vec::new();
        let mut tree_purity = Vec::new();
        let mut pacer = Pacer::new();
        pacer.burst(SETUP_SAMPLES);
        let start = Instant::now();
        // At least one pass per phase, however short.
        while r.attempted == 0 || start.elapsed().as_secs_f64() < phase.seconds {
            op += 1;
            r.attempted += 1;
            let t0 = Instant::now();
            let open = spans.enter(op, "pass");
            // A fresh K-means seed each pass, so a run's purity averages
            // over initialisations instead of riding on one.
            let km = spans.span(op, "kmeans.run", || {
                KMeans::new(cfg.k)
                    .seed(seed.wrapping_add(op))
                    .threads(1)
                    .run(&points)
            });
            let tree = spans.span(op, "hierarchical.fit_snn", || {
                Agglomerative::new(Linkage::Average).fit_snn(&points, &params)
            });
            spans.exit(open);
            let t1 = Instant::now();
            let scored = km.map_err(err("k-means")).and_then(|km| {
                let tree = tree.map_err(err("fit_snn"))?;
                let a = purity(&km.assignments, &classes).map_err(err("purity"))?;
                let b = purity(&tree.cut(cfg.k), &classes).map_err(err("purity"))?;
                Ok((a, b))
            });
            match scored {
                Ok((a, b)) => {
                    r.op_us.push(us(t0, t1));
                    r.busy_us.push(us(t0, t1));
                    // Each point's verdict is its K-means cluster's
                    // majority class; purity is the share that match.
                    r.verdicts.0 += (a * cfg.docs as f64).round() as u64;
                    r.verdicts.1 += cfg.docs as u64;
                    kmeans_purity.push(a);
                    tree_purity.push(b);
                    if a < cfg.purity_floor || b < cfg.purity_floor {
                        eprintln!(
                            "syndrome-batch pass {op}: purity k-means {a:.3}, fit_snn {b:.3} \
                             below the floor {}",
                            cfg.purity_floor
                        );
                        r.failed += 1;
                    }
                }
                Err(e) => {
                    eprintln!("syndrome-batch pass {op}: {e}");
                    r.failed += 1;
                }
            }
            pacer.burst(SETUP_SAMPLES);
        }
        r.host_us = pacer.samples;
        r.recall = ann_recall(cfg, &points, &params, seed, &mut spans, op)?;
        let mut trace = Trace::default();
        trace.absorb(spans.into_spans());
        r.trace = trace;
        if phase.traced {
            let m = &mut r.layers;
            let ms = |v: Vec<f64>| -> Vec<f64> { v.into_iter().map(|x| x / 1e3).collect() };
            put_median(m, "kmeans.cold_ms", &ms(r.trace.us("kmeans.run")), "ms");
            put_median(
                m,
                "hierarchical.fit_snn_ms",
                &ms(r.trace.us("hierarchical.fit_snn")),
                "ms",
            );
            put_median(m, "ann.build_ms", &ms(r.trace.us("ann.build")), "ms");
            put_median(m, "hierarchical.purity", &tree_purity, "fraction");
            put_median(m, "kmeans.purity", &kmeans_purity, "fraction");
            crate::common::reconcile_layers(m, &r.trace, "pass");
        }
        result.phases.push(r);
    }
    Ok(result)
}

/// Recall@10 of the ANN graph `fit_snn` builds (same parameters),
/// against exact nearest neighbours, over sampled points.
fn ann_recall(
    cfg: &Config,
    points: &[SparseVec],
    params: &SnnParams,
    seed: u64,
    spans: &mut Spans,
    op: u64,
) -> Res<(u64, u64)> {
    let graph = spans
        .span(op, "ann.build", || {
            let mut g = AnnGraph::new(cfg.dim)
                .max_degree(params.max_degree)
                .ef_construction(params.ef_construction);
            g.extend(points).map(|_| g)
        })
        .map_err(err("ann build"))?;
    let mut rng = SplitMix(seed ^ 0xa22);
    let (mut hit, mut of) = (0u64, 0u64);
    for _ in 0..cfg.recall_queries {
        let q = rng.below(points.len());
        let got = graph
            .knn_of(q, 10, params.ef_construction)
            .map_err(err("ann knn"))?;
        let mut exact: Vec<(usize, f64)> = points
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != q)
            .map(|(i, p)| euclidean_distance_sq(&points[q], p).map(|d| (i, d)))
            .collect::<Result<_, _>>()
            .map_err(err("exact distances"))?;
        exact.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        exact.truncate(10);
        hit += exact
            .iter()
            .filter(|(i, _)| got.iter().any(|g| g.0 == *i))
            .count() as u64;
        of += exact.len() as u64;
    }
    Ok((hit, of))
}
