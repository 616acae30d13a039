//! Property tests for the incremental `SignatureDb`: any interleave of
//! insert / remove / refit / vacuum must, once refitted, be
//! indistinguishable from a from-scratch `build` over the surviving
//! corpus, and the epoch state must survive save/load.

use fmeter_core::{RawSignature, RefitPolicy, SignatureDb, Syndrome};
use fmeter_ir::TermCounts;
use fmeter_kernel_sim::Nanos;
use proptest::prelude::*;
use std::collections::HashMap;

const DIM: usize = 10;

/// One scripted mutation against the database under test.
#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<u64>),
    /// Remove the `selector % live`-th live signature.
    Remove(usize),
    Refit,
    /// Compact dead slots, renumbering every doc id.
    Vacuum,
}

fn arb_counts() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..60, DIM..DIM + 1)
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_counts().prop_map(Op::Insert),
        (0usize..64).prop_map(Op::Remove),
        Just(Op::Refit),
        Just(Op::Vacuum),
    ]
}

fn raw(counts: Vec<u64>, i: u64, label: &str) -> RawSignature {
    RawSignature {
        counts,
        started_at: Nanos(i * 10),
        ended_at: Nanos((i + 1) * 10),
        label: Some(label.to_string()),
    }
}

/// Seed corpora: two term-band classes so searches have structure.
fn seed_corpus(n_each: usize) -> Vec<RawSignature> {
    let mut out = Vec::new();
    for i in 0..n_each as u64 {
        out.push(raw(vec![40 + i, 30, 20, 10, 0, 0, 1, 0, 0, 0], i, "alpha"));
        out.push(raw(vec![0, 0, 1, 0, 0, 50, 40 + i, 30, 20, 10], i, "beta"));
    }
    out
}

/// Applies `ops`, mirroring the raw corpus, and returns the surviving
/// raw signatures in doc-id order.
fn apply_ops(db: &mut SignatureDb, raws: &mut Vec<RawSignature>, ops: &[Op]) {
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Insert(counts) => {
                let label = if i % 2 == 0 { "alpha" } else { "beta" };
                let r = raw(counts.clone(), 100 + i as u64, label);
                let id = db.insert(&r).expect("insert succeeds");
                assert_eq!(id, raws.len(), "doc ids stay dense over the slot space");
                raws.push(r);
            }
            Op::Remove(selector) => {
                if db.len() <= 1 {
                    continue; // keep the db non-empty so build() stays comparable
                }
                let live: Vec<usize> = (0..db.num_slots()).filter(|&d| db.is_live(d)).collect();
                let victim = live[selector % live.len()];
                db.remove(victim).expect("victim is live");
            }
            Op::Refit => {
                db.refit();
            }
            Op::Vacuum => {
                let slots_before = db.num_slots();
                let live_before: Vec<usize> =
                    (0..slots_before).filter(|&d| db.is_live(d)).collect();
                let stats = db.vacuum();
                assert_eq!(stats.remap.len(), slots_before);
                assert_eq!(stats.live_docs, db.len());
                assert_eq!(db.num_slots(), db.len(), "vacuum leaves no holes");
                // The remap is exactly "live ids keep their order,
                // renumbered densely"; the raw mirror compacts the same
                // way so doc-id alignment survives.
                for (new_id, &old_id) in live_before.iter().enumerate() {
                    assert_eq!(stats.remap[old_id], Some(new_id));
                }
                *raws = live_before.iter().map(|&d| raws[d].clone()).collect();
            }
        }
    }
}

fn surviving(db: &SignatureDb, raws: &[RawSignature]) -> Vec<RawSignature> {
    (0..db.num_slots())
        .filter(|&d| db.is_live(d))
        .map(|d| raws[d].clone())
        .collect()
}

/// Asserts the incremental database matches a fresh build over the
/// surviving corpus: identical live vectors (doc-order aligned) and
/// identical search/classify behaviour within 1e-9.
fn assert_equivalent(db: &SignatureDb, fresh: &SignatureDb, probes: &[RawSignature]) {
    assert_eq!(db.len(), fresh.len());
    let live: Vec<usize> = (0..db.num_slots()).filter(|&d| db.is_live(d)).collect();
    for (&d, f) in live
        .iter()
        .zip((0..fresh.num_slots()).map(|d| fresh.signature(d)))
    {
        let a = &db.signature(d).vector;
        let b = &f.vector;
        assert_eq!(a.dim(), b.dim());
        for t in 0..a.dim() as u32 {
            let (x, y) = (a.get(t), b.get(t));
            assert!(
                (x - y).abs() <= 1e-9 * (1.0 + x.abs().max(y.abs())),
                "doc {d} term {t}: {x} vs {y}"
            );
        }
    }
    for probe in probes.iter().take(5) {
        let q = probe.to_term_counts();
        let a = db.search(&q, 4).expect("search");
        let b = fresh.search(&q, 4).expect("search");
        assert_eq!(a.len(), b.len(), "hit counts diverged");
        for ((_, s1, d1), (_, s2, d2)) in a.iter().zip(&b) {
            assert_eq!(s1.label, s2.label, "hit labels diverged");
            assert!((d1 - d2).abs() < 1e-9, "scores diverged: {d1} vs {d2}");
        }
        assert_eq!(
            db.classify(&q, 3).expect("classify"),
            fresh.classify(&q, 3).expect("classify"),
            "classification diverged"
        );
    }
}

/// One scripted mutation for the recluster churn test: inserts stay
/// class-shaped (a jittered member of one of the two seed bands) so the
/// ground-truth partition survives arbitrary interleaves and purity is
/// a stable yardstick between independently converged clusterings.
#[derive(Debug, Clone)]
enum ChurnOp {
    InsertAlpha(u64),
    InsertBeta(u64),
    Remove(usize),
    Vacuum,
}

fn arb_churn_op() -> impl Strategy<Value = ChurnOp> {
    prop_oneof![
        (0u64..20).prop_map(ChurnOp::InsertAlpha),
        (0u64..20).prop_map(ChurnOp::InsertBeta),
        (0usize..64).prop_map(ChurnOp::Remove),
        Just(ChurnOp::Vacuum),
    ]
}

fn apply_churn(db: &mut SignatureDb, ops: &[ChurnOp]) {
    for (i, op) in ops.iter().enumerate() {
        match op {
            ChurnOp::InsertAlpha(j) => {
                let r = raw(
                    vec![40 + j, 30, 20, 10, 0, 0, 1, 0, 0, 0],
                    200 + i as u64,
                    "alpha",
                );
                db.insert(&r).expect("insert succeeds");
            }
            ChurnOp::InsertBeta(j) => {
                let r = raw(
                    vec![0, 0, 1, 0, 0, 50, 40 + j, 30, 20, 10],
                    200 + i as u64,
                    "beta",
                );
                db.insert(&r).expect("insert succeeds");
            }
            ChurnOp::Remove(selector) => {
                // Keep enough points for a k=2 clustering to stay sane.
                if db.len() <= 4 {
                    continue;
                }
                let live: Vec<usize> = (0..db.num_slots()).filter(|&d| db.is_live(d)).collect();
                db.remove(live[selector % live.len()])
                    .expect("victim is live");
            }
            ChurnOp::Vacuum => {
                db.vacuum();
            }
        }
    }
}

/// Label purity of a clustering: the fraction of members whose stored
/// label agrees with their syndrome's majority label.
fn purity(db: &SignatureDb, syndromes: &[Syndrome]) -> f64 {
    let mut agree = 0usize;
    let mut total = 0usize;
    for s in syndromes {
        let mut counts: HashMap<String, usize> = HashMap::new();
        for &m in &s.members {
            if let Some(label) = db.signature(m).label {
                *counts.entry(label).or_insert(0) += 1;
            }
        }
        agree += counts.values().copied().max().unwrap_or(0);
        total += s.members.len();
    }
    agree as f64 / total.max(1) as f64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn interleaved_mutations_match_rebuild_after_refit(
        ops in prop::collection::vec(arb_op(), 0..24),
        n_each in 2usize..5,
    ) {
        let mut raws = seed_corpus(n_each);
        let mut db = SignatureDb::build(&raws).expect("seed corpus builds");
        db.set_refit_policy(RefitPolicy::Manual);
        apply_ops(&mut db, &mut raws, &ops);
        // The equivalence contract is *post-refit*: between refits the
        // stored vectors deliberately ride a stale idf generation.
        db.refit();
        let survivors = surviving(&db, &raws);
        prop_assert!(!survivors.is_empty());
        let fresh = SignatureDb::build(&survivors).expect("survivors build");
        assert_equivalent(&db, &fresh, &survivors);
    }

    #[test]
    fn automatic_policies_preserve_equivalence_too(
        ops in prop::collection::vec(arb_op(), 0..16),
        every_n in 1usize..5,
    ) {
        // Same contract, but with refits firing mid-interleave via the
        // EveryN policy (exercising auto-refit on both mutation paths).
        let mut raws = seed_corpus(3);
        let mut db = SignatureDb::build(&raws).expect("seed corpus builds");
        db.set_refit_policy(RefitPolicy::EveryN(every_n));
        apply_ops(&mut db, &mut raws, &ops);
        db.refit();
        let survivors = surviving(&db, &raws);
        let fresh = SignatureDb::build(&survivors).expect("survivors build");
        assert_equivalent(&db, &fresh, &survivors);
    }

    #[test]
    fn vacuum_after_churn_matches_rebuild_and_drops_slots(
        ops in prop::collection::vec(arb_op(), 0..24),
        n_each in 2usize..5,
    ) {
        let mut raws = seed_corpus(n_each);
        let mut db = SignatureDb::build(&raws).expect("seed corpus builds");
        db.set_refit_policy(RefitPolicy::Manual);
        apply_ops(&mut db, &mut raws, &ops);
        let slots_with_holes = db.num_slots();
        let dead = slots_with_holes - db.len();
        // Capture the survivors while the raw mirror still aligns with
        // the pre-vacuum slot space (the vacuum renumbers it).
        let survivors = surviving(&db, &raws);
        let stats = db.vacuum();
        prop_assert_eq!(stats.dropped_slots, dead);
        prop_assert_eq!(db.num_slots(), db.len());
        prop_assert_eq!(db.dead_fraction(), 0.0);
        // Post-vacuum (and post-refit, to land on the fresh idf
        // generation) the database is indistinguishable from a rebuild:
        // search, classification, and syndrome extraction all agree.
        db.refit();
        prop_assert!(!survivors.is_empty());
        let fresh = SignatureDb::build(&survivors).expect("survivors build");
        assert_equivalent(&db, &fresh, &survivors);
        if db.len() >= 4 {
            let a = db.syndromes(2, 11).expect("syndromes");
            let b = fresh.syndromes(2, 11).expect("syndromes");
            for (sa, sb) in a.iter().zip(&b) {
                prop_assert_eq!(&sa.members, &sb.members);
                prop_assert_eq!(&sa.dominant_label, &sb.dominant_label);
            }
        }
    }

    #[test]
    fn recluster_after_churn_matches_cold_purity(
        ops in prop::collection::vec(arb_churn_op(), 0..24),
        manual in any::<bool>(),
        every_n in 1usize..5,
    ) {
        // The warm-start contract under streaming churn: a recluster
        // that reuses the cached assignment must land on a partition as
        // label-pure as an independent cold clustering of the same
        // state — under both refit policies, since auto-refits rewrite
        // the tf-idf vectors mid-interleave.
        let raws = seed_corpus(4);
        let mut db = SignatureDb::build(&raws).expect("seed corpus builds");
        db.set_refit_policy(if manual {
            RefitPolicy::Manual
        } else {
            RefitPolicy::EveryN(every_n)
        });
        // Prime the cache: the first call is always cold.
        let first = db.recluster(2, 7).expect("recluster");
        prop_assert!(!first.warm);
        apply_churn(&mut db, &ops);
        let warm = db.recluster(2, 7).expect("recluster");
        let cold = db.syndromes(2, 7).expect("syndromes");
        let (wp, cp) = (purity(&db, &warm.syndromes), purity(&db, &cold));
        prop_assert!(
            (wp - cp).abs() <= 1e-9,
            "warm recluster purity {} drifted from cold {} (warm path: {})",
            wp, cp, warm.warm
        );
        // And the syndromes it reports are exactly the database's own
        // view of the cached partition: reclustering again without any
        // intervening mutation reproduces them bit for bit.
        let again = db.recluster(2, 7).expect("recluster");
        prop_assert!(again.warm);
        prop_assert_eq!(again.syndromes, warm.syndromes);
    }

    #[test]
    fn save_load_round_trips_epoch_state(
        ops in prop::collection::vec(arb_op(), 0..16),
    ) {
        let mut raws = seed_corpus(3);
        let mut db = SignatureDb::build(&raws).expect("seed corpus builds");
        db.set_refit_policy(RefitPolicy::EveryN(3));
        apply_ops(&mut db, &mut raws, &ops);
        let mut buf = Vec::new();
        db.save(&mut buf).expect("save");
        let mut restored = SignatureDb::load(&buf[..]).expect("load");
        prop_assert_eq!(restored.epoch(), db.epoch());
        prop_assert_eq!(restored.len(), db.len());
        prop_assert_eq!(restored.num_slots(), db.num_slots());
        prop_assert_eq!(restored.refit_policy(), db.refit_policy());
        prop_assert_eq!(restored.mutations_since_refit(), db.mutations_since_refit());
        prop_assert_eq!(restored.vacuums(), db.vacuums());
        for d in 0..db.num_slots() {
            prop_assert_eq!(restored.is_live(d), db.is_live(d));
            prop_assert_eq!(restored.doc_epoch(d), db.doc_epoch(d));
        }
        // The restored copy continues the stream identically: same next
        // doc id, same refit outcome.
        let extra = raw(vec![1, 2, 3, 4, 5, 0, 0, 0, 0, 1], 999, "alpha");
        prop_assert_eq!(
            restored.insert(&extra).expect("insert"),
            db.insert(&extra).expect("insert")
        );
        prop_assert_eq!(restored.refit(), db.refit());
        let q = TermCounts::from_dense(&extra.counts);
        prop_assert_eq!(
            restored.classify(&q, 3).expect("classify"),
            db.classify(&q, 3).expect("classify")
        );
    }
}
