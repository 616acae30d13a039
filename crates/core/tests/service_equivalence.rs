//! Property tests for the sharded [`SignatureService`]: under any
//! shard count and any interleave of insert / remove / refit / vacuum,
//! service search and classification must be bit-identical to the flat
//! [`SignatureDb`] replaying the same history (the issue's acceptance
//! bound is 1e-9; the implementation delivers exact equality and these
//! tests pin the stronger claim). The sharded save/load path must
//! round-trip the layout.

use fmeter_core::{RawSignature, RefitPolicy, SignatureDb, SignatureService};
use fmeter_ir::TermCounts;
use fmeter_kernel_sim::Nanos;
use proptest::prelude::*;

const DIM: usize = 10;

/// One scripted mutation applied to both stores in lockstep.
#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<u64>),
    /// Remove the `selector % live`-th live signature.
    Remove(usize),
    Refit,
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

fn seed_corpus(n_each: usize) -> Vec<RawSignature> {
    let mut out = Vec::new();
    for i in 0..n_each as u64 {
        out.push(raw(vec![40 + i, 30, 20, 10, 0, 0, 1, 0, 0, 0], i, "alpha"));
        out.push(raw(vec![0, 0, 1, 0, 0, 50, 40 + i, 30, 20, 10], i, "beta"));
    }
    out
}

/// Applies `ops` to the flat database and the sharded service in
/// lockstep. The flat database is the oracle; the service must mirror
/// its doc-id space exactly (same ids minted, same remaps).
fn apply_ops(db: &mut SignatureDb, service: &SignatureService, ops: &[Op]) {
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Insert(counts) => {
                let label = if i % 2 == 0 { "alpha" } else { "beta" };
                let r = raw(counts.clone(), 100 + i as u64, label);
                let flat_id = db.insert(&r).expect("flat insert");
                let svc_id = service.insert(&r).expect("service insert");
                assert_eq!(flat_id, svc_id, "doc-id spaces diverged");
            }
            Op::Remove(selector) => {
                if db.len() <= 1 {
                    continue;
                }
                let live: Vec<usize> = (0..db.num_slots()).filter(|&d| db.is_live(d)).collect();
                let victim = live[selector % live.len()];
                db.remove(victim).expect("flat remove");
                service.remove(victim).expect("service remove");
            }
            Op::Refit => {
                let a = db.refit();
                let b = service.refit();
                assert_eq!(a, b, "refit stats diverged");
            }
            Op::Vacuum => {
                let a = db.vacuum();
                let b = service.vacuum();
                assert_eq!(a.remap, b.remap, "vacuum remaps diverged");
                assert_eq!(a.dropped_slots, b.dropped_slots);
            }
        }
    }
}

/// Asserts service search/classify equals the flat oracle bit-for-bit
/// on a battery of probes: same hit docs (verified live in the flat
/// store), same labels, scores equal to the last bit.
fn assert_search_identical(db: &SignatureDb, service: &SignatureService) {
    let probes = [
        TermCounts::from_dense(&[41, 29, 21, 11, 0, 0, 1, 0, 0, 0]),
        TermCounts::from_dense(&[0, 0, 1, 0, 0, 49, 41, 29, 21, 11]),
        TermCounts::from_dense(&[10, 10, 10, 10, 10, 10, 10, 10, 10, 10]),
    ];
    for (i, q) in probes.iter().enumerate() {
        for k in [1usize, 4, 64] {
            let flat = db.search(q, k).expect("flat search");
            let sharded = service.search(q, k).expect("service search");
            assert_eq!(flat.len(), sharded.len(), "probe {i} k={k}: hit count");
            for ((fd, fs, fx), (doc, ss, sx)) in flat.iter().zip(&sharded) {
                assert!(db.is_live(*doc), "probe {i} k={k}: hit on dead doc {doc}");
                assert!(fd == doc, "probe {i} k={k}: hit docs diverged");
                assert_eq!(fs.label, ss.label, "probe {i} k={k}: labels");
                assert_eq!(
                    fx.to_bits(),
                    sx.to_bits(),
                    "probe {i} k={k}: scores not bit-identical: {fx} vs {sx}"
                );
            }
        }
        assert_eq!(
            db.classify(q, 3).expect("flat classify"),
            service.classify(q, 3).expect("service classify"),
            "probe {i}: classification diverged"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn sharded_service_matches_flat_db_for_any_shard_count(
        num_shards in 1usize..=8,
        ops in prop::collection::vec(arb_op(), 0..20),
        n_each in 2usize..5,
    ) {
        let raws = seed_corpus(n_each);
        let mut db = SignatureDb::build(&raws).expect("flat build");
        db.set_refit_policy(RefitPolicy::Manual);
        let service = SignatureService::build(&raws, num_shards).expect("service build");
        service.set_refit_policy(RefitPolicy::Manual).unwrap();
        prop_assert_eq!(service.num_shards(), num_shards);
        apply_ops(&mut db, &service, &ops);
        prop_assert_eq!(service.len(), db.len());
        prop_assert_eq!(service.num_slots(), db.num_slots());
        prop_assert_eq!(service.epoch(), db.epoch());
        for d in 0..db.num_slots() {
            prop_assert_eq!(service.is_live(d), db.is_live(d));
        }
        assert_search_identical(&db, &service);
    }

    #[test]
    fn sharded_save_load_round_trips_layout_and_results(
        num_shards in 1usize..=8,
        ops in prop::collection::vec(arb_op(), 0..12),
    ) {
        let raws = seed_corpus(3);
        let mut db = SignatureDb::build(&raws).expect("flat build");
        db.set_refit_policy(RefitPolicy::Manual);
        let service = SignatureService::build(&raws, num_shards).expect("service build");
        service.set_refit_policy(RefitPolicy::Manual).unwrap();
        apply_ops(&mut db, &service, &ops);

        let mut buf = Vec::new();
        service.save(&mut buf).expect("service save");
        let restored = SignatureService::load(&buf[..]).expect("service load");
        prop_assert_eq!(restored.num_shards(), num_shards);
        prop_assert_eq!(restored.len(), service.len());
        prop_assert_eq!(restored.epoch(), service.epoch());
        assert_search_identical(&db, &restored);

        // A flat load of the same bytes sees the same corpus — the
        // sharding section is advisory for flat readers.
        let flat = SignatureDb::load(&buf[..]).expect("flat load of sharded save");
        prop_assert_eq!(flat.len(), db.len());
        prop_assert_eq!(flat.epoch(), db.epoch());
    }
}
