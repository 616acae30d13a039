//! On-disk format compatibility: every historical `SignatureDb` layout
//! is locked in by a committed fixture under `tests/fixtures/`, and the
//! current writer is locked to the committed current-version fixture's
//! *structure* — changing the serialized layout without bumping
//! [`persist::CURRENT_FORMAT_VERSION`], registering a migration, and
//! committing a new fixture fails here.
//!
//! Fixtures are regenerated by the `#[ignore]`d `regenerate_fixtures`
//! test:
//!
//! ```text
//! cargo test --test persistence_formats -- --ignored regenerate_fixtures
//! ```
//!
//! [`persist::CURRENT_FORMAT_VERSION`]: fmeter::core::persist::CURRENT_FORMAT_VERSION

use std::path::{Path, PathBuf};

use fmeter::core::persist::{
    detect_format_version, split_envelope, RawSection, SectionCodec, CURRENT_FORMAT_VERSION,
    FORMAT_VERSIONS,
};
use fmeter::core::{RawSignature, RefitPolicy, Signature, SignatureDb, VacuumPolicy};
use fmeter::ir::codec::{decode_from_slice, encode_to_vec};
use fmeter::ir::{Corpus, InvertedIndex, TermCounts, TfIdfModel};
use fmeter::kernel_sim::Nanos;
use serde::Value;

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
}

/// The on-disk name of a format version's fixture.
fn fixture_name(version: u32) -> String {
    if version == 0 {
        "db_v0_bare.json".to_string()
    } else {
        format!("db_v{version}.fmdb")
    }
}

/// The canonical fixture corpus: three behaviour classes over a
/// 12-function space, fully deterministic (no simulator, no RNG) so a
/// from-scratch rebuild on any machine reproduces the same structure.
fn canonical_raws() -> Vec<RawSignature> {
    let mut raws = Vec::new();
    for i in 0..8u64 {
        // Class "io": functions 0-3 hot, a shared utility on 10.
        raws.push(RawSignature {
            counts: vec![60 + i, 40, 25, 12, 0, 0, 0, 1, 0, 0, 3, 0],
            started_at: Nanos(i * 1_000),
            ended_at: Nanos((i + 1) * 1_000),
            label: Some("io".into()),
        });
        // Class "net": functions 4-7 hot.
        raws.push(RawSignature {
            counts: vec![0, 1, 0, 0, 55, 45 + i, 30, 18, 0, 0, 3, 0],
            started_at: Nanos(i * 1_000),
            ended_at: Nanos((i + 1) * 1_000),
            label: Some("net".into()),
        });
        // Class "sched": functions 8-11 hot.
        raws.push(RawSignature {
            counts: vec![0, 0, 1, 0, 0, 0, 0, 0, 50, 38 + i, 20, 14],
            started_at: Nanos(i * 1_000),
            ended_at: Nanos((i + 1) * 1_000),
            label: Some("sched".into()),
        });
    }
    raws
}

/// Replays the canonical mutation history: bootstrap build, streamed
/// inserts under an `EveryN` policy (so an auto-refit lands
/// mid-stream), and two removals — the fixture database is mid-stream
/// state: a bumped epoch, tombstoned slots, and a non-zero mutation
/// counter in every fixture.
fn canonical_db() -> SignatureDb {
    let raws = canonical_raws();
    let mut db = SignatureDb::build(&raws[..18]).expect("canonical corpus builds");
    db.set_refit_policy(RefitPolicy::EveryN(5));
    for r in &raws[18..] {
        db.insert(r).expect("canonical insert");
    }
    db.remove(1).expect("canonical removal");
    db.remove(6).expect("canonical removal");
    db.set_vacuum_policy(VacuumPolicy::DeadFraction {
        max_dead_fraction: 0.5,
        min_dead: 16,
    });
    db
}

/// The raw signatures surviving the canonical history, in doc-id order.
fn canonical_survivors() -> Vec<RawSignature> {
    let raws = canonical_raws();
    (0..raws.len())
        .filter(|&d| d != 1 && d != 6)
        .map(|d| raws[d].clone())
        .collect()
}

/// Asserts `db` (a loaded fixture) behaves like the canonical history:
/// exact structural state, probe search/classify within float-rendering
/// tolerance of a local replay, and — once refitted — search/classify
/// identical to a from-scratch build over the surviving corpus.
fn assert_fixture_behaviour(mut db: SignatureDb, version: u32) {
    let replay = canonical_db();
    assert_eq!(db.len(), replay.len(), "v{version}: live count");
    assert_eq!(db.num_slots(), replay.num_slots(), "v{version}: slots");
    assert_eq!(db.epoch(), replay.epoch(), "v{version}: epoch");
    assert_eq!(
        db.mutations_since_refit(),
        replay.mutations_since_refit(),
        "v{version}: staleness"
    );
    assert_eq!(db.refit_policy(), replay.refit_policy(), "v{version}");
    for d in 0..db.num_slots() {
        assert_eq!(db.is_live(d), replay.is_live(d), "v{version}: liveness {d}");
        assert_eq!(
            db.doc_epoch(d),
            replay.doc_epoch(d),
            "v{version}: epoch {d}"
        );
    }
    // Formats older than v2 cannot carry vacuum state: it loads as the
    // default. The current format round-trips it.
    if version < 2 {
        assert_eq!(db.vacuum_policy(), VacuumPolicy::Never, "v{version}");
        assert_eq!(db.vacuums(), 0, "v{version}");
    } else {
        assert_eq!(db.vacuum_policy(), replay.vacuum_policy(), "v{version}");
    }
    // Pre-refit probes: the fixture's stale-generation vectors must
    // classify exactly like a local replay of the same history (scores
    // within rendering/libm tolerance, labels exact).
    let probes = [
        TermCounts::from_dense(&[58, 41, 24, 13, 0, 0, 0, 1, 0, 0, 3, 0]),
        TermCounts::from_dense(&[0, 1, 0, 0, 52, 47, 31, 17, 0, 0, 2, 0]),
        TermCounts::from_dense(&[0, 0, 1, 0, 0, 0, 0, 0, 49, 40, 21, 13]),
    ];
    for (i, q) in probes.iter().enumerate() {
        let a = db.search(q, 5).expect("fixture search");
        let b = replay.search(q, 5).expect("replay search");
        assert_eq!(a.len(), b.len(), "v{version} probe {i}: hit count");
        for ((_, s1, d1), (_, s2, d2)) in a.iter().zip(&b) {
            assert_eq!(s1.label, s2.label, "v{version} probe {i}: labels");
            assert!((d1 - d2).abs() < 1e-9, "v{version} probe {i}: {d1} vs {d2}");
        }
        assert_eq!(
            db.classify(q, 3).expect("fixture classify"),
            replay.classify(q, 3).expect("replay classify"),
            "v{version} probe {i}: classification"
        );
    }
    // Post-refit the loaded database must be indistinguishable from a
    // fresh build over the survivors — the durability contract.
    db.refit();
    let fresh = SignatureDb::build(&canonical_survivors()).expect("survivor rebuild");
    for (i, q) in probes.iter().enumerate() {
        let a = db.search(q, 5).expect("search");
        let b = fresh.search(q, 5).expect("search");
        assert_eq!(a.len(), b.len());
        for ((_, s1, d1), (_, s2, d2)) in a.iter().zip(&b) {
            assert_eq!(s1.label, s2.label, "v{version} probe {i} post-refit");
            assert!((d1 - d2).abs() < 1e-9, "v{version} probe {i}: {d1} vs {d2}");
        }
        assert_eq!(
            db.classify(q, 3).expect("classify"),
            fresh.classify(q, 3).expect("classify"),
            "v{version} probe {i}: post-refit classification"
        );
    }
    // The migrated database keeps streaming: insert + refit still work.
    let extra = canonical_raws()[0].clone();
    db.insert(&extra).expect("post-migration insert");
    db.refit();
}

#[test]
fn every_historical_format_fixture_loads_and_matches_rebuild() {
    for spec in FORMAT_VERSIONS {
        let path = fixtures_dir().join(fixture_name(spec.version));
        let bytes = std::fs::read(&path).unwrap_or_else(|e| {
            panic!(
                "missing fixture {} for format version {} ({}): {e}\n\
                 regenerate with: cargo test --test persistence_formats -- --ignored regenerate_fixtures",
                path.display(),
                spec.version,
                spec.summary
            )
        });
        if spec.version == 0 {
            assert_eq!(detect_format_version(&bytes), None, "v0 carries no magic");
        } else {
            assert_eq!(detect_format_version(&bytes), Some(spec.version));
        }
        let db = SignatureDb::load(&bytes[..]).unwrap_or_else(|e| {
            panic!(
                "fixture v{} failed to load via migration: {e}",
                spec.version
            )
        });
        assert_fixture_behaviour(db, spec.version);
    }
}

/// Renders a `Value`'s *structure* — object keys in order, scalar type
/// kinds, array element shape — while ignoring every scalar value, so
/// the guard is immune to float-rendering and libm differences between
/// the machine that committed the fixture and the machine running CI.
fn skeleton(v: &Value, out: &mut String) {
    match v {
        Value::Object(pairs) => {
            out.push('{');
            for (k, val) in pairs {
                out.push_str(k);
                out.push(':');
                skeleton(val, out);
                out.push(',');
            }
            out.push('}');
        }
        Value::Array(items) => {
            out.push('[');
            if let Some(first) = items.first() {
                skeleton(first, out);
            }
            out.push(']');
        }
        other => out.push_str(other.kind()),
    }
}

/// The binary-section analogue of [`skeleton`]: decodes the payload
/// with the section's typed decoder and re-encodes it. Byte-for-byte
/// identity proves the payload is exactly what today's writer lays
/// down — any layout drift (field order, width, a new field) either
/// fails the decode or changes the re-encoded bytes.
fn assert_binary_section_stable(name: &str, payload: &[u8], origin: &str) {
    let reencoded = match name {
        "model" => encode_to_vec(
            &decode_from_slice::<TfIdfModel>(payload)
                .unwrap_or_else(|e| panic!("{origin} section `{name}` failed to decode: {e}")),
        ),
        "corpus" => encode_to_vec(
            &decode_from_slice::<Corpus>(payload)
                .unwrap_or_else(|e| panic!("{origin} section `{name}` failed to decode: {e}")),
        ),
        "signatures" => encode_to_vec(
            &decode_from_slice::<Vec<Signature>>(payload)
                .unwrap_or_else(|e| panic!("{origin} section `{name}` failed to decode: {e}")),
        ),
        "index" => encode_to_vec(
            &decode_from_slice::<InvertedIndex>(payload)
                .unwrap_or_else(|e| panic!("{origin} section `{name}` failed to decode: {e}")),
        ),
        other => panic!("unexpected binary section `{other}` in the {origin} envelope"),
    };
    assert_eq!(
        reencoded, payload,
        "{origin} section `{name}` is not a fixed point of decode∘encode — \
         the binary layout changed without a format-version bump + migration"
    );
}

/// The serialized-layout guard: saving the canonical database *today*
/// must produce the same envelope version, section names, per-section
/// codec tags, and section structure as the committed current-version
/// fixture (JSON sections by structural skeleton, binary sections by
/// decode∘encode identity). If this fails, the on-disk layout changed:
/// bump `CURRENT_FORMAT_VERSION`, append a `FORMAT_VERSIONS` entry,
/// register a migration from the previous version, and regenerate +
/// commit the fixtures.
#[test]
fn current_writer_matches_committed_layout() {
    let committed = std::fs::read(fixtures_dir().join(fixture_name(CURRENT_FORMAT_VERSION)))
        .expect("current-version fixture is committed");
    let (committed_version, committed_sections) =
        split_envelope(&committed).expect("committed fixture is a well-formed envelope");
    assert_eq!(
        committed_version, CURRENT_FORMAT_VERSION,
        "the committed fixture lags CURRENT_FORMAT_VERSION — regenerate fixtures \
         and add a fixture-loading entry for the previous version"
    );
    let mut fresh = Vec::new();
    canonical_db().save(&mut fresh).expect("save canonical db");
    let (fresh_version, fresh_sections) = split_envelope(&fresh).expect("fresh envelope");
    assert_eq!(fresh_version, committed_version);
    let names = |s: &[RawSection]| s.iter().map(|s| s.name.clone()).collect::<Vec<_>>();
    assert_eq!(
        names(&fresh_sections),
        names(&committed_sections),
        "section table changed without a format-version bump"
    );
    let codecs = |s: &[RawSection]| s.iter().map(|s| s.codec).collect::<Vec<_>>();
    assert_eq!(
        codecs(&fresh_sections),
        codecs(&committed_sections),
        "per-section codec tags changed without a format-version bump"
    );
    for (fresh, committed) in fresh_sections.iter().zip(&committed_sections) {
        let name = &fresh.name;
        match fresh.codec {
            SectionCodec::Json => {
                let as_json = |payload: &[u8], origin: &str| -> Value {
                    let text = std::str::from_utf8(payload)
                        .unwrap_or_else(|e| panic!("{origin} section `{name}` not UTF-8: {e}"));
                    serde_json::from_str(text)
                        .unwrap_or_else(|e| panic!("{origin} section `{name}` not JSON: {e}"))
                };
                let fresh_value = as_json(&fresh.payload, "fresh");
                let committed_value = as_json(&committed.payload, "committed");
                let (mut a, mut b) = (String::new(), String::new());
                skeleton(&fresh_value, &mut a);
                skeleton(&committed_value, &mut b);
                assert_eq!(
                    a, b,
                    "section `{name}` layout changed without a format-version bump + migration \
                     (left: fresh save, right: committed fixture)"
                );
            }
            SectionCodec::Binary => {
                assert_binary_section_stable(name, &fresh.payload, "fresh");
                assert_binary_section_stable(name, &committed.payload, "committed");
            }
        }
    }
}

#[test]
fn version_table_has_a_fixture_per_version() {
    for spec in FORMAT_VERSIONS {
        let path = fixtures_dir().join(fixture_name(spec.version));
        assert!(
            path.exists(),
            "format version {} has no committed fixture at {} — every version table \
             entry must be locked in by a fixture",
            spec.version,
            path.display()
        );
    }
}

/// Writes (or rewrites) every fixture from the canonical history. Run
/// manually when a new format version is introduced:
///
/// ```text
/// cargo test --test persistence_formats -- --ignored regenerate_fixtures
/// ```
#[test]
#[ignore = "writes tests/fixtures/; run explicitly when adding a format version"]
fn regenerate_fixtures() {
    let dir = fixtures_dir();
    std::fs::create_dir_all(&dir).expect("create fixtures dir");
    let db = canonical_db();
    for spec in FORMAT_VERSIONS {
        let path = dir.join(fixture_name(spec.version));
        let mut bytes = Vec::new();
        db.save_as_version(spec.version, &mut bytes)
            .unwrap_or_else(|e| panic!("write v{} fixture: {e}", spec.version));
        std::fs::write(&path, &bytes).expect("write fixture file");
        println!("wrote {} ({} bytes)", path.display(), bytes.len());
    }
}
