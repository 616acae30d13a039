//! Kill-and-replay: the crash-consistency contract of the durability
//! layer, driven end to end through the real code paths.
//!
//! The property under test (for any interleave of insert / batch /
//! remove / refit / vacuum and a crash at *any* byte offset of the WAL
//! or the newest checkpoint): recovery reconstructs exactly the flat
//! replay of the durably-acked op prefix — same live set, same epochs,
//! bit-identical search scores and classifications. Alongside it, the
//! negative-persistence suite locks in that damaged envelopes are
//! *rejected loudly* (named section, never garbage data), and the
//! service-level tests prove a durable [`SignatureService`] recovers,
//! degrades, and heals without poisoning its writer.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use fmeter_core::fault::FailPlan;
use fmeter_core::persist::{split_envelope, CURRENT_FORMAT_VERSION};
use fmeter_core::{
    CheckpointPolicy, DurableOptions, FmeterError, RawSignature, ShardWriter, SignatureDb,
    SignatureService, SyncPolicy, WalHealth, WalOp,
};
use fmeter_kernel_sim::Nanos;
use proptest::prelude::*;

const DIM: usize = 10;

/// A unique scratch directory per call (no tempfile crate in-tree).
fn test_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "fmeter-durability-{}-{tag}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn copy_dir(src: &Path, dst: &Path) {
    fs::create_dir_all(dst).expect("create scratch dir");
    for entry in fs::read_dir(src).expect("read durable dir") {
        let entry = entry.expect("dir entry");
        fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy durable file");
    }
}

fn raw(counts: Vec<u64>, i: u64, label: &str) -> RawSignature {
    RawSignature {
        counts,
        started_at: Nanos(i * 10),
        ended_at: Nanos((i + 1) * 10),
        label: Some(label.to_string()),
    }
}

/// Two term-band classes so searches and classifications have structure.
fn seed_corpus() -> Vec<RawSignature> {
    (0..5u64)
        .flat_map(|i| {
            [
                raw(vec![40 + i, 30, 20, 10, 0, 0, 1, 0, 0, 0], i, "alpha"),
                raw(vec![0, 0, 1, 0, 0, 50, 40 + i, 30, 20, 10], i, "beta"),
            ]
        })
        .collect()
}

fn seed_db() -> SignatureDb {
    SignatureDb::build(&seed_corpus()).expect("seed corpus builds")
}

fn probes() -> Vec<RawSignature> {
    vec![
        raw(vec![42, 29, 21, 11, 0, 0, 1, 0, 0, 0], 90, "alpha"),
        raw(vec![0, 0, 1, 0, 0, 48, 41, 31, 19, 9], 91, "beta"),
        raw(vec![10, 10, 10, 10, 10, 10, 10, 10, 10, 10], 92, "flat"),
    ]
}

/// WAL-syncs every record and never checkpoints on its own, so the
/// whole interleave stays in one WAL file for the tail sweep.
fn manual_opts() -> DurableOptions {
    DurableOptions {
        sync: SyncPolicy::EveryRecord,
        checkpoint: CheckpointPolicy::Manual,
    }
}

/// Asserts two databases are the same state: structure equal, stored
/// vectors bit-equal, search scores and classifications bit-identical.
fn assert_states_identical(a: &SignatureDb, b: &SignatureDb) {
    assert_eq!(a.len(), b.len(), "live counts diverged");
    assert_eq!(a.num_slots(), b.num_slots(), "slot spaces diverged");
    assert_eq!(a.epoch(), b.epoch(), "idf epochs diverged");
    for d in 0..a.num_slots() {
        assert_eq!(a.is_live(d), b.is_live(d), "liveness diverged at {d}");
        let (x, y) = (&a.signature(d).vector, &b.signature(d).vector);
        assert_eq!(x.dim(), y.dim());
        for t in 0..x.dim() as u32 {
            assert_eq!(
                x.get(t).to_bits(),
                y.get(t).to_bits(),
                "doc {d} term {t} not bit-equal"
            );
        }
    }
    for probe in probes() {
        let q = probe.to_term_counts();
        let hits_a = a.search(&q, 5).expect("search");
        let hits_b = b.search(&q, 5).expect("search");
        assert_eq!(hits_a.len(), hits_b.len());
        for ((_, s1, x1), (_, s2, x2)) in hits_a.iter().zip(&hits_b) {
            assert_eq!(s1.label, s2.label, "hit labels diverged");
            assert_eq!(x1.to_bits(), x2.to_bits(), "scores not bit-identical");
        }
        assert_eq!(
            a.classify(&q, 3).expect("classify"),
            b.classify(&q, 3).expect("classify"),
            "classifications diverged"
        );
    }
}

/// One scripted mutation against the durable database under test.
#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<u64>),
    /// Insert a batch of `1 + n % 3` derived signatures.
    Batch(u8),
    /// Remove the `selector % live`-th live signature.
    Remove(usize),
    Refit,
    Vacuum,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        prop::collection::vec(0u64..60, DIM..DIM + 1).prop_map(Op::Insert),
        (0u8..6).prop_map(Op::Batch),
        (0usize..64).prop_map(Op::Remove),
        Just(Op::Refit),
        Just(Op::Vacuum),
    ]
}

/// Applies one op to the durable database, mirroring what was logged
/// (for the flat-replay oracle) and the WAL byte boundary it acked at.
fn apply_op(
    durable: &mut ShardWriter,
    i: usize,
    op: &Op,
    logged: &mut Vec<WalOp>,
    boundaries: &mut Vec<u64>,
) {
    match op {
        Op::Insert(counts) => {
            let label = if i.is_multiple_of(2) { "alpha" } else { "beta" };
            let r = raw(counts.clone(), 200 + i as u64, label);
            logged.push(WalOp::Insert(r.clone()));
            durable.insert(&r).expect("insert succeeds");
        }
        Op::Batch(n) => {
            let rs: Vec<RawSignature> = (0..u64::from(n % 3) + 1)
                .map(|j| {
                    let mut counts = vec![1u64; DIM];
                    counts[(i + j as usize) % DIM] = 30 + j;
                    raw(counts, 300 + i as u64 * 4 + j, "beta")
                })
                .collect();
            logged.push(WalOp::InsertBatch(rs.clone()));
            durable.insert_batch(&rs).expect("batch insert succeeds");
        }
        Op::Remove(selector) => {
            let db = durable.db();
            if db.len() <= 1 {
                return; // keep the corpus non-empty; nothing is logged
            }
            let live: Vec<usize> = (0..db.num_slots()).filter(|&d| db.is_live(d)).collect();
            let victim = live[selector % live.len()];
            logged.push(WalOp::Remove(victim));
            durable.remove(victim).expect("victim is live");
        }
        Op::Refit => {
            logged.push(WalOp::Refit);
            durable.refit();
        }
        Op::Vacuum => {
            logged.push(WalOp::Vacuum);
            durable.vacuum();
        }
    }
    if logged.len() > boundaries.len() {
        boundaries.push(durable.durable_log().expect("durable").wal_bytes());
    }
}

/// The flat-replay oracle: the checkpointed base plus the first `m`
/// logged ops, applied exactly like WAL replay applies them.
fn oracle(base: &SignatureDb, logged: &[WalOp], m: usize) -> SignatureDb {
    let mut db = base.clone();
    for op in &logged[..m] {
        let _ = op.apply(&mut db);
    }
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// THE tentpole property: crash the WAL at an arbitrary byte and
    /// recovery must equal the flat replay of exactly the op prefix
    /// whose records survived on disk — no more, no less, bit-identical.
    #[test]
    fn recovery_equals_flat_replay_of_the_acked_prefix(
        ops in prop::collection::vec(arb_op(), 1..12),
        cut_frac in 0.0f64..=1.0,
    ) {
        let dir = test_dir("kill");
        let scratch = test_dir("kill-scratch");
        let base = seed_db();
        let mut durable =
            ShardWriter::create(&dir, base.clone(), 1, manual_opts()).expect("create durable dir");
        let header_len = durable.durable_log().expect("durable").wal_bytes();
        let (mut logged, mut boundaries) = (Vec::new(), Vec::new());
        for (i, op) in ops.iter().enumerate() {
            apply_op(&mut durable, i, op, &mut logged, &mut boundaries);
        }
        let generation = durable.durable_log().expect("durable").generation();
        let wal_len = durable.durable_log().expect("durable").wal_bytes();
        drop(durable); // crash: nothing checkpointed since create

        let cut = (wal_len as f64 * cut_frac) as u64;
        copy_dir(&dir, &scratch);
        let wal = scratch.join(format!("wal-{generation:010}.log"));
        let bytes = fs::read(&wal).expect("read wal");
        fs::write(&wal, &bytes[..cut.min(bytes.len() as u64) as usize]).expect("truncate wal");

        let (recovered, report) =
            ShardWriter::recover(&scratch, manual_opts()).expect("recovery succeeds");
        let acked = boundaries.iter().filter(|&&b| b <= cut).count();
        // Replay must stop exactly at the torn record.
        prop_assert_eq!(report.replayed_ops, acked);
        prop_assert_eq!(report.refused_ops, 0);
        let clean_cut = cut >= wal_len || cut == header_len || boundaries.contains(&cut);
        prop_assert_eq!(report.torn_tail, !clean_cut);
        assert_states_identical(recovered.db(), &oracle(&base, &logged, acked));
        // Recovery is self-healing: the recovered instance keeps going.
        let mut recovered = recovered;
        recovered.insert(&probes()[0]).expect("post-recovery insert");
        recovered.checkpoint().expect("post-recovery checkpoint");
        prop_assert_eq!(recovered.durability_health().expect("durable"), WalHealth::Healthy);
        drop(recovered);
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&scratch);
    }

    /// A crash that tears the *newest checkpoint* (at any byte) must
    /// fall back a generation and still recover everything acked, by
    /// chaining the previous generation's WAL into the newer one.
    #[test]
    fn truncated_newest_checkpoint_falls_back_a_generation(
        ops_a in prop::collection::vec(arb_op(), 1..7),
        ops_b in prop::collection::vec(arb_op(), 1..7),
        cut_frac in 0.0f64..1.0,
    ) {
        let dir = test_dir("ckpt");
        let base = seed_db();
        let mut durable =
            ShardWriter::create(&dir, base.clone(), 1, manual_opts()).expect("create durable dir");
        let first_gen = durable.durable_log().expect("durable").generation();
        let (mut logged, mut boundaries) = (Vec::new(), Vec::new());
        for (i, op) in ops_a.iter().enumerate() {
            apply_op(&mut durable, i, op, &mut logged, &mut boundaries);
        }
        durable.checkpoint().expect("mid-stream checkpoint");
        let newest_gen = durable.durable_log().expect("durable").generation();
        prop_assert_eq!(newest_gen, first_gen + 1);
        for (i, op) in ops_b.iter().enumerate() {
            apply_op(&mut durable, 100 + i, op, &mut logged, &mut boundaries);
        }
        drop(durable); // crash

        // Tear the newest checkpoint at an arbitrary interior byte.
        let ckpt = dir.join(format!("checkpoint-{newest_gen:010}.fmdb"));
        let bytes = fs::read(&ckpt).expect("read checkpoint");
        let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        fs::write(&ckpt, &bytes[..cut]).expect("truncate checkpoint");

        let (recovered, report) =
            ShardWriter::recover(&dir, manual_opts()).expect("fallback recovery succeeds");
        // Recovered from the previous generation, whose WAL chains into
        // the newer one — nothing acked is lost.
        prop_assert_eq!(report.generation, first_gen);
        prop_assert_eq!(report.checkpoints_skipped, 1);
        prop_assert_eq!(report.replayed_ops, logged.len());
        prop_assert_eq!(report.refused_ops, 0);
        assert_states_identical(recovered.db(), &oracle(&base, &logged, logged.len()));
        drop(recovered);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Any single-bit flip inside any section payload — binary or JSON
    /// — fails that section's checksum on load, by name, before any
    /// payload parses. (Under v5 the heavy sections are binary, so the
    /// full 0..8 bit range applies; there is no UTF-8 layer to trip
    /// over first.)
    #[test]
    fn any_single_bit_flip_in_a_section_payload_is_caught(
        section_frac in 0.0f64..1.0,
        byte_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let mut bytes = Vec::new();
        seed_db().save(&mut bytes).expect("save");
        let (version, sections) = split_envelope(&bytes).expect("well-formed envelope");
        prop_assert_eq!(version, CURRENT_FORMAT_VERSION);

        let magic_end = bytes.iter().position(|&b| b == b'\n').expect("magic line") + 1;
        let body_start = magic_end
            + bytes[magic_end..]
                .iter()
                .position(|&b| b == b'\n')
                .expect("header line")
            + 1;
        let k = ((sections.len() as f64 * section_frac) as usize).min(sections.len() - 1);
        let payload = &sections[k].payload;
        let offset_in_section =
            ((payload.len() as f64 * byte_frac) as usize).min(payload.len() - 1);
        let pos = body_start
            + sections[..k].iter().map(|s| s.payload.len()).sum::<usize>()
            + offset_in_section;
        bytes[pos] ^= 1 << bit;
        match SignatureDb::load(&bytes[..]) {
            Err(FmeterError::CorruptEnvelope { section, .. }) => {
                // The checksum failure names the damaged section.
                prop_assert_eq!(&section, &sections[k].name);
            }
            Err(other) => prop_assert!(false, "expected CorruptEnvelope, got: {other}"),
            Ok(_) => prop_assert!(
                false,
                "bit flip in `{}` loaded successfully",
                sections[k].name
            ),
        }
    }
}

/// The deterministic sweep companion to the property test: one fixed
/// interleave, a crash at *every* interesting byte offset of the WAL
/// (all record boundaries, their neighbours, and a dense stride), and a
/// read-only recovery compared against the oracle at each.
#[test]
fn wal_tail_sweep_recovers_the_clean_prefix_at_every_offset() {
    use fmeter_core::DurableLog;

    let dir = test_dir("sweep");
    let base = seed_db();
    let mut durable =
        ShardWriter::create(&dir, base.clone(), 1, manual_opts()).expect("create durable dir");
    let header_len = durable.durable_log().expect("durable").wal_bytes();
    let (mut logged, mut boundaries) = (Vec::new(), Vec::new());
    let script = [
        Op::Insert(vec![9, 8, 7, 6, 5, 4, 3, 2, 1, 0]),
        Op::Remove(3),
        Op::Refit,
        Op::Batch(4),
        Op::Vacuum,
        Op::Insert(vec![0, 1, 0, 1, 0, 1, 0, 1, 0, 1]),
    ];
    for (i, op) in script.iter().enumerate() {
        apply_op(&mut durable, i, op, &mut logged, &mut boundaries);
    }
    let generation = durable.durable_log().expect("durable").generation();
    let wal_len = durable.durable_log().expect("durable").wal_bytes();
    drop(durable);

    let scratch = test_dir("sweep-scratch");
    copy_dir(&dir, &scratch);
    let wal_path = scratch.join(format!("wal-{generation:010}.log"));
    let full = fs::read(&wal_path).expect("read wal");
    assert_eq!(full.len() as u64, wal_len);

    // Every record boundary and its immediate neighbours, plus a dense
    // stride over the whole file (the byte-exhaustive scan lives in the
    // wal module's unit tests; this sweep re-proves it through full
    // checkpoint-load + replay recovery).
    let mut cuts: Vec<u64> = vec![0, header_len.saturating_sub(1), header_len, wal_len];
    for &b in &boundaries {
        cuts.extend([b.saturating_sub(1), b, b + 1]);
    }
    cuts.extend((0..wal_len).step_by(7));
    cuts.sort_unstable();
    cuts.dedup();
    for cut in cuts {
        let cut = cut.min(wal_len);
        fs::write(&wal_path, &full[..cut as usize]).expect("truncate wal");
        let (db, _, report) = DurableLog::recover_state(&scratch).expect("read-only recovery");
        let acked = boundaries.iter().filter(|&&b| b <= cut).count();
        assert_eq!(
            report.replayed_ops, acked,
            "cut at byte {cut}: wrong replay length"
        );
        assert_eq!(report.refused_ops, 0, "cut at byte {cut}");
        assert_states_identical(&db, &oracle(&base, &logged, acked));
    }
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&scratch);
}

/// A durable service crashes with a torn WAL tail, recovers everything
/// acked minus the torn record, and continues streaming durably.
#[test]
fn durable_service_survives_a_torn_tail_and_continues() {
    let dir = test_dir("svc");
    let base = seed_db();
    let service = SignatureService::from_db_durable(base.clone(), 3, &dir, manual_opts())
        .expect("durable service");
    let mut logged = Vec::new();
    let mut boundaries = Vec::new();
    for (i, probe) in probes().iter().cycle().take(6).enumerate() {
        let mut r = probe.clone();
        r.started_at = Nanos(500 + i as u64);
        logged.push(WalOp::Insert(r.clone()));
        service.insert(&r).expect("stream insert");
        boundaries.push(
            service
                .with_durable_log(|log| log.wal_bytes())
                .expect("service is durable"),
        );
    }
    let generation = service
        .with_durable_log(|log| log.generation())
        .expect("service is durable");
    drop(service); // crash

    // Tear the tail mid-way through the last record: it must be lost.
    let wal = dir.join(format!("wal-{generation:010}.log"));
    let bytes = fs::read(&wal).expect("read wal");
    let cut = (boundaries[boundaries.len() - 2] + 4) as usize;
    fs::write(&wal, &bytes[..cut]).expect("truncate wal");

    let (recovered, report) =
        SignatureService::recover_durable(&dir, manual_opts()).expect("service recovery");
    assert_eq!(report.replayed_ops, logged.len() - 1);
    assert_eq!(report.refused_ops, 0);
    assert!(report.torn_tail);
    let expect = oracle(&base, &logged, logged.len() - 1);
    assert_eq!(recovered.len(), expect.len());
    for probe in probes() {
        let q = probe.to_term_counts();
        let got = recovered.search(&q, 5).expect("recovered search");
        let want = expect.search(&q, 5).expect("oracle search");
        assert_eq!(got.len(), want.len());
        for ((_, s1, x1), (_, s2, x2)) in got.iter().zip(&want) {
            assert_eq!(s1.label, s2.label);
            assert_eq!(x1.to_bits(), x2.to_bits(), "scores not bit-identical");
        }
    }
    // ... and the recovered service keeps streaming durably.
    recovered
        .insert(&probes()[1])
        .expect("post-recovery insert");
    recovered.checkpoint().expect("post-recovery checkpoint");
    assert_eq!(recovered.durability_health(), Some(WalHealth::Healthy));
    drop(recovered);
    let _ = fs::remove_dir_all(&dir);
}

/// A failing WAL degrades the service's durability health — mutations
/// and queries keep working — and a later checkpoint heals it, instead
/// of poisoning the writer.
#[test]
fn durable_service_degrades_and_heals_without_poisoning_the_writer() {
    let dir = test_dir("degrade");
    let service = SignatureService::from_db_durable(seed_db(), 2, &dir, manual_opts())
        .expect("durable service");
    service
        .with_durable_log(|log| log.set_wal_fail_plan(Some(FailPlan::kill_at(0))))
        .expect("service is durable");
    service
        .insert(&probes()[0])
        .expect("insert applies in memory");
    assert!(
        matches!(
            service.durability_health(),
            Some(WalHealth::Degraded { .. })
        ),
        "a WAL failure must surface as degraded health"
    );
    // Queries are unaffected while degraded.
    let q = probes()[0].to_term_counts();
    assert!(!service.search(&q, 3).expect("degraded search").is_empty());

    // Disarm the fault; backoff'd checkpoint retries heal the log.
    service
        .with_durable_log(|log| log.set_wal_fail_plan(None))
        .expect("service is durable");
    let mut healed = false;
    for i in 0..600 {
        service
            .insert(&probes()[i % 3])
            .expect("insert while healing");
        if service.durability_health() == Some(WalHealth::Healthy) {
            healed = true;
            break;
        }
    }
    assert!(healed, "backoff'd retries never re-established durability");
    // Everything applied in memory — including the ops from the
    // degraded window — is durable again: recover and compare.
    let expected_len = service.len();
    drop(service);
    let (recovered, report) =
        SignatureService::recover_durable(&dir, manual_opts()).expect("recovery after heal");
    assert_eq!(report.refused_ops, 0);
    assert_eq!(recovered.len(), expected_len);
    drop(recovered);
    let _ = fs::remove_dir_all(&dir);
}

/// A refused mutation is validated away before it reaches the log: a
/// wrong-dimension insert, a remove of a dead doc, and a batch with one
/// bad element each leave the sequence number, the WAL, and the
/// database untouched, and recovery replays only the accepted ops.
#[test]
fn refused_mutations_leave_no_trace_in_the_log() {
    let dir = test_dir("refused");
    let mut writer =
        ShardWriter::create(&dir, seed_db(), 1, manual_opts()).expect("create durable dir");
    writer.insert(&probes()[0]).expect("valid insert");
    writer.remove(0).expect("valid remove");
    let state = |w: &ShardWriter| {
        let log = w.durable_log().expect("durable");
        (log.next_seq(), log.wal_bytes(), w.db().len())
    };
    let before = state(&writer);
    let mut short = probes()[1].clone();
    short.counts.pop();
    assert!(writer.insert(&short).is_err(), "wrong dimension");
    assert_eq!(state(&writer), before, "refused insert left a trace");
    assert!(writer.remove(0).is_err(), "already removed");
    assert!(writer.remove(10_000).is_err(), "never assigned");
    assert_eq!(state(&writer), before, "refused remove left a trace");
    let batch = vec![probes()[0].clone(), short, probes()[2].clone()];
    assert!(writer.insert_batch(&batch).is_err(), "one bad element");
    assert_eq!(state(&writer), before, "refused batch left a trace");
    drop(writer);
    let (recovered, report) = ShardWriter::recover(&dir, manual_opts()).expect("recovery");
    assert_eq!(report.replayed_ops, 2);
    assert_eq!(report.refused_ops, 0);
    assert_eq!(recovered.db().len(), before.2);
    drop(recovered);
    let _ = fs::remove_dir_all(&dir);
}

/// Releases that logged before validating could write a refused op;
/// recovery still succeeds over such a log and counts the op instead
/// of silently discarding its error.
#[test]
fn refused_ops_in_older_logs_are_counted_on_replay() {
    let dir = test_dir("legacy-refused");
    let mut writer =
        ShardWriter::create(&dir, seed_db(), 1, manual_opts()).expect("create durable dir");
    let log = writer.durable_log_mut().expect("durable");
    log.append(&WalOp::Remove(10_000));
    log.append(&WalOp::Insert(probes()[0].clone()));
    drop(writer);
    let (recovered, report) = ShardWriter::recover(&dir, manual_opts()).expect("recovery");
    assert_eq!(report.replayed_ops, 2);
    assert_eq!(report.refused_ops, 1);
    assert_eq!(recovered.db().len(), seed_db().len() + 1);
    drop(recovered);
    let _ = fs::remove_dir_all(&dir);
}

// ---- negative persistence (satellite) --------------------------------

/// Replaces the first occurrence of `needle` in `bytes` (the v5
/// envelope is no longer UTF-8, so edits are byte surgery).
fn replace_once(bytes: &[u8], needle: &[u8], replacement: &[u8]) -> Vec<u8> {
    let pos = bytes
        .windows(needle.len())
        .position(|w| w == needle)
        .expect("needle present in envelope");
    let mut out = Vec::with_capacity(bytes.len() - needle.len() + replacement.len());
    out.extend_from_slice(&bytes[..pos]);
    out.extend_from_slice(replacement);
    out.extend_from_slice(&bytes[pos + needle.len()..]);
    out
}

#[test]
fn future_format_versions_are_rejected() {
    let mut bytes = Vec::new();
    seed_db().save(&mut bytes).expect("save");
    let cur = CURRENT_FORMAT_VERSION;
    let bumped = replace_once(&bytes, format!("FMETERDB {cur}").as_bytes(), b"FMETERDB 9");
    let bumped = replace_once(
        &bumped,
        format!("\"format_version\":{cur}").as_bytes(),
        b"\"format_version\":9",
    );
    match SignatureDb::load(&bumped[..]) {
        Err(FmeterError::UnsupportedFormat { found, supported }) => {
            assert_eq!(found, 9);
            assert_eq!(supported, cur);
        }
        other => panic!("expected UnsupportedFormat, got: {other:?}"),
    }
}

#[test]
fn bad_magic_and_garbage_are_rejected() {
    let mut bytes = Vec::new();
    seed_db().save(&mut bytes).expect("save");
    let mangled = replace_once(&bytes, b"FMETERDB", b"NOTMYDBX");
    assert!(SignatureDb::load(&mangled[..]).is_err(), "bad magic");
    assert!(SignatureDb::load(&b""[..]).is_err(), "empty input");
    assert!(
        SignatureDb::load(&b"\x00\xff\x00\xff garbage"[..]).is_err(),
        "binary garbage"
    );
}

#[test]
fn recovery_on_empty_or_partially_created_directories_fails_loudly() {
    let missing = test_dir("missing").join("never-created");
    assert!(
        ShardWriter::recover(&missing, DurableOptions::default()).is_err(),
        "missing directory"
    );

    let empty = test_dir("empty");
    fs::create_dir_all(&empty).expect("mkdir");
    assert!(
        ShardWriter::recover(&empty, DurableOptions::default()).is_err(),
        "empty directory"
    );
    assert!(
        SignatureService::recover_durable(&empty, DurableOptions::default()).is_err(),
        "service recovery on an empty directory"
    );

    // A directory holding only the debris of an interrupted create —
    // a temp file and a manifest, but no committed checkpoint.
    let partial = test_dir("partial");
    fs::create_dir_all(&partial).expect("mkdir");
    fs::write(partial.join("checkpoint-0000000001.fmdb.tmp"), b"half").expect("write tmp");
    fs::write(partial.join("MANIFEST"), b"FMMANIFEST bogus\n{}\n").expect("write manifest");
    assert!(
        ShardWriter::recover(&partial, DurableOptions::default()).is_err(),
        "tmp-and-manifest-only directory"
    );
    for dir in [missing.parent().unwrap().to_path_buf(), empty, partial] {
        let _ = fs::remove_dir_all(dir);
    }
}
