//! Persistence round trips and failure injection: models survive the
//! disk, and corrupted or degenerate inputs fail loudly instead of
//! silently skewing signatures.

use std::sync::Arc;

use fmeter::core::{Fmeter, SignatureDb};
use fmeter::ir::{SparseVec, TermCounts, TfIdfModel};
use fmeter::kernel_sim::{CpuId, Kernel, KernelConfig, KernelOp, Nanos};
use fmeter::ml::{DecisionTree, Kernel as SvmKernel, SvmTrainer};
use fmeter::trace::FmeterTracer;
use fmeter::workloads::Dbench;

#[test]
fn ir_types_survive_json() {
    let v = SparseVec::from_pairs(8, [(1, 2.5), (6, -1.0)]).unwrap();
    let json = serde_json::to_string(&v).unwrap();
    let back: SparseVec = serde_json::from_str(&json).unwrap();
    assert_eq!(v, back);

    let tc = TermCounts::from_pairs(8, [(0, 3), (7, 9)]).unwrap();
    let back: TermCounts = serde_json::from_str(&serde_json::to_string(&tc).unwrap()).unwrap();
    assert_eq!(tc, back);

    let mut corpus = fmeter::ir::Corpus::new(4);
    corpus.push(TermCounts::from_pairs(4, [(0, 2), (1, 1)]).unwrap());
    corpus.push(TermCounts::from_pairs(4, [(0, 1), (2, 5)]).unwrap());
    let model = TfIdfModel::fit(&corpus).unwrap();
    let back: TfIdfModel = serde_json::from_str(&serde_json::to_string(&model).unwrap()).unwrap();
    // Same transform behaviour after the round trip.
    let doc = corpus.doc(0).unwrap();
    assert_eq!(model.transform(doc), back.transform(doc));
}

#[test]
fn trained_models_survive_json() {
    let xs = vec![
        SparseVec::from_pairs(4, [(0, 1.0)]).unwrap(),
        SparseVec::from_pairs(4, [(0, 0.9)]).unwrap(),
        SparseVec::from_pairs(4, [(1, 1.0)]).unwrap(),
        SparseVec::from_pairs(4, [(1, 1.1)]).unwrap(),
    ];
    let ys = vec![1i8, 1, -1, -1];

    let svm = SvmTrainer::new()
        .kernel(SvmKernel::Linear)
        .train(&xs, &ys)
        .unwrap();
    let svm_back: fmeter::ml::SvmModel =
        serde_json::from_str(&serde_json::to_string(&svm).unwrap()).unwrap();
    let tree = DecisionTree::trainer().train(&xs, &ys).unwrap();
    let tree_back: DecisionTree =
        serde_json::from_str(&serde_json::to_string(&tree).unwrap()).unwrap();
    for (x, &y) in xs.iter().zip(&ys) {
        assert_eq!(svm_back.predict(x), y);
        assert_eq!(tree_back.predict(x), y);
    }
}

#[test]
fn corrupted_database_fails_loudly() {
    assert!(SignatureDb::load(&b"not json"[..]).is_err());
    assert!(SignatureDb::load(&b"{\"model\": 3}"[..]).is_err());
    assert!(SignatureDb::load(&b""[..]).is_err());
}

#[test]
fn db_round_trips_through_real_collection() {
    let mut kernel = Kernel::new(KernelConfig {
        num_cpus: 2,
        seed: 77,
        timer_hz: 1000,
        image_seed: 0x2628,
    })
    .unwrap();
    let fmeter = Fmeter::install(&mut kernel);
    let mut logger = fmeter.logger(Nanos::from_millis(4), kernel.now());
    let raw = logger
        .collect(
            &mut kernel,
            &mut Dbench::new(1),
            &[CpuId(0)],
            6,
            Some("dbench"),
        )
        .unwrap();
    let db = SignatureDb::build(&raw).unwrap();
    let mut buf = Vec::new();
    db.save(&mut buf).unwrap();
    let restored = SignatureDb::load(&buf[..]).unwrap();
    // Search results identical post-restore.
    let query = raw[0].to_term_counts();
    let a: Vec<(usize, String)> = db
        .search(&query, 3)
        .unwrap()
        .iter()
        .map(|(_, s, score)| ((score * 1e9) as usize, format!("{:?}", s.label)))
        .collect();
    let b: Vec<(usize, String)> = restored
        .search(&query, 3)
        .unwrap()
        .iter()
        .map(|(_, s, score)| ((score * 1e9) as usize, format!("{:?}", s.label)))
        .collect();
    assert_eq!(a, b);
}

#[test]
fn counter_reset_mid_interval_saturates_not_underflows() {
    // Failure injection: an operator resets counters between the
    // daemon's two reads. The delta must clamp to zero, never wrap.
    let mut kernel = Kernel::new(KernelConfig {
        num_cpus: 1,
        seed: 5,
        timer_hz: 0,
        image_seed: 0x2628,
    })
    .unwrap();
    let tracer = Arc::new(FmeterTracer::with_cpus(kernel.symbols(), 1));
    kernel.set_tracer(tracer.clone());
    kernel
        .run_op(CpuId(0), KernelOp::Fork { pages: 32 })
        .unwrap();
    let before = tracer.snapshot(kernel.now());
    tracer.reset(); // injected fault
    kernel.run_op(CpuId(0), KernelOp::SyscallNull).unwrap();
    let after = tracer.snapshot(kernel.now());
    for &d in &before.delta(&after) {
        assert!(d < 1_000_000, "delta wrapped: {d}");
    }
}

#[test]
fn workload_stream_survives_tracer_swap_mid_run() {
    // Flip instrumentation off and on mid-workload: the kernel must keep
    // running and the logger must keep producing coherent intervals.
    let mut kernel = Kernel::new(KernelConfig {
        num_cpus: 2,
        seed: 9,
        timer_hz: 1000,
        image_seed: 0x2628,
    })
    .unwrap();
    let fmeter = Fmeter::install(&mut kernel);
    let mut logger = fmeter.logger(Nanos::from_millis(2), kernel.now());
    let mut w = Dbench::new(2);
    let first = logger
        .collect_one(&mut kernel, &mut w, &[CpuId(0)], None)
        .unwrap();
    fmeter.set_enabled(false);
    let dark = logger
        .collect_one(&mut kernel, &mut w, &[CpuId(0)], None)
        .unwrap();
    fmeter.set_enabled(true);
    let third = logger
        .collect_one(&mut kernel, &mut w, &[CpuId(0)], None)
        .unwrap();
    assert!(first.total_calls() > 0);
    assert_eq!(dark.total_calls(), 0);
    assert!(third.total_calls() > 0);
    // Time keeps tiling even across the dark interval.
    assert_eq!(first.ended_at, dark.started_at);
    assert_eq!(dark.ended_at, third.started_at);
}
