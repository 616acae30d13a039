//! Quickstart: boot a simulated machine, install Fmeter, log signatures
//! of two different behaviours, and compare them in the vector space.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use fmeter::core::{Fmeter, SignatureDb};
use fmeter::kernel_sim::{CpuId, Kernel, KernelConfig, Nanos};
use fmeter::workloads::{Dbench, Scp};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Boot a 16-CPU machine with the standard simulated kernel image
    //    (3815 instrumented functions) and patch Fmeter into it.
    let mut kernel = Kernel::new(KernelConfig::default())?;
    let fmeter = Fmeter::install(&mut kernel);
    println!(
        "machine up: {} kernel functions instrumented, tracer = {:?}",
        kernel.num_functions(),
        kernel.tracer().name()
    );

    // 2. Run the logging daemon while two workloads execute, 10 ms of
    //    simulated time per signature (the paper uses 2-10 s of wall
    //    time; the interval only sets the sample size per signature).
    let interval = Nanos::from_millis(10);
    let cpus: Vec<CpuId> = (0..4).map(CpuId).collect();
    let mut logger = fmeter.logger(interval, kernel.now());

    let mut scp = Scp::new(1);
    let scp_sigs = logger.collect(&mut kernel, &mut scp, &cpus, 8, Some("scp"))?;
    logger.resync(kernel.now());
    let mut dbench = Dbench::new(2);
    let dbench_sigs = logger.collect(&mut kernel, &mut dbench, &cpus, 8, Some("dbench"))?;

    println!(
        "collected {} scp + {} dbench signatures ({} kernel calls in the last one)",
        scp_sigs.len(),
        dbench_sigs.len(),
        dbench_sigs.last().map(|s| s.total_calls()).unwrap_or(0),
    );

    // 3. Embed everything in the tf-idf vector space and index it.
    let mut raw = scp_sigs.clone();
    raw.extend(dbench_sigs.clone());
    let db = SignatureDb::build(&raw)?;

    // 4. Same-class signatures are close; cross-class ones are far.
    let same = db.signature(0).cosine(&db.signature(1))?;
    let cross = db.signature(0).cosine(&db.signature(12))?;
    println!("cosine(scp, scp)    = {same:.4}");
    println!("cosine(scp, dbench) = {cross:.4}");
    assert!(same > cross, "same-class signatures must be more similar");

    // 5. Similarity search labels a fresh interval.
    let fresh = logger.collect_one(&mut kernel, &mut dbench, &cpus, None)?;
    let verdict = db.classify(&fresh.to_term_counts(), 5)?;
    println!("fresh interval classified as: {verdict:?}");
    assert_eq!(verdict.as_deref(), Some("dbench"));
    Ok(())
}
