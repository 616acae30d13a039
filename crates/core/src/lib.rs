//! Fmeter core: the paper's monitoring system assembled over the
//! simulated kernel.
//!
//! This crate owns the *operator-facing* layer of the reproduction —
//! everything above the raw tracing machinery and below the evaluation
//! binaries. It wires `fmeter-kernel-sim` (the machine), `fmeter-trace`
//! (the counters), and `fmeter-ir`/`fmeter-ml` (the math) into the
//! workflow of paper §2.2:
//!
//! * [`Fmeter`] installs the per-CPU counting tracer on a kernel and
//!   exposes counters through debugfs (paper §3's kernel component),
//! * [`SignatureLogger`] is the user-space daemon: it samples counters on
//!   an interval and emits [`RawSignature`]s (count deltas, §3),
//! * [`SignatureDb`] fits tf-idf over a corpus of raw signatures, indexes
//!   the resulting weight vectors, and supports similarity search,
//!   nearest-neighbour classification, K-means [`Syndrome`] extraction,
//!   and meta-clustering of syndromes — the full operator workflow of
//!   paper §2.2 (evaluated in §4.2),
//! * [`AnomalyDetector`] flags intervals whose signatures sit far from
//!   every known syndrome (the forensics use case of §1).
//!
//! The database is *incremental* (streaming insert/remove with
//! epoch-versioned tf-idf refits driven by a [`RefitPolicy`]), *bounded*
//! (tombstoned slots are reclaimed by [`SignatureDb::vacuum`], driven by
//! a [`VacuumPolicy`]), and *durable* (saves are versioned envelopes
//! that load across releases — see the [`persist`] module for the
//! format contract and `docs/PERSISTENCE.md` for the narrative).
//!
//! ```
//! use fmeter_core::{Fmeter, SignatureDb};
//! use fmeter_kernel_sim::{CpuId, Kernel, KernelConfig, Nanos};
//! use fmeter_workloads::{Dbench, Scp, Workload};
//!
//! let mut kernel = Kernel::new(KernelConfig::default())?;
//! let fmeter = Fmeter::install(&mut kernel);
//! let mut logger = fmeter.logger(Nanos::from_millis(5), kernel.now());
//!
//! let mut raw = logger.collect(&mut kernel, &mut Dbench::new(1), &[CpuId(0)], 4, Some("dbench"))?;
//! logger.resync(kernel.now());
//! raw.extend(logger.collect(&mut kernel, &mut Scp::new(2), &[CpuId(0)], 4, Some("scp"))?);
//!
//! let db = SignatureDb::build(&raw)?;
//! assert_eq!(db.len(), 8);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod anomaly;
mod db;
mod error;
pub mod fault;
mod fmeter;
mod logger;
pub mod persist;
mod service;
mod signature;
mod userspace;
pub mod wal;

pub use anomaly::{AnomalyDetector, AnomalyVerdict};
pub use db::{
    Recluster, RefitPolicy, RefitStats, ShardPiece, SignatureDb, Syndrome, VacuumPolicy,
    VacuumStats,
};
pub use error::FmeterError;
pub use fmeter::Fmeter;
pub use logger::SignatureLogger;
pub use service::{ShardSnapshot, ShardWriter, SignatureService};
pub use signature::{RawSignature, Signature};
pub use userspace::{sample_via_debugfs, DebugfsReader, SymbolMap};
pub use wal::{
    CheckpointPolicy, DurableLog, DurableOptions, RecoveryReport, SyncPolicy, WalHealth, WalOp,
};
