//! Anomaly detection over syndromes.
//!
//! The paper's operator workflow (§2.2) stores syndromes of known
//! behaviours; a key property it highlights is "that it allows for
//! unknown behaviors to be classified as similar to some syndrome S, even
//! though the unknown behaviors may belong to a distinct class of their
//! own". [`AnomalyDetector`] operationalises that: a fresh signature is
//! matched to its nearest syndrome, and flagged as *novel* when its
//! distance exceeds what the training population ever exhibited.

use fmeter_ir::{euclidean_distance, SparseVec, TermCounts};
use serde::{Deserialize, Serialize};

use crate::{FmeterError, SignatureDb, Syndrome};

/// Verdict for one inspected signature.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnomalyVerdict {
    /// Index of the nearest syndrome.
    pub syndrome: usize,
    /// The nearest syndrome's dominant label, if any.
    pub label: Option<String>,
    /// Distance to the nearest syndrome centroid.
    pub distance: f64,
    /// The detector's threshold at decision time.
    pub threshold: f64,
    /// Whether the signature lies beyond every known behaviour.
    pub is_anomalous: bool,
}

/// A syndrome-based novelty detector.
///
/// # Examples
///
/// ```no_run
/// # use fmeter_core::{AnomalyDetector, SignatureDb};
/// # let db: SignatureDb = unimplemented!();
/// let detector = AnomalyDetector::fit(&db, 3, 1.5, 42)?;
/// # Ok::<(), fmeter_core::FmeterError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AnomalyDetector {
    syndromes: Vec<Syndrome>,
    threshold: f64,
}

impl AnomalyDetector {
    /// Fits a detector on a labelled database: clusters it into `k`
    /// syndromes and sets the novelty threshold to `margin` times the
    /// largest member-to-centroid distance observed in training.
    ///
    /// # Errors
    ///
    /// Propagates clustering failures; rejects `margin < 1` (a threshold
    /// below the training radius flags training data itself).
    pub fn fit(db: &SignatureDb, k: usize, margin: f64, seed: u64) -> Result<Self, FmeterError> {
        if margin < 1.0 {
            return Err(FmeterError::Ml(fmeter_ml::MlError::InvalidConfig(
                "margin must be >= 1".into(),
            )));
        }
        let syndromes = db.syndromes(k, seed)?;
        Self::from_syndromes(db, syndromes, margin)
    }

    /// Like [`fit`](Self::fit), but routed through
    /// [`SignatureDb::recluster`]: the first call clusters cold, and a
    /// detector refreshed after streaming churn warm-starts from the
    /// database's cached assignment — O(changed docs) of Lloyd work
    /// instead of a full multi-restart K-means — while the threshold is
    /// recomputed over the full surviving membership either way.
    ///
    /// # Errors
    ///
    /// Propagates clustering failures; rejects `margin < 1` like
    /// [`fit`](Self::fit).
    pub fn fit_incremental(
        db: &mut SignatureDb,
        k: usize,
        margin: f64,
        seed: u64,
    ) -> Result<Self, FmeterError> {
        if margin < 1.0 {
            return Err(FmeterError::Ml(fmeter_ml::MlError::InvalidConfig(
                "margin must be >= 1".into(),
            )));
        }
        let recluster = db.recluster(k, seed)?;
        Self::from_syndromes(db, recluster.syndromes, margin)
    }

    /// Shared tail of the fit paths: derive the novelty threshold from
    /// the training population's largest member-to-centroid distance.
    fn from_syndromes(
        db: &SignatureDb,
        syndromes: Vec<Syndrome>,
        margin: f64,
    ) -> Result<Self, FmeterError> {
        let mut max_radius: f64 = 0.0;
        for syndrome in &syndromes {
            for &member in &syndrome.members {
                let d = euclidean_distance(&db.signature(member).vector, &syndrome.centroid)?;
                max_radius = max_radius.max(d);
            }
        }
        // A degenerate all-identical corpus has radius 0; keep a floor so
        // exact repeats still pass.
        let threshold = (max_radius * margin).max(1e-9);
        Ok(AnomalyDetector {
            syndromes,
            threshold,
        })
    }

    /// The syndromes backing the detector.
    pub fn syndromes(&self) -> &[Syndrome] {
        &self.syndromes
    }

    /// The fitted novelty threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Inspects one already-transformed signature vector.
    ///
    /// # Errors
    ///
    /// Propagates dimension mismatches.
    pub fn inspect_vector(&self, vector: &SparseVec) -> Result<AnomalyVerdict, FmeterError> {
        let mut best = (0usize, f64::INFINITY);
        for (i, syndrome) in self.syndromes.iter().enumerate() {
            let d = euclidean_distance(vector, &syndrome.centroid)?;
            if d < best.1 {
                best = (i, d);
            }
        }
        let (syndrome, distance) = best;
        Ok(AnomalyVerdict {
            syndrome,
            label: self.syndromes[syndrome].dominant_label.clone(),
            distance,
            threshold: self.threshold,
            is_anomalous: distance > self.threshold,
        })
    }

    /// Inspects raw interval counts using `db`'s tf-idf model (the model
    /// the detector was fitted against).
    ///
    /// # Errors
    ///
    /// Propagates dimension mismatches.
    pub fn inspect(
        &self,
        db: &SignatureDb,
        counts: &TermCounts,
    ) -> Result<AnomalyVerdict, FmeterError> {
        self.inspect_vector(&db.transform(counts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RawSignature;
    use fmeter_kernel_sim::Nanos;

    /// Two tight behaviour classes over an 8-function space.
    fn training() -> SignatureDb {
        let mut raw = Vec::new();
        for i in 0..8u64 {
            raw.push(RawSignature {
                counts: vec![60 + i, 40, 30, 20, 0, 1, 0, 0],
                started_at: Nanos(i),
                ended_at: Nanos(i + 1),
                label: Some("web".into()),
            });
            raw.push(RawSignature {
                counts: vec![0, 1, 0, 0, 60 + i, 50, 40, 30],
                started_at: Nanos(i),
                ended_at: Nanos(i + 1),
                label: Some("db".into()),
            });
        }
        SignatureDb::build(&raw).unwrap()
    }

    #[test]
    fn known_behaviour_passes() {
        let db = training();
        let detector = AnomalyDetector::fit(&db, 2, 1.5, 1).unwrap();
        let verdict = detector
            .inspect(
                &db,
                &fmeter_ir::TermCounts::from_dense(&[64, 40, 30, 20, 0, 1, 0, 0]),
            )
            .unwrap();
        assert!(
            !verdict.is_anomalous,
            "near-training signature flagged: {verdict:?}"
        );
        assert_eq!(verdict.label.as_deref(), Some("web"));
    }

    #[test]
    fn novel_behaviour_is_flagged() {
        let db = training();
        let detector = AnomalyDetector::fit(&db, 2, 1.5, 1).unwrap();
        // A behaviour hitting the functions neither class uses.
        let verdict = detector
            .inspect(
                &db,
                &fmeter_ir::TermCounts::from_dense(&[0, 80, 0, 0, 0, 90, 0, 0]),
            )
            .unwrap();
        assert!(
            verdict.is_anomalous,
            "novel signature not flagged: {verdict:?}"
        );
        assert!(verdict.distance > verdict.threshold);
    }

    #[test]
    fn verdict_names_nearest_class() {
        let db = training();
        let detector = AnomalyDetector::fit(&db, 2, 2.0, 3).unwrap();
        let verdict = detector
            .inspect(
                &db,
                &fmeter_ir::TermCounts::from_dense(&[0, 0, 0, 0, 61, 49, 41, 29]),
            )
            .unwrap();
        assert_eq!(verdict.label.as_deref(), Some("db"));
        assert!(!verdict.is_anomalous);
    }

    #[test]
    fn margin_below_one_rejected() {
        let db = training();
        assert!(AnomalyDetector::fit(&db, 2, 0.5, 1).is_err());
    }

    #[test]
    fn incremental_fit_matches_cold_fit_and_warm_starts() {
        let mut db = training();
        let cold = AnomalyDetector::fit(&db, 2, 1.5, 1).unwrap();
        // First incremental fit is a cold recluster with the same k-means
        // configuration modulo restarts; on this well-separated corpus the
        // syndromes agree exactly.
        let first = AnomalyDetector::fit_incremental(&mut db, 2, 1.5, 1).unwrap();
        assert_eq!(first.syndromes(), cold.syndromes());
        assert_eq!(first.threshold(), cold.threshold());
        // Second fit with unchanged data warm-starts and reproduces the
        // detector bit for bit.
        let second = AnomalyDetector::fit_incremental(&mut db, 2, 1.5, 1).unwrap();
        assert_eq!(second.syndromes(), first.syndromes());
        assert_eq!(second.threshold(), first.threshold());
        let verdict = second
            .inspect(
                &db,
                &fmeter_ir::TermCounts::from_dense(&[0, 80, 0, 0, 0, 90, 0, 0]),
            )
            .unwrap();
        assert!(verdict.is_anomalous);
    }

    #[test]
    fn threshold_scales_with_margin() {
        let db = training();
        let tight = AnomalyDetector::fit(&db, 2, 1.0, 1).unwrap();
        let loose = AnomalyDetector::fit(&db, 2, 3.0, 1).unwrap();
        assert!(loose.threshold() > tight.threshold());
        assert_eq!(tight.syndromes().len(), 2);
    }
}
