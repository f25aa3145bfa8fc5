//! E8 — Deepfake/media tamper detection: ROC-AUC of both detectors vs
//! tamper intensity and tampered-region size.
//!
//! Paper anchor: Figure 1's "fake multimedia detection" component,
//! motivated by Face2Face/FakeApp (§I).
//!
//! Run: `cargo run -p tn-bench --release --bin exp8_media_tamper`

use serde::Serialize;
use tn_aidetect::media::{
    apply_tamper, fingerprint_mismatch_score, generate_video, reencode, temporal_anomaly_score,
    Tamper,
};
use tn_aidetect::metrics::roc_auc;
use tn_bench::Experiment;

#[derive(Debug, Serialize)]
struct Row {
    intensity: f64,
    region: usize,
    auc_fingerprint: f64,
    auc_temporal: f64,
}

fn main() {
    let exp = Experiment::start(
        "E8",
        "media tamper detection ROC vs intensity and region size",
    );
    let n_videos = 20u64;
    let mut rows = Vec::new();

    for &region in &[8usize, 16, 24] {
        for &intensity in &[0.1, 0.25, 0.5, 0.75, 1.0] {
            let mut fp_preds = Vec::new();
            let mut ta_preds = Vec::new();
            for seed in 0..n_videos {
                let v = generate_video(60, seed);
                let donor = generate_video(60, seed + 10_000);
                let t = apply_tamper(
                    &v,
                    &donor,
                    &Tamper {
                        start_frame: 15,
                        end_frame: 40,
                        region: (4, 4),
                        size: region,
                        intensity,
                    },
                );
                // Honest copies are lossily re-encoded, not bit-identical —
                // the detectors must beat benign re-encode noise.
                let honest = reencode(&v, 4, seed + 77);
                let malicious = reencode(&t, 4, seed + 77);
                fp_preds.push((false, fingerprint_mismatch_score(&v, &honest)));
                fp_preds.push((true, fingerprint_mismatch_score(&v, &malicious)));
                ta_preds.push((false, temporal_anomaly_score(&honest)));
                ta_preds.push((true, temporal_anomaly_score(&malicious)));
            }
            rows.push(Row {
                intensity,
                region,
                auc_fingerprint: roc_auc(&fp_preds),
                auc_temporal: roc_auc(&ta_preds),
            });
        }
    }

    exp.report("E8", "media tamper detection", &rows);
    println!(
        "\nshape check: both detectors must beat benign re-encode noise. The provenance-\
         fingerprint detector (which needs the original's registered chain — the blockchain's \
         contribution) stays strong down to subtle tampering; the reference-free temporal \
         detector needs stronger or larger edits. AUC rises with intensity and region size \
         for both — quantifying the value of anchoring media fingerprints at publication."
    );
}
