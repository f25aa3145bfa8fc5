//! Fake-multimedia (deepfake) detection on synthetic media.
//!
//! The paper's component 2 is "fake multimedia detection … us\[ing\] AI
//! algorithms to detect the tampering of multimedia materials" (§IV),
//! motivated by Face2Face/FakeApp-style reenactment. Real video forensics
//! needs real footage; the platform, however, only consumes a *tamper
//! score per media item*, so we reproduce the component on synthetic
//! video: smoothly evolving luma frames, a deepfake-style localized
//! region swap sustained over a frame range, and two detectors —
//!
//! 1. **temporal anomaly**: per-block perceptual-hash discontinuity between
//!    consecutive frames (tamper boundaries create spikes);
//! 2. **provenance fingerprint**: Hamming mismatch against the original's
//!    perceptual-hash chain registered on the platform (the blockchain
//!    angle: originals anchor their fingerprints at publication).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Frame width and height (pixels).
pub(crate) const FRAME_DIM: usize = 32;

/// One grayscale frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Row-major luma values.
    pub(crate) pixels: Vec<u8>,
}

impl Frame {
    fn idx(x: usize, y: usize) -> usize {
        y * FRAME_DIM + x
    }
}

/// A synthetic video: a sequence of frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Video {
    /// The frames.
    pub frames: Vec<Frame>,
}

/// Generates a smooth synthetic video: a low-frequency random field that
/// drifts slowly frame to frame (like a static camera scene).
pub fn generate_video(n_frames: usize, seed: u64) -> Video {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut base: Vec<i32> = (0..FRAME_DIM * FRAME_DIM)
        .map(|_| rng.gen_range(64..192))
        .collect();
    // Smooth the base with a box blur for spatial coherence.
    base = blur(&base);
    let mut frames = Vec::with_capacity(n_frames);
    for _ in 0..n_frames {
        // Small temporal drift.
        for v in &mut base {
            *v = (*v + rng.gen_range(-3..=3)).clamp(0, 255);
        }
        let smoothed = blur(&base);
        frames.push(Frame {
            pixels: smoothed.iter().map(|&v| v as u8).collect(),
        });
    }
    Video { frames }
}

fn blur(src: &[i32]) -> Vec<i32> {
    let mut out = vec![0i32; src.len()];
    for y in 0..FRAME_DIM {
        for x in 0..FRAME_DIM {
            let mut sum = 0;
            let mut count = 0;
            for dy in -1i32..=1 {
                for dx in -1i32..=1 {
                    let nx = x as i32 + dx;
                    let ny = y as i32 + dy;
                    if (0..FRAME_DIM as i32).contains(&nx) && (0..FRAME_DIM as i32).contains(&ny) {
                        sum += src[Frame::idx(nx as usize, ny as usize)];
                        count += 1;
                    }
                }
            }
            out[Frame::idx(x, y)] = sum / count;
        }
    }
    out
}

/// Deepfake-style tamper description.
#[derive(Debug, Clone, Copy)]
pub struct Tamper {
    /// First tampered frame (inclusive).
    pub start_frame: usize,
    /// Last tampered frame (exclusive).
    pub end_frame: usize,
    /// Top-left corner of the swapped region.
    pub region: (usize, usize),
    /// Region size (square side).
    pub size: usize,
    /// Blend intensity in `[0, 1]`: 0 = invisible, 1 = full replacement.
    pub intensity: f64,
}

/// Applies a region swap from `donor` into `video` per `tamper`,
/// returning the tampered copy.
///
/// # Panics
///
/// Panics if the region or frame range is out of bounds.
pub fn apply_tamper(video: &Video, donor: &Video, tamper: &Tamper) -> Video {
    assert!(
        tamper.end_frame <= video.frames.len(),
        "frame range out of bounds"
    );
    assert!(tamper.start_frame < tamper.end_frame, "empty tamper range");
    assert!(
        tamper.region.0 + tamper.size <= FRAME_DIM && tamper.region.1 + tamper.size <= FRAME_DIM,
        "region out of bounds"
    );
    let mut out = video.clone();
    for f in tamper.start_frame..tamper.end_frame {
        let donor_frame = &donor.frames[f % donor.frames.len()];
        let frame = &mut out.frames[f];
        for y in tamper.region.1..tamper.region.1 + tamper.size {
            for x in tamper.region.0..tamper.region.0 + tamper.size {
                let i = Frame::idx(x, y);
                let orig = frame.pixels[i] as f64;
                let don = donor_frame.pixels[i] as f64;
                frame.pixels[i] =
                    (orig * (1.0 - tamper.intensity) + don * tamper.intensity).round() as u8;
            }
        }
    }
    out
}

/// Simulates a lossy re-encode of a video (what an honest re-upload goes
/// through): every pixel drifts by up to `noise` luma steps. Forensics
/// must distinguish this benign noise from actual tampering.
pub fn reencode(video: &Video, noise: i32, seed: u64) -> Video {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = video.clone();
    for frame in &mut out.frames {
        for p in &mut frame.pixels {
            let v = *p as i32 + rng.gen_range(-noise..=noise);
            *p = v.clamp(0, 255) as u8;
        }
    }
    out
}

/// Per-block (8×8 grid of 4×4-pixel blocks… here: 4×4 grid of 8×8 blocks)
/// average-hash fingerprint of one frame: one bit per pixel-vs-block-mean,
/// one u64 per block.
pub fn block_fingerprints(frame: &Frame) -> Vec<u64> {
    const BLOCKS: usize = 4; // 4×4 grid of 8×8 blocks
    const BS: usize = FRAME_DIM / BLOCKS;
    let mut out = Vec::with_capacity(BLOCKS * BLOCKS);
    for by in 0..BLOCKS {
        for bx in 0..BLOCKS {
            let mut sum = 0u32;
            for y in 0..BS {
                for x in 0..BS {
                    sum += frame.pixels[Frame::idx(bx * BS + x, by * BS + y)] as u32;
                }
            }
            let mean = sum / (BS * BS) as u32;
            let mut bits = 0u64;
            // Sample the 8×8 block at every pixel → 64 bits exactly.
            let mut bit = 0;
            for y in 0..BS {
                for x in 0..BS {
                    if (frame.pixels[Frame::idx(bx * BS + x, by * BS + y)] as u32) > mean {
                        bits |= 1 << bit;
                    }
                    bit += 1;
                }
            }
            out.push(bits);
        }
    }
    out
}

/// Hamming distance between two fingerprints of equal length, in bits.
pub(crate) fn hamming(a: &[u64], b: &[u64]) -> u32 {
    assert_eq!(a.len(), b.len(), "fingerprint lengths differ");
    a.iter().zip(b).map(|(x, y)| (x ^ y).count_ones()).sum()
}

/// Temporal-anomaly tamper score in `[0, 1]`: the largest whole-frame
/// fingerprint jump between consecutive frames, normalized by the video's
/// own 95th-percentile jump. Natural drift keeps the maximum close to the
/// p95 (ratio ≈ 1); a tamper boundary rewrites several blocks at once and
/// pushes the ratio to 3–5.
pub fn temporal_anomaly_score(video: &Video) -> f64 {
    if video.frames.len() < 3 {
        return 0.0;
    }
    let prints: Vec<Vec<u64>> = video.frames.iter().map(block_fingerprints).collect();
    let mut jumps: Vec<u32> = prints.windows(2).map(|w| hamming(&w[0], &w[1])).collect();
    let max_jump = *jumps.iter().max().expect("nonempty");
    jumps.sort_unstable();
    let p95 = jumps[(jumps.len() * 95 / 100).min(jumps.len() - 1)].max(1);
    let ratio = max_jump as f64 / p95 as f64;
    1.0 - (-0.7 * (ratio - 1.0).max(0.0)).exp()
}

/// Provenance-fingerprint mismatch score in `[0, 1]`: mean normalized
/// Hamming distance between the suspect's per-frame fingerprints and the
/// original's registered chain.
///
/// # Panics
///
/// Panics if the videos have different frame counts.
pub fn fingerprint_mismatch_score(original: &Video, suspect: &Video) -> f64 {
    assert_eq!(
        original.frames.len(),
        suspect.frames.len(),
        "fingerprint chains must cover the same frames"
    );
    if original.frames.is_empty() {
        return 0.0;
    }
    let mut total_bits = 0u32;
    let mut diff_bits = 0u32;
    for (a, b) in original.frames.iter().zip(&suspect.frames) {
        let fa = block_fingerprints(a);
        let fb = block_fingerprints(b);
        diff_bits += hamming(&fa, &fb);
        total_bits += (fa.len() * 64) as u32;
    }
    diff_bits as f64 / total_bits as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tamper(intensity: f64) -> Tamper {
        Tamper {
            start_frame: 20,
            end_frame: 40,
            region: (8, 8),
            size: 16,
            intensity,
        }
    }

    #[test]
    fn generation_is_deterministic_and_sized() {
        let a = generate_video(10, 5);
        let b = generate_video(10, 5);
        assert_eq!(a, b);
        assert_eq!(a.frames.len(), 10);
        assert_eq!(a.frames[0].pixels.len(), FRAME_DIM * FRAME_DIM);
    }

    #[test]
    fn fingerprints_stable_for_identical_frames() {
        let v = generate_video(3, 1);
        let f1 = block_fingerprints(&v.frames[0]);
        let f2 = block_fingerprints(&v.frames[0]);
        assert_eq!(f1, f2);
        assert_eq!(f1.len(), 16);
        assert_eq!(hamming(&f1, &f2), 0);
    }

    #[test]
    fn untampered_video_scores_low() {
        let v = generate_video(60, 7);
        let s = temporal_anomaly_score(&v);
        assert!(s < 0.5, "clean video anomaly {s}");
        assert!(fingerprint_mismatch_score(&v, &v) < 1e-12);
    }

    #[test]
    fn strong_tamper_scores_high() {
        let v = generate_video(60, 7);
        let donor = generate_video(60, 999);
        let t = apply_tamper(&v, &donor, &tamper(1.0));
        assert!(
            temporal_anomaly_score(&t) > temporal_anomaly_score(&v) + 0.2,
            "tamper should raise the anomaly score"
        );
        assert!(fingerprint_mismatch_score(&v, &t) > 0.01);
    }

    #[test]
    fn mismatch_grows_with_intensity() {
        let v = generate_video(60, 7);
        let donor = generate_video(60, 999);
        let weak = fingerprint_mismatch_score(&v, &apply_tamper(&v, &donor, &tamper(0.3)));
        let strong = fingerprint_mismatch_score(&v, &apply_tamper(&v, &donor, &tamper(1.0)));
        assert!(strong > weak, "strong {strong} vs weak {weak}");
    }

    #[test]
    fn detectors_separate_classes_roc() {
        use crate::metrics::roc_auc;
        let mut preds = Vec::new();
        for seed in 0..12u64 {
            let v = generate_video(40, seed);
            let donor = generate_video(40, seed + 1000);
            let t = apply_tamper(
                &v,
                &donor,
                &Tamper {
                    start_frame: 10,
                    end_frame: 25,
                    region: (4, 4),
                    size: 16,
                    intensity: 0.9,
                },
            );
            preds.push((false, fingerprint_mismatch_score(&v, &v)));
            preds.push((true, fingerprint_mismatch_score(&v, &t)));
        }
        let auc = roc_auc(&preds);
        assert!(auc > 0.95, "auc {auc}");
    }

    #[test]
    #[should_panic(expected = "region out of bounds")]
    fn oob_region_panics() {
        let v = generate_video(5, 1);
        let donor = generate_video(5, 2);
        apply_tamper(
            &v,
            &donor,
            &Tamper {
                start_frame: 0,
                end_frame: 1,
                region: (30, 30),
                size: 16,
                intensity: 1.0,
            },
        );
    }

    #[test]
    #[should_panic(expected = "chains must cover the same frames")]
    fn mismatched_lengths_panic() {
        let a = generate_video(5, 1);
        let b = generate_video(6, 1);
        fingerprint_mismatch_score(&a, &b);
    }

    #[test]
    fn reencode_adds_bounded_noise() {
        let v = generate_video(10, 4);
        let r = reencode(&v, 3, 9);
        assert_ne!(r, v);
        assert_eq!(reencode(&v, 3, 9), r, "deterministic");
        // Mismatch from re-encoding is small compared to real tampering.
        let benign = fingerprint_mismatch_score(&v, &r);
        let donor = generate_video(10, 4000);
        let t = apply_tamper(
            &v,
            &donor,
            &Tamper {
                start_frame: 2,
                end_frame: 8,
                region: (8, 8),
                size: 16,
                intensity: 1.0,
            },
        );
        let malicious = fingerprint_mismatch_score(&v, &reencode(&t, 3, 9));
        assert!(
            benign < malicious,
            "benign {benign} vs malicious {malicious}"
        );
    }

    #[test]
    fn short_videos_score_zero_anomaly() {
        let v = generate_video(2, 3);
        assert_eq!(temporal_anomaly_score(&v), 0.0);
    }
}
