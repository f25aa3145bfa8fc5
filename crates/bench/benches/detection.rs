//! AI-detection benchmarks: classifier training and per-document
//! inference, plus media fingerprinting.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tn_aidetect::corpus::{generate_news_corpus, NewsCorpusConfig};
use tn_aidetect::ensemble::EnsembleDetector;
use tn_aidetect::media::{block_fingerprints, generate_video};
use tn_aidetect::naive_bayes::NaiveBayes;

fn bench_training(c: &mut Criterion) {
    let corpus = generate_news_corpus(&NewsCorpusConfig {
        n_factual: 200,
        n_fake: 200,
        ..NewsCorpusConfig::default()
    });
    let mut group = c.benchmark_group("train");
    group.sample_size(10);
    group.bench_function("naive_bayes_400docs", |b| {
        b.iter(|| NaiveBayes::train(black_box(&corpus)))
    });
    group.finish();
}

fn bench_inference(c: &mut Criterion) {
    let corpus = generate_news_corpus(&NewsCorpusConfig::default());
    let det = EnsembleDetector::train(&corpus);
    let doc = &corpus[0].text;
    c.bench_function("ensemble_infer_one_doc", |b| {
        b.iter(|| det.prob_fake(black_box(doc)))
    });
}

fn bench_media_fingerprint(c: &mut Criterion) {
    let video = generate_video(1, 1);
    let frame = &video.frames[0];
    c.bench_function("frame_fingerprint", |b| {
        b.iter(|| block_fingerprints(black_box(frame)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_training, bench_inference, bench_media_fingerprint
}
criterion_main!(benches);
