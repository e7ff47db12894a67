//! Quickstart: generate a corpus, configure a batch-first scanner, scan
//! in bulk with skeleton-hash dedup.
//!
//! ```text
//! cargo run --example quickstart --release
//! ```
//!
//! Migrating from the removed one-shot `ScamDetect` facade? Build the
//! scanner directly with the `ScannerBuilder` shown here
//! (`ScamDetect::train(kind, corpus, opts)` becomes
//! `ScannerBuilder::new().model(kind).train_options(opts).train(corpus)`),
//! use `scan_batch` for anything bulk, and persist trained models with
//! `Scanner::save` / `ScannerBuilder::load` (see `examples/save_load.rs`).

use scamdetect::{CacheStatus, ClassicModel, FeatureKind, ModelKind, ScanRequest, ScannerBuilder};
use scamdetect_dataset::{ContractLabel, Corpus, CorpusConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A labeled corpus — the synthetic stand-in for the Etherscan
    //    dataset the paper builds on.
    //    `proxy_duplicates` injects ERC-1167 clones, the duplication
    //    pattern that dominates real scanning traffic.
    let corpus = Corpus::generate(&CorpusConfig {
        size: 300,
        seed: 2024,
        proxy_duplicates: 60,
        ..CorpusConfig::default()
    });
    let stats = corpus.stats();
    println!(
        "corpus: {} contracts ({} malicious, {} benign), mean {:.0} bytes",
        stats.total, stats.malicious, stats.benign, stats.mean_size
    );

    // 2. Hold out 30% for honest evaluation.
    let (train_idx, test_idx) = corpus.split(0.3, 7);

    // 3. Configure and train the scanner: model, decision threshold,
    //    dedup-cache bound and worker fan-out in one fluent chain.
    //
    //    GNN detectors (`ModelKind::Gnn(GnnKind::Gcn)` etc.) train through
    //    block-diagonal mini-batches: each gradient step packs
    //    `train_options().gnn.batch_size` CFGs into one batch scored by a
    //    single tape forward/backward. The batching knobs live on the same
    //    options struct:
    //
    //        .train_options({
    //            let mut o = scamdetect::TrainOptions::default();
    //            o.gnn.batch_size = 8;          // graphs per batch
    //            o.gnn.bucket_by_size = true;   // pack similar-sized CFGs,
    //                                           // pay packing once per run
    //            o.gnn.max_batch_nodes = Some(4096); // cap nodes per batch
    //            o
    //        })
    let scanner = ScannerBuilder::new()
        .model(ModelKind::Classic(
            ClassicModel::RandomForest,
            FeatureKind::Unified,
        ))
        .threshold(0.5)
        .cache_capacity(4096)
        .workers(0) // 0 = one worker per available core
        .train_on(&corpus, &train_idx)?;

    // 4. Scan the held-out contracts as ONE batch.
    let requests: Vec<ScanRequest> = test_idx
        .iter()
        .map(|&i| ScanRequest::new(&corpus.contracts()[i].bytes))
        .collect();
    let outcomes = scanner.scan_batch(&requests);

    let mut correct = 0;
    let mut cache_hits = 0;
    for (&i, outcome) in test_idx.iter().zip(&outcomes) {
        let report = outcome.as_ref().expect("scan succeeds");
        if report.verdict.label == corpus.contracts()[i].label {
            correct += 1;
        }
        if report.cache != CacheStatus::Miss {
            cache_hits += 1;
        }
    }
    println!(
        "held-out accuracy: {:.1}% ({} / {})",
        100.0 * correct as f64 / test_idx.len() as f64,
        correct,
        test_idx.len()
    );
    println!(
        "dedup: {cache_hits} of {} scans served from the skeleton cache",
        test_idx.len()
    );

    // 5. Inspect one report in detail: verdict plus scan provenance.
    let malicious_pos = test_idx
        .iter()
        .position(|&i| corpus.contracts()[i].label == ContractLabel::Malicious)
        .expect("test set contains malicious samples");
    let target = &corpus.contracts()[test_idx[malicious_pos]];
    let report = outcomes[malicious_pos].as_ref().expect("scan succeeds");
    println!("\nsample scan of a {} contract:", target.family);
    println!("  {}", report.verdict);
    println!(
        "  skeleton {:016x}, cache {:?}, {} blocks / {} edges, {:?}",
        report.skeleton, report.cache, report.cfg.blocks, report.cfg.edges, report.elapsed
    );
    Ok(())
}
