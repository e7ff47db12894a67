//! Regenerates every evaluation table and figure.
//!
//! Usage:
//!
//! ```text
//! cargo run -p scamdetect-bench --release --bin experiments [quick|full] [e1..e8]*
//! ```
//!
//! With no experiment arguments, all eight run in order. The `quick`
//! profile (default for debug builds) uses a small corpus; `full` (default
//! for release builds) uses a 600-contract corpus and runs for minutes.

use scamdetect::experiment::{
    run_e1_baselines, run_e2_gnns, run_e3_robustness, run_e4_per_pass, run_e5_agnostic,
    run_e6_throughput, run_e7_dedup, run_e8_ablation, AblationRow, DedupExhibit, PassImpact,
    Profile, RobustnessPoint, StageTiming, TransferCell,
};
use scamdetect_ml::EvalRow;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut profile = if cfg!(debug_assertions) {
        Profile::quick()
    } else {
        Profile::full()
    };
    let mut selected: Vec<String> = Vec::new();
    for a in &args {
        match a.as_str() {
            "quick" => profile = Profile::quick(),
            "full" => profile = Profile::full(),
            e if e.starts_with('e') || e.starts_with('E') => {
                selected.push(e.to_lowercase());
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    let run_all = selected.is_empty();
    let want = |name: &str| run_all || selected.iter().any(|s| s == name);

    println!(
        "ScamDetect experiment harness (corpus = {} contracts, gnn epochs = {})",
        profile.corpus_size, profile.gnn.epochs
    );

    if want("e1") {
        let rows = run_e1_baselines(&profile).expect("E1");
        print_eval_table(
            "Table 1: classic model zoo, clean EVM corpus (opcode histograms)",
            &rows,
        );
    }
    if want("e2") {
        let rows = run_e2_gnns(&profile).expect("E2");
        print_eval_table(
            "Table 2: GNN architectures over CFGs, clean EVM corpus",
            &rows,
        );
    }
    if want("e3") {
        let pts = run_e3_robustness(&profile).expect("E3");
        print_robustness(&pts);
    }
    if want("e4") {
        let rows = run_e4_per_pass(&profile).expect("E4");
        print_per_pass(&rows);
    }
    if want("e5") {
        let cells = run_e5_agnostic(&profile).expect("E5");
        print_transfer(&cells);
    }
    if want("e6") {
        let stages = run_e6_throughput(&profile).expect("E6");
        print_throughput(&stages);
    }
    if want("e7") {
        let ex = run_e7_dedup(&profile);
        print_dedup(&ex);
    }
    if want("e8") {
        let rows = run_e8_ablation(&profile).expect("E8");
        print_ablation(&rows);
    }
    println!("\ndone.");
}

/// Renders E1/E2-style model tables.
fn print_eval_table(title: &str, rows: &[EvalRow]) {
    println!("\n=== {title} ===");
    println!(
        "{:<26} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "model", "acc", "prec", "rec", "f1", "auc"
    );
    for r in rows {
        println!(
            "{:<26} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
            r.model, r.accuracy, r.precision, r.recall, r.f1, r.auc
        );
    }
    if let Some(best) = rows.iter().max_by(|a, b| {
        a.accuracy
            .partial_cmp(&b.accuracy)
            .expect("accuracies are finite")
    }) {
        println!("best: {} at {:.3}", best.model, best.accuracy);
    }
}

/// Renders the E3 robustness sweep.
fn print_robustness(points: &[RobustnessPoint]) {
    println!("\n=== Figure 1: accuracy vs obfuscation level ===");
    println!("{:<8} {:>16} {:>12}", "level", "baseline(rf)", "gnn(gcn)");
    for p in points {
        println!(
            "L{:<7} {:>16.3} {:>12.3}",
            p.level, p.baseline_accuracy, p.gnn_accuracy
        );
    }
}

/// Renders the E4 per-pass breakdown.
fn print_per_pass(rows: &[PassImpact]) {
    println!("\n=== Figure 2: per-pass robustness ===");
    println!("{:<24} {:>16} {:>12}", "pass", "baseline(rf)", "gnn(gcn)");
    for r in rows {
        println!(
            "{:<24} {:>16.3} {:>12.3}",
            r.pass, r.baseline_accuracy, r.gnn_accuracy
        );
    }
}

/// Renders the E5 transfer matrix.
fn print_transfer(cells: &[TransferCell]) {
    println!("\n=== Table 3: platform transfer (unified IR) ===");
    println!(
        "{:<10} {:<10} {:>16} {:>12}",
        "train", "test", "classic(rf)", "gnn(gcn)"
    );
    for c in cells {
        println!(
            "{:<10} {:<10} {:>16.3} {:>12.3}",
            c.train, c.test, c.classic_accuracy, c.gnn_accuracy
        );
    }
}

/// Renders the E6 stage timings.
fn print_throughput(stages: &[StageTiming]) {
    println!("\n=== Figure 3: pipeline throughput ===");
    println!(
        "{:<20} {:>12} {:>16} {:>12}",
        "stage", "mean us", "contracts/s", "mean bytes"
    );
    for s in stages {
        println!(
            "{:<20} {:>12.1} {:>16.0} {:>12.0}",
            s.stage, s.mean_us, s.contracts_per_sec, s.mean_bytes
        );
    }
}

/// Renders the E7 dedup exhibit.
fn print_dedup(ex: &DedupExhibit) {
    println!("\n=== Table 4: dataset curation (ERC-1167 dedup) ===");
    println!(
        "before: {} contracts ({} malicious / {} benign), mean size {:.0} B",
        ex.before.total, ex.before.malicious, ex.before.benign, ex.before.mean_size
    );
    println!(
        "removed: {} minimal proxies, {} skeleton duplicates",
        ex.report.proxies_removed, ex.report.skeleton_duplicates_removed
    );
    println!(
        "after: {} contracts ({} malicious / {} benign)",
        ex.after.total, ex.after.malicious, ex.after.benign
    );
}

/// Renders the E8 ablation table.
fn print_ablation(rows: &[AblationRow]) {
    println!("\n=== Table 5: ablations ===");
    println!("{:<28} {:>10} {:>14}", "variant", "clean", "obfuscated(L3)");
    for r in rows {
        println!(
            "{:<28} {:>10.3} {:>14.3}",
            r.variant, r.clean_accuracy, r.obfuscated_accuracy
        );
    }
}
