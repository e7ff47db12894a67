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
    run_e6_throughput, run_e7_dedup, run_e8_ablation, Profile,
};
use scamdetect_bench::{
    print_ablation, print_dedup, print_eval_table, print_per_pass, print_robustness,
    print_throughput, print_transfer,
};

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
