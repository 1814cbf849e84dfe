//! Run every exhibit regenerator in sequence (Table 1, Figures 2–13,
//! claims check). Equivalent to running each `figN`/`table1`/`claims`
//! binary; provided so `cargo run -p dses-bench --release --bin
//! all_exhibits | tee exhibits.txt` captures the whole evaluation at
//! once. Exits 1, naming them on stderr, if any exhibit failed or could
//! not be run; stdout is the captures either way.

use std::process::Command;

fn main() {
    // forwarded to every child exhibit (0 = all cores)
    let threads = dses_bench::check_args();
    let exe = std::env::current_exe().expect("own path");
    let dir = exe.parent().expect("bin dir");
    let bins = [
        "table1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10_12",
        "fig11_13", "claims", "ablation_cutoff", "ablation_workload", "ablation_noise",
        "ablation_multihost", "ablation_tags", "ablation_prediction", "ablation_hetero", "ablation_percentiles", "ablation_arrivals", "ablation_diurnal", "validation",
    ];
    let mut failed = Vec::new();
    for bin in bins {
        println!("================================================================");
        println!("==== {bin}");
        println!("================================================================");
        let path = dir.join(bin);
        let mut cmd = Command::new(&path);
        if threads > 0 {
            cmd.arg("--threads").arg(threads.to_string());
        }
        let status = cmd.status();
        match status {
            Ok(s) if s.success() => continue,
            Ok(s) => eprintln!("{bin} exited with {s}"),
            Err(e) => eprintln!(
                "could not run {bin} ({e}); build it first: cargo build --release -p dses-bench --bins"
            ),
        }
        failed.push(bin);
    }
    if !failed.is_empty() {
        eprintln!(
            "all_exhibits: {} of {} exhibits failed: {}",
            failed.len(),
            bins.len(),
            failed.join(", ")
        );
        std::process::exit(1);
    }
}
