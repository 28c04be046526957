//! E8: storage throughput under concurrent writers (paper §4.1).
//!
//! ```text
//! cargo run --release -p bingo-bench --bin exp_storage
//! ```
//!
//! Eight writer threads load one store row at a time, then through
//! per-thread bulk-loader workspaces; prints the median docs/sec of
//! each and writes `experiments_storage.json`.

use bingo_bench::report::{count, table};
use bingo_bench::storage_exp::{run, BATCH, PER_THREAD, REPS, THREADS};

fn main() {
    eprintln!(
        "storage experiment: {THREADS} threads × {PER_THREAD} rows, bulk batch {BATCH}, \
         {REPS} repetitions"
    );
    let out = run(PER_THREAD);

    println!("# Storage throughput with concurrent writers (paper §4.1)\n");
    let strategies = [&out.row_at_a_time, &out.bulk_loader];
    let rows: Vec<Vec<String>> = strategies
        .iter()
        .map(|r| {
            vec![
                r.strategy.to_string(),
                count(r.documents),
                format!(
                    "{:.1} [{:.1}, {:.1}]",
                    r.wall_quantile_ms(0.5),
                    r.wall_quantile_ms(0.25),
                    r.wall_quantile_ms(0.75)
                ),
                count(r.docs_per_sec().round() as u64),
            ]
        })
        .collect();
    print!(
        "{}",
        table(
            &format!("{THREADS} writer threads, median of {REPS} runs"),
            &["Strategy", "Docs", "Wall ms median [p25, p75]", "Docs/sec"],
            &rows,
        )
    );
    let ratio = out.bulk_loader.docs_per_sec() / out.row_at_a_time.docs_per_sec();
    println!("\nbulk loader / row-at-a-time throughput: {ratio:.2}×");
    println!(
        "paper's observation: per-thread workspaces plus the bulk loader sustain \
         \"up to ten thousand documents per minute\"\n"
    );

    let json = serde_json::json!({
        "experiment": "storage",
        "threads": THREADS,
        "per_thread": PER_THREAD,
        "batch": BATCH,
        "reps": REPS,
        "available_parallelism": std::thread::available_parallelism().map_or(1, |n| n.get()),
        "rows": strategies.iter().map(|r| serde_json::json!({
            "strategy": r.strategy,
            "documents": r.documents,
            "wall_ms_median": r.wall_quantile_ms(0.5),
            "wall_ms_p25": r.wall_quantile_ms(0.25),
            "wall_ms_p75": r.wall_quantile_ms(0.75),
            "docs_per_sec": r.docs_per_sec(),
        })).collect::<Vec<_>>(),
        "bulk_over_row_at_a_time": ratio,
    });
    bingo_bench::report::write_json_report("experiments_storage.json", &json);
}
