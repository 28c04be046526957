//! End-to-end and per-layer benchmark of the BINGO! crates.
//!
//! Four workloads, each stressing a different layer: `focused_crawl`
//! (classify, analyze, retrain), `spill_crawl` (frontier, dedup and
//! store spilling), `portal_serve` (ranking and store reads under a
//! concurrent writer) and `dist_crawl` (lease journal, snapshot commits
//! and recovery). See `README.md` next to this crate.

pub mod common;
pub mod dist;
pub mod focused;
pub mod profile;
pub mod serve;
pub mod spill;
pub mod stats;
pub mod trace;

pub use common::{per_layer_metrics, per_layer_names, Params, Report, Size, END_TO_END, TABLE};

/// Workload names, in the order they are documented.
pub const WORKLOADS: [&str; 4] = ["focused_crawl", "spill_crawl", "portal_serve", "dist_crawl"];

/// Run workload `name`; `None` for an unknown name.
pub fn run_workload(name: &str, params: &Params) -> Option<Report> {
    Some(match name {
        "focused_crawl" => focused::run(params),
        "spill_crawl" => spill::run(params),
        "portal_serve" => serve::run(params),
        "dist_crawl" => dist::run(params),
        _ => return None,
    })
}
