//! Self-tests of the benchmark: every workload runs at miniature size
//! and passes its output check, and every traced profile accounts for
//! the whole wall time.

use bingo_perfbench::{per_layer_names, run_workload, Params, Report, Size, END_TO_END, WORKLOADS};
use std::path::PathBuf;

fn tiny(workload: &str, trace: bool) -> Report {
    let params = Params {
        seed: 7,
        seconds: 0.0,
        trace,
        size: Size::Tiny,
        workdir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("selftest-{workload}-{trace}")),
    };
    run_workload(workload, &params).expect("known workload")
}

#[test]
fn every_workload_passes_its_check_at_tiny_size() {
    for workload in WORKLOADS {
        let r = tiny(workload, false);
        assert!(r.check.is_ok(), "{workload}: {:?}", r.check);
        assert!(r.rounds >= 1 && r.attempted > 0, "{workload} did no work");
        assert_eq!(r.failed, 0, "{workload} failed operations");
        for (name, _) in END_TO_END {
            let v = r.e2e[name];
            assert!(v.is_finite() && v > 0.0, "{workload}: {name} = {v}");
        }
    }
}

#[test]
fn layer_self_times_and_residual_sum_to_wall_time() {
    for workload in WORKLOADS {
        let r = tiny(workload, true);
        assert!(r.check.is_ok(), "{workload}: {:?}", r.check);
        let p = &r.profile;
        assert!(p.wall_ms > 0.0, "{workload}: no root spans");
        let sum = p.total_self_ms() + p.unattributed_ms();
        assert!(
            (sum - p.wall_ms).abs() <= 1e-6 * p.wall_ms,
            "{workload}: self times {sum} ms, wall {} ms",
            p.wall_ms
        );
        // Children nest inside their parents: no layer's self time, and
        // not the residual, is negative beyond timer rounding (program
        // histograms truncate each observation to whole microseconds).
        let slack = 0.01 * p.wall_ms;
        for row in &p.rows {
            let own = p.self_ms(&row.layer);
            assert!(own >= -slack, "{workload}: {} self {own} ms", row.layer);
        }
        assert!(
            p.unattributed_ms() >= -slack,
            "{workload}: negative residual"
        );
    }
}

#[test]
fn per_layer_names_are_unique_and_valid() {
    let names = per_layer_names();
    let mut seen = std::collections::BTreeSet::new();
    for (name, unit) in &names {
        assert!(seen.insert(name.clone()), "duplicate {name}");
        assert!(name.len() <= 64 && unit.len() <= 16, "{name} too long");
        assert!(name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
    }
    assert!(names.len() <= 128);
}
