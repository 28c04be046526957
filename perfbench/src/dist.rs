//! `dist_crawl`: the coordinator/worker distributed crawl on the
//! virtual clock, in three legs: a calm run to frontier exhaustion, the
//! same crawl under a seeded `NodeFaultPlan` cut short by a whole-process
//! kill, then `Coordinator::resume` from the newest committed snapshot
//! and a drain. The only workload that runs the lease journal, the
//! two-phase snapshot commits and recovery. Single-threaded; an
//! accept-all judge. Snapshot writes go through the benchmark's own
//! `DurableFs`, which times them and counts their bytes.

use crate::common::{self, Params, Queries, Report, Rounds, Size, Snap};
use crate::profile::{Profile, SpanTotals};
use crate::trace::Tracer;
use bingo_crawler::{BatchJudge, Judgment, PageContext};
use bingo_dist::{Coordinator, DistConfig, DistStats, DistTelemetry};
use bingo_obs::{EventLog, Registry};
use bingo_store::{DurableFs, StdFs};
use bingo_textproc::AnalyzedDocument;
use bingo_webworld::gen::{TopicConfig, WorldConfig};
use bingo_webworld::{NodeFaultPlan, NodeFaultProfile, World};
use serde_json::json;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

struct Sizing {
    nodes: usize,
    page_scale: usize,
    interrupt_ms: u64,
    queries: usize,
    min_rounds: usize,
    /// Set-ups per round (the last one is crawled).
    setups: usize,
}

fn sizing(size: Size) -> Sizing {
    match size {
        Size::Full => Sizing {
            nodes: 4,
            page_scale: 8,
            interrupt_ms: 5_000,
            queries: 1000,
            min_rounds: 3,
            setups: 5,
        },
        Size::Tiny => Sizing {
            nodes: 3,
            page_scale: 1,
            interrupt_ms: 3_000,
            queries: 30,
            min_rounds: 1,
            setups: 1,
        },
    }
}

/// The real filesystem, with a span around each durable write and a
/// byte count.
struct TracedFs {
    tracer: Arc<Tracer>,
    bytes: AtomicU64,
}

impl DurableFs for TracedFs {
    fn atomic_write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let _s = self.tracer.span("dist.fs.write");
        self.bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        StdFs.atomic_write(path, bytes)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        StdFs.create_dir_all(path)
    }
}

/// The distributed crawl's world: the small-test topology scaled up,
/// since the crawl drains its whole reachable component.
fn build_world(seed: u64, scale: usize) -> World {
    let mut config = WorldConfig::small_test(seed);
    config.topics = vec![
        TopicConfig::new("dbresearch", "database_research", 60 * scale, 3),
        TopicConfig::new("datamining", "data_mining", 40 * scale, 2),
        TopicConfig::new("sports", "sports", 60 * scale, 3),
        TopicConfig::new("entertainment", "entertainment", 60 * scale, 3),
    ];
    config.build()
}

/// Seed of the node-fault script. The script is the same for every
/// workload seed, so seeds vary the web, not how much chaos it meets.
const FAULT_SEED: u64 = 4242;

/// The chaos node-fault script.
fn fault_plan(nodes: usize) -> NodeFaultPlan {
    let plan = NodeFaultPlan::generate(FAULT_SEED, nodes, &NodeFaultProfile::chaos());
    assert!(!plan.is_empty(), "the chaos profile scripts node faults");
    plan
}

fn visited(s: &DistStats) -> u64 {
    s.fetch_ok + s.fetch_err + s.redirects
}

/// Sorted ids of every page the coordinator's nodes stored.
fn page_ids(coord: &Coordinator) -> Vec<u64> {
    let mut ids: Vec<u64> = coord
        .combined_store()
        .all_documents()
        .into_iter()
        .map(|d| d.id)
        .collect();
    ids.sort_unstable();
    ids
}

/// Run the workload.
pub fn run(params: &Params) -> Report {
    let z = sizing(params.size);
    let tracer = Arc::new(Tracer::new(params.trace));
    let mut report = Report::new("dist_crawl", params, 1);
    let judge: Arc<dyn BatchJudge> = Arc::new(|_: &AnalyzedDocument, _: &PageContext| Judgment {
        topic: Some(0),
        confidence: 1.0,
    });
    let plan = fault_plan(z.nodes);
    let mut samples = Rounds::default();
    let mut latencies = Vec::new();
    let (mut harvest, mut precision) = (0.0, 0.0);
    let mut t = Totals::default();
    // Peak RSS of one round: later rounds repeat the same work.
    let mut peak_rss = 0.0;
    let mut first: Option<(usize, u64, u64)> = None;
    let mut rounds = 0;
    let started = Instant::now();
    while params.more_rounds(started, rounds, z.min_rounds) {
        let _round = tracer.span("round");
        let scratch = params.scratch("dist_crawl", rounds);
        let registry = Arc::new(Registry::new());
        let telemetry = DistTelemetry::new(registry.clone(), Arc::new(EventLog::default()));
        let fs = Arc::new(TracedFs {
            tracer: tracer.clone(),
            bytes: AtomicU64::new(0),
        });

        let world = common::repeat_setup(z.setups, &mut samples.setup_s, |_| {
            let _s = tracer.span("webworld.build");
            Arc::new(build_world(params.seed, z.page_scale))
        });

        let config = |dir: &Path| {
            let mut c = DistConfig::new(z.nodes, dir);
            // Depth beyond the world's diameter and a poison budget
            // nothing reaches, so calm and chaos converge exactly.
            c.max_depth = 100;
            c.poison_budget = 100;
            c.snapshot_every_acks = 8;
            c
        };
        let coordinator = |dir: &Path| {
            let mut c = Coordinator::with_fs(world.clone(), judge.clone(), config(dir), fs.clone());
            c.set_telemetry(telemetry.clone());
            for id in 1..=6 {
                c.add_seed(&world.url_of(id), Some(0));
            }
            c
        };
        let run = |c: &mut Coordinator, budget: u64| {
            let _s = tracer.span("dist.run");
            c.run(budget).expect("distributed crawl")
        };

        let t_crawl = Instant::now();
        // Calm leg: the reference page set.
        let mut calm = coordinator(&scratch.join("calm"));
        let calm_stats = run(&mut calm, 10_000_000);
        let calm_ids = page_ids(&calm);
        // Chaos leg: scripted node kills and stalls, then the process
        // dies at a virtual-time budget.
        let chaos_dir = scratch.join("chaos");
        let mut doomed = coordinator(&chaos_dir);
        doomed.install_faults(plan.clone());
        run(&mut doomed, z.interrupt_ms);
        drop(doomed);
        // Resume leg: recover the newest committed cut and drain.
        let mut resumed = {
            let _s = tracer.span("dist.resume");
            Coordinator::resume(world.clone(), judge.clone(), config(&chaos_dir))
                .expect("resume from the committed cut")
        };
        resumed.set_fs(fs.clone());
        resumed.set_telemetry(telemetry.clone());
        resumed.install_faults(plan.clone());
        let final_stats = run(&mut resumed, 10_000_000);
        let crawl_s = t_crawl.elapsed().as_secs_f64();

        let chaos_ids = page_ids(&resumed);
        if chaos_ids != calm_ids {
            report.fail_check(format!(
                "chaos stored {} pages, calm {}; the page sets differ",
                chaos_ids.len(),
                calm_ids.len()
            ));
        }
        let all_visited = visited(&calm_stats) + visited(&final_stats);
        let all_stored = calm_stats.stored + final_stats.stored;
        samples.phase(all_visited, all_stored, crawl_s);
        harvest = all_stored as f64 / all_visited.max(1) as f64;
        let this = (calm_ids.len(), all_visited, all_stored);
        if *first.get_or_insert(this) != this {
            report.fail_check(format!("rounds disagree: {first:?} vs {this:?}"));
        }

        let store = resumed.combined_store();
        let (mut on_topic, mut all) = (0u64, 0u64);
        store.for_each_document(|row| {
            all += 1;
            on_topic += u64::from(world.true_topic(row.id) == Some(0));
        });
        precision = on_topic as f64 / all.max(1) as f64;
        let read = common::read_phase(&tracer, &store, params.seed, z.queries, Queries::Topical);
        latencies.extend(read);

        let snap = Snap(registry.snapshot());
        let queue = resumed.queue_stats();
        t.issued += snap.counter("dist.lease.issued");
        t.requeued += snap.counter("dist.lease.requeued");
        t.expired += snap.counter("dist.lease.expired");
        t.commits += snap.counter("dist.snapshot.commits");
        t.snapshot_ms += snap.sum("dist.snapshot.wall_ms") as f64;
        t.fs_bytes += fs.bytes.load(Ordering::Relaxed);
        t.fetch_failed += calm_stats.fetch_err + final_stats.fetch_err;
        report.attempted += all_visited + z.queries as u64;
        report.failed += queue.quarantined;
        drop(calm);
        drop(resumed);
        let _ = std::fs::remove_dir_all(&scratch);
        if rounds == 0 {
            peak_rss = common::peak_rss_mb();
        }
        rounds += 1;
    }
    report.rounds = rounds;

    samples.finish(&mut report);
    report.set("harvest_ratio", harvest);
    report.set("topic_precision", precision);
    report.set("peak_rss_mb", peak_rss);
    let read = common::set_read_metrics(&mut report, &latencies, z.min_rounds * z.queries);
    let (pages, all_visited, all_stored) = first.unwrap_or_default();
    if report.check.is_ok() {
        report.check = Ok(format!(
            "chaos page set equals the calm page set ({pages} pages); {rounds} rounds agree"
        ));
    }
    report.notes = json!({
        "round_ms": samples.round_ms,
        "nodes": z.nodes,
        "calm_pages": pages,
        "visited_urls_all_legs": all_visited,
        "stored_pages_all_legs": all_stored,
        "fault_windows": plan.window_count(),
        "read_samples": read.n,
        "read_tail_percentile": read.tail_pct,
        "topic_precision_meaning": "accept-all judge: share of stored pages whose true topic is the seed topic",
        "error_rate_base": "quarantined URLs over visited URLs (all legs) and queries",
    });

    if params.trace {
        let spans = tracer.spans();
        let s = SpanTotals::new(&spans);
        let mut p = Profile::new(s.wall_ms());
        p.add_span(&s, "webworld.build", None);
        p.add_span(&s, "dist.run", None);
        // Commits happen inside `run`; the writes inside the commits.
        p.add("dist.snapshot", Some("dist.run"), t.snapshot_ms, t.commits);
        p.add_span(&s, "dist.fs.write", Some("dist.snapshot"));
        p.add_span(&s, "dist.resume", None);
        p.add_span(&s, "search.index_build", None);
        p.add_span(&s, "bench.prepare", None);
        p.add_span(&s, "search.query", None);
        let r = rounds as f64;
        report.layer("webworld.build_ms", s.busy_ms("webworld.build") / r);
        report.layer("crawler.fetch.failed", t.fetch_failed as f64 / r);
        report.layer("dist.run.busy_ms", s.busy_ms("dist.run") / r);
        report.layer("dist.run.self_ms", p.self_ms("dist.run") / r);
        report.layer("dist.lease.issued", t.issued as f64 / r);
        report.layer("dist.lease.requeued", t.requeued as f64 / r);
        report.layer("dist.lease.expired", t.expired as f64 / r);
        report.layer("dist.snapshot.commits", t.commits as f64 / r);
        report.layer("dist.snapshot.busy_ms", t.snapshot_ms / r);
        report.layer("dist.fs.write_busy_ms", s.busy_ms("dist.fs.write") / r);
        report.layer("dist.fs.bytes_written", t.fs_bytes as f64 / r);
        report.layer("dist.resume.busy_ms", s.busy_ms("dist.resume") / r);
        report.layer(
            "search.index_build.busy_ms",
            s.busy_ms("search.index_build") / r,
        );
        report.layer("search.query.busy_us", s.busy_ms("search.query") * 1e3 / r);
        report.layer("bench.prepare_ms", s.busy_ms("bench.prepare") / r);
        report.profile = p;
        report.finish_layers();
        common::write_spans(&tracer, params, "dist_crawl");
    }
    report
}

/// Counters summed over rounds.
#[derive(Debug, Default)]
struct Totals {
    issued: u64,
    requeued: u64,
    expired: u64,
    commits: u64,
    snapshot_ms: f64,
    fs_bytes: u64,
    fetch_failed: u64,
}
