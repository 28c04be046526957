//! Shared harness: run parameters, the report every workload returns,
//! registry readers and the portal read phase of the crawl workloads.

use crate::profile::Profile;
use crate::stats;
use crate::trace::Tracer;
use bingo_crawler::dedup::DedupStats;
use bingo_crawler::CrawlStats;
use bingo_obs::MetricsSnapshot;
use bingo_search::index::analyze_query;
use bingo_search::{InvertedIndex, RankingScheme, SearchEngine, TermIndex, TopicFilter};
use bingo_serve::{PortalRequest, QueryMix};
use bingo_store::DocumentStore;
use bingo_textproc::Vocabulary;
use bingo_webworld::lexicon;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Input size of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's sizes.
    Full,
    /// Miniature sizes for the self-tests.
    Tiny,
}

/// Parameters of one workload run.
#[derive(Debug, Clone)]
pub struct Params {
    /// Input seed: the webs and query streams derive from it.
    pub seed: u64,
    /// Measurement time; rounds repeat until it has passed.
    pub seconds: f64,
    /// Record spans and fill the per-layer metrics.
    pub trace: bool,
    /// Input size.
    pub size: Size,
    /// Scratch directory for on-disk state; removed after each round.
    pub workdir: PathBuf,
}

impl Params {
    /// Keep running rounds until the measurement time has passed and at
    /// least `min_rounds` ran.
    pub fn more_rounds(&self, started: Instant, done: usize, min_rounds: usize) -> bool {
        done < min_rounds || started.elapsed().as_secs_f64() < self.seconds
    }

    /// A fresh scratch directory for round `round` of a workload.
    pub fn scratch(&self, workload: &str, round: usize) -> PathBuf {
        let dir = self
            .workdir
            .join(format!("{workload}-{}-r{round}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        dir
    }
}

/// Per-round samples of the timed end-to-end metrics.
#[derive(Debug, Default)]
pub struct Rounds {
    /// Set-up durations, s.
    pub setup_s: Vec<f64>,
    urls_per_s: Vec<f64>,
    docs_per_s: Vec<f64>,
    /// Measured-phase durations, ms.
    pub round_ms: Vec<f64>,
}

impl Rounds {
    /// Record a measured phase that visited `visited` URLs and stored
    /// `stored` documents in `secs` seconds.
    pub fn phase(&mut self, visited: u64, stored: u64, secs: f64) {
        self.urls_per_s.push(visited as f64 / secs);
        self.docs_per_s.push(stored as f64 / secs);
        self.round_ms.push(secs * 1e3);
    }

    /// Set the medians of `setup_s`, `crawl_urls_per_s`,
    /// `ingest_docs_per_s` and the round time.
    pub fn finish(&self, r: &mut Report) {
        r.set("setup_s", stats::median(&self.setup_s));
        r.set("crawl_urls_per_s", stats::median(&self.urls_per_s));
        r.set("ingest_docs_per_s", stats::median(&self.docs_per_s));
        r.round_ms = stats::median(&self.round_ms);
    }
}

/// Run `setup` `reps` times, pushing each run's duration onto
/// `samples`, and keep the last result. Set-up is short next to the
/// measured phase; the median of many timings is steady where one is
/// not.
pub fn repeat_setup<T>(
    reps: usize,
    samples: &mut Vec<f64>,
    mut setup: impl FnMut(usize) -> T,
) -> T {
    let mut last = None;
    for rep in 0..reps {
        let start = Instant::now();
        let value = setup(rep);
        samples.push(start.elapsed().as_secs_f64());
        last = Some(value);
    }
    last.expect("at least one set-up")
}

/// End-to-end metrics every workload reports: name, unit.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("crawl_urls_per_s", "1/s"),
    ("ingest_docs_per_s", "1/s"),
    ("harvest_ratio", "ratio"),
    ("topic_precision", "ratio"),
    ("peak_rss_mb", "MB"),
    ("read_p50_ms", "ms"),
    ("read_tail_ms", "ms"),
];

/// Per-layer table of a traced run: every layer metric the benchmark
/// defines, with its unit (0 where a layer does no work). Times and
/// counts are per round. The traced run prints all of them; the
/// machine-readable per-layer metrics ([`per_layer_metrics`]) carry the
/// counts among them plus every layer's share of the wall time.
pub const TABLE: [(&str, &str); 62] = [
    ("webworld.build_ms", "ms"),
    ("webworld.paged.blocks_generated", "count"),
    ("crawler.step.calls", "count"),
    ("crawler.step.busy_ms", "ms"),
    ("crawler.step.self_ms", "ms"),
    ("crawler.frontier.pops", "count"),
    ("crawler.frontier.pushes", "count"),
    ("crawler.frontier.spilled_peak", "count"),
    ("crawler.fetch.failed", "count"),
    ("crawler.fetch.retries", "count"),
    ("crawler.dedup.disk_probes", "count"),
    ("crawler.dedup.disk_hit_ratio", "ratio"),
    ("pipeline.convert.busy_ms", "ms"),
    ("pipeline.analyze.busy_ms", "ms"),
    ("pipeline.classify.busy_ms", "ms"),
    ("pipeline.load.busy_ms", "ms"),
    ("pipeline.docs", "count"),
    ("pipeline.duplicates", "count"),
    ("textproc.analyze.busy_ms", "ms"),
    ("textproc.terms_per_doc", "count"),
    ("textproc.vocab_terms", "count"),
    ("core.train.busy_ms", "ms"),
    ("core.retrain.calls", "count"),
    ("core.retrain.busy_ms", "ms"),
    ("core.classify.docs", "count"),
    ("core.classify.us_per_doc", "us"),
    ("core.classify.accept_ratio", "ratio"),
    ("store.seal.busy_ms", "ms"),
    ("store.segments", "count"),
    ("store.compaction.runs", "count"),
    ("store.compaction.bytes_written", "B"),
    ("store.disk_bytes", "B"),
    ("store.disk_bytes_per_doc", "B"),
    ("store.errors", "count"),
    ("search.index_build.busy_ms", "ms"),
    ("search.query.busy_us", "us"),
    ("search.live.ingest_busy_ms", "ms"),
    ("search.live.commits", "count"),
    ("serve.requests", "count"),
    ("serve.service_p50_us", "us"),
    ("serve.service_p99_us", "us"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.generator_late_ms", "ms"),
    ("serve.hits_per_query", "count"),
    ("serve.empty_ratio", "ratio"),
    ("serve.mixed_p50_ms", "ms"),
    ("serve.mixed_p99_ms", "ms"),
    ("serve.mixed_requests", "count"),
    ("dist.run.busy_ms", "ms"),
    ("dist.run.self_ms", "ms"),
    ("dist.lease.issued", "count"),
    ("dist.lease.requeued", "count"),
    ("dist.lease.expired", "count"),
    ("dist.snapshot.commits", "count"),
    ("dist.snapshot.busy_ms", "ms"),
    ("dist.fs.write_busy_ms", "ms"),
    ("dist.fs.bytes_written", "B"),
    ("dist.resume.busy_ms", "ms"),
    ("bench.prepare_ms", "ms"),
    ("unattributed_ms", "ms"),
    ("wall_ms", "ms"),
    ("error_rate", "ratio"),
];

/// Layers of the profiles, in table order. A workload's profile holds
/// the ones it runs.
pub const LAYERS: [&str; 27] = [
    "webworld.build",
    "store.open",
    "core.training_docs",
    "core.train",
    "crawler.preingest",
    "crawler.step",
    "crawler.run_pipeline",
    "pipeline.convert",
    "pipeline.analyze",
    "textproc.analyze",
    "pipeline.classify",
    "core.classify",
    "pipeline.load",
    "search.live.ingest",
    "core.retrain",
    "core.switch_phase",
    "store.seal",
    "dist.run",
    "dist.snapshot",
    "dist.fs.write",
    "dist.resume",
    "search.index_build",
    "search.query",
    "serve.handle",
    "serve.idle",
    "bench.prepare",
    "bench.check",
];

/// Names and units of the machine-readable per-layer metrics: each
/// layer's busy and self share of the wall time, the count metrics of
/// [`TABLE`], the wall and residual times, and the tracing overhead
/// (filled in by the runner, which compares a traced with an untraced
/// process).
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names = Vec::new();
    for layer in LAYERS {
        names.push((format!("{layer}.busy_share"), "ratio"));
        names.push((format!("{layer}.self_share"), "ratio"));
    }
    for &(name, unit) in TABLE.iter().filter(|(_, u)| !is_time(u)) {
        names.push((name.to_string(), unit));
    }
    names.push(("wall_ms".to_string(), "ms"));
    names.push(("unattributed_ms".to_string(), "ms"));
    names.push(("unattributed_share".to_string(), "ratio"));
    names.push(("tracing.overhead_pct".to_string(), "%"));
    names
}

fn is_time(unit: &str) -> bool {
    matches!(unit, "s" | "ms" | "us")
}

/// The machine-readable per-layer metrics of a traced report, except
/// `tracing.overhead_pct` (0 here).
pub fn per_layer_metrics(r: &Report) -> Vec<(String, f64, &'static str)> {
    let wall = r.profile.wall_ms;
    let share = |ms: f64| if wall > 0.0 { ms / wall } else { 0.0 };
    per_layer_names()
        .into_iter()
        .map(|(name, unit)| {
            let value = if let Some(layer) = name.strip_suffix(".busy_share") {
                share(r.profile.busy_ms(layer))
            } else if let Some(layer) = name.strip_suffix(".self_share") {
                share(r.profile.self_ms(layer))
            } else if name == "unattributed_share" {
                share(r.profile.unattributed_ms())
            } else {
                r.layers.get(name.as_str()).copied().unwrap_or(0.0)
            };
            (name, value, unit)
        })
        .collect()
}

/// What one workload run produced.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Input seed.
    pub seed: u64,
    /// Rounds run.
    pub rounds: usize,
    /// Threads doing work at once.
    pub busy_threads: usize,
    /// End-to-end metric values by name (units in [`END_TO_END`]).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer table values by name (traced runs; units in
    /// [`TABLE`]).
    pub layers: BTreeMap<&'static str, f64>,
    /// Layer profile summed over all rounds (traced runs).
    pub profile: Profile,
    /// `Ok(what was checked)` or `Err(what differed)`.
    pub check: Result<String, String>,
    /// Operations attempted (visited URLs plus requests).
    pub attempted: u64,
    /// Operations that failed; the error-rate base is stated in `notes`.
    pub failed: u64,
    /// Median wall time of one round's measured phase, ms (the tracing
    /// overhead compares this between traced and untraced runs).
    pub round_ms: f64,
    /// Workload-specific facts (sample counts, tail percentiles, bases).
    pub notes: Value,
}

impl Report {
    /// A report with every metric at 0 and a passing check.
    pub fn new(workload: &'static str, params: &Params, busy_threads: usize) -> Self {
        Report {
            workload,
            seed: params.seed,
            rounds: 0,
            busy_threads,
            e2e: END_TO_END.iter().map(|&(n, _)| (n, 0.0)).collect(),
            layers: TABLE.iter().map(|&(n, _)| (n, 0.0)).collect(),
            profile: Profile::default(),
            check: Ok(String::new()),
            attempted: 0,
            failed: 0,
            round_ms: 0.0,
            notes: Value::Null,
        }
    }

    /// Set an end-to-end metric (must be declared in [`END_TO_END`]).
    pub fn set(&mut self, name: &'static str, value: f64) {
        let slot = self
            .e2e
            .get_mut(name)
            .unwrap_or_else(|| panic!("undeclared end-to-end metric {name}"));
        *slot = value;
    }

    /// Set a per-layer table metric (must be declared in [`TABLE`]).
    pub fn layer(&mut self, name: &'static str, value: f64) {
        let slot = self
            .layers
            .get_mut(name)
            .unwrap_or_else(|| panic!("undeclared per-layer metric {name}"));
        *slot = value;
    }

    /// Fill the residual, wall and error-rate metrics from the profile
    /// and the attempted/failed counts. Per-round values.
    pub fn finish_layers(&mut self) {
        let rounds = self.rounds.max(1) as f64;
        let wall = self.profile.wall_ms;
        let unattributed = self.profile.unattributed_ms();
        self.layer("wall_ms", wall / rounds);
        self.layer("unattributed_ms", unattributed / rounds);
        self.layer("error_rate", self.error_rate());
    }

    /// Failed over attempted operations.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Record a failed output check.
    pub fn fail_check(&mut self, why: String) {
        self.check = Err(why);
    }
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Readers over a full registry snapshot, volatile metrics included.
pub struct Snap(pub MetricsSnapshot);

impl Snap {
    /// Counter value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.0.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value (0 when absent).
    pub fn gauge(&self, name: &str) -> i64 {
        self.0.gauges.get(name).copied().unwrap_or(0)
    }

    /// Sum of a histogram's observations (0 when absent).
    pub fn sum(&self, name: &str) -> u64 {
        self.0.histograms.get(name).map_or(0, |h| h.sum)
    }
}

/// Per-round totals of the program's pipeline stage histograms, ms.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimes {
    /// `pipeline.convert.wall_us`.
    pub convert_ms: f64,
    /// `pipeline.analyze.wall_us`.
    pub analyze_ms: f64,
    /// `textproc.analyze.wall_us` (inside analyze).
    pub textproc_ms: f64,
    /// `pipeline.classify.wall_us`.
    pub classify_ms: f64,
    /// `pipeline.load.wall_us`.
    pub load_ms: f64,
}

impl StageTimes {
    /// Read the stage histograms of `snap`.
    pub fn read(snap: &Snap) -> Self {
        StageTimes {
            convert_ms: snap.sum("pipeline.convert.wall_us") as f64 / 1e3,
            analyze_ms: snap.sum("pipeline.analyze.wall_us") as f64 / 1e3,
            textproc_ms: snap.sum("textproc.analyze.wall_us") as f64 / 1e3,
            classify_ms: snap.sum("pipeline.classify.wall_us") as f64 / 1e3,
            load_ms: snap.sum("pipeline.load.wall_us") as f64 / 1e3,
        }
    }

    /// Add another round's times.
    pub fn add(&mut self, o: &StageTimes) {
        self.convert_ms += o.convert_ms;
        self.analyze_ms += o.analyze_ms;
        self.textproc_ms += o.textproc_ms;
        self.classify_ms += o.classify_ms;
        self.load_ms += o.load_ms;
    }

    /// Add the stage rows under `parent`. `classify_child` names the
    /// layer that does the judging inside the classify stage, with its
    /// busy time and call count.
    pub fn add_rows(&self, p: &mut Profile, parent: &str, classify_child: (&str, f64, u64)) {
        p.add("pipeline.convert", Some(parent), self.convert_ms, 0);
        p.add("pipeline.analyze", Some(parent), self.analyze_ms, 0);
        p.add(
            "textproc.analyze",
            Some("pipeline.analyze"),
            self.textproc_ms,
            0,
        );
        p.add("pipeline.classify", Some(parent), self.classify_ms, 0);
        let (name, busy, calls) = classify_child;
        p.add(name, Some("pipeline.classify"), busy, calls);
        p.add("pipeline.load", Some(parent), self.load_ms, 0);
    }

    /// Set the `pipeline.*` and `textproc.analyze` busy metrics,
    /// divided by `rounds`.
    pub fn report(&self, r: &mut Report, rounds: f64) {
        r.layer("pipeline.convert.busy_ms", self.convert_ms / rounds);
        r.layer("pipeline.analyze.busy_ms", self.analyze_ms / rounds);
        r.layer("pipeline.classify.busy_ms", self.classify_ms / rounds);
        r.layer("pipeline.load.busy_ms", self.load_ms / rounds);
        r.layer("textproc.analyze.busy_ms", self.textproc_ms / rounds);
    }
}

/// Counters of the crawl layers, summed over rounds.
#[derive(Debug, Default)]
pub struct CrawlCounts {
    pops: u64,
    pushes: u64,
    fetch_failed: u64,
    retries: u64,
    disk_probes: u64,
    disk_hits: u64,
    docs: u64,
    duplicates: u64,
    terms: u64,
    analyzed: u64,
    vocab_terms: u64,
    classified: u64,
    accepted: u64,
    store_errors: u64,
}

impl CrawlCounts {
    /// Add one round, read from its full registry snapshot and its crawl
    /// and dedup counters. Returns the round's failed operations: store,
    /// dedup and vocabulary I/O errors plus quarantined URLs.
    pub fn add(&mut self, snap: &Snap, stats: &CrawlStats, dedup: &DedupStats) -> u64 {
        self.pops += snap.counter("crawl.frontier.pop");
        self.pushes += snap.counter("crawl.frontier.push");
        self.fetch_failed += stats.fetch_errors;
        self.retries += stats.retries;
        self.disk_probes += dedup.disk_probes;
        self.disk_hits += dedup.disk_hits;
        self.docs += snap.counter("pipeline.fetch.docs");
        self.duplicates +=
            snap.counter("pipeline.fetch.duplicates") + snap.counter("pipeline.load.duplicates");
        self.terms += snap.counter("textproc.terms");
        self.analyzed += snap.counter("textproc.docs");
        self.vocab_terms = snap.gauge("textproc.vocab_size").max(0) as u64;
        self.classified += snap.counter("engine.classify.total");
        self.accepted += snap.counter("engine.classify.accepted");
        let store_errors = snap.counter("store.bulk.flush_errors");
        self.store_errors += store_errors;
        store_errors
            + snap.counter("vocab.spill.io_errors")
            + snap.counter("crawl.worker.quarantined")
            + dedup.io_errors
    }

    /// Set the crawler, pipeline, textproc, classify-count and store-error
    /// table metrics, per round.
    pub fn report(&self, r: &mut Report, rounds: f64) {
        r.layer("crawler.frontier.pops", self.pops as f64 / rounds);
        r.layer("crawler.frontier.pushes", self.pushes as f64 / rounds);
        r.layer("crawler.fetch.failed", self.fetch_failed as f64 / rounds);
        r.layer("crawler.fetch.retries", self.retries as f64 / rounds);
        r.layer(
            "crawler.dedup.disk_probes",
            self.disk_probes as f64 / rounds,
        );
        r.layer(
            "crawler.dedup.disk_hit_ratio",
            self.disk_hits as f64 / self.disk_probes.max(1) as f64,
        );
        r.layer("pipeline.docs", self.docs as f64 / rounds);
        r.layer("pipeline.duplicates", self.duplicates as f64 / rounds);
        r.layer(
            "textproc.terms_per_doc",
            self.terms as f64 / self.analyzed.max(1) as f64,
        );
        r.layer("textproc.vocab_terms", self.vocab_terms as f64);
        r.layer("core.classify.docs", self.classified as f64 / rounds);
        r.layer(
            "core.classify.accept_ratio",
            self.accepted as f64 / self.classified.max(1) as f64,
        );
        r.layer("store.errors", self.store_errors as f64 / rounds);
    }

    /// Documents the engine classified.
    pub fn classified(&self) -> u64 {
        self.classified
    }
}

/// A small seeded generator (SplitMix64) for benchmark inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Generator for `seed` and a stream tag.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Word pools of the query mix.
pub const POOLS: &[&[&str]] = &[
    lexicon::DATABASE_RESEARCH,
    lexicon::DATA_MINING,
    lexicon::WEB_IR,
    lexicon::COMMON,
];

/// Phrases in the query mix.
pub const PHRASES: usize = 512;

/// Seed of the query mix. The mix is the same for every workload seed,
/// so seeds vary the portal, not the questions asked of it.
pub const MIX_SEED: u64 = 4242;

/// How a crawl workload's read phase draws its queries.
#[derive(Clone, Copy)]
pub enum Queries<'a> {
    /// The keyword queries of the portal query mix of a seed, analyzed
    /// with the crawl's vocabulary.
    Phrases(&'a Vocabulary, u64),
    /// Three terms of a random stored page, each found in 5-20% of the
    /// stored pages: topical queries whose answers span many pages, with
    /// a cost that scales with the portal rather than with the luck of
    /// the draw (in-memory stores).
    Topical,
    /// The rarest term of a random stored page: known-item queries that
    /// read one or a few rows (the disk-backed store, where every row
    /// read decodes a block).
    KnownItem,
}

/// The portal read phase of a crawl workload: build the search index
/// over the crawl's store, then answer `queries` queries one after
/// another (closed loop, one client); returns each query's latency, ms.
/// Queries drawn from the stored
/// pages run in the index's own term ids and need no vocabulary; the
/// draw depends only on `seed` and the stored pages.
pub fn read_phase(
    tracer: &Tracer,
    store: &DocumentStore,
    seed: u64,
    queries: usize,
    kind: Queries<'_>,
) -> Vec<f64> {
    let engine = {
        let _s = tracer.span("search.index_build");
        SearchEngine::build(store)
    };
    let terms = {
        let _s = tracer.span("bench.prepare");
        query_terms(store, engine.index(), seed, queries, kind)
    };
    terms
        .iter()
        .enumerate()
        .map(|(i, terms)| {
            let start = Instant::now();
            let _s = tracer.span_for("search.query", i as u64 + 1);
            std::hint::black_box(bingo_search::rank::rank(
                engine.store(),
                engine.index(),
                terms,
                &TopicFilter::Any,
                RankingScheme::Cosine,
                10,
            ));
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

/// Draw `queries` term-id queries of `kind` from the stored pages.
fn query_terms(
    store: &DocumentStore,
    index: &InvertedIndex,
    seed: u64,
    queries: usize,
    kind: Queries<'_>,
) -> Vec<Vec<u32>> {
    if let Queries::Phrases(vocab, mix_seed) = kind {
        let mix = QueryMix::from_lexicons(mix_seed, POOLS, &[], PHRASES);
        return (0..)
            .filter_map(|i| match mix.request(i) {
                PortalRequest::Query { text, .. } => Some(analyze_query(vocab, &text)),
                _ => None,
            })
            .take(queries)
            .collect();
    }
    let mut ids: Vec<u64> = Vec::new();
    store.for_each_document(|row| ids.push(row.id));
    if ids.is_empty() {
        return Vec::new();
    }
    // Draw pages by id rank so the draw does not depend on storage order.
    ids.sort_unstable();
    let mut rng = Rng::new(seed, 0x5EED_0001);
    let n = ids.len() as u64;
    let band = (n / 20).max(2)..=(n / 5).max(2);
    let draw = |rng: &mut Rng| {
        let row = store
            .document(ids[rng.below(ids.len())])
            .expect("stored page");
        row.term_freqs
    };
    (0..queries)
        .map(|_| {
            let mut q: Vec<u32> = match kind {
                Queries::Phrases(..) => unreachable!("phrase queries are not drawn from pages"),
                Queries::Topical => {
                    let mut terms = Vec::new();
                    for _ in 0..100 {
                        terms = draw(&mut rng)
                            .into_iter()
                            .map(|(term, _)| term)
                            .filter(|&term| band.contains(&index.df(term)))
                            .collect();
                        if !terms.is_empty() {
                            break;
                        }
                    }
                    if terms.is_empty() {
                        Vec::new()
                    } else {
                        (0..3).map(|_| terms[rng.below(terms.len())]).collect()
                    }
                }
                Queries::KnownItem => draw(&mut rng)
                    .iter()
                    .map(|&(term, _)| (index.df(term), term))
                    .min()
                    .map(|(_, term)| vec![term])
                    .unwrap_or_default(),
            };
            q.sort_unstable();
            q.dedup();
            q
        })
        .collect()
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Pooled read-phase latencies as the two end-to-end metrics: the
/// median and the tail. The tail percentile is the highest with at
/// least ten samples beyond it in `guaranteed` samples, the count every
/// run collects, so it is the same percentile on every run of a
/// workload. Returns the summary for the notes.
pub fn set_read_metrics(r: &mut Report, latencies_ms: &[f64], guaranteed: usize) -> stats::Summary {
    let mut s = stats::summarize(latencies_ms);
    s.tail_pct = stats::tail_percentile(guaranteed);
    s.tail = stats::percentile(latencies_ms, s.tail_pct);
    r.set("read_p50_ms", s.p50);
    r.set("read_tail_ms", s.tail);
    s
}

/// Write a traced run's spans next to the scratch directory.
pub fn write_spans(tracer: &Tracer, params: &Params, workload: &str) {
    let path = params
        .workdir
        .join("spans")
        .join(format!("{workload}-seed{}.jsonl", params.seed));
    if let Err(e) = tracer.write_jsonl(&path) {
        eprintln!("could not write spans to {}: {e}", path.display());
    }
}
