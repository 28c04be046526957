//! `portal_serve`: the portal answering a query stream in two phases.
//!
//! Set-up ingests half of a portal world's clean URLs through
//! `run_pipeline` into a store teed to a `LiveIndex`, judged by the
//! engine's three-topic batch classifier. In the read phase one
//! open-loop client issues `QueryMix` requests at a fixed rate against
//! the static index. In the mixed phase the same client keeps issuing
//! while a one-worker `run_pipeline` ingests the other half. Every
//! request is timed from the moment it was due, so a stall also charges
//! the requests queued behind it. Two busy threads: the pipeline worker
//! and the load generator.

use crate::common::{
    self, CrawlCounts, Params, Report, Rounds, Size, Snap, StageTimes, MIX_SEED, PHRASES, POOLS,
};
use crate::profile::{Profile, SpanTotals};
use crate::stats;
use crate::trace::{Span, Tracer};
use bingo_core::{BingoEngine, EngineConfig, EngineTelemetry, TopicClassifier, TopicId, TopicTree};
use bingo_crawler::dedup::DedupStats;
use bingo_crawler::{
    run_pipeline, BatchJudge, CrawlTelemetry, Judgment, PageContext, PipelineOptions,
};
use bingo_obs::{EventLog, Registry};
use bingo_search::index::analyze_query_with;
use bingo_search::{InvertedIndex, LiveIndex, LiveIndexObs};
use bingo_serve::{PortalRequest, PortalResponse, PortalService, QueryMix, ServeMetrics};
use bingo_store::{DocumentRow, DocumentStore, IndexTee};
use bingo_textproc::{AnalyzedDocument, SharedVocabulary, TermLookup};
use bingo_webworld::gen::WorldConfig;
use bingo_webworld::{HostBehavior, PageKind, World};
use serde_json::json;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Sizing {
    authors: usize,
    noise_scale: usize,
    train_per_topic: usize,
    /// Open-loop request rate, requests per second.
    rate: f64,
    /// Read-phase length per round.
    read_s: f64,
    /// Requests of the mix the output check replays.
    check_requests: u64,
    min_rounds: usize,
}

fn sizing(size: Size) -> Sizing {
    match size {
        Size::Full => Sizing {
            authors: 300,
            noise_scale: 2,
            train_per_topic: 12,
            rate: 300.0,
            read_s: 2.0,
            check_requests: 150,
            min_rounds: 3,
        },
        Size::Tiny => Sizing {
            authors: 60,
            noise_scale: 1,
            train_per_topic: 6,
            rate: 200.0,
            read_s: 0.2,
            check_requests: 40,
            min_rounds: 1,
        },
    }
}

/// Topic names and the world topic each one is trained on.
const TOPICS: [(&str, u32); 3] = [("database research", 0), ("data mining", 1), ("web ir", 2)];

/// The engine's batch classifier with a span around each batch.
struct TracedJudge<'a> {
    inner: TopicClassifier<'a>,
    tracer: &'a Tracer,
}

impl BatchJudge for TracedJudge<'_> {
    fn judge_batch(&self, docs: &[AnalyzedDocument], ctxs: &[PageContext]) -> Vec<Judgment> {
        let _s = self.tracer.span("core.classify");
        self.inner.judge_batch(docs, ctxs)
    }
}

/// The live index behind the store tee, with a span around each ingest
/// (commits included).
struct TracedTee {
    index: LiveIndex,
    tracer: Arc<Tracer>,
}

impl IndexTee for TracedTee {
    fn on_insert(&self, rows: &[DocumentRow]) {
        let _s = self.tracer.span("search.live.ingest");
        self.index.on_insert(rows);
    }
}

/// One open-loop request.
#[derive(Debug, Clone, Copy)]
struct Sample {
    /// When the request was due, was sent and was answered, in ms since
    /// the phase began.
    due_ms: f64,
    start_ms: f64,
    end_ms: f64,
    /// Hits of a query; `None` for browse and stats requests.
    hits: Option<usize>,
}

impl Sample {
    fn latency_ms(&self) -> f64 {
        self.end_ms - self.due_ms
    }
}

/// Busy-wait until `due`. Sleeping wakes up to milliseconds late on a
/// virtualized host, which would be charged to every request as
/// latency; the client is one of the workload's busy threads anyway.
fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Issue requests `first, first + 1, ...` of `mix` at `rate` per second
/// until `stop` says so (asked with each request's due offset in s).
fn open_loop(
    tracer: &Tracer,
    service: &PortalService,
    vocab: &dyn TermLookup,
    mix: &QueryMix,
    first: u64,
    rate: f64,
    stop: impl Fn(f64) -> bool,
) -> Vec<Sample> {
    let mut reader = service.reader();
    let mut samples = Vec::new();
    let t0 = Instant::now();
    let ms = |t: Instant| t.duration_since(t0).as_secs_f64() * 1e3;
    for i in 0u64.. {
        let due_s = i as f64 / rate;
        if stop(due_s) {
            break;
        }
        let req = mix.request(first + i);
        let due = t0 + Duration::from_secs_f64(due_s);
        let idle_from = Instant::now();
        if idle_from < due {
            wait_until(due);
            tracer.record("serve.idle", 0, idle_from, Instant::now());
        }
        let start = Instant::now();
        let resp = {
            let _s = tracer.span_for("serve.handle", first + i + 1);
            service.handle(&mut reader, vocab, &req)
        };
        let end = Instant::now();
        let hits = match resp {
            PortalResponse::Hits { hits, .. } => Some(hits.len()),
            _ => None,
        };
        samples.push(Sample {
            due_ms: due_s * 1e3,
            start_ms: ms(start),
            end_ms: ms(end),
            hits,
        });
    }
    samples
}

/// Train the three-topic engine on held-out pages of each world topic.
fn train_engine(
    tracer: &Tracer,
    world: &World,
    per_topic: usize,
) -> (BingoEngine, Vec<(TopicId, u32)>) {
    let mut engine = BingoEngine::new(EngineConfig::default());
    let topics: Vec<(TopicId, u32)> = TOPICS
        .iter()
        .map(|&(name, truth)| (engine.add_topic(TopicTree::ROOT, name), truth))
        .collect();
    {
        let _s = tracer.span("core.training_docs");
        for &(topic, truth) in &topics {
            let pages = (0..world.page_count() as u64)
                .filter(|&id| {
                    world.true_topic(id) == Some(truth) && world.page(id).kind == PageKind::Content
                })
                .take(per_topic);
            for id in pages {
                engine
                    .add_training_url(world, topic, &world.url_of(id))
                    .expect("training page");
            }
        }
        let mut added = 0;
        for id in 0..world.page_count() as u64 {
            if added >= 20 {
                break;
            }
            let noise = matches!(world.true_topic(id), Some(3) | Some(4));
            if noise
                && world.page(id).kind == PageKind::Content
                && engine.add_others_url(world, &world.url_of(id)).is_ok()
            {
                added += 1;
            }
        }
    }
    {
        let _s = tracer.span("core.train");
        engine.train().expect("training");
    }
    (engine, topics)
}

/// A `run_pipeline` work list: URLs with their source topic.
type Urls = Vec<(String, Option<u32>)>;

/// Every page that fetches cleanly (no truncation, redirect or host
/// fault), split into two interleaved halves.
fn clean_halves(world: &World) -> (Urls, Urls) {
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for id in 0..world.page_count() as u64 {
        let page = world.page(id);
        if page.size_hint.is_none()
            && page.redirect_to.is_none()
            && world.host(page.host).behavior == HostBehavior::Normal
        {
            let half = if id % 2 == 0 { &mut a } else { &mut b };
            half.push((world.url_of(id), None));
        }
    }
    (a, b)
}

/// Summed busy time and count of the spans named `name` that started
/// inside one of `windows` (`(start_ns, end_ns)`).
fn within(spans: &[Span], name: &str, windows: &[(u64, u64)]) -> (f64, u64) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .filter(|s| {
            windows
                .iter()
                .any(|&(a, b)| s.start_ns >= a && s.start_ns <= b)
        })
        .fold((0.0, 0), |(ms, n), s| (ms + s.ms(), n + 1))
}

/// Run the workload.
pub fn run(params: &Params) -> Report {
    let z = sizing(params.size);
    let tracer = Arc::new(Tracer::new(params.trace));
    let mut report = Report::new("portal_serve", params, 2);
    let mix = QueryMix::from_lexicons(MIX_SEED, POOLS, &[1, 2, 3], PHRASES);
    let mut samples = Rounds::default();
    let (mut read, mut mixed): (Vec<Sample>, Vec<Sample>) = (Vec::new(), Vec::new());
    let (mut harvest, mut precision) = (0.0, 0.0);
    let mut stages = StageTimes::default();
    let mut t = Totals::default();
    let mut crawl = CrawlCounts::default();
    // Peak RSS of one round: later rounds repeat the same work.
    let mut peak_rss = 0.0;
    let mut rounds = 0;
    let started = Instant::now();
    while params.more_rounds(started, rounds, z.min_rounds) {
        let _round = tracer.span("round");
        let registry = Arc::new(Registry::new());
        let events = Arc::new(EventLog::default());

        // Set-up: world, trained engine, first half ingested and
        // committed.
        let t_setup = Instant::now();
        let world = {
            let _s = tracer.span("webworld.build");
            Arc::new(WorldConfig::portal(params.seed, z.authors, z.noise_scale).build())
        };
        let (mut engine, topics) = train_engine(&tracer, &world, z.train_per_topic);
        let (first_half, second_half) = clean_halves(&world);
        let live = LiveIndex::new(32).with_obs(LiveIndexObs::new(&registry));
        let store = DocumentStore::new().with_tee(Arc::new(TracedTee {
            index: live.clone(),
            tracer: tracer.clone(),
        }));
        let vocab = SharedVocabulary::seeded(&engine.vocab);
        {
            let _s = tracer.span("crawler.preingest");
            let judge = engine.batch_classifier();
            run_pipeline(
                Arc::clone(&world),
                store.clone(),
                first_half.clone(),
                &vocab,
                &judge,
                &CrawlTelemetry::default(),
                &PipelineOptions::flat(1, 64),
            );
            live.commit();
        }
        samples.setup_s.push(t_setup.elapsed().as_secs_f64());
        let service = PortalService::new(store.clone(), live.clone())
            .with_metrics(ServeMetrics::new(&registry));

        // Read phase: the static portal.
        let phase = open_loop(&tracer, &service, &vocab, &mix, 0, z.rate, |due| {
            due >= z.read_s
        });
        let next = phase.len() as u64;
        read.extend(phase);

        // Mixed phase: the same client beside a one-worker ingest.
        engine.set_telemetry(EngineTelemetry::new(registry.clone(), events.clone()));
        let telemetry = CrawlTelemetry::new(registry.clone(), events.clone());
        let commits_before = Snap(registry.snapshot()).counter("search.live.commits");
        let writing = AtomicBool::new(true);
        let (ingest, wall, phase) = std::thread::scope(|s| {
            let client = s.spawn(|| {
                let _root = tracer.span("loadgen");
                open_loop(&tracer, &service, &vocab, &mix, next, z.rate, |_| {
                    !writing.load(Ordering::Acquire)
                })
            });
            let start = Instant::now();
            let ingest = {
                let _s = tracer.span("crawler.run_pipeline");
                let judge = TracedJudge {
                    inner: engine.batch_classifier(),
                    tracer: &tracer,
                };
                run_pipeline(
                    Arc::clone(&world),
                    store.clone(),
                    second_half.clone(),
                    &vocab,
                    &judge,
                    &telemetry,
                    &PipelineOptions::flat(1, 64),
                )
            };
            let wall = start.elapsed().as_secs_f64();
            writing.store(false, Ordering::Release);
            (ingest, wall, client.join().expect("load generator"))
        });
        mixed.extend(phase);
        samples.phase(second_half.len() as u64, ingest.documents, wall);
        let total_urls = (first_half.len() + second_half.len()) as u64;
        harvest = store.document_count() as f64 / total_urls as f64;
        precision = topic_precision(&world, &store, &topics);

        // Output check: the final incremental snapshot answers a fixed
        // request prefix exactly like a batch rebuild.
        {
            let _s = tracer.span("bench.check");
            live.commit();
            if let Err(why) = snapshots_agree(&service, &store, &vocab, &mix, z.check_requests) {
                report.fail_check(why);
            }
        }

        let snap = Snap(registry.snapshot());
        stages.add(&StageTimes::read(&snap));
        t.commits += snap.counter("search.live.commits") - commits_before;
        t.query_us += snap.sum("serve.query.wall_us");
        t.errors += crawl.add(&snap, &ingest.stats, &DedupStats::default());
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
    let read_lat: Vec<f64> = read.iter().map(Sample::latency_ms).collect();
    let per_round = (z.rate * z.read_s).ceil() as usize;
    let read_sum = common::set_read_metrics(&mut report, &read_lat, z.min_rounds * per_round);
    let read_service: Vec<f64> = read.iter().map(|x| x.end_ms - x.start_ms).collect();
    report.attempted = (read.len() + mixed.len()) as u64;
    // A request fails only by panicking, which ends the run; a stored
    // page lost to a supervised ingest failure counts against ingest.
    report.failed = t.errors;
    if report.check.is_ok() {
        report.check = Ok(format!(
            "final snapshot equals a batch rebuild on {} replayed requests",
            z.check_requests
        ));
    }
    let mixed_lat: Vec<f64> = mixed.iter().map(Sample::latency_ms).collect();
    let mixed_sum = stats::summarize(&mixed_lat);
    report.notes = json!({
        "round_ms": samples.round_ms,
        "rate_per_s": z.rate,
        "read_service_mean_ms": read_service.iter().sum::<f64>() / read_service.len().max(1) as f64,
        "loop": "open",
        "read_samples": read_sum.n,
        "read_tail_percentile": read_sum.tail_pct,
        "mixed_samples": mixed_sum.n,
        "mixed_tail_percentile": mixed_sum.tail_pct,
        "error_rate_base": "failed requests plus quarantined or unstored ingest URLs over requests",
    });

    if params.trace {
        let spans = tracer.spans();
        let s = SpanTotals::new(&spans);
        let windows: Vec<(u64, u64)> = spans
            .iter()
            .filter(|sp| sp.name == "crawler.run_pipeline")
            .map(|sp| (sp.start_ns, sp.end_ns))
            .collect();
        let classify = within(&spans, "core.classify", &windows);
        let ingest = within(&spans, "search.live.ingest", &windows);
        let mut p = Profile::new(s.wall_ms());
        p.add_span(&s, "webworld.build", None);
        p.add_span(&s, "core.training_docs", None);
        p.add_span(&s, "core.train", None);
        p.add_span(&s, "crawler.preingest", None);
        p.add_span(&s, "serve.handle", None);
        p.add(
            "search.query",
            Some("serve.handle"),
            t.query_us as f64 / 1e3,
            0,
        );
        p.add_span(&s, "serve.idle", None);
        p.add_span(&s, "crawler.run_pipeline", None);
        stages.add_rows(
            &mut p,
            "crawler.run_pipeline",
            ("core.classify", classify.0, classify.1),
        );
        p.add(
            "search.live.ingest",
            Some("pipeline.load"),
            ingest.0,
            ingest.1,
        );
        p.add_span(&s, "bench.check", None);
        let r = rounds as f64;
        let all: Vec<&Sample> = read.iter().chain(&mixed).collect();
        let service: Vec<f64> = all.iter().map(|x| (x.end_ms - x.start_ms) * 1e3).collect();
        let (mut queue, mut late) = (Vec::new(), Vec::new());
        for phase in [&read, &mixed] {
            let mut prev_end = f64::MIN;
            for x in phase.iter() {
                queue.push((prev_end - x.due_ms).max(0.0));
                late.push(x.start_ms - x.due_ms.max(prev_end));
                prev_end = x.end_ms;
            }
        }
        let queries: Vec<usize> = all.iter().filter_map(|x| x.hits).collect();
        let service_sum = stats::summarize(&service);
        report.layer("webworld.build_ms", s.busy_ms("webworld.build") / r);
        crawl.report(&mut report, r);
        stages.report(&mut report, r);
        report.layer("core.train.busy_ms", s.busy_ms("core.train") / r);
        report.layer(
            "core.classify.us_per_doc",
            classify.0 * 1e3 / crawl.classified().max(1) as f64,
        );
        report.layer("search.query.busy_us", t.query_us as f64 / r);
        report.layer("search.live.ingest_busy_ms", ingest.0 / r);
        report.layer("search.live.commits", t.commits as f64 / r);
        report.layer("serve.requests", all.len() as f64 / r);
        report.layer("serve.service_p50_us", service_sum.p50);
        report.layer("serve.service_p99_us", service_sum.tail);
        report.layer(
            "serve.queue_wait_p99_ms",
            stats::percentile(&queue, service_sum.tail_pct),
        );
        report.layer(
            "serve.generator_late_ms",
            stats::percentile(&late, service_sum.tail_pct),
        );
        report.layer(
            "serve.hits_per_query",
            queries.iter().sum::<usize>() as f64 / queries.len().max(1) as f64,
        );
        report.layer(
            "serve.empty_ratio",
            queries.iter().filter(|&&h| h == 0).count() as f64 / queries.len().max(1) as f64,
        );
        report.layer("serve.mixed_p50_ms", mixed_sum.p50);
        report.layer("serve.mixed_p99_ms", mixed_sum.tail);
        report.layer("serve.mixed_requests", mixed.len() as f64 / r);
        report.profile = p;
        report.finish_layers();
        common::write_spans(&tracer, params, "portal_serve");
    }
    report
}

/// Replay the first `n` requests of `mix` against the service's current
/// snapshot and a batch index over the store; the query hits must agree
/// in ids and scores, bit for bit.
fn snapshots_agree(
    service: &PortalService,
    store: &DocumentStore,
    vocab: &dyn TermLookup,
    mix: &QueryMix,
    n: u64,
) -> Result<(), String> {
    let snapshot = service.reader().snapshot();
    let batch = InvertedIndex::build(store);
    for i in 0..n {
        let PortalRequest::Query { text, opts } = mix.request(i) else {
            continue;
        };
        let terms = analyze_query_with(|stem| vocab.lookup_term(stem).map(|id| id.0), &text);
        let rank = |index: &dyn bingo_search::TermIndex| {
            bingo_search::rank::rank(store, index, &terms, &opts.filter, opts.ranking, opts.top_k)
        };
        let (incr, full) = (rank(&*snapshot), rank(&batch));
        let same = incr.len() == full.len()
            && incr
                .iter()
                .zip(&full)
                .all(|(a, b)| a.doc_id == b.doc_id && a.score.to_bits() == b.score.to_bits());
        if !same {
            return Err(format!(
                "request {i} ({text:?}): snapshot and batch index disagree"
            ));
        }
    }
    Ok(())
}

/// Share of the pages classified into a topic whose true topic is the
/// one that topic was trained on.
fn topic_precision(world: &World, store: &DocumentStore, topics: &[(TopicId, u32)]) -> f64 {
    let (mut assigned, mut correct) = (0u64, 0u64);
    store.for_each_document(|row| {
        if let Some(&(_, truth)) = topics.iter().find(|(t, _)| Some(t.0) == row.topic) {
            assigned += 1;
            correct += u64::from(world.true_topic(row.id) == Some(truth));
        }
    });
    correct as f64 / assigned.max(1) as f64
}

/// Serving counters summed over rounds.
#[derive(Debug, Default)]
struct Totals {
    commits: u64,
    query_us: u64,
    errors: u64,
}
