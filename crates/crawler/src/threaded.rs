//! Real-thread executor over the shared document pipeline
//! (Section 4.1: "the crawler can sustain a throughput of up to ten
//! thousand documents per minute").
//!
//! Unlike the deterministic discrete-event crawler, this executor runs N
//! OS threads that pull *batches* of documents through the staged
//! pipeline of [`crate::pipeline`] — the same MIME filtering, duplicate
//! elimination, content conversion, analysis, classification and
//! bulk-loading code the deterministic executor drives one document at a
//! time. Simulated network latencies are *not* slept: the measurement
//! targets the processing and storage pipeline, which is what the
//! paper's §4.1 throughput number is about.
//!
//! The crawl itself is a **level-synchronized BFS**: each depth level is
//! leased out to the workers from a [`LeaseQueue`], and the next level
//! becomes leasable only after the current one drains — the workers of
//! a level run in one thread scope, whose join is the level barrier.
//! That keeps depths exact (a page always gets the depth of its
//! shallowest discoverer) and guarantees a predecessor's top terms are
//! available to its successors' neighbour feature space, while still
//! letting every level saturate all cores. URL/fingerprint duplicate
//! elimination is shared across workers behind a mutex; term ids come
//! from the lock-sharded [`SharedVocabulary`], whose `canonicalize` map
//! makes the final store comparable with a single-threaded run.
//!
//! # Supervision
//!
//! A worker panic must not abort a multi-day crawl, and a single
//! pathological document must not wedge it in a retry loop. Work
//! therefore follows the lease lifecycle of [`crate::lease`], the same
//! one the distributed coordinator uses. Every batch is a lease,
//! processed under `catch_unwind`. A batch that commits is acked. A
//! batch that panics is rolled back — the duplicate fingerprints it
//! journaled are unmarked and the rows staged in its bulk-load
//! workspace discarded — and its lease is failed, which requeues its
//! URLs with an attempt charge; the worker keeps leasing. Requeued URLs
//! are leased one at a time, isolating whichever document actually
//! crashes, and a URL that rides more than `POISON_BUDGET` (2) failed
//! leases is **quarantined**. At each level barrier the supervisor
//! fails any lease a worker left behind by dying outside
//! `catch_unwind`, and logs every panic, requeue and quarantine through
//! [`CrawlTelemetry`]. Shared state is accessed through a
//! poison-recovering lock helper: a panicked peer never takes the
//! dedup filter or the statistics down with it.
//!
//! Differences from the discrete-event executor, by design:
//!
//! * no circuit breakers, politeness slots or backoff parking — retries
//!   on transient failures happen inline and immediately;
//! * redirects are followed inline (same hop limit, same URL dedup);
//! * soft focus without tunnelling: links are followed iff the document
//!   classified positively (harvesting-mode semantics);
//! * `fetched_at` is run-relative wall-clock milliseconds, not virtual
//!   time.

use crate::dedup::{path_of_url, Dedup, DedupMark};
use crate::lease::{LeaseQueue, LeaseRecord, LeaseStats, QueuedItem, WorkItem};
use crate::pipeline::{process_batch, top_terms, BatchJudge, DocOutcome, FetchedDoc};
use crate::telemetry::CrawlTelemetry;
use crate::types::{admit_url, CrawlConfig, CrawlStats, UrlRejection};
use crate::Crawler;
use bingo_obs::Event;
use bingo_store::{BulkLoader, BulkLoaderObs, DocumentStore};
use bingo_textproc::fxhash::{self, FxHashMap};
use bingo_textproc::{ContentRegistry, SharedVocabulary, TermId};
use bingo_webworld::{FetchOutcome, FetchResponse, World};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Failed leases a URL may ride before it is quarantined. Its first
/// failure usually comes on a full batch it merely shared with the
/// crasher; every retry after that leases it alone.
const POISON_BUDGET: u32 = 2;

/// Acquire a mutex, recovering from poisoning: a panicked worker never
/// takes shared crawl state down with it. Rollback of the panicked
/// batch is the supervisor's job, not the lock's.
fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Pipeline stage a [`FaultPlan`] fires in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultStage {
    /// Panic while fetching the selected URL.
    Fetch,
    /// Panic while classifying the selected URL's document.
    Classify,
}

/// Deterministic, seeded worker-panic injection (test harness for the
/// supervisor). URLs are selected by hash — `1-in-one_in` of them —
/// and each selected URL panics `panics_per_url` times before
/// behaving: `u32::MAX` models a poisoned document (quarantined), a
/// small count models a transient crash (eventually stored).
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Selection seed: different seeds poison different URL subsets.
    pub seed: u64,
    /// One in this many URLs is selected (0 disables the plan).
    pub one_in: u64,
    /// Panics each selected URL fires before succeeding.
    pub panics_per_url: u32,
    /// Stage the panic fires in.
    pub stage: FaultStage,
}

impl FaultPlan {
    /// True when the plan selects `url` (deterministic in seed + URL).
    pub fn selects(&self, url: &str) -> bool {
        self.one_in > 0 && fxhash::hash_one(&(self.seed, url)).is_multiple_of(self.one_in)
    }
}

/// Shared fire-count bookkeeping for a [`FaultPlan`]: "panic k times
/// then succeed" needs the count to survive the panic, so it is bumped
/// *before* the unwind starts.
struct FaultInjector {
    plan: FaultPlan,
    fired: Mutex<FxHashMap<u64, u32>>,
}

impl FaultInjector {
    fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            fired: Mutex::new(FxHashMap::default()),
        }
    }

    fn maybe_fire(&self, stage: FaultStage, url: &str) {
        if self.plan.stage != stage || !self.plan.selects(url) {
            return;
        }
        let fire = {
            let mut fired = lock_clean(&self.fired);
            let count = fired.entry(fxhash::hash_one(&url)).or_insert(0);
            if *count < self.plan.panics_per_url {
                *count += 1;
                true
            } else {
                false
            }
        };
        if fire {
            panic!("injected {stage:?} fault: {url}");
        }
    }
}

/// Options for a real-thread pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineOptions {
    /// Hygiene/focus configuration (allowed/locked hosts, depth and
    /// redirect/retry limits). Breaker and politeness settings are
    /// ignored — this executor has no virtual clock to park on.
    pub config: CrawlConfig,
    /// Worker threads.
    pub threads: usize,
    /// Documents per pipeline batch.
    pub batch_size: usize,
    /// Follow the links of positively classified documents, level by
    /// level (BFS). When false the run processes exactly the given URLs
    /// at depth 0 — the flat throughput-measurement mode.
    pub follow_links: bool,
    /// Seeded worker-panic injection (tests only; `None` in production).
    pub fault: Option<FaultPlan>,
}

impl PipelineOptions {
    /// Flat throughput run: fixed URL list, no link following.
    pub fn flat(threads: usize, batch_size: usize) -> Self {
        PipelineOptions {
            config: CrawlConfig::default(),
            threads,
            batch_size,
            follow_links: false,
            fault: None,
        }
    }

    /// Focused crawl from seeds: follow links of positively classified
    /// documents under `config`'s hygiene rules.
    pub fn focused(config: CrawlConfig, threads: usize, batch_size: usize) -> Self {
        PipelineOptions {
            config,
            threads,
            batch_size,
            follow_links: true,
            fault: None,
        }
    }

    /// This run with a seeded fault plan installed.
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        self.fault = Some(fault);
        self
    }
}

/// Outcome of a throughput run.
#[derive(Debug, Clone)]
pub struct ThroughputReport {
    /// Documents stored.
    pub documents: u64,
    /// Wall-clock duration of the run.
    pub wall: std::time::Duration,
    /// Documents per minute.
    pub docs_per_minute: f64,
    /// Crawl counters aggregated over all workers.
    pub stats: CrawlStats,
    /// URLs quarantined by the supervisor (poison budget exhausted),
    /// sorted.
    pub quarantined: Vec<String>,
}

/// The run's work: a single-shard [`LeaseQueue`] whose leases never
/// expire by deadline, plus the number of retry leases issued. A
/// requeued item keeps its discovery seq, which is lower than that of
/// every item not yet leased, so while requeued items outnumber retry
/// leases the queue head is a retry — and is leased alone.
struct Work {
    queue: LeaseQueue,
    retries_leased: u64,
}

impl Work {
    fn lease(&mut self, batch_size: usize) -> Option<LeaseRecord> {
        let retry = self.queue.stats().requeued > self.retries_leased;
        let lease = self.queue.lease(0, if retry { 1 } else { batch_size }, 0)?;
        self.retries_leased += u64::from(retry);
        Some(lease)
    }
}

/// Render a panic payload for events and counters.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// State every worker of a run shares.
struct Shared<'a> {
    world: &'a World,
    store: &'a DocumentStore,
    vocab: &'a SharedVocabulary,
    judge: &'a dyn BatchJudge,
    telemetry: &'a CrawlTelemetry,
    opts: &'a PipelineOptions,
    work: Mutex<Work>,
    dedup: Mutex<Dedup>,
    page_top_terms: Mutex<FxHashMap<u64, Vec<TermId>>>,
    stats: Mutex<CrawlStats>,
    started: Instant,
    injector: Option<FaultInjector>,
}

/// Pump `seeds` (URL, topic) through the staged document pipeline with
/// `opts.threads` workers. Classification runs through `judge` on whole
/// batches; stored rows carry real depths, judgments and link rows, so
/// the resulting store matches a deterministic crawl of the same URL set
/// modulo term-id numbering (see [`SharedVocabulary::canonicalize`]) and
/// row order. Worker panics are supervised (see the module docs): the
/// run always completes, with at most the quarantined documents
/// missing.
pub fn run_pipeline(
    world: Arc<World>,
    store: DocumentStore,
    seeds: Vec<(String, Option<u32>)>,
    vocab: &SharedVocabulary,
    judge: &dyn BatchJudge,
    telemetry: &CrawlTelemetry,
    opts: &PipelineOptions,
) -> ThroughputReport {
    let started = Instant::now();
    // Honor the same spill knobs as the deterministic executor: stale
    // spill debris from aborted runs is swept before any tier starts
    // writing, and the duplicate filter spills when configured.
    telemetry
        .spill_reaped
        .add(Crawler::sweep_stale_spill_files(&opts.config));
    let mut dedup = match Crawler::dedup_spill_config(&opts.config) {
        Some(cfg) => Dedup::with_spill(&cfg),
        None => Dedup::new(),
    };
    // The seeds are level 0: offered at the first barrier below.
    let mut next_level: Vec<WorkItem> = seeds
        .into_iter()
        .filter(|(url, _)| dedup.mark_url(url))
        .map(|(url, src_topic)| WorkItem {
            url,
            src_topic,
            ..WorkItem::default()
        })
        .collect();
    let shared = Shared {
        world: &world,
        store: &store,
        vocab,
        judge,
        telemetry,
        opts,
        work: Mutex::new(Work {
            queue: LeaseQueue::new(1, POISON_BUDGET, u64::MAX),
            retries_leased: 0,
        }),
        dedup: Mutex::new(dedup),
        page_top_terms: Mutex::new(FxHashMap::default()),
        stats: Mutex::new(CrawlStats::default()),
        started,
        injector: opts.fault.clone().map(FaultInjector::new),
    };
    let mut last_dedup = crate::dedup::DedupStats::default();
    let mut last_lease = LeaseStats::default();

    // One thread scope per pass; a pass normally drains one BFS level.
    // A pass ends early only when a worker died outside its
    // `catch_unwind`: the next pass re-runs the level's failed leases.
    for pass in 0u64.. {
        let pending = {
            let mut work = lock_clean(&shared.work);
            if work.queue.pending_total() == 0 {
                for item in next_level.drain(..) {
                    work.queue.offer(0, item);
                }
            }
            work.queue.pending_total()
        };
        if pending == 0 {
            break;
        }
        telemetry.pipeline.queue_depth.set(pending as i64);
        let workers = opts.threads.max(1).min(pending);
        let mut panics: Vec<String> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| scope.spawn(|| shared.run_worker()))
                .collect();
            for handle in handles {
                match handle.join() {
                    Ok((found, caught)) => {
                        next_level.extend(found);
                        panics.extend(caught);
                    }
                    // A panic that escaped the worker's own catch_unwind
                    // (it should not exist) is still a supervised death:
                    // its lease is failed below.
                    Err(payload) => panics.push(panic_message(payload.as_ref())),
                }
            }
        });

        // Supervise at the barrier. Events are emitted here, in sorted
        // order, so same-seed runs log identical bytes.
        let mut work = lock_clean(&shared.work);
        work.queue.expire_due(u64::MAX);
        panics.sort_unstable();
        for message in &panics {
            telemetry.worker_panics.inc();
            telemetry
                .events
                .emit(Event::at(pass, "crawl.worker.panic").with("message", message));
        }
        let mut quarantined: Vec<&str> = work.queue.quarantined()
            [last_lease.quarantined as usize..]
            .iter()
            .map(|q| q.url.as_str())
            .collect();
        quarantined.sort_unstable();
        for url in quarantined {
            telemetry.worker_quarantined.inc();
            telemetry
                .events
                .emit(Event::at(pass, "crawl.worker.quarantine").with("url", url));
        }
        let lease_stats = work.queue.stats();
        let requeued = lease_stats.requeued - last_lease.requeued;
        if requeued > 0 {
            telemetry.worker_requeued.add(requeued);
            telemetry
                .events
                .emit(Event::at(pass, "crawl.worker.requeue").with("count", requeued));
        }
        last_lease = lease_stats;
        drop(work);
        // Poll the spilling dedup filter once per pass so its gauges
        // and counters track the crawl as it runs.
        telemetry
            .dedup
            .record(&lock_clean(&shared.dedup).stats(), &mut last_dedup);
    }
    telemetry.pipeline.queue_depth.set(0);

    let wall = started.elapsed();
    let stats = lock_clean(&shared.stats).clone();
    let mut quarantined: Vec<String> = lock_clean(&shared.work)
        .queue
        .quarantined()
        .iter()
        .map(|q| q.url.clone())
        .collect();
    quarantined.sort_unstable();
    let documents = stats.stored_pages;
    ThroughputReport {
        documents,
        wall,
        docs_per_minute: documents as f64 / wall.as_secs_f64().max(1e-9) * 60.0,
        stats,
        quarantined,
    }
}

/// One worker's private pipeline state.
struct Worker {
    registry: ContentRegistry,
    loader: BulkLoader,
    stats: CrawlStats,
    /// Work discovered for the next BFS level.
    next_level: Vec<WorkItem>,
}

impl Shared<'_> {
    /// One worker: lease batches until the level is drained, each under
    /// `catch_unwind`. A committed batch is acked; a panicked one is
    /// rolled back and its lease failed. Returns the next-level work the
    /// worker discovered and the panics it caught.
    fn run_worker(&self) -> (Vec<WorkItem>, Vec<String>) {
        let batch_size = self.opts.batch_size.max(1);
        let mut worker = Worker {
            registry: ContentRegistry::new(),
            loader: BulkLoader::with_batch_size(self.store.clone(), batch_size).with_observer(
                BulkLoaderObs::new(&self.telemetry.registry, self.telemetry.events.clone()),
            ),
            stats: CrawlStats::default(),
            next_level: Vec::new(),
        };
        let mut panics = Vec::new();
        loop {
            let Some(lease) = lock_clean(&self.work).lease(batch_size) else {
                break;
            };
            // Dedup marks are journaled outside the unwind boundary so
            // a panic can be rolled back.
            let mut journal: Vec<DedupMark> = Vec::new();
            let caught = catch_unwind(AssertUnwindSafe(|| {
                self.process_lease(&mut worker, &lease.items, &mut journal)
            }));
            match caught {
                Ok(()) => {
                    lock_clean(&self.work).queue.ack(lease.id);
                }
                Err(payload) => {
                    // Roll back the half-processed batch: its
                    // fingerprints must not make the retries look like
                    // duplicates, and its staged rows must not leak
                    // into the store.
                    lock_clean(&self.dedup).unmark(&journal);
                    worker.loader.discard_pending();
                    worker.loader.flush();
                    lock_clean(&self.work).queue.fail(lease.id);
                    panics.push(panic_message(payload.as_ref()));
                }
            }
        }
        worker.loader.flush();
        lock_clean(&self.stats).merge(&worker.stats);
        (worker.next_level, panics)
    }

    /// Fetch, process and bulk-load one leased batch.
    fn process_lease(
        &self,
        worker: &mut Worker,
        items: &[QueuedItem],
        journal: &mut Vec<DedupMark>,
    ) {
        let config = &self.opts.config;
        let mut batch: Vec<FetchedDoc> = Vec::with_capacity(items.len());
        let mut fetched: Vec<&WorkItem> = Vec::with_capacity(items.len());
        for QueuedItem { item, .. } in items {
            worker.stats.visited_urls += 1;
            worker.stats.max_depth = worker.stats.max_depth.max(item.depth);
            if let Some(injector) = &self.injector {
                injector.maybe_fire(FaultStage::Fetch, &item.url);
            }
            let Some(response) = fetch_with_hygiene(
                self.world,
                config,
                &self.dedup,
                &mut worker.stats,
                &item.url,
                journal,
            ) else {
                continue;
            };
            let neighbor_terms = lock_clean(&self.page_top_terms)
                .get(&item.src_page)
                .cloned()
                .unwrap_or_default();
            batch.push(FetchedDoc {
                response,
                depth: item.depth,
                src_topic: item.src_topic,
                anchor_terms: item.anchor_terms.clone(),
                neighbor_terms,
                fetched_at: self.started.elapsed().as_millis() as u64,
            });
            fetched.push(item);
        }
        if batch.is_empty() {
            return;
        }

        let mut interner = self.vocab;
        let outcomes = process_batch(
            self.world,
            &worker.registry,
            &mut interner,
            &mut worker.loader,
            batch,
            |resp: &FetchResponse| {
                lock_clean(&self.dedup).mark_response_journaled(
                    resp.ip,
                    path_of_url(&resp.url),
                    resp.size,
                    journal,
                )
            },
            |docs, ctxs| {
                if let Some(injector) = &self.injector {
                    for ctx in ctxs {
                        injector.maybe_fire(FaultStage::Classify, &ctx.url);
                    }
                }
                self.judge.judge_batch(docs, ctxs)
            },
            &self.telemetry.textproc,
            &self.telemetry.pipeline,
        );

        let stats = &mut worker.stats;
        for (item, outcome) in fetched.into_iter().zip(outcomes) {
            match outcome {
                DocOutcome::MimeFiltered => stats.mime_rejected += 1,
                DocOutcome::DuplicateContent => stats.duplicates += 1,
                DocOutcome::Malformed { wasted_bytes } => {
                    stats.mime_rejected += 1;
                    stats.wasted_bytes += wasted_bytes;
                }
                DocOutcome::AlreadyStored { page_id, doc, .. } => {
                    lock_clean(&self.page_top_terms).insert(page_id, top_terms(&doc));
                    stats.duplicates += 1;
                }
                DocOutcome::Stored {
                    page_id,
                    doc,
                    judgment,
                } => {
                    lock_clean(&self.page_top_terms).insert(page_id, top_terms(&doc));
                    stats.stored_pages += 1;
                    self.telemetry.stored.inc();
                    if judgment.topic.is_some() {
                        stats.positively_classified += 1;
                    }
                    if self.opts.follow_links {
                        stats.extracted_links += doc.links.len() as u64;
                        // Soft focus without tunnelling: only positively
                        // classified documents propagate the crawl.
                        if judgment.topic.is_some() {
                            self.enqueue_links(
                                stats,
                                &mut worker.next_level,
                                item,
                                page_id,
                                judgment.topic,
                                &doc,
                            );
                        }
                    }
                }
            }
        }
    }

    /// Queue the links of a positively classified document for the next
    /// level, under the same hygiene rules the deterministic executor
    /// applies at enqueue time.
    fn enqueue_links(
        &self,
        stats: &mut CrawlStats,
        next_level: &mut Vec<WorkItem>,
        item: &WorkItem,
        page_id: u64,
        topic: Option<u32>,
        doc: &bingo_textproc::AnalyzedDocument,
    ) {
        let child_depth = item.depth + 1;
        let config = &self.opts.config;
        if config.max_depth > 0 && child_depth > config.max_depth {
            return;
        }
        for link in &doc.links {
            let url = &link.href;
            match admit_url(config, url) {
                Ok(_) => {}
                Err(UrlRejection::OutsideAllowed) => continue,
                Err(_) => {
                    stats.url_rejected += 1;
                    continue;
                }
            }
            if !lock_clean(&self.dedup).mark_url(url) {
                continue; // already queued or visited
            }
            next_level.push(WorkItem {
                url: url.clone(),
                depth: child_depth,
                src_topic: topic.or(item.src_topic),
                src_page: page_id,
                anchor_terms: link.anchor_terms.clone(),
            });
        }
    }
}

/// URL hygiene + fetch with inline redirect following and immediate
/// retries on transient failures — the real-time counterparts of the
/// discrete-event executor's guards, redirect re-enqueueing and backoff
/// parking. Redirect-target URL marks are journaled so a later panic in
/// the same batch can roll them back.
fn fetch_with_hygiene(
    world: &World,
    config: &CrawlConfig,
    dedup: &Mutex<Dedup>,
    stats: &mut CrawlStats,
    url: &str,
    journal: &mut Vec<DedupMark>,
) -> Option<FetchResponse> {
    let mut url = url.to_string();
    let mut redirects = 0u32;
    let mut attempt = 0u32;
    loop {
        let Ok(host) = admit_url(config, &url) else {
            stats.url_rejected += 1;
            return None;
        };
        if world.dns_lookup(host, attempt).is_err() {
            stats.fetch_errors += 1;
            if attempt < config.max_retries {
                attempt += 1;
                continue;
            }
            return None;
        }
        match world.fetch(&url, attempt) {
            FetchOutcome::Ok(resp) if resp.truncated => {
                stats.truncated_fetches += 1;
                stats.wasted_bytes += resp.payload.len() as u64;
                stats.fetch_errors += 1;
                if attempt < config.max_retries {
                    attempt += 1;
                    continue;
                }
                return None;
            }
            FetchOutcome::Ok(resp) => return Some(resp),
            FetchOutcome::Redirect { location, .. } => {
                stats.redirects += 1;
                if redirects < config.max_redirects
                    && lock_clean(dedup).mark_url_journaled(&location, journal)
                {
                    url = location;
                    redirects += 1;
                    attempt = 0;
                    continue;
                }
                return None;
            }
            FetchOutcome::Err { error, .. } => {
                stats.fetch_errors += 1;
                if error.is_transient() && attempt < config.max_retries {
                    attempt += 1;
                    continue;
                }
                return None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Judgment;
    use bingo_webworld::gen::WorldConfig;
    use bingo_webworld::HostBehavior;

    fn accept_all(
    ) -> impl Fn(&bingo_textproc::AnalyzedDocument, &crate::types::PageContext) -> Judgment + Sync
    {
        |_doc, _ctx| Judgment {
            topic: Some(0),
            confidence: 1.0,
        }
    }

    /// Healthy pages (no faults, no redirects, no truncation) whose
    /// response fingerprints are globally unique, so duplicate
    /// elimination keeps them all regardless of processing order.
    fn unique_healthy_urls(world: &World) -> Vec<String> {
        let mut by_fingerprint: FxHashMap<(u32, u64), Vec<u64>> = FxHashMap::default();
        for id in 0..world.page_count() as u64 {
            let page = world.page(id);
            if page.size_hint.is_some()
                || page.redirect_to.is_some()
                || world.host(page.host).behavior != HostBehavior::Normal
            {
                continue;
            }
            let FetchOutcome::Ok(resp) = world.fetch(&world.url_of(id), 0) else {
                continue;
            };
            by_fingerprint
                .entry((resp.ip, resp.size))
                .or_default()
                .push(id);
        }
        let mut ids: Vec<u64> = by_fingerprint
            .into_values()
            .filter(|ids| ids.len() == 1)
            .flatten()
            .collect();
        ids.sort_unstable();
        ids.into_iter().map(|id| world.url_of(id)).collect()
    }

    #[test]
    fn flat_run_stores_all_unique_healthy_urls() {
        let world = Arc::new(WorldConfig::small_test(41).build());
        let urls = unique_healthy_urls(&world);
        assert!(urls.len() >= 10, "world too hostile for the test");
        let store = DocumentStore::new();
        let vocab = SharedVocabulary::new();
        let telemetry = CrawlTelemetry::default();
        let report = run_pipeline(
            Arc::clone(&world),
            store.clone(),
            urls.iter().map(|u| (u.clone(), None)).collect(),
            &vocab,
            &accept_all(),
            &telemetry,
            &PipelineOptions::flat(4, 32),
        );
        assert_eq!(report.documents as usize, urls.len());
        assert_eq!(store.document_count(), urls.len());
        assert!(report.docs_per_minute > 0.0);
        assert!(report.quarantined.is_empty());
        // Classification ran: every stored row carries the judgment.
        store.for_each_document(|row| {
            assert_eq!(row.topic, Some(0));
            assert_eq!(row.depth, 0);
        });
        let snap = telemetry.registry.snapshot();
        assert_eq!(snap.counters["pipeline.load.docs"], urls.len() as u64);
        assert_eq!(snap.counters["crawl.stored"], urls.len() as u64);
        assert_eq!(snap.counters["crawl.worker.panics"], 0);
    }

    #[test]
    fn single_thread_works() {
        let world = Arc::new(WorldConfig::small_test(42).build());
        let urls = vec![world.url_of(1), world.url_of(2)];
        let store = DocumentStore::new();
        let vocab = SharedVocabulary::new();
        let report = run_pipeline(
            Arc::clone(&world),
            store,
            urls.into_iter().map(|u| (u, None)).collect(),
            &vocab,
            &accept_all(),
            &CrawlTelemetry::default(),
            &PipelineOptions::flat(1, 1),
        );
        assert!(report.documents >= 1);
    }

    #[test]
    fn focused_run_follows_links_with_real_depths() {
        let world = Arc::new(WorldConfig::small_test(43).build());
        let seed = world.url_of(0);
        let store = DocumentStore::new();
        let vocab = SharedVocabulary::new();
        let config = CrawlConfig {
            max_depth: 2,
            ..CrawlConfig::default()
        };
        let report = run_pipeline(
            Arc::clone(&world),
            store.clone(),
            vec![(seed, Some(0))],
            &vocab,
            &accept_all(),
            &CrawlTelemetry::default(),
            &PipelineOptions::focused(config, 3, 8),
        );
        assert!(report.documents >= 1);
        let mut max_depth = 0;
        store.for_each_document(|row| max_depth = max_depth.max(row.depth));
        assert!(max_depth >= 1, "links were followed");
        assert!(max_depth <= 2, "depth limit respected");
        assert_eq!(report.stats.max_depth, max_depth);
        assert!(
            store.link_count() > 0,
            "stored documents emit their link rows"
        );
    }

    #[test]
    fn transient_panics_recover_every_document() {
        // Every URL the plan selects panics once, then behaves: the
        // supervisor requeues them and the run still stores everything.
        let world = Arc::new(WorldConfig::small_test(41).build());
        let urls = unique_healthy_urls(&world);
        assert!(urls.len() >= 10);
        let fault = FaultPlan {
            seed: 7,
            one_in: 4,
            panics_per_url: 1,
            stage: FaultStage::Fetch,
        };
        assert!(
            urls.iter().any(|u| fault.selects(u)),
            "plan must select at least one URL"
        );
        let store = DocumentStore::new();
        let vocab = SharedVocabulary::new();
        let telemetry = CrawlTelemetry::default();
        let report = run_pipeline(
            Arc::clone(&world),
            store.clone(),
            urls.iter().map(|u| (u.clone(), None)).collect(),
            &vocab,
            &accept_all(),
            &telemetry,
            &PipelineOptions::flat(4, 8).with_fault(fault),
        );
        assert_eq!(report.documents as usize, urls.len(), "nothing lost");
        assert!(report.quarantined.is_empty(), "transient faults recover");
        let snap = telemetry.registry.snapshot();
        assert!(snap.counters["crawl.worker.panics"] > 0);
        assert!(snap.counters["crawl.worker.requeued"] > 0);
        assert_eq!(snap.counters["crawl.worker.quarantined"], 0);
    }

    #[test]
    fn poisoned_documents_are_quarantined_not_retried_forever() {
        // A Fetch-stage crasher fails its lease before the rest of the
        // batch is fetched, charging batch-mates that never ran; a
        // Classify-stage crasher fails it after the whole batch was
        // analyzed. Either way only the crashers are quarantined.
        for stage in [FaultStage::Classify, FaultStage::Fetch] {
            let world = Arc::new(WorldConfig::small_test(41).build());
            let urls = unique_healthy_urls(&world);
            let fault = FaultPlan {
                seed: 13,
                one_in: 5,
                panics_per_url: u32::MAX, // a deterministic crasher
                stage,
            };
            let poisoned: Vec<String> = urls.iter().filter(|u| fault.selects(u)).cloned().collect();
            assert!(!poisoned.is_empty(), "plan must poison at least one URL");
            let store = DocumentStore::new();
            let vocab = SharedVocabulary::new();
            let telemetry = CrawlTelemetry::default();
            let report = run_pipeline(
                Arc::clone(&world),
                store.clone(),
                urls.iter().map(|u| (u.clone(), None)).collect(),
                &vocab,
                &accept_all(),
                &telemetry,
                &PipelineOptions::flat(4, 8).with_fault(fault),
            );
            let mut expected = poisoned.clone();
            expected.sort_unstable();
            assert_eq!(
                report.quarantined, expected,
                "{stage:?}: exactly the poisoned docs"
            );
            assert_eq!(
                report.documents as usize,
                urls.len() - poisoned.len(),
                "{stage:?}: everything else stored"
            );
            let stored_urls: std::collections::BTreeSet<String> =
                store.all_documents().into_iter().map(|d| d.url).collect();
            for url in &poisoned {
                assert!(!stored_urls.contains(url), "quarantined doc in store");
            }
            let snap = telemetry.registry.snapshot();
            assert_eq!(
                snap.counters["crawl.worker.quarantined"],
                poisoned.len() as u64
            );
        }
    }

    #[test]
    fn stale_spill_files_are_swept_before_the_run() {
        let dir = std::env::temp_dir().join("bingo-threaded-stale-spill");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let stale = dir.join("slot-99.spill");
        std::fs::write(&stale, b"stale").unwrap();
        let world = Arc::new(WorldConfig::small_test(42).build());
        let config = CrawlConfig {
            frontier_spill_dir: Some(dir.clone()),
            ..CrawlConfig::default()
        };
        let telemetry = CrawlTelemetry::default();
        run_pipeline(
            Arc::clone(&world),
            DocumentStore::new(),
            vec![(world.url_of(1), None)],
            &SharedVocabulary::new(),
            &accept_all(),
            &telemetry,
            &PipelineOptions::focused(config, 1, 4),
        );
        assert!(!stale.exists(), "stale spill file swept");
        assert_eq!(
            telemetry.registry.snapshot().counters["crawl.spill.reaped"],
            1
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn panic_telemetry_is_deterministic_single_threaded() {
        // With one worker the batch composition is deterministic, so
        // two identical fault-injected runs must emit byte-identical
        // telemetry — panic, requeue and quarantine events included.
        let run = || {
            let world = Arc::new(WorldConfig::small_test(44).build());
            let urls = unique_healthy_urls(&world);
            let fault = FaultPlan {
                seed: 3,
                one_in: 6,
                panics_per_url: u32::MAX,
                stage: FaultStage::Fetch,
            };
            let telemetry = CrawlTelemetry::default();
            run_pipeline(
                Arc::clone(&world),
                DocumentStore::new(),
                urls.iter().map(|u| (u.clone(), None)).collect(),
                &SharedVocabulary::new(),
                &accept_all(),
                &telemetry,
                &PipelineOptions::flat(1, 8).with_fault(fault),
            );
            (
                telemetry.registry.snapshot().deterministic().to_json(),
                telemetry.events.to_jsonl(),
            )
        };
        let (snap_a, events_a) = run();
        let (snap_b, events_b) = run();
        assert!(events_a.contains("crawl.worker.panic"), "panics logged");
        assert_eq!(snap_a, snap_b);
        assert_eq!(events_a, events_b);
    }
}
