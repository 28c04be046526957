//! E8: storage throughput under concurrent writers (paper §4.1).
//!
//! The paper's lesson: with many crawler threads feeding one database,
//! row-at-a-time inserts cannot keep up, while per-thread workspaces
//! flushed through the bulk loader sustain "up to ten thousand
//! documents per minute". Here [`THREADS`] writers each load
//! [`PER_THREAD`] rows into one fresh [`DocumentStore`], once with one
//! [`DocumentStore::insert_document`] per row and once through a
//! per-thread [`BulkLoader`]. Every repetition is timed with
//! [`Instant`]; the strategies alternate so slow drift of the machine
//! hits both alike, and the report carries the median and quartiles.

use bingo_store::{BulkLoader, DocumentRow, DocumentStore};
use bingo_textproc::MimeType;
use std::time::Instant;

/// Concurrent writer threads: the paper's condition.
pub const THREADS: u64 = 8;
/// Rows each writer loads per repetition in the full experiment.
pub const PER_THREAD: u64 = 2_000;
/// Bulk-loader workspace capacity.
pub const BATCH: usize = 256;
/// Timed repetitions per strategy.
pub const REPS: usize = 7;

/// Timings of one loading strategy.
#[derive(Debug, Clone)]
pub struct StrategyResult {
    /// `"row_at_a_time"` or `"bulk_loader"`.
    pub strategy: &'static str,
    /// Documents in the store after each repetition.
    pub documents: u64,
    /// Wall time of every repetition, ms, sorted ascending.
    pub wall_ms: Vec<f64>,
}

impl StrategyResult {
    /// Wall-time quantile `q` in `[0, 1]`, linearly interpolated.
    pub fn wall_quantile_ms(&self, q: f64) -> f64 {
        let pos = q * (self.wall_ms.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        self.wall_ms[lo] + (self.wall_ms[hi] - self.wall_ms[lo]) * (pos - lo as f64)
    }

    /// Documents per second at the median wall time.
    pub fn docs_per_sec(&self) -> f64 {
        self.documents as f64 * 1000.0 / self.wall_quantile_ms(0.5).max(1e-9)
    }
}

/// Both strategies' timings.
#[derive(Debug, Clone)]
pub struct StorageOutcome {
    /// One insert call per row.
    pub row_at_a_time: StrategyResult,
    /// Per-thread workspaces flushed in batches.
    pub bulk_loader: StrategyResult,
}

/// A synthetic 40-term document row; `id` is unique per writer.
fn row(id: u64) -> DocumentRow {
    DocumentRow {
        id,
        url: format!("http://h{}/p{id}", id % 50),
        host: (id % 50) as u32,
        mime: MimeType::Html,
        depth: 1,
        title: format!("doc {id}"),
        topic: Some((id % 5) as u32),
        confidence: 0.5,
        term_freqs: (0..40u32)
            .map(|t| (t * 7 + (id as u32 % 13), 1 + t % 4))
            .collect(),
        size: 2048,
        fetched_at: id,
    }
}

/// Load [`THREADS`] × `per_thread` rows into a fresh store, one writer
/// thread each; returns the wall time in ms and the documents stored.
fn load_once(per_thread: u64, bulk: bool) -> (f64, u64) {
    let store = DocumentStore::new();
    let started = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let store = store.clone();
            scope.spawn(move || {
                let ids = (0..per_thread).map(|i| t * 1_000_000 + i);
                if bulk {
                    let mut loader = BulkLoader::with_batch_size(store, BATCH);
                    ids.for_each(|id| loader.add_document(row(id)));
                    loader.flush();
                } else {
                    for id in ids {
                        store.insert_document(row(id)).expect("fresh id");
                    }
                }
            });
        }
    });
    let wall_ms = started.elapsed().as_secs_f64() * 1000.0;
    (wall_ms, store.document_count() as u64)
}

/// Run both strategies [`REPS`] times each with `per_thread` rows per
/// writer (after one untimed warm-up apiece), alternating between them.
pub fn run(per_thread: u64) -> StorageOutcome {
    load_once(per_thread, false);
    load_once(per_thread, true);
    let empty = |strategy| StrategyResult {
        strategy,
        documents: 0,
        wall_ms: Vec::with_capacity(REPS),
    };
    let mut row_at_a_time = empty("row_at_a_time");
    let mut bulk_loader = empty("bulk_loader");
    for _ in 0..REPS {
        for (bulk, result) in [(false, &mut row_at_a_time), (true, &mut bulk_loader)] {
            let (wall_ms, documents) = load_once(per_thread, bulk);
            result.wall_ms.push(wall_ms);
            result.documents = documents;
        }
    }
    for result in [&mut row_at_a_time, &mut bulk_loader] {
        result.wall_ms.sort_by(f64::total_cmp);
    }
    StorageOutcome {
        row_at_a_time,
        bulk_loader,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_strategies_store_every_row() {
        let out = run(40);
        for result in [&out.row_at_a_time, &out.bulk_loader] {
            assert_eq!(result.documents, THREADS * 40, "{}", result.strategy);
            assert_eq!(result.wall_ms.len(), REPS);
            assert!(result.wall_ms.windows(2).all(|w| w[0] <= w[1]));
            assert!(result.docs_per_sec() > 0.0);
        }
    }

    #[test]
    fn quantiles_interpolate() {
        let r = StrategyResult {
            strategy: "row_at_a_time",
            documents: 10,
            wall_ms: vec![1.0, 2.0, 3.0, 4.0, 10.0],
        };
        assert_eq!(r.wall_quantile_ms(0.5), 3.0);
        assert_eq!(r.wall_quantile_ms(0.25), 2.0);
        assert_eq!(r.wall_quantile_ms(0.75), 4.0);
        assert_eq!(r.docs_per_sec(), 10.0 * 1000.0 / 3.0);
    }
}
