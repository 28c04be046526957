//! The per-layer wall-time profile of one run.
//!
//! Each row is a layer with its busy time and the layer it runs inside.
//! Busy time comes from the benchmark's spans or, for stages that exist
//! only inside one program call (`process_batch`, `BingoEngine::train`,
//! snapshot commits), from the program's own wall-time histograms. A
//! layer's self time is its busy time minus its children's. The wall
//! time is the summed duration of the run's root spans, one per busy
//! thread; whatever the top-level rows do not cover is
//! `unattributed_ms`.

use crate::trace::Span;
use serde_json::{json, Value};
use std::collections::BTreeMap;

/// Root span names: the outermost span of each busy thread.
pub const ROOT_SPANS: [&str; 2] = ["round", "loadgen"];

/// One layer of the profile.
#[derive(Debug, Clone)]
pub struct Row {
    /// Layer name.
    pub layer: String,
    /// The layer this one runs inside (`None`: directly under a root).
    pub parent: Option<String>,
    /// Busy time, ms.
    pub busy_ms: f64,
    /// Calls (spans or histogram observations).
    pub calls: u64,
}

/// Busy time and call count of every span name.
#[derive(Debug, Clone, Default)]
pub struct SpanTotals {
    by_name: BTreeMap<&'static str, (f64, u64)>,
    wall_ms: f64,
}

impl SpanTotals {
    /// Aggregate `spans`.
    pub fn new(spans: &[Span]) -> Self {
        let mut totals = SpanTotals::default();
        for s in spans {
            let e = totals.by_name.entry(s.name).or_insert((0.0, 0));
            e.0 += s.ms();
            e.1 += 1;
            if ROOT_SPANS.contains(&s.name) {
                totals.wall_ms += s.ms();
            }
        }
        totals
    }

    /// Summed duration of the spans named `name`, ms.
    pub fn busy_ms(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |e| e.0)
    }

    /// Number of spans named `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |e| e.1)
    }

    /// Summed duration of the root spans, ms.
    pub fn wall_ms(&self) -> f64 {
        self.wall_ms
    }
}

/// A run's layer profile.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Thread wall time covered by root spans, ms.
    pub wall_ms: f64,
    /// Layers in declaration order (parents before children).
    pub rows: Vec<Row>,
}

impl Profile {
    /// An empty profile over `wall_ms` of thread wall time.
    pub fn new(wall_ms: f64) -> Self {
        Profile {
            wall_ms,
            rows: Vec::new(),
        }
    }

    /// Add a layer. Its parent must have been added before it.
    pub fn add(&mut self, layer: &str, parent: Option<&str>, busy_ms: f64, calls: u64) {
        if let Some(p) = parent {
            assert!(
                self.rows.iter().any(|r| r.layer == p),
                "profile parent {p} of {layer} not declared"
            );
        }
        self.rows.push(Row {
            layer: layer.to_string(),
            parent: parent.map(str::to_string),
            busy_ms,
            calls,
        });
    }

    /// Add a layer measured by the spans named `span`.
    pub fn add_span(&mut self, totals: &SpanTotals, span: &str, parent: Option<&str>) {
        self.add(span, parent, totals.busy_ms(span), totals.calls(span));
    }

    /// Busy time of `layer` (0 when absent).
    pub fn busy_ms(&self, layer: &str) -> f64 {
        self.rows
            .iter()
            .filter(|r| r.layer == layer)
            .map(|r| r.busy_ms)
            .sum::<f64>()
            + 0.0
    }

    /// Busy time of `layer` minus the busy time of its children.
    pub fn self_ms(&self, layer: &str) -> f64 {
        let children: f64 = self
            .rows
            .iter()
            .filter(|r| r.parent.as_deref() == Some(layer))
            .map(|r| r.busy_ms)
            .sum();
        self.busy_ms(layer) - children
    }

    /// Wall time not covered by any top-level layer.
    pub fn unattributed_ms(&self) -> f64 {
        let top: f64 = self
            .rows
            .iter()
            .filter(|r| r.parent.is_none())
            .map(|r| r.busy_ms)
            .sum();
        self.wall_ms - top
    }

    /// Summed self time of every layer.
    pub fn total_self_ms(&self) -> f64 {
        self.rows.iter().map(|r| self.self_ms(&r.layer)).sum()
    }

    /// The profile as JSON: one object per layer plus the residual.
    pub fn to_json(&self) -> Value {
        let rows: Vec<Value> = self
            .rows
            .iter()
            .map(|r| {
                json!({
                    "layer": r.layer,
                    "parent": r.parent,
                    "calls": r.calls,
                    "busy_ms": r.busy_ms,
                    "self_ms": self.self_ms(&r.layer),
                })
            })
            .collect();
        json!({
            "wall_ms": self.wall_ms,
            "unattributed_ms": self.unattributed_ms(),
            "layers": rows,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_and_residual_sum_to_wall() {
        let mut p = Profile::new(100.0);
        p.add("crawl", None, 80.0, 1);
        p.add("classify", Some("crawl"), 50.0, 10);
        p.add("analyze", Some("crawl"), 20.0, 10);
        p.add("stem", Some("analyze"), 5.0, 10);
        assert_eq!(p.self_ms("crawl"), 10.0);
        assert_eq!(p.self_ms("analyze"), 15.0);
        assert_eq!(p.unattributed_ms(), 20.0);
        assert!((p.total_self_ms() + p.unattributed_ms() - p.wall_ms).abs() < 1e-9);
    }
}
