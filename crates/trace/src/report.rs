//! Flat aggregated views over a collected [`Trace`].
//!
//! The ring buffers bound timeline memory, but the per-thread aggregate
//! tables are exact; these helpers merge them across threads so harnesses
//! (e.g. `bench --bin profile`) can report totals, category fractions, and
//! model-vs-measured joins without replaying events.

use crate::Trace;

/// Exact aggregate for one `(cat, name)` span kind.
#[derive(Clone, Debug, PartialEq)]
pub struct AggRow {
    pub cat: String,
    pub name: String,
    /// Closed spans recorded.
    pub count: u64,
    /// Summed span duration.
    pub total_ns: u64,
    /// Longest single span.
    pub max_ns: u64,
}

impl Trace {
    /// Span aggregates summed across threads, sorted by descending total
    /// time (ties by `(cat, name)` for determinism).
    pub fn merged_spans(&self) -> Vec<AggRow> {
        let mut rows: Vec<AggRow> = Vec::new();
        for thread in &self.threads {
            for row in &thread.spans {
                if let Some(merged) = rows
                    .iter_mut()
                    .find(|r| r.cat == row.cat && r.name == row.name)
                {
                    merged.count += row.count;
                    merged.total_ns += row.total_ns;
                    merged.max_ns = merged.max_ns.max(row.max_ns);
                } else {
                    rows.push(row.clone());
                }
            }
        }
        rows.sort_by(|a, b| {
            b.total_ns
                .cmp(&a.total_ns)
                .then_with(|| a.cat.cmp(&b.cat))
                .then_with(|| a.name.cmp(&b.name))
        });
        rows
    }

    /// Total span time in category `cat`, summed across all threads.
    pub fn category_ns(&self, cat: &str) -> u64 {
        self.threads
            .iter()
            .flat_map(|t| t.spans.iter())
            .filter(|r| r.cat == cat)
            .map(|r| r.total_ns)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use crate::{clear, collect, set_enabled, span, test_lock};

    #[test]
    fn merged_rows_sum_across_threads() {
        let _guard = test_lock();
        set_enabled(false);
        clear();
        set_enabled(true);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    for _ in 0..5 {
                        let _s = span("merge", "work", &[]);
                    }
                });
            }
        });
        {
            let _s = span("merge", "work", &[]);
        }
        set_enabled(false);
        let trace = collect();
        let rows = trace.merged_spans();
        let row = rows
            .iter()
            .find(|r| r.cat == "merge" && r.name == "work")
            .expect("merged row present");
        assert_eq!(row.count, 11);
        assert!(row.total_ns >= row.max_ns);
        assert!(trace.category_ns("merge") >= row.total_ns);
        clear();
    }
}
