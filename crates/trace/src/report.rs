//! Aggregated views over a collected [`Trace`].
//!
//! The ring buffers bound timeline memory, but the per-thread aggregate
//! tables are exact; [`Trace::category_ns`] sums them across threads, so a
//! test can bound the solver's attributed sync time by the recorded
//! communication time without replaying events.

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
        let rows: Vec<_> = trace
            .threads
            .iter()
            .flat_map(|t| &t.spans)
            .filter(|r| r.cat == "merge" && r.name == "work")
            .collect();
        assert_eq!(rows.len(), 3, "one aggregate row per recording thread");
        assert_eq!(rows.iter().map(|r| r.count).sum::<u64>(), 11);
        assert!(rows.iter().all(|r| r.total_ns >= r.max_ns));
        let total: u64 = rows.iter().map(|r| r.total_ns).sum();
        assert_eq!(trace.category_ns("merge"), total);
        clear();
    }
}
