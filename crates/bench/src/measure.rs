//! Measurement utilities: wall-clock timing, a counting global
//! allocator (Figure 15's memory experiment), and a markdown table
//! builder for harness output.

use lhcds::service::json::Json;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// A [`System`]-backed allocator that tracks current and peak live
/// bytes. Install it in a binary with
/// `#[global_allocator] static A: CountingAllocator = CountingAllocator;`
/// and read peaks through [`reset_peak`] / [`peak_bytes`].
pub struct CountingAllocator;

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let cur = CURRENT.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(cur, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

/// Resets the peak to the current live size (call before a measured
/// region).
pub fn reset_peak() {
    PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Peak live bytes since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Currently live bytes.
pub fn current_bytes() -> usize {
    CURRENT.load(Ordering::Relaxed)
}

/// Host provenance stamped into the `BENCH_table2.json` the harness
/// records: wall-clock columns only mean what the recording host lets
/// them mean, so the file says how many CPUs it was recorded on.
#[derive(Debug, Clone, Copy)]
pub struct BenchProvenance {
    /// `std::thread::available_parallelism()` of the recording host.
    pub host_parallelism: usize,
    /// True when the host had exactly one CPU, so `--threads` could not
    /// speed anything up.
    pub recorded_on_single_cpu: bool,
}

impl BenchProvenance {
    /// Probes the current host.
    pub fn detect() -> Self {
        let host = std::thread::available_parallelism().map_or(1, |p| p.get());
        BenchProvenance {
            host_parallelism: host,
            recorded_on_single_cpu: host == 1,
        }
    }

    /// The provenance fields as `(key, value)` pairs, ready to splice
    /// into a `BENCH_*.json` object.
    pub fn json_pairs(&self) -> [(&'static str, Json); 2] {
        [
            ("host_parallelism", Json::Int(self.host_parallelism as i128)),
            (
                "recorded_on_single_cpu",
                Json::Bool(self.recorded_on_single_cpu),
            ),
        ]
    }
}

/// Times a closure, returning its result and elapsed milliseconds.
pub fn time_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64() * 1e3)
}

/// Formats a byte count like the paper's Figure 15 axis (KB).
pub fn fmt_kb(bytes: usize) -> String {
    format!("{:.0}", bytes as f64 / 1024.0)
}

/// A simple markdown table accumulator.
#[derive(Debug, Clone)]
pub struct MdTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl MdTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Self {
        MdTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders GitHub-flavored markdown.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (c, w) in cells.iter().zip(widths) {
                line.push_str(&format!(" {c:<w$} |"));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('|');
        for w in &widths {
            out.push_str(&format!("{:-<1$}|", "", w + 2));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_markdown() {
        let mut t = MdTable::new(["dataset", "time (s)"]);
        t.row(["HA", "7.50"]).row(["CA-GrQc", "0.38"]);
        let md = t.render();
        assert!(md.contains("| dataset "));
        assert!(md.contains("| HA "));
        assert!(md.lines().count() == 4);
        assert!(!t.is_empty());
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        MdTable::new(["a", "b"]).row(["only-one"]);
    }

    #[test]
    fn time_ms_measures_something() {
        let (v, ms) = time_ms(|| (0..10000).sum::<u64>());
        assert_eq!(v, 49995000);
        assert!(ms >= 0.0);
    }

    #[test]
    fn fmt_kb_rounds() {
        assert_eq!(fmt_kb(2048), "2");
        assert_eq!(fmt_kb(0), "0");
    }

    #[test]
    fn provenance_fields_are_well_formed() {
        let p = BenchProvenance::detect();
        assert!(p.host_parallelism >= 1);
        assert_eq!(p.recorded_on_single_cpu, p.host_parallelism == 1);
        let json = Json::object(p.json_pairs());
        assert_eq!(
            json.get("host_parallelism").and_then(Json::as_u64),
            Some(p.host_parallelism as u64)
        );
        assert_eq!(
            json.get("recorded_on_single_cpu").and_then(Json::as_bool),
            Some(p.recorded_on_single_cpu)
        );
    }

    #[test]
    fn allocator_counters_move() {
        // the test binary does not install the allocator, but the
        // counters must still be safe to poke
        reset_peak();
        let _ = peak_bytes();
        let _ = current_bytes();
    }
}
