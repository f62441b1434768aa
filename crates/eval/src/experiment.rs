//! Experiment infrastructure: result tables and a parallel trial runner.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;

/// A result table with aligned text rendering and CSV export — the output
/// format of every experiment binary (DESIGN.md §3).
///
/// ```
/// use dpmg_eval::experiment::Table;
///
/// let mut t = Table::new("demo", &["k", "error"]);
/// t.row(&["8".into(), "1.5".into()]);
/// assert!(t.render().contains("== demo =="));
/// assert!(t.to_csv().starts_with("k,error"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; must match the header arity.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row arity mismatch in table `{}`",
            self.title
        );
        self.rows.push(cells.to_vec());
    }

    /// Convenience: appends a row of displayable values.
    pub fn row_display(&mut self, cells: &[&dyn std::fmt::Display]) {
        let rendered: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        self.row(&rendered);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders as aligned text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Renders as CSV (RFC-4180-ish; cells are numeric/simple in practice,
    /// commas and quotes are escaped defensively).
    pub fn to_csv(&self) -> String {
        let escape = |cell: &str| {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| escape(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Prints the aligned rendering to stdout and writes the CSV next to
    /// `dir` (creating it), named from the table title.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn emit(&self, dir: &Path) -> std::io::Result<()> {
        println!("{}", self.render());
        std::fs::create_dir_all(dir)?;
        let slug: String = self
            .title
            .chars()
            .map(|c| {
                if c.is_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '_'
                }
            })
            .collect();
        let mut file = std::fs::File::create(dir.join(format!("{slug}.csv")))?;
        file.write_all(self.to_csv().as_bytes())
    }
}

/// Sample statistics of a set of trial outcomes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for a single sample).
    pub std: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

/// Computes [`Stats`] of a non-empty sample.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn stats(samples: &[f64]) -> Stats {
    assert!(!samples.is_empty(), "stats of empty sample");
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = if samples.len() < 2 {
        0.0
    } else {
        samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0)
    };
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Stats {
        mean,
        std: var.sqrt(),
        min,
        max,
    }
}

/// Runs `trials` independent trials of `f` across all CPU cores, passing
/// each trial a distinct deterministic seed derived from `base_seed`.
/// Results are returned in trial order, so the whole computation is
/// reproducible regardless of scheduling.
///
/// # Panics
///
/// Panics if any trial panics — after every worker has stopped, and never
/// with partial results.
pub fn parallel_trials<F>(trials: usize, base_seed: u64, f: F) -> Vec<f64>
where
    F: Fn(u64) -> f64 + Sync,
{
    let results = Mutex::new(vec![0.0f64; trials]);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(trials.max(1));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= trials {
                    break;
                }
                let value = f(base_seed
                    .wrapping_add(i as u64)
                    .wrapping_mul(0x9e3779b97f4a7c15));
                results.lock().expect("trial worker panicked")[i] = value;
            });
        }
    });
    results.into_inner().expect("trial worker panicked")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["k", "error"]);
        t.row(&["8".into(), "1.25".into()]);
        t.row(&["1024".into(), "0.5".into()]);
        let text = t.render();
        assert!(text.contains("== demo =="));
        assert!(text.contains("1024"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn table_rejects_bad_arity() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&["1".into()]);
    }

    #[test]
    fn csv_escapes() {
        let mut t = Table::new("x", &["a"]);
        t.row(&["he,llo".into()]);
        t.row(&["quo\"te".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"he,llo\""));
        assert!(csv.contains("\"quo\"\"te\""));
    }

    #[test]
    fn stats_basic() {
        let s = stats(&[1.0, 2.0, 3.0]);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.std - 1.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        let single = stats(&[5.0]);
        assert_eq!(single.std, 0.0);
    }

    #[test]
    fn parallel_trials_deterministic_and_ordered() {
        let a = parallel_trials(64, 42, |seed| (seed % 1000) as f64);
        let b = parallel_trials(64, 42, |seed| (seed % 1000) as f64);
        assert_eq!(a, b);
        assert_eq!(a.len(), 64);
        // Single trial works too.
        assert_eq!(parallel_trials(1, 7, |_| 3.0), vec![3.0]);
    }

    #[test]
    #[should_panic]
    fn parallel_trials_propagates_a_trial_panic() {
        let poison = 42u64.wrapping_add(5).wrapping_mul(0x9e3779b97f4a7c15);
        parallel_trials(16, 42, |seed| {
            assert_ne!(seed, poison, "trial 5 fails");
            1.0
        });
    }

    #[test]
    fn emit_writes_csv() {
        let dir = std::env::temp_dir().join("dpmg_eval_test_tables");
        let mut t = Table::new("E0 smoke", &["a"]);
        t.row(&["1".into()]);
        t.emit(&dir).unwrap();
        let csv = std::fs::read_to_string(dir.join("e0_smoke.csv")).unwrap();
        assert!(csv.starts_with("a\n"));
    }
}
