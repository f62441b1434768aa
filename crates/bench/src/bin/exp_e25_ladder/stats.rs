//! The pure arithmetic of the benchmark: percentiles and their sample
//! support, the input digest, metric-name validation, windowed
//! throughput, open-loop lateness and backlog accounting, and the ladder's
//! self-time and share derivation.

/// Nearest rank of the `permille`‰ percentile among `n` samples (1-based).
fn rank(n: usize, permille: u64) -> u64 {
    (permille * n as u64).div_ceil(1000).max(1)
}

/// Samples strictly above the `permille`‰ percentile of `n` samples.
pub fn beyond(n: usize, permille: u64) -> u64 {
    (n as u64).saturating_sub(rank(n, permille))
}

/// Nearest-rank percentile of an ascending `sorted` sample; `permille` is
/// the percentile in tenths of a percent (p50 = 500, p99 = 990).
pub fn percentile(sorted: &[f64], permille: u64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[(rank(sorted.len(), permille) - 1) as usize]
}

/// The highest tail percentile (in ‰) that has at least 10 samples beyond
/// it; the median when even that is unsupported.
pub fn tail_permille(n: usize) -> u64 {
    [999, 990, 950, 900, 750]
        .into_iter()
        .find(|&p| beyond(n, p) >= 10)
        .unwrap_or(500)
}

/// Label of a percentile for metric names: 990 → "p99", 999 → "p99.9".
pub fn label(permille: u64) -> String {
    if permille % 10 == 0 {
        format!("p{}", permille / 10)
    } else {
        format!("p{}.{}", permille / 10, permille % 10)
    }
}

/// Sorts a sample ascending (timings are finite).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 500)
}

/// Metric names are 1–64 characters of `[A-Za-z0-9_.-]`, starting with a
/// letter or digit.
pub fn valid_name(name: &str) -> bool {
    let bytes = name.as_bytes();
    !bytes.is_empty()
        && bytes.len() <= 64
        && bytes[0].is_ascii_alphanumeric()
        && bytes
            .iter()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// 64-bit FNV-1a over little-endian words: the input digest two commits
/// compare to show they ran the same input.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn write_u64(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Throughput over consecutive windows of `ops` operations that tile a
/// phase: each window's items ÷ the time from the previous window's end
/// (the phase start, 0, for the first) to the end of its last operation.
/// `ends` are seconds from the phase start; a partial last window is
/// dropped.
pub fn window_rates(ends: &[f64], items: &[u64], ops: usize) -> Vec<f64> {
    assert!(ends.len() == items.len() && ops > 0);
    let mut from = 0.0;
    ends.chunks_exact(ops)
        .zip(items.chunks_exact(ops))
        .map(|(ends, items)| {
            let to = ends[ops - 1];
            let rate = items.iter().sum::<u64>() as f64 / (to - from);
            from = to;
            rate
        })
        .collect()
}

/// Open-loop accounting over one connection whose responses arrive in
/// send order. All times are seconds from one origin. Returns each
/// request's lateness (`sent − due`) and the largest number of requests
/// sent but not yet answered at any instant.
pub fn open_loop(due: &[f64], sent: &[f64], received: &[f64]) -> (Vec<f64>, u64) {
    assert!(due.len() == sent.len() && sent.len() == received.len());
    let lag = due.iter().zip(sent).map(|(d, s)| s - d).collect();
    let (mut answered, mut backlog_max) = (0usize, 0u64);
    for (i, &t) in sent.iter().enumerate() {
        while answered < received.len() && received[answered] < t {
            answered += 1;
        }
        backlog_max = backlog_max.max((i + 1 - answered) as u64);
    }
    (lag, backlog_max)
}

/// The layers of the measured path, bottom first; the ladder has one rung
/// per layer.
const LAYERS: [&str; 6] = ["sketch", "pipeline", "core", "service", "wal", "server"];

/// Seconds each rung spent replaying the measured operations. `socket` is
/// the live-server rung, the top of the `server` layer.
pub struct Rungs {
    pub sketch: f64,
    pub pipeline: f64,
    pub core: f64,
    pub service: f64,
    pub wal: f64,
    pub socket: f64,
}

impl Rungs {
    /// Self time per layer, in [`LAYERS`] order: a rung's time minus the
    /// rungs directly beneath it. The pipeline runs the sketch, the
    /// service runs the pipeline and the release core, the WAL runs the
    /// service, and the live server runs the WAL.
    pub fn self_times(&self) -> [f64; 6] {
        [
            self.sketch,
            self.pipeline - self.sketch,
            self.core,
            self.service - self.pipeline - self.core,
            self.wal - self.service,
            self.socket - self.wal,
        ]
    }
}

/// Each layer's share of the end-to-end `wall`, for the `on_path` lowest
/// layers a workload goes through (the others get 0), plus the
/// unattributed rest; the shares sum to 1.
pub fn shares(self_times: &[f64; 6], wall: f64, on_path: usize) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = LAYERS
        .iter()
        .zip(self_times)
        .enumerate()
        .map(|(i, (layer, t))| {
            let share = if i < on_path { t / wall } else { 0.0 };
            (format!("{layer}.share"), share)
        })
        .collect();
    let attributed: f64 = out.iter().map(|(_, s)| s).sum();
    out.push(("unattributed.share".to_string(), 1.0 - attributed));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(beyond(1000, 990), 10);
        assert_eq!(beyond(999, 990), 9);
        assert_eq!(tail_permille(10_000), 999);
        assert_eq!(tail_permille(1000), 990);
        assert_eq!(tail_permille(999), 950);
        assert_eq!(tail_permille(200), 950);
        assert_eq!(tail_permille(100), 900);
        assert_eq!(tail_permille(40), 750);
        assert_eq!(tail_permille(5), 500);
        assert_eq!(label(990), "p99");
        assert_eq!(label(999), "p99.9");
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sample: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sample, 500), 50.0);
        assert_eq!(percentile(&sample, 990), 99.0);
        assert_eq!(percentile(&[7.0], 990), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn open_loop_counts_lateness_and_backlog() {
        // Three requests due every 1 s; the second goes out 0.5 s late and
        // the first answer arrives only after the third was sent.
        let due = [0.0, 1.0, 2.0];
        let sent = [0.0, 1.5, 2.0];
        let received = [2.5, 2.6, 2.7];
        let (lag, backlog) = open_loop(&due, &sent, &received);
        assert_eq!(lag, vec![0.0, 0.5, 0.0]);
        assert_eq!(backlog, 3);
        // Answered before the next send: never more than one in flight.
        let (_, backlog) = open_loop(&due, &due, &[0.1, 1.1, 2.1]);
        assert_eq!(backlog, 1);
    }

    #[test]
    fn windows_tile_the_phase() {
        // Four ops of 10 items ending at 1, 2, 4 and 5 s, then a partial
        // window: windows of two ops span [0, 2] and [2, 5].
        let ends = [1.0, 2.0, 4.0, 5.0, 6.0];
        let items = [10, 10, 10, 0, 10];
        assert_eq!(window_rates(&ends, &items, 2), vec![10.0, 10.0 / 3.0]);
        assert_eq!(window_rates(&ends, &items, 1)[3], 0.0);
        assert!(window_rates(&ends[..1], &items[..1], 2).is_empty());
    }

    #[test]
    fn self_times_and_shares_sum_to_one() {
        let rungs = Rungs {
            sketch: 1.0,
            pipeline: 1.5,
            core: 0.25,
            service: 2.0,
            wal: 2.5,
            socket: 3.5,
        };
        assert_eq!(rungs.self_times(), [1.0, 0.5, 0.25, 0.25, 0.5, 1.0]);
        let all = shares(&rungs.self_times(), 4.0, 6);
        assert_eq!(all.len(), 7);
        assert_eq!(all[0], ("sketch.share".to_string(), 0.25));
        assert_eq!(all[6], ("unattributed.share".to_string(), 0.125));
        let library = shares(&rungs.self_times(), 2.0, 4);
        assert_eq!(library[4].1, 0.0);
        assert_eq!(library[5].1, 0.0);
        for set in [all, library] {
            let total: f64 = set.iter().map(|(_, s)| s).sum();
            assert!((total - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn metric_names_are_validated() {
        for good in ["setup_s", "server.parse_us_p50", "a-b.c_9", "9lives"] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "µs", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }
}
