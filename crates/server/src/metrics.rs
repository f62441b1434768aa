//! Request metrics for the `/metrics` endpoint: the whole per-request
//! path is lock-free atomics — counters and the latency sample ring
//! alike — and quantiles come from that fixed-size ring so the
//! endpoint's cost is bounded no matter how long the server runs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Latency samples kept for quantile estimation (a power of two so the
/// ring index is a mask).
const LATENCY_RING: usize = 4096;

/// Status-code classes tracked individually.
const TRACKED_STATUS: [u16; 9] = [200, 400, 404, 405, 413, 429, 500, 501, 503];

/// Aggregated server metrics; cheap to update per request.
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    requests_total: AtomicU64,
    by_status: [AtomicU64; TRACKED_STATUS.len()],
    items_ingested: AtomicU64,
    epochs_ended: AtomicU64,
    latency_count: AtomicU64,
    // One atomic slot per sample: `record` was the only per-request path
    // still taking a Mutex, which serialized every worker thread through
    // one lock just to store a latency sample. Relaxed per-slot stores are
    // enough — each load sees either the old or the new sample of a racing
    // overwrite, both genuinely observed latencies, so the quantiles stay
    // meaningful without any cross-slot ordering.
    latencies_us: Vec<AtomicU64>,
}

impl Metrics {
    /// Fresh metrics; uptime starts now.
    pub fn new() -> Self {
        Self {
            started: Instant::now(),
            requests_total: AtomicU64::new(0),
            by_status: Default::default(),
            items_ingested: AtomicU64::new(0),
            epochs_ended: AtomicU64::new(0),
            latency_count: AtomicU64::new(0),
            latencies_us: (0..LATENCY_RING).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Records one served request.
    pub fn record(&self, status: u16, latency_us: u64) {
        self.requests_total.fetch_add(1, Ordering::Relaxed);
        if let Some(i) = TRACKED_STATUS.iter().position(|&s| s == status) {
            self.by_status[i].fetch_add(1, Ordering::Relaxed);
        }
        let n = self.latency_count.fetch_add(1, Ordering::Relaxed);
        self.latencies_us[(n as usize) & (LATENCY_RING - 1)].store(latency_us, Ordering::Relaxed);
    }

    /// Adds `n` to the ingested-items counter.
    pub fn add_items(&self, n: usize) {
        self.items_ingested.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Counts one completed epoch release.
    pub fn add_epoch(&self) {
        self.epochs_ended.fetch_add(1, Ordering::Relaxed);
    }

    /// Total requests served.
    pub fn requests_total(&self) -> u64 {
        self.requests_total.load(Ordering::Relaxed)
    }

    /// Total items accepted through `/ingest`.
    pub fn items_ingested(&self) -> u64 {
        self.items_ingested.load(Ordering::Relaxed)
    }

    /// `(p50, p99)` request latency in microseconds over the sample ring.
    pub fn latency_quantiles_us(&self) -> (u64, u64) {
        let count = self.latency_count.load(Ordering::Relaxed) as usize;
        if count == 0 {
            return (0, 0);
        }
        let mut samples: Vec<u64> = self.latencies_us[..count.min(LATENCY_RING)]
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .collect();
        samples.sort_unstable();
        let q = |frac: f64| -> u64 {
            let idx = ((samples.len() - 1) as f64 * frac).round() as usize;
            samples[idx]
        };
        (q(0.50), q(0.99))
    }

    /// Renders the plain-text exposition body.
    pub fn render(&self, epochs_completed: u64, remaining_epsilon: f64, tenants: usize) -> String {
        let uptime = self.started.elapsed().as_secs_f64().max(1e-9);
        let items = self.items_ingested();
        let (p50, p99) = self.latency_quantiles_us();
        let mut out = String::with_capacity(512);
        out.push_str(&format!(
            "dpmg_uptime_seconds {uptime:.3}\ndpmg_requests_total {}\n",
            self.requests_total()
        ));
        for (i, status) in TRACKED_STATUS.iter().enumerate() {
            out.push_str(&format!(
                "dpmg_requests{{status=\"{status}\"}} {}\n",
                self.by_status[i].load(Ordering::Relaxed)
            ));
        }
        out.push_str(&format!(
            "dpmg_request_latency_p50_us {p50}\ndpmg_request_latency_p99_us {p99}\n"
        ));
        out.push_str(&format!(
            "dpmg_items_ingested_total {items}\ndpmg_ingest_rate_items_per_s {:.1}\n",
            items as f64 / uptime
        ));
        out.push_str(&format!(
            "dpmg_epochs_ended_total {}\ndpmg_epochs_completed {epochs_completed}\n",
            self.epochs_ended.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "dpmg_budget_remaining_epsilon {remaining_epsilon}\ndpmg_tenants {tenants}\n"
        ));
        out
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_over_known_samples() {
        let m = Metrics::new();
        for us in 1..=100u64 {
            m.record(200, us);
        }
        let (p50, p99) = m.latency_quantiles_us();
        assert!((49..=51).contains(&p50), "p50 = {p50}");
        assert!((98..=100).contains(&p99), "p99 = {p99}");
    }

    #[test]
    fn render_contains_every_series() {
        let m = Metrics::new();
        m.record(200, 10);
        m.record(429, 20);
        m.add_items(500);
        m.add_epoch();
        let text = m.render(3, 1.5, 2);
        for needle in [
            "dpmg_requests_total 2",
            "dpmg_requests{status=\"200\"} 1",
            "dpmg_requests{status=\"429\"} 1",
            "dpmg_request_latency_p50_us",
            "dpmg_request_latency_p99_us",
            "dpmg_items_ingested_total 500",
            "dpmg_ingest_rate_items_per_s",
            "dpmg_epochs_ended_total 1",
            "dpmg_epochs_completed 3",
            "dpmg_budget_remaining_epsilon 1.5",
            "dpmg_tenants 2",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn concurrent_recorders_never_block_and_quantiles_stay_sane() {
        let m = std::sync::Arc::new(Metrics::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let m = m.clone();
                std::thread::spawn(move || {
                    for i in 0..2_000u64 {
                        m.record(200, (t * 2_000 + i) % 100);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(m.requests_total(), 8_000);
        let (p50, p99) = m.latency_quantiles_us();
        assert!(p50 < 100, "p50 = {p50}");
        assert!(p99 < 100, "p99 = {p99}");
    }

    #[test]
    fn ring_wraps_without_panicking() {
        let m = Metrics::new();
        for i in 0..(LATENCY_RING as u64 + 100) {
            m.record(200, i % 50);
        }
        let (p50, _) = m.latency_quantiles_us();
        assert!(p50 < 50);
    }
}
