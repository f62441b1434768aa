//! Distributed aggregation (Section 7) — sketches computed on many servers,
//! shipped over the wire, and combined under both trust models, with the
//! final releases drawn from the **mechanism registry** and metered by a
//! budget [`Accountant`].
//!
//! Eight worker threads each sketch their own shard of a query-log stream,
//! serialize the summary with the crate's wire format, and send it over a
//! channel to an aggregator thread which:
//!
//! * **untrusted model** — receives PMG-released (already noisy) sketches
//!   and merges them; privacy holds against the aggregator itself;
//! * **trusted model** — receives raw sketches, merges, and releases once
//!   through any registry mechanism — here the Gaussian Sparse Histogram
//!   Mechanism (`"gshm"`, ℓ2-sensitivity √k by Corollary 18), with the
//!   ℓ1 `"merged-laplace"` route released from the *same* merged summary
//!   for comparison, both charged against one privacy budget.
//!
//! ```sh
//! cargo run --release --example distributed_aggregation
//! ```

use dp_misra_gries::core::mechanism::by_name;
use dp_misra_gries::core::merged::release_untrusted;
use dp_misra_gries::prelude::*;
use dp_misra_gries::sketch::merge::merge_tree;
use dp_misra_gries::sketch::serialize::{decode, encode};
use dp_misra_gries::workload::traces::query_log;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::mpsc;

const SERVERS: usize = 8;
const K: usize = 256;

fn main() {
    let params = PrivacyParams::new(0.9, 1e-9).unwrap();

    // --- Per-server shards of a query-log workload. -----------------------
    let shards: Vec<Vec<u64>> = (0..SERVERS)
        .map(|s| {
            let mut rng = StdRng::seed_from_u64(1000 + s as u64);
            query_log(250_000, 50_000, 1.3, 250_000, &mut rng)
        })
        .collect();
    let total: usize = shards.iter().map(Vec::len).sum();
    println!("{SERVERS} servers, {total} queries total");

    // --- Workers sketch their shards and ship serialized summaries. ------
    let (tx, rx) = mpsc::sync_channel::<Vec<u8>>(SERVERS);
    std::thread::scope(|scope| {
        for shard in &shards {
            let tx = tx.clone();
            scope.spawn(move || {
                let mut sketch = MisraGries::new(K).unwrap();
                sketch.extend(shard.iter().copied());
                let bytes = encode(&sketch.summary());
                tx.send(bytes.to_vec()).expect("aggregator alive");
            });
        }
        drop(tx);

        // --- Aggregator thread. ------------------------------------------
        let received: Vec<_> = rx.iter().collect();
        assert_eq!(received.len(), SERVERS);
        let summaries: Vec<_> = received
            .iter()
            .map(|bytes| decode(bytes).expect("valid wire format"))
            .collect();
        println!(
            "aggregator received {} summaries ({} bytes total)",
            summaries.len(),
            received.iter().map(Vec::len).sum::<usize>()
        );

        // Trusted model: merge raw, then release through registry
        // mechanisms — each release metered against one total budget.
        let merged = merge_tree(&summaries).expect("non-empty");
        let spec = MechanismSpec::new(params);
        let mut accountant = Accountant::new(PrivacyParams::new(2.0, 1e-6).unwrap());
        let mut rng = StdRng::seed_from_u64(77);

        let gshm = by_name(&spec, "gshm").unwrap().expect("registry name");
        let trusted = release_metered(gshm.as_ref(), &merged, &mut accountant, &mut rng).unwrap();
        println!(
            "trusted release via {:10} ({}): {} counters",
            gshm.name(),
            gshm.sensitivity_model(),
            trusted.len()
        );

        let laplace = by_name(&spec, "merged-laplace")
            .unwrap()
            .expect("registry name");
        let trusted_l1 =
            release_metered(laplace.as_ref(), &merged, &mut accountant, &mut rng).unwrap();
        println!(
            "trusted release via {:10} ({}): {} counters",
            laplace.name(),
            laplace.sensitivity_model(),
            trusted_l1.len()
        );
        println!(
            "budget after 2 releases: spent {}, ε remaining {:.2}",
            accountant.spent().unwrap(),
            accountant.remaining_epsilon()
        );

        // Untrusted model: re-sketch locally (the workers would in reality
        // release before sending; reconstruct that flow here).
        let sketches: Vec<MisraGries<u64>> = shards
            .iter()
            .map(|shard| {
                let mut s = MisraGries::new(K).unwrap();
                s.extend(shard.iter().copied());
                s
            })
            .collect();
        let untrusted = release_untrusted(&sketches, params, &mut rng).unwrap();
        println!("untrusted release: {} counters", untrusted.len());

        // The global top query must survive both models.
        let top = trusted.by_estimate_desc();
        assert!(!top.is_empty());
        let (top_key, top_est) = (&top[0].0, top[0].1);
        println!("\nglobal top query (trusted): {top_key} ≈ {top_est:.0}");
        assert!(
            untrusted.estimate(top_key) > 0.0,
            "untrusted model must also find the top query"
        );
        println!(
            "same query (untrusted):     {top_key} ≈ {:.0}",
            untrusted.estimate(top_key)
        );
        println!("\ndistributed_aggregation OK");
    });
}
