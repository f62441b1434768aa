//! Determinism and output-order tests.
//!
//! Section 5.2 warns that releasing an associative array in an order that
//! depends on the stream (e.g. hash-table iteration order) silently breaks
//! differential privacy. These tests pin down the two defences the library
//! takes: (i) every release is keyed by a caller-supplied RNG and is a pure
//! function of (sketch, seed); (ii) released histograms iterate in sorted
//! key order regardless of stream order.

use dp_misra_gries::core::baselines::{BkCorrected, ChanThresholded};
use dp_misra_gries::core::mechanism::{registry, MechanismSpec};
use dp_misra_gries::core::pure::PureDpRelease;
use dp_misra_gries::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn sketch_from(stream: &[u64], k: usize) -> MisraGries<u64> {
    let mut s = MisraGries::new(k).unwrap();
    s.extend(stream.iter().copied());
    s
}

#[test]
fn all_mechanisms_are_deterministic_under_seed() {
    let stream: Vec<u64> = (0..100_000u64).map(|i| i % 37).collect();
    let sketch = sketch_from(&stream, 32);
    let params = PrivacyParams::new(1.0, 1e-8).unwrap();

    let pmg = PrivateMisraGries::new(params).unwrap();
    assert_eq!(
        pmg.release(&sketch, &mut StdRng::seed_from_u64(5)),
        pmg.release(&sketch, &mut StdRng::seed_from_u64(5))
    );

    let chan = ChanThresholded::new(params).unwrap();
    assert_eq!(
        chan.release(&sketch, &mut StdRng::seed_from_u64(5)),
        chan.release(&sketch, &mut StdRng::seed_from_u64(5))
    );

    let bk = BkCorrected::new(params).unwrap();
    assert_eq!(
        bk.release(&sketch, &mut StdRng::seed_from_u64(5)),
        bk.release(&sketch, &mut StdRng::seed_from_u64(5))
    );

    let pure = PureDpRelease::new(1.0, 10_000).unwrap();
    assert_eq!(
        pure.release(&sketch, &mut StdRng::seed_from_u64(5)),
        pure.release(&sketch, &mut StdRng::seed_from_u64(5))
    );
}

#[test]
fn every_registry_mechanism_is_bitwise_deterministic_under_seed() {
    // Same seed + same summary ⇒ byte-identical Release, for EVERY release
    // path in the registry (broken baseline included). Guards against
    // hidden RNG-order divergence — e.g. a refactor that reorders noise
    // draws or iterates a hash map — which f64 equality alone would let
    // slip through for values that merely round the same way.
    let stream: Vec<u64> = (0..200_000u64)
        .map(|i| {
            if i % 2 == 0 {
                1 + (i / 2) % 6
            } else {
                50 + i % 400
            }
        })
        .collect();
    let mut sketch = MisraGries::new(48).unwrap();
    sketch.extend(stream.iter().copied());
    let summary = sketch.summary();
    let spec =
        MechanismSpec::new(PrivacyParams::new(0.9, 1e-8).unwrap()).with_broken_baselines(true);
    let mechanisms = registry(&spec).unwrap();
    assert_eq!(mechanisms.len(), 12);
    for mechanism in mechanisms {
        for seed in [1u64, 42, 0xDEAD] {
            let a = mechanism
                .release(&summary, &mut StdRng::seed_from_u64(seed))
                .unwrap();
            let b = mechanism
                .release(&summary, &mut StdRng::seed_from_u64(seed))
                .unwrap();
            let bits = |hist: &PrivateHistogram<u64>| -> Vec<(u64, u64)> {
                hist.iter().map(|(&k, v)| (k, v.to_bits())).collect()
            };
            assert_eq!(
                bits(&a),
                bits(&b),
                "{} diverged under seed {seed}",
                mechanism.name()
            );
            assert_eq!(
                a.threshold().to_bits(),
                b.threshold().to_bits(),
                "{} threshold diverged",
                mechanism.name()
            );
        }
    }
}

#[test]
fn released_iteration_order_is_key_sorted_not_stream_ordered() {
    // Same multiset, two very different arrival orders.
    let mut forward: Vec<u64> = Vec::new();
    for key in [30u64, 10, 20] {
        forward.extend(std::iter::repeat_n(key, 50_000));
    }
    let mut backward = forward.clone();
    backward.reverse();

    let params = PrivacyParams::new(1.0, 1e-8).unwrap();
    let mech = PrivateMisraGries::new(params).unwrap();
    let ha = mech.release(&sketch_from(&forward, 8), &mut StdRng::seed_from_u64(9));
    let hb = mech.release(&sketch_from(&backward, 8), &mut StdRng::seed_from_u64(9));

    let keys_a: Vec<u64> = ha.iter().map(|(k, _)| *k).collect();
    let keys_b: Vec<u64> = hb.iter().map(|(k, _)| *k).collect();
    assert_eq!(keys_a, vec![10, 20, 30]);
    assert_eq!(keys_b, vec![10, 20, 30]);
}

#[test]
fn sketch_state_is_stream_order_sensitive_but_estimates_obey_fact7_anyway() {
    // (Sanity framing: the sketch itself may depend on order — that is
    // fine; the privacy argument constrains the RELEASE, and Fact 7
    // constrains the estimates for every order.)
    let mut a: Vec<u64> = Vec::new();
    for i in 0..10_000u64 {
        a.push(i % 11);
    }
    let mut b = a.clone();
    b.reverse();
    let (sa, sb) = (sketch_from(&a, 4), sketch_from(&b, 4));
    let bound = 10_000 / 5;
    for key in 0..11u64 {
        let f = a.iter().filter(|&&x| x == key).count() as u64;
        for s in [&sa, &sb] {
            assert!(s.count(&key) <= f);
            assert!(s.count(&key) + bound >= f);
        }
    }
}

#[test]
fn service_matches_sequential_reference_bit_for_bit_at_every_shard_count() {
    // The concurrent service (threaded shard workers, batching, channel
    // backpressure) against the single-threaded SequentialServiceReference:
    // same config, same seed, same stream ⇒ every epoch release, query
    // answer, and budget charge must be byte-identical, at 1/2/4/8 shards.
    use dp_misra_gries::core::mechanism::{GshmMechanism, MergedLaplaceMechanism};

    let params = PrivacyParams::new(0.9, 1e-8).unwrap();
    let budget = PrivacyParams::new(50.0, 1e-4).unwrap();
    let epochs: Vec<Vec<u64>> = (0..4u64)
        .map(|e| {
            (0..12_000u64)
                .map(|i| {
                    if i % 2 == 0 {
                        1 + (i / 2) % 4
                    } else {
                        (i * (e + 7)) % 900
                    }
                })
                .collect()
        })
        .collect();

    let hist_bits = |h: &PrivateHistogram<u64>| -> Vec<(u64, u64)> {
        h.iter().map(|(&k, v)| (k, v.to_bits())).collect()
    };
    for shards in [1usize, 2, 4, 8] {
        for mech_name in ["merged-laplace", "gshm"] {
            let mechanism = || -> Box<dyn ReleaseMechanism<u64>> {
                match mech_name {
                    "merged-laplace" => Box::new(MergedLaplaceMechanism::new(params).unwrap()),
                    _ => Box::new(GshmMechanism::new(params).unwrap()),
                }
            };
            let seed = 0xD1FF ^ shards as u64;
            let config = ServiceConfig::new(shards, 32).with_batch_size(173);
            let mut svc = DpmgService::new(config, mechanism(), budget, seed).unwrap();
            let mut oracle =
                SequentialServiceReference::new(config, mechanism(), budget, seed).unwrap();
            for (i, epoch) in epochs.iter().enumerate() {
                svc.ingest_from(epoch.iter().copied()).unwrap();
                oracle.ingest_from(epoch.iter().copied()).unwrap();
                let snap_svc = svc.end_epoch().unwrap();
                let snap_ref = oracle.end_epoch().unwrap();

                // Epoch releases bit-for-bit (pre-noise input AND noisy
                // output), via the public transcripts.
                let (a, b) = (&svc.transcript()[i], &oracle.transcript()[i]);
                assert_eq!(
                    a.pre_noise, b.pre_noise,
                    "{mech_name}/{shards} shards, epoch {i}: pre-noise summary diverged"
                );
                assert_eq!(
                    hist_bits(&a.histogram),
                    hist_bits(&b.histogram),
                    "{mech_name}/{shards} shards, epoch {i}: released histogram diverged"
                );
                assert_eq!(
                    a.histogram.threshold().to_bits(),
                    b.histogram.threshold().to_bits()
                );
                assert_eq!((a.epoch, a.items), (b.epoch, b.items));

                // Query answers identical after every epoch.
                assert_eq!(snap_svc.epoch, snap_ref.epoch);
                assert_eq!(snap_svc.estimates.len(), snap_ref.estimates.len());
                for (key, value) in &snap_svc.estimates {
                    assert_eq!(
                        value.to_bits(),
                        snap_ref.estimates[key].to_bits(),
                        "{mech_name}/{shards} shards, epoch {i}: query for {key} diverged"
                    );
                }
                assert_eq!(svc.top_k(8), oracle.top_k(8));
            }
            // And the budget arithmetic marched in lockstep.
            assert_eq!(svc.accountant().charges(), oracle.accountant().charges());
            assert_eq!(
                svc.accountant().remaining_epsilon().to_bits(),
                oracle.accountant().remaining_epsilon().to_bits()
            );
        }
    }
}

#[test]
fn live_reshard_1_2_8_matches_sequential_reference_bit_for_bit() {
    // Elastic resharding 1 → 2 → 8 (plus a mid-epoch shrink to 4 that
    // exercises the carry merge) must not perturb a single bit of any
    // release, query answer, or budget charge relative to the sequential
    // oracle running the identical schedule: the reshard re-splits the
    // key-hash routing and merges retired generations (Lemma 17/29), and
    // the merged sensitivity is shape-independent (Corollary 18), so the
    // release path sees the same structure either way.
    use dp_misra_gries::core::mechanism::{GshmMechanism, MergedLaplaceMechanism};

    let params = PrivacyParams::new(0.9, 1e-8).unwrap();
    let budget = PrivacyParams::new(50.0, 1e-4).unwrap();
    let stream: Vec<u64> = (0..30_000u64)
        .map(|i| if i % 2 == 0 { 1 + (i / 2) % 4 } else { i % 701 })
        .collect();
    let hist_bits = |h: &PrivateHistogram<u64>| -> Vec<(u64, u64)> {
        h.iter().map(|(&k, v)| (k, v.to_bits())).collect()
    };

    for mech_name in ["merged-laplace", "gshm"] {
        let mechanism = || -> Box<dyn ReleaseMechanism<u64>> {
            match mech_name {
                "merged-laplace" => Box::new(MergedLaplaceMechanism::new(params).unwrap()),
                _ => Box::new(GshmMechanism::new(params).unwrap()),
            }
        };
        let config = ServiceConfig::new(1, 32).with_batch_size(173);
        let mut svc = DpmgService::new(config, mechanism(), budget, 0xE1A5).unwrap();
        let mut oracle =
            SequentialServiceReference::new(config, mechanism(), budget, 0xE1A5).unwrap();

        // (epoch stream, width to reshard to *before* the epoch, optional
        // mid-epoch width switch at the half-way item.)
        let schedule: [(usize, Option<usize>); 3] = [(1, None), (2, None), (8, Some(4))];
        let mut cursor = 0usize;
        for (i, (width, mid_width)) in schedule.into_iter().enumerate() {
            svc.reshard(width).unwrap();
            oracle.reshard(width).unwrap();
            let epoch = &stream[cursor..cursor + 10_000];
            cursor += 10_000;
            let (head, tail) = match mid_width {
                Some(_) => epoch.split_at(5_000),
                None => (epoch, &[][..]),
            };
            svc.ingest_from(head.iter().copied()).unwrap();
            oracle.ingest_from(head.iter().copied()).unwrap();
            if let Some(mid) = mid_width {
                // Items in flight: this reshard merges the live generation
                // into the carry on both sides.
                svc.reshard(mid).unwrap();
                oracle.reshard(mid).unwrap();
                svc.ingest_from(tail.iter().copied()).unwrap();
                oracle.ingest_from(tail.iter().copied()).unwrap();
            }
            let snap_svc = svc.end_epoch().unwrap();
            let snap_ref = oracle.end_epoch().unwrap();
            let (a, b) = (&svc.transcript()[i], &oracle.transcript()[i]);
            assert_eq!(
                a.pre_noise, b.pre_noise,
                "{mech_name} epoch {i}: pre-noise summary diverged across reshard"
            );
            assert_eq!(
                hist_bits(&a.histogram),
                hist_bits(&b.histogram),
                "{mech_name} epoch {i}: released histogram diverged across reshard"
            );
            assert_eq!((a.epoch, a.items), (b.epoch, b.items));
            assert_eq!(a.items, 10_000, "reshard lost items");
            for (key, value) in &snap_svc.estimates {
                assert_eq!(
                    value.to_bits(),
                    snap_ref.estimates[key].to_bits(),
                    "{mech_name} epoch {i}: query for {key} diverged"
                );
            }
            assert_eq!(snap_svc.estimates.len(), snap_ref.estimates.len());
        }
        assert_eq!(svc.accountant().charges(), oracle.accountant().charges());
        assert_eq!(
            svc.accountant().remaining_epsilon().to_bits(),
            oracle.accountant().remaining_epsilon().to_bits()
        );
    }
}

#[test]
fn fleet_release_matches_single_process_reference_for_every_crash_pattern() {
    // The multi-process fleet (here: worker threads over real TCP loopback
    // sockets speaking the framed DPFR protocol) against the single-process
    // sharded pipeline: same stream, same k, same mechanism, same seed ⇒ the
    // fleet's one trusted release must be byte-identical to releasing the
    // merge of the corresponding single-process per-shard summaries — for
    // every worker count and every crash pattern. A crashed worker's block
    // simply drops out of both sides: the fleet absorbs the torn report, the
    // reference merges the surviving shard subset.
    use dp_misra_gries::core::mechanism::release_merged_metered;
    use dp_misra_gries::fleet::{
        assemble, read_hello, read_report, release_fleet, run_worker, write_go, CrashPoint,
        FleetConfig, WorkerSpec,
    };
    use dp_misra_gries::sketch::merge::merge_tree;
    use dp_misra_gries::sketch::Summary;
    use std::net::{TcpListener, TcpStream};
    use std::time::Duration;

    let params = PrivacyParams::new(0.9, 1e-8).unwrap();
    let spec = MechanismSpec::new(params);
    let hist_bits = |h: &PrivateHistogram<u64>| -> Vec<(u64, u64)> {
        h.iter().map(|(&k, v)| (k, v.to_bits())).collect()
    };

    // (workers, shards_per_worker) × crash patterns (worker id, point).
    let shapes: [(usize, usize); 5] = [(1, 1), (2, 1), (4, 1), (8, 1), (2, 4)];
    let patterns: [&[(usize, CrashPoint)]; 5] = [
        &[],
        &[(0, CrashPoint::BeforeHello)],
        &[(1, CrashPoint::MidFrame)],
        &[(1, CrashPoint::AfterSummaries(0))],
        &[(0, CrashPoint::MidFrame), (1, CrashPoint::BeforeHello)],
    ];

    for (workers, shards_per_worker) in shapes {
        let total = workers * shards_per_worker;
        let template = WorkerSpec {
            worker_id: 0,
            workers,
            shards_per_worker,
            k: 32,
            crash: None,
            stream_n: 20_000,
            universe: 1 << 12,
            skew: 1.1,
            seed: 0xF1EE7 ^ total as u64,
        };
        let stream = template.generate_stream();
        let (per_shard, _) =
            dp_misra_gries::pipeline::sequential_sharded_reference(&stream, total, template.k);

        for pattern in patterns {
            if pattern.iter().any(|(w, _)| *w >= workers) {
                continue;
            }
            // Fleet side: one TCP connection per worker, full framed
            // protocol with a GO barrier after all HELLOs.
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let mut ws = template.clone();
                    ws.worker_id = w;
                    ws.crash = pattern
                        .iter()
                        .find(|(pw, _)| *pw == w)
                        .map(|(_, point)| *point);
                    let stream = stream.clone();
                    std::thread::spawn(move || {
                        let sock = TcpStream::connect(addr).unwrap();
                        let mut go = sock.try_clone().unwrap();
                        let mut out = std::io::BufWriter::new(sock);
                        let _ = run_worker(&ws, &stream, &mut go, &mut out);
                    })
                })
                .collect();

            let mut conns: Vec<_> = (0..workers)
                .map(|_| {
                    let (sock, _) = listener.accept().unwrap();
                    sock.set_read_timeout(Some(Duration::from_secs(20)))
                        .unwrap();
                    sock
                })
                .collect();
            // HELLO barrier: a BeforeHello worker just closes its socket.
            let hellos: Vec<_> = conns.iter_mut().map(read_hello).collect();
            for (sock, hello) in conns.iter_mut().zip(&hellos) {
                if hello.is_ok() {
                    write_go(sock).unwrap();
                }
            }
            let mut results = Vec::with_capacity(workers);
            for (mut sock, hello) in conns.into_iter().zip(hellos) {
                results.push((hello.and_then(|h| read_report(&mut sock, h)), 1));
            }
            // Connections arrive in arbitrary order; assemble() wants them
            // indexed by worker id, which a completed report announces in
            // its HELLO. Failed reports fill the remaining slots.
            let mut by_worker: Vec<Option<_>> = (0..workers).map(|_| None).collect();
            let mut errors = Vec::new();
            for (r, n) in results {
                match r {
                    Ok(report) => {
                        let w = report.hello.worker_id as usize;
                        by_worker[w] = Some((Ok(report), n));
                    }
                    Err(e) => errors.push((Err(e), n)),
                }
            }
            for slot in by_worker.iter_mut() {
                if slot.is_none() {
                    *slot = errors.pop();
                }
            }
            let results: Vec<_> = by_worker.into_iter().map(Option::unwrap).collect();
            for h in handles {
                h.join().unwrap();
            }

            let config = FleetConfig {
                workers,
                shards_per_worker,
                k: template.k,
                deadline: Duration::from_secs(20),
                retries: 0,
                coverage_floor: 0.0,
            };
            let report = assemble(&config, results, Duration::ZERO).unwrap();

            // Reference side: merge the surviving shard subset in order.
            let crashed: Vec<usize> = pattern.iter().map(|(w, _)| *w).collect();
            let surviving: Vec<Summary<u64>> = per_shard
                .iter()
                .enumerate()
                .filter(|(shard, _)| !crashed.contains(&(shard / shards_per_worker)))
                .map(|(_, s)| s.clone())
                .collect();
            assert_eq!(report.covered_shards, surviving.len());
            if surviving.is_empty() {
                continue;
            }
            assert_eq!(
                report.merged,
                merge_tree(&surviving).unwrap(),
                "{workers}×{shards_per_worker} pattern {pattern:?}: merged summary diverged"
            );

            // The one trusted release, bit for bit, both mechanisms.
            for mech_name in ["gshm", "merged-laplace"] {
                let mechanism = dp_misra_gries::core::mechanism::by_name(&spec, mech_name)
                    .unwrap()
                    .unwrap();
                let seed = 0xC0FFEE ^ workers as u64;
                let mut fleet_acc = Accountant::new(params);
                let fleet_release = release_fleet(
                    &report,
                    0.0,
                    mechanism.as_ref(),
                    &mut fleet_acc,
                    &mut StdRng::seed_from_u64(seed),
                )
                .unwrap();
                let mut ref_acc = Accountant::new(params);
                let reference = release_merged_metered(
                    mechanism.as_ref(),
                    &merge_tree(&surviving).unwrap(),
                    &mut ref_acc,
                    &mut StdRng::seed_from_u64(seed),
                )
                .unwrap();
                assert_eq!(
                    hist_bits(&fleet_release.histogram),
                    hist_bits(&reference),
                    "{workers}×{shards_per_worker} pattern {pattern:?} via {mech_name}: \
                     release diverged"
                );
                assert_eq!(
                    fleet_release.histogram.threshold().to_bits(),
                    reference.threshold().to_bits()
                );
                assert_eq!(fleet_acc.charges(), ref_acc.charges());
            }
        }
    }
}

#[test]
fn independent_releases_differ() {
    // Releasing twice with different seeds must (overwhelmingly) differ —
    // guards against accidentally caching noise.
    let stream: Vec<u64> = vec![5; 100_000];
    let sketch = sketch_from(&stream, 8);
    let mech = PrivateMisraGries::new(PrivacyParams::new(1.0, 1e-8).unwrap()).unwrap();
    let a = mech.release(&sketch, &mut StdRng::seed_from_u64(1));
    let b = mech.release(&sketch, &mut StdRng::seed_from_u64(2));
    assert_ne!(a.estimate(&5), b.estimate(&5));
}

#[test]
fn windowed_service_matches_reference_bit_for_bit() {
    // Windowed mode (W = 2) over a key-churn scenario: the concurrent
    // service at 1/2/4 shards against the single-threaded
    // SequentialServiceReference. Every per-window merged summary,
    // released histogram, query answer, and budget charge must be
    // byte-identical — the window ring lives in the shared epoch core, so
    // any divergence here means worker scheduling leaked into release
    // order.
    use dp_misra_gries::core::mechanism::MergedLaplaceMechanism;
    use dp_misra_gries::workload::scenarios::Scenario;

    let params = PrivacyParams::new(0.9, 1e-8).unwrap();
    let budget = PrivacyParams::new(50.0, 1e-4).unwrap();
    let churn = Scenario::KeyChurn {
        n: 48_000,
        d: 600,
        s: 1.2,
        period: 12_000,
        head: 20,
    }
    .generate(0x71ED);
    let epochs: Vec<&[u64]> = churn.chunks(12_000).collect();

    let hist_bits = |h: &PrivateHistogram<u64>| -> Vec<(u64, u64)> {
        h.iter().map(|(&k, v)| (k, v.to_bits())).collect()
    };
    for shards in [1usize, 2, 4] {
        let seed = 0x5EED ^ shards as u64;
        let mechanism = || -> Box<dyn ReleaseMechanism<u64>> {
            Box::new(MergedLaplaceMechanism::new(params).unwrap())
        };
        let config = ServiceConfig::new(shards, 32)
            .with_batch_size(211)
            .with_mode(ServiceMode::Windowed { window_epochs: 2 });
        let mut oracle =
            SequentialServiceReference::new(config, mechanism(), budget, seed).unwrap();
        let mut svc = DpmgService::new(config, mechanism(), budget, seed).unwrap();
        for (i, epoch) in epochs.iter().enumerate() {
            oracle.ingest_from(epoch.iter().copied()).unwrap();
            svc.ingest_from(epoch.iter().copied()).unwrap();
            oracle.end_epoch().unwrap();
            svc.end_epoch().unwrap();
            let (o, r) = (&oracle.transcript()[i], &svc.transcript()[i]);
            assert_eq!(
                o.pre_noise, r.pre_noise,
                "{shards} shards, window {i}: merged summary diverged"
            );
            assert_eq!(
                hist_bits(&o.histogram),
                hist_bits(&r.histogram),
                "{shards} shards, window {i}: release diverged"
            );
            assert_eq!(svc.top_k(8), oracle.top_k(8));
        }
        assert_eq!(svc.accountant().charges(), oracle.accountant().charges());
        assert_eq!(
            svc.accountant().remaining_epsilon().to_bits(),
            oracle.accountant().remaining_epsilon().to_bits()
        );
    }
}
