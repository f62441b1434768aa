//! Behavioural tests of the epoch-driven service: epoch clock, budget
//! refusal, mode semantics, and the multi-shard sensitivity guard.

use dpmg_core::mechanism::{
    registry_generic, GshmMechanism, MechanismSpec, MergedLaplaceMechanism, ReleaseError,
    ReleaseMechanism, SensitivityModel,
};
use dpmg_noise::accounting::PrivacyParams;
use dpmg_service::{
    DpmgService, EpochRelease, SequentialServiceReference, ServiceConfig, ServiceError, ServiceMode,
};

fn params() -> PrivacyParams {
    PrivacyParams::new(0.5, 1e-8).unwrap()
}

fn laplace_mech() -> Box<MergedLaplaceMechanism> {
    Box::new(MergedLaplaceMechanism::new(params()).unwrap())
}

fn big_budget() -> PrivacyParams {
    PrivacyParams::new(100.0, 1e-4).unwrap()
}

/// A stream with heavy keys 1..=4 on the even positions.
fn stream(n: u64) -> impl Iterator<Item = u64> {
    (0..n).map(|i| {
        if i % 2 == 0 {
            1 + (i / 2) % 4
        } else {
            100 + i % 300
        }
    })
}

#[test]
fn epoch_clock_fires_by_item_count() {
    let config = ServiceConfig::new(2, 64).with_epoch_len(5_000);
    let mut svc = DpmgService::new(config, laplace_mech(), big_budget(), 7).unwrap();
    svc.ingest_from(stream(17_500)).unwrap();
    assert_eq!(svc.completed_epochs(), 3);
    assert_eq!(svc.open_epoch_items(), 2_500);
    assert_eq!(svc.released_items(), 15_000);
    assert_eq!(svc.accountant().charges(), 3);
    // The open epoch is not yet queryable; completed ones are.
    assert_eq!(svc.latest().epoch, 3);
    assert_eq!(svc.latest().items, 15_000);
}

#[test]
fn explicit_ticks_and_cumulative_queries() {
    let config = ServiceConfig::new(4, 64);
    let mut svc = DpmgService::new(config, laplace_mech(), big_budget(), 3).unwrap();
    let mut last = 0.0;
    for epoch in 1..=4u64 {
        // 7500 occurrences of each heavy key per epoch — comfortably above
        // the merged-laplace threshold ≈ 2800 at (ε=0.5, δ=1e-8, k=64).
        svc.ingest_from(stream(60_000)).unwrap();
        let snap = svc.end_epoch().unwrap();
        assert_eq!(snap.epoch, epoch);
        // Cumulative estimate of a heavy key grows roughly linearly.
        let est = snap.point_query(&1);
        assert!(
            est > last + 1_000.0,
            "epoch {epoch}: estimate {est} did not grow past {last}"
        );
        last = est;
        // top_k surfaces the four heavy keys.
        let top: Vec<u64> = svc.top_k(4).into_iter().map(|(k, _)| k).collect();
        let mut sorted = top.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 2, 3, 4], "epoch {epoch}: top-4 = {top:?}");
    }
    assert_eq!(svc.transcript().len(), 4);
    assert_eq!(svc.transcript()[2].epoch, 3);
    assert_eq!(svc.transcript()[2].items, 60_000);
}

#[test]
fn transcript_keeps_the_last_16_releases_oldest_first() {
    let releases = 16 + 5;
    let epochs = |transcript: &[EpochRelease<u64>]| -> Vec<u64> {
        transcript.iter().map(|release| release.epoch).collect()
    };
    for mode in [
        ServiceMode::Independent,
        ServiceMode::Continual { max_epochs: 32 },
        ServiceMode::Windowed { window_epochs: 3 },
    ] {
        let config = ServiceConfig::new(2, 16).with_mode(mode);
        let mut svc = DpmgService::new(config, laplace_mech(), big_budget(), 5).unwrap();
        let mut oracle =
            SequentialServiceReference::new(config, laplace_mech(), big_budget(), 5).unwrap();
        for _ in 0..releases {
            svc.ingest_from(stream(1_000)).unwrap();
            oracle.ingest_from(stream(1_000)).unwrap();
            svc.end_epoch().unwrap();
            oracle.end_epoch().unwrap();
        }
        let completed = svc.completed_epochs();
        assert_eq!(completed, releases, "{mode:?}");
        assert_eq!(oracle.completed_epochs(), releases, "{mode:?}");
        let last_16: Vec<u64> = (completed - 15..=completed).collect();
        assert_eq!(svc.transcript().len(), 16, "{mode:?}");
        assert_eq!(epochs(svc.transcript()), last_16, "{mode:?}");
        assert_eq!(oracle.transcript().len(), 16, "{mode:?}");
        assert_eq!(epochs(oracle.transcript()), last_16, "{mode:?}");
        assert!(svc.transcript().iter().all(|r| r.items == 1_000));
    }
}

#[test]
fn budget_refuses_epoch_n_plus_1_uncharged_and_data_survives() {
    // Budget affords exactly two ε=0.5 epochs.
    let budget = PrivacyParams::new(1.0, 1e-6).unwrap();
    let config = ServiceConfig::new(2, 32);
    let mut svc = DpmgService::new(config, laplace_mech(), budget, 11).unwrap();
    svc.ingest_from(stream(20_000)).unwrap();
    svc.end_epoch().unwrap();
    svc.ingest_from(stream(20_000)).unwrap();
    svc.end_epoch().unwrap();
    assert_eq!(svc.accountant().charges(), 2);

    // Epoch 3 is refused, uncharged, and the epoch stays open.
    svc.ingest_from(stream(4_000)).unwrap();
    let err = svc.end_epoch().unwrap_err();
    assert!(
        matches!(err, ServiceError::Release(ReleaseError::Budget(_))),
        "{err}"
    );
    assert_eq!(svc.accountant().charges(), 2);
    assert!(svc.accountant().remaining_epsilon() < 1e-9);
    assert_eq!(
        svc.open_epoch_items(),
        4_000,
        "open epoch data must survive"
    );
    // Queries keep serving the last released snapshot.
    assert_eq!(svc.latest().epoch, 2);
    assert!(svc.point_query(&1) > 2_000.0);
    // Ingestion may continue (the data accumulates in the open epoch).
    svc.ingest_from(stream(1_000)).unwrap();
    assert_eq!(svc.open_epoch_items(), 5_000);
}

#[test]
fn auto_epoch_budget_refusal_surfaces_through_ingest() {
    // One affordable epoch, auto-closed every 2000 items; the boundary of
    // epoch 2 must surface the refusal through ingest.
    let budget = PrivacyParams::new(0.5, 1e-7).unwrap();
    let config = ServiceConfig::new(2, 16).with_epoch_len(2_000);
    let mut svc = DpmgService::new(config, laplace_mech(), budget, 5).unwrap();
    let mut refused = false;
    for x in stream(6_000) {
        match svc.ingest(x) {
            Ok(()) => {}
            Err(ServiceError::Release(ReleaseError::Budget(_))) => {
                refused = true;
                break;
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert!(refused, "the second epoch boundary must refuse");
    assert_eq!(svc.completed_epochs(), 1);
    assert_eq!(svc.accountant().charges(), 1);
}

#[test]
fn multi_shard_guard_admits_only_merged_calibrated_mechanisms() {
    let spec = MechanismSpec::new(PrivacyParams::new(0.9, 1e-8).unwrap());
    for mechanism in registry_generic::<u64>(&spec).unwrap() {
        let name = mechanism.name();
        let sound = mechanism.sensitivity_model() == SensitivityModel::MergedOneSided;
        let result = DpmgService::new(ServiceConfig::new(4, 32), mechanism, big_budget(), 1);
        match result {
            Ok(_) => assert!(sound, "{name} must have been refused at 4 shards"),
            Err(err) => {
                assert!(!sound, "{name} must have been admitted: {err}");
                assert!(matches!(
                    err,
                    ServiceError::Release(ReleaseError::Unsupported { .. })
                ));
            }
        }
    }
    // A single-shard Independent service admits the whole generic registry.
    for mechanism in registry_generic::<u64>(&spec).unwrap() {
        let name = mechanism.name();
        assert!(
            DpmgService::new(ServiceConfig::new(1, 32), mechanism, big_budget(), 1).is_ok(),
            "{name} must be admitted at 1 shard"
        );
    }
    // Continual mode merges epoch summaries into dyadic nodes at every
    // shard count, so it applies the same guard even at 1 shard.
    for mechanism in registry_generic::<u64>(&spec).unwrap() {
        let name = mechanism.name();
        let sound = mechanism.sensitivity_model() == SensitivityModel::MergedOneSided;
        let config = ServiceConfig::new(1, 32).with_mode(ServiceMode::Continual { max_epochs: 4 });
        let result = DpmgService::new(config, mechanism, big_budget(), 1);
        match result {
            Ok(_) => assert!(sound, "{name} must have been refused in continual mode"),
            Err(err) => {
                assert!(!sound, "{name} must have been admitted: {err}");
                assert!(matches!(
                    err,
                    ServiceError::Release(ReleaseError::Unsupported { .. })
                ));
            }
        }
    }
}

#[test]
fn continual_mode_charges_once_and_tracks_heavy_keys() {
    let node = PrivacyParams::new(0.4, 1e-8).unwrap();
    let mechanism = Box::new(MergedLaplaceMechanism::new(node).unwrap());
    let config = ServiceConfig::new(2, 64).with_mode(ServiceMode::Continual { max_epochs: 8 });
    let mut svc = DpmgService::new(config, mechanism, big_budget(), 13).unwrap();
    // 8 epochs → 4 levels → one up-front charge of (4·0.4, 4·1e-8).
    assert_eq!(svc.accountant().charges(), 1);
    let spent = svc.accountant().spent().unwrap();
    assert!((spent.epsilon() - 1.6).abs() < 1e-12);

    for epoch in 1..=6u64 {
        svc.ingest_from(stream(20_000)).unwrap();
        let snap = svc.end_epoch().unwrap();
        assert_eq!(snap.epoch, epoch);
        let truth = (epoch * 2_500) as f64;
        let est = snap.point_query(&1);
        assert!(
            (est - truth).abs() < 0.35 * truth + 3_000.0,
            "epoch {epoch}: est {est} vs truth {truth}"
        );
    }
    // No further charges accrued per epoch.
    assert_eq!(svc.accountant().charges(), 1);
}

#[test]
fn continual_mode_refuses_past_the_horizon() {
    let node = PrivacyParams::new(0.5, 1e-8).unwrap();
    let mechanism = Box::new(MergedLaplaceMechanism::new(node).unwrap());
    let config = ServiceConfig::new(1, 16).with_mode(ServiceMode::Continual { max_epochs: 2 });
    let mut svc = DpmgService::new(config, mechanism, big_budget(), 17).unwrap();
    for _ in 0..2 {
        svc.ingest_from(stream(1_000)).unwrap();
        svc.end_epoch().unwrap();
    }
    svc.ingest_from(stream(1_000)).unwrap();
    let err = svc.end_epoch().unwrap_err();
    assert!(
        matches!(err, ServiceError::HorizonExhausted { max_epochs: 2 }),
        "{err}"
    );
    // The refused epoch's data is still in the open epoch.
    assert_eq!(svc.open_epoch_items(), 1_000);
}

#[test]
fn continual_construction_fails_when_budget_cannot_afford_horizon() {
    let node = PrivacyParams::new(0.5, 1e-8).unwrap();
    let mechanism = Box::new(MergedLaplaceMechanism::new(node).unwrap());
    // 16 epochs → 5 levels → needs ε = 2.5 > 2.0.
    let config = ServiceConfig::new(1, 16).with_mode(ServiceMode::Continual { max_epochs: 16 });
    let result: Result<DpmgService<u64>, ServiceError> =
        DpmgService::new(config, mechanism, PrivacyParams::new(2.0, 1e-6).unwrap(), 1);
    match result {
        Ok(_) => panic!("construction must refuse an unaffordable horizon"),
        Err(err) => assert!(
            matches!(err, ServiceError::Release(ReleaseError::Budget(_))),
            "{err}"
        ),
    }
}

#[test]
fn gshm_service_answers_within_error_radius_plus_sketch_slack() {
    let eps = PrivacyParams::new(0.9, 1e-8).unwrap();
    let k = 64usize;
    let mechanism = Box::new(GshmMechanism::new(eps).unwrap());
    let radius = ReleaseMechanism::<u64>::error_radius(mechanism.as_ref(), k).unwrap();
    let threshold = ReleaseMechanism::<u64>::threshold(mechanism.as_ref(), k).unwrap();
    let config = ServiceConfig::new(4, k).with_epoch_len(20_000);
    let mut svc = DpmgService::new(config, mechanism, big_budget(), 23).unwrap();
    let epochs = 4u64;
    svc.ingest_from(stream(epochs * 20_000)).unwrap();
    assert_eq!(svc.completed_epochs(), epochs);
    // Per epoch: 2500 occurrences of each heavy key; sketch slack per
    // epoch is 20_000/(k+1); per-epoch noise within the radius, summed
    // over epochs, plus suppression up to the threshold.
    let sketch_slack = epochs as f64 * 20_000.0 / (k as f64 + 1.0);
    let envelope = sketch_slack + epochs as f64 * (radius + threshold);
    for key in 1..=4u64 {
        let truth = (epochs * 2_500) as f64;
        let est = svc.point_query(&key);
        assert!(
            (est - truth).abs() <= envelope,
            "key {key}: |{est} − {truth}| > {envelope}"
        );
    }
}

#[test]
fn empty_epochs_release_cleanly() {
    let mut svc: DpmgService<u64> =
        DpmgService::new(ServiceConfig::new(2, 8), laplace_mech(), big_budget(), 29).unwrap();
    let snap = svc.end_epoch().unwrap();
    assert_eq!(snap.epoch, 1);
    assert!(snap.is_empty());
    assert_eq!(svc.accountant().charges(), 1, "empty epochs still cost ε");
}

#[test]
fn windowed_mode_serves_only_the_last_w_epochs() {
    // W = 2: each release merges the newest two epoch summaries, so a key
    // that stops appearing must vanish from queries after two more epochs.
    let config = ServiceConfig::new(1, 64).with_mode(ServiceMode::Windowed { window_epochs: 2 });
    let mut svc = DpmgService::new(config, laplace_mech(), big_budget(), 31).unwrap();

    // Epoch 1: key 1 is hot (10_000 ≫ merged-laplace threshold ≈ 2800).
    svc.ingest_from(std::iter::repeat_n(1u64, 10_000)).unwrap();
    let snap = svc.end_epoch().unwrap();
    assert!(
        snap.point_query(&1) > 5_000.0,
        "epoch 1: key 1 must surface"
    );

    // Epoch 2: key 2 takes over; key 1 is still inside the 2-epoch window.
    svc.ingest_from(std::iter::repeat_n(2u64, 10_000)).unwrap();
    let snap = svc.end_epoch().unwrap();
    assert!(
        snap.point_query(&1) > 5_000.0,
        "epoch 2: key 1 still in window"
    );
    assert!(snap.point_query(&2) > 5_000.0, "epoch 2: key 2 in window");

    // Epoch 3: window = {2, 3}; key 1 fell out and must read as 0 — the
    // windowed snapshot *replaces* the cumulative view, it never sums it.
    svc.ingest_from(std::iter::repeat_n(2u64, 10_000)).unwrap();
    let snap = svc.end_epoch().unwrap();
    assert_eq!(snap.point_query(&1), 0.0, "epoch 3: key 1 left the window");
    assert!(
        snap.point_query(&2) > 15_000.0,
        "epoch 3: key 2 counts over both window epochs"
    );
    let top: Vec<u64> = svc.top_k(4).into_iter().map(|(k, _)| k).collect();
    assert_eq!(top, vec![2], "top-k answers over the window only");

    // Every window release is charged like an Independent epoch.
    assert_eq!(svc.accountant().charges(), 3);
    assert_eq!(svc.transcript().len(), 3);
}

#[test]
fn windowed_mode_with_w_1_serves_each_epoch_in_isolation() {
    let config = ServiceConfig::new(2, 64).with_mode(ServiceMode::Windowed { window_epochs: 1 });
    let mut svc = DpmgService::new(config, laplace_mech(), big_budget(), 37).unwrap();
    svc.ingest_from(std::iter::repeat_n(1u64, 10_000)).unwrap();
    svc.end_epoch().unwrap();
    svc.ingest_from(std::iter::repeat_n(2u64, 10_000)).unwrap();
    let snap = svc.end_epoch().unwrap();
    assert_eq!(
        snap.point_query(&1),
        0.0,
        "W = 1 forgets the previous epoch"
    );
    assert!(snap.point_query(&2) > 5_000.0);
}

#[test]
fn windowed_mode_with_unbounded_width_constructs_and_releases() {
    // The window starts empty and grows to at most W entries, so a huge W
    // must not ask the allocator for W summaries up front.
    let config = ServiceConfig::new(1, 8).with_mode(ServiceMode::Windowed {
        window_epochs: u64::MAX,
    });
    let mut svc = DpmgService::new(config, laplace_mech(), big_budget(), 47).unwrap();
    for epoch in 1..=2u64 {
        svc.ingest_from(std::iter::repeat_n(1u64, 10_000)).unwrap();
        assert_eq!(svc.end_epoch().unwrap().epoch, epoch);
    }
    assert_eq!(svc.accountant().charges(), 2);
    assert!(
        svc.latest().point_query(&1) > 15_000.0,
        "both epochs stay in the window"
    );
}

#[test]
fn windowed_guard_admits_only_merged_calibrated_mechanisms() {
    // Window summaries are Corollary 18 merges, so the mode applies the
    // MergedOneSided guard even at 1 shard — exactly like Continual.
    let spec = MechanismSpec::new(PrivacyParams::new(0.9, 1e-8).unwrap());
    for mechanism in registry_generic::<u64>(&spec).unwrap() {
        let name = mechanism.name();
        let sound = mechanism.sensitivity_model() == SensitivityModel::MergedOneSided;
        let config =
            ServiceConfig::new(1, 32).with_mode(ServiceMode::Windowed { window_epochs: 3 });
        let result = DpmgService::new(config, mechanism, big_budget(), 1);
        match result {
            Ok(_) => assert!(sound, "{name} must have been refused in windowed mode"),
            Err(err) => {
                assert!(!sound, "{name} must have been admitted: {err}");
                assert!(matches!(
                    err,
                    ServiceError::Release(ReleaseError::Unsupported { .. })
                ));
            }
        }
    }
}

#[test]
fn windowed_budget_refusal_leaves_epoch_open_and_uncharged() {
    // Budget affords exactly two ε=0.5 window releases.
    let budget = PrivacyParams::new(1.0, 1e-6).unwrap();
    let config = ServiceConfig::new(1, 16).with_mode(ServiceMode::Windowed { window_epochs: 2 });
    let mut svc = DpmgService::new(config, laplace_mech(), budget, 41).unwrap();
    for _ in 0..2 {
        svc.ingest_from(stream(4_000)).unwrap();
        svc.end_epoch().unwrap();
    }
    svc.ingest_from(stream(4_000)).unwrap();
    let err = svc.end_epoch().unwrap_err();
    assert!(
        matches!(err, ServiceError::Release(ReleaseError::Budget(_))),
        "{err}"
    );
    // Nothing charged, nothing lost: the refused epoch's data stays open
    // and the last released window keeps answering queries.
    assert_eq!(svc.accountant().charges(), 2);
    assert_eq!(svc.completed_epochs(), 2);
    assert_eq!(svc.open_epoch_items(), 4_000);
    assert_eq!(svc.latest().epoch, 2);
}

#[test]
fn windowed_services_refuse_persistence() {
    // The durability paths only cover Independent mode; a windowed service
    // must refuse save_state instead of silently dropping its window ring.
    let config = ServiceConfig::new(1, 16).with_mode(ServiceMode::Windowed { window_epochs: 2 });
    let svc = DpmgService::new(config, laplace_mech(), big_budget(), 43).unwrap();
    let err = svc.save_state().unwrap_err();
    assert!(matches!(err, ServiceError::Persistence(_)), "{err}");
}
