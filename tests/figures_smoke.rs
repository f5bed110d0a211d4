//! Smoke tests for the figure regenerators: quick runs asserting the
//! paper's qualitative *shapes* (who wins, which direction curves move).
//! The full-scale tables live in `cargo run -p rtpb-bench --bin figures`.

use rtpb::core::SchedulingMode;
use rtpb::types::TimeDelta;
use rtpb_bench::experiments::{
    ablations, distance_vs_loss, distance_vs_objects, inconsistency_vs_loss,
    response_time_vs_objects, theory_validation, FigureDefaults,
};

fn quick() -> FigureDefaults {
    FigureDefaults {
        run_time: TimeDelta::from_secs(8),
        seeds: 1,
        ..FigureDefaults::default()
    }
}

#[test]
fn fig6_fig7_admission_control_prevents_response_blowup() {
    let d = quick();
    let windows = [200u64];
    let counts = [4usize, 48];
    let with = response_time_vs_objects(&d, &windows, &counts, true);
    let without = response_time_vs_objects(&d, &windows, &counts, false);

    let with_small = with.rows()[0].1[0].unwrap();
    let with_large = with.rows()[1].1[0].unwrap();
    let without_large = without.rows()[1].1[0].unwrap();

    // Fig 6: with admission, response time stays in the same regime.
    assert!(
        with_large < with_small.max(1.0) * 10.0,
        "admission-controlled response exploded: {with_small} → {with_large}"
    );
    // Fig 7: without admission, the overloaded point dwarfs the admitted
    // one.
    assert!(
        without_large > with_large * 10.0,
        "overload must blow up response time ({with_large} vs {without_large})"
    );
}

#[test]
fn fig6_larger_windows_give_better_response_times() {
    let d = quick();
    let t = response_time_vs_objects(&d, &[200, 800], &[32], true);
    let small_window = t.rows()[0].1[0].unwrap();
    let large_window = t.rows()[0].1[1].unwrap();
    assert!(
        large_window <= small_window * 1.5 + 0.5,
        "larger windows must not respond slower: {small_window} vs {large_window}"
    );
}

#[test]
fn fig8_distance_grows_with_loss_and_write_rate() {
    let d = FigureDefaults {
        run_time: TimeDelta::from_secs(20),
        seeds: 1,
        ..FigureDefaults::default()
    };
    let t = distance_vs_loss(&d, &[50, 200], &[0.0, 0.15], 300, 4);
    let fast_clean = t.rows()[0].1[0].unwrap();
    let fast_lossy = t.rows()[1].1[0].unwrap();
    let slow_lossy = t.rows()[1].1[1].unwrap();
    assert!(
        fast_lossy > fast_clean,
        "loss must increase distance ({fast_clean} → {fast_lossy})"
    );
    assert!(
        fast_lossy >= slow_lossy,
        "faster writers lag further behind ({slow_lossy} vs {fast_lossy})"
    );
}

#[test]
fn fig9_fig10_admission_bounds_distance_under_offered_overload() {
    let d = quick();
    let windows = [200u64];
    let counts = [4usize, 48];
    let with = distance_vs_objects(&d, &windows, &counts, true, 0.01);
    let without = distance_vs_objects(&d, &windows, &counts, false, 0.01);
    let with_large = with.rows()[1].1[0].unwrap();
    let without_large = without.rows()[1].1[0].unwrap();
    assert!(
        without_large > with_large,
        "disabling admission must worsen distance ({with_large} vs {without_large})"
    );
}

#[test]
fn fig11_inconsistency_grows_with_loss_and_window_under_normal_scheduling() {
    let d = FigureDefaults {
        run_time: TimeDelta::from_secs(30),
        seeds: 2,
        ..FigureDefaults::default()
    };
    let t = inconsistency_vs_loss(&d, &[200, 800], &[0.05, 0.20], 8, SchedulingMode::Normal);
    let low_loss_small = t.rows()[0].1[0].unwrap();
    let high_loss_small = t.rows()[1].1[0].unwrap();
    let high_loss_large = t.rows()[1].1[1].unwrap();
    // More loss → episodes at least as long/frequent (duration measured
    // per episode; compare high vs low loss).
    assert!(
        high_loss_small + 1.0 >= low_loss_small,
        "loss must not shrink inconsistency ({low_loss_small} → {high_loss_small})"
    );
    // Larger window → longer recovery (update period scales with window).
    assert!(
        high_loss_large > high_loss_small,
        "larger windows must lengthen episodes under normal scheduling \
         ({high_loss_small} vs {high_loss_large})"
    );
}

#[test]
fn fig12_compressed_scheduling_shortens_inconsistency() {
    let d = FigureDefaults {
        run_time: TimeDelta::from_secs(30),
        seeds: 2,
        ..FigureDefaults::default()
    };
    let loss = [0.20];
    let normal = inconsistency_vs_loss(&d, &[400], &loss, 8, SchedulingMode::Normal);
    let compressed = inconsistency_vs_loss(&d, &[400], &loss, 8, SchedulingMode::Compressed);
    let n = normal.rows()[0].1[0].unwrap();
    let c = compressed.rows()[0].1[0].unwrap();
    assert!(
        c < n || (c == 0.0 && n == 0.0),
        "compressed scheduling must recover faster ({n} vs {c})"
    );
}

#[test]
fn theory_table_is_consistent() {
    let t = theory_validation();
    assert_eq!(t.rows().len(), 3);
    for (task, row) in t.rows() {
        let rm_measured = row[0];
        let rm_bound = row[1].unwrap();
        let dcs = row[4].unwrap();
        if let Some(m) = rm_measured {
            assert!(m <= rm_bound + 1e-9, "{task}: RM {m} > bound {rm_bound}");
        }
        assert_eq!(dcs, 0.0, "{task}: Theorem 3 must give zero variance");
    }
}

#[test]
fn ablations_price_write_through_and_the_loss_slack() {
    let t = ablations();
    let sent = |variant: &str| {
        let (_, row) = t.rows().iter().find(|(x, _)| x == variant).unwrap();
        row[0].unwrap()
    };
    let paper = sent("paper design");
    // Decoupling (§4.3): one update per send period, not one per write.
    assert!(
        sent("eager_send") >= 4.0 * paper,
        "write-through must multiply the updates: {} vs {paper}",
        sent("eager_send")
    );
    // The loss slack halves the send period, so dropping it halves the
    // updates.
    assert_eq!(sent("slack_factor 1"), paper / 2.0);
}
