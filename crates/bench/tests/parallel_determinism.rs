//! The thread axis of the engine configuration cube
//! ([`usfq_sim::check`]): the sweep runner's results are identical,
//! bit for bit, to the sequential loop at any thread count, on the
//! real Fig. 19 fault sweep and on engine-backed catalogue sweeps in
//! random cells.

use usfq_bench::experiments::fig19::{snr_sweep_stats_on, SnrStats};
use usfq_bench::kernels::{catalogue_trial, jitter_ps, StimulusKind};
use usfq_core::netlists::shipped_netlists;
use usfq_sim::check::{for_all, random_cell};
use usfq_sim::Runner;

fn bits(stats: &[SnrStats]) -> Vec<u64> {
    stats
        .iter()
        .flat_map(|s| {
            [
                s.rate,
                s.binary_mean_db,
                s.binary_std_db,
                s.unary_mean_db,
                s.unary_std_db,
            ]
        })
        .map(f64::to_bits)
        .collect()
}

#[test]
fn single_thread_runner_is_the_sequential_loop() {
    // threads == 1 takes the inline path: this is the sequential
    // baseline every other thread count must reproduce.
    let a = snr_sweep_stats_on(2, &Runner::with_threads(1));
    let b = snr_sweep_stats_on(2, &Runner::with_threads(1));
    assert_eq!(bits(&a), bits(&b));
}

// Each case runs two full Monte-Carlo sweeps; keep the case count low
// so the suite stays quick.
#[test]
fn parallel_sweep_matches_sequential() {
    for_all(4, |rng| {
        let (threads, trials) = (rng.gen_range(2usize..9), rng.gen_range(1u64..3));
        let sequential = snr_sweep_stats_on(trials, &Runner::with_threads(1));
        let parallel = snr_sweep_stats_on(trials, &Runner::with_threads(threads));
        assert_eq!(bits(&parallel), bits(&sequential), "{threads} threads");
    });
}

/// Engine-backed sweep: simulating catalogue netlists across threads
/// in a random cell is byte-identical to the sequential loop.
#[test]
fn parallel_engine_sweep_matches_sequential() {
    let jitters = [None, Some(jitter_ps(2.0))];
    for_all(4, |rng| {
        let threads = rng.gen_range(2usize..9);
        let cell = random_cell(rng, 1..3, &jitters);
        let jobs: Vec<(usize, u64)> = (0..shipped_netlists().len())
            .map(|n| (n, n as u64))
            .collect();
        let run = |runner: &Runner| {
            runner.map_init(&jobs, shipped_netlists, |catalogue, _, &(n, seed)| {
                catalogue_trial(&catalogue[n], StimulusKind::Trains, &cell, seed)
            })
        };
        let sequential = run(&Runner::with_threads(1));
        let parallel = run(&Runner::with_threads(threads));
        assert_eq!(sequential, parallel, "{threads} threads under {cell:?}");
    });
}
