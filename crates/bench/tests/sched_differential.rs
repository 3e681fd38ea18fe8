//! The `wheel == heap` slice of the engine configuration cube
//! ([`usfq_sim::check`]): the calendar-wheel scheduler must reproduce
//! the reference binary heap bit for bit, sanitizer on and off, fresh
//! and reused.
//!
//! The random property at the end samples the whole cube: any netlist,
//! stimulus, seed and cell against its reference.

use usfq_bench::kernels::{
    assert_parallel_catalogue_sweep, catalogue_config, catalogue_probes, catalogue_trial,
    catalogue_workloads, drive_catalogue, fabric, fabric_stimulus, jitter_ps,
    random_catalogue_workload, run_trains, StimulusKind,
};
use usfq_core::netlists::shipped_netlists;
use usfq_sim::check::{check_cube, cube, for_all, random_cell};
use usfq_sim::{Fingerprint, SanitizerConfig, Sched, ShardedSimulator, SimConfig};

/// Loose pulses and uniform trains through every shipped netlist, at
/// one shard with pulse-level delivery: heap and wheel, sanitizer off
/// and on, against the reference.
#[test]
fn full_catalogue_fingerprints_match() {
    let catalogue = shipped_netlists();
    let kinds = [StimulusKind::Pulses, StimulusKind::Trains];
    let cells: Vec<SimConfig> = cube(&[1], &[None])
        .into_iter()
        .filter(|c| !c.burst)
        .collect();
    check_cube(&catalogue_workloads(&catalogue, &kinds, 0..4), &cells);
}

/// A wheel-scheduled, sanitized sweep fanned out over a 4-thread
/// runner with per-thread catalogues equals the heap-scheduled
/// sequential loop.
#[test]
fn parallel_wheel_sweep_equals_sequential_heap_sweep() {
    let heap = SimConfig {
        sanitizer: Some(SanitizerConfig::default()),
        ..SimConfig::reference()
    };
    let wheel = SimConfig {
        sched: Sched::Wheel,
        ..heap.clone()
    };
    assert_parallel_catalogue_sweep(StimulusKind::Pulses, &heap, &wheel);
}

/// A simulator reused after `reset` gives exactly the fresh
/// simulator's fingerprint, in every cell — either scheduler, sharded
/// or not, jittered or not.
#[test]
fn reset_reuse_matches_fresh_under_both_schedulers() {
    let catalogue = shipped_netlists();
    for cell in cube(&[1, 2], &[None, Some(jitter_ps(2.0))]) {
        for netlist in &catalogue {
            for kind in [StimulusKind::Pulses, StimulusKind::Trains] {
                let cfg = catalogue_config(&cell, 3);
                let mut sim = ShardedSimulator::with_config(netlist.circuit.clone(), &cfg);
                drive_catalogue(&mut sim, netlist, kind, 0xC0FFEE);
                sim.reset();
                let summary = drive_catalogue(&mut sim, netlist, kind, 3);
                assert_eq!(
                    Fingerprint::capture(&sim, summary, &catalogue_probes(netlist)),
                    catalogue_trial(netlist, kind, &cell, 3),
                    "`{}` {kind:?} reused under {cell:?}",
                    netlist.name
                );
            }
        }
    }
    let fab = fabric(8, 40, 5);
    let (warm_up, stimulus) = (fabric_stimulus(&fab, 5, 9), fabric_stimulus(&fab, 5, 5));
    for cell in cube(&[1, 2, 4], &[None]) {
        let (_, mut sim) = run_trains(fab.circuit.clone(), &warm_up, &fab.probes, &cell);
        sim.reset();
        for &(input, train) in &stimulus {
            sim.schedule_burst(input, train).unwrap();
        }
        let summary = sim.run().unwrap();
        assert_eq!(
            Fingerprint::capture(&sim, summary, &fab.probes),
            run_trains(fab.circuit.clone(), &stimulus, &fab.probes, &cell).0,
            "fabric reused under {cell:?}"
        );
    }
}

/// Random netlist × stimulus kind × seed × cell, against the cell's
/// reference. The nightly workflow raises `PROPTEST_CASES`.
#[test]
fn random_trials_fingerprints_match() {
    let catalogue = shipped_netlists();
    let jitters = [None, Some(jitter_ps(2.0)), Some(jitter_ps(4.0))];
    for_all(256, |rng| {
        let workload = random_catalogue_workload(rng, &catalogue);
        let cell = random_cell(rng, 1..4, &jitters);
        check_cube(&[workload], &[cell]);
    });
}
