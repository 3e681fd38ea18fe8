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
use usfq_cells::storage::{Dff, Ndro};
use usfq_core::netlists::shipped_netlists;
use usfq_sim::check::{check_cube, cube, for_all, random_cell, Workload};
use usfq_sim::{Circuit, Fingerprint, SanitizerConfig, Sched, ShardedSimulator, SimConfig, Time};

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

/// Equal-time ties at the order-sensitive inputs of the storage cells.
/// In each 50 ps slot, single pulses reach an NDRO's set and clock
/// inputs and a DFF's set and read inputs at the same femtosecond,
/// scheduled set-first in even slots and set-last in odd ones, so the
/// outputs tell which way each tie went; the NDRO is reset mid-slot.
/// All input wires have the same, zero delay: under jitter a negative
/// draw clamps at the emission instant, so some ties survive there
/// too. The two cells share no wire, so two shards split them.
fn storage_cell_ties() -> Workload<'static> {
    let mut c = Circuit::new();
    let ndro = c.add(Ndro::new("ndro"));
    let dff = c.add(Dff::new("dff"));
    let ports = [
        ("ndro_s", ndro.input(Ndro::IN_S)),
        ("ndro_clk", ndro.input(Ndro::IN_CLK)),
        ("ndro_r", ndro.input(Ndro::IN_R)),
        ("dff_s", dff.input(Dff::IN_S)),
        ("dff_r", dff.input(Dff::IN_R)),
    ];
    let [set, clk, reset, dff_set, read] = ports.map(|(name, port)| {
        let input = c.input(name);
        c.connect_input(input, port, Time::ZERO).unwrap();
        input
    });
    let probes = [
        c.probe(ndro.output(Ndro::OUT_Q), "ndro_q"),
        c.probe(dff.output(Dff::OUT_Q), "dff_q"),
    ];
    Workload::new("storage-cell ties", move |cfg| {
        let mut sim = ShardedSimulator::with_config(c.clone(), cfg);
        assert_eq!(sim.num_shards(), cfg.shards);
        for slot in 0..12u32 {
            let t = Time::from_ps(50.0 * f64::from(slot));
            for (set, sampled) in [(set, clk), (dff_set, read)] {
                let order = if slot % 2 == 0 {
                    [set, sampled]
                } else {
                    [sampled, set]
                };
                for input in order {
                    sim.schedule_input(input, t).unwrap();
                }
            }
            sim.schedule_input(reset, t + Time::from_ps(25.0)).unwrap();
        }
        let summary = sim.run().unwrap();
        Fingerprint::capture(&sim, summary, &probes)
    })
}

/// The storage-cell ties in every cell at 1 and 2 shards, with and
/// without jitter, equal their reference: every path resolves an
/// equal-time tie in scheduling order. In that order the NDRO reads
/// set only in the set-first slots, and the DFF answers each of those
/// reads, ignoring the five sets that find it still set.
#[test]
fn equal_time_ties_resolve_in_scheduling_order() {
    let ties = storage_cell_ties();
    let reference = (ties.run)(&SimConfig::reference());
    for times in &reference.probe_times {
        assert_eq!(times.len(), 6);
        assert!(
            times.iter().all(|t| t.as_fs() / 50_000 % 2 == 0),
            "{times:?}"
        );
    }
    assert_eq!(reference.anomalies, [("IgnoredPulse".to_string(), 5)]);
    check_cube(&[ties], &cube(&[1, 2], &[None, Some(jitter_ps(2.0))]));
}
