//! The `shard(N) == sequential` slice of the engine configuration cube
//! ([`usfq_sim::check`]): partitioned conservative-parallel runs must
//! reproduce the sequential engine exactly, merged violations and
//! jittered runs included — across schedulers, sanitizer on/off, burst
//! delivery on/off, catalogue netlists and generated fabrics alike.

use usfq_bench::kernels::{catalogue_workloads, fabric_workload, jitter_ps, StimulusKind};
use usfq_core::netlists::shipped_netlists;
use usfq_sim::check::{check_cube, cube, for_all, random_cell, Workload};
use usfq_sim::{Sched, SimConfig};

/// Loose pulses and uniform trains through every shipped netlist at 2
/// and 3 shards, in every scheduler × delivery × sanitizer cell.
/// Catalogue netlists are small and zero-delay-coupled, so many
/// partition attempts fall back to one shard; that fallback is part of
/// the contract.
#[test]
fn full_catalogue_sharded_equals_sequential() {
    let catalogue = shipped_netlists();
    let kinds = [StimulusKind::Pulses, StimulusKind::Trains];
    check_cube(
        &catalogue_workloads(&catalogue, &kinds, 0..4),
        &cube(&[2, 3], &[None]),
    );
}

/// The 16×60 generated fabric at every benchmarked shard count, in
/// every scheduler × delivery × sanitizer cell.
#[test]
fn fabric_sharded_equals_sequential_across_shard_counts() {
    let workload = fabric_workload(16, 60, 0xFAB, 6, 2);
    check_cube(&[workload], &cube(&[1, 2, 4, 8], &[None]));
}

/// A sweep of sharded (2 shards, wheel, bursts) fabric trials fanned
/// out over a 4-thread runner equals the sequential loop of reference
/// trials.
#[test]
fn runner_sweep_of_sharded_sims_is_deterministic() {
    let workloads: Vec<Workload> = (0..6)
        .map(|seed| fabric_workload(8, 40, seed, 5, seed))
        .collect();
    let cell = SimConfig {
        sched: Sched::Wheel,
        burst: true,
        shards: 2,
        ..SimConfig::reference()
    };
    check_cube(&workloads, &[cell]);
}

/// Random fabric shapes, seeds and cells at up to 5 shards, jitter
/// included, against the sequential pulse-level reference. The nightly
/// workflow raises `PROPTEST_CASES`.
#[test]
fn random_fabrics_shard_deterministically() {
    let jitters = [None, Some(jitter_ps(2.0)), Some(jitter_ps(4.0))];
    for_all(48, |rng| {
        let (width, depth) = (rng.gen_range(2usize..10), rng.gen_range(4usize..40));
        let seed = rng.gen_range(0u64..1_000);
        let cell = random_cell(rng, 1..6, &jitters);
        check_cube(&[fabric_workload(width, depth, seed, 4, seed)], &[cell]);
    });
}
