//! The sanitizer's zero-interference contract, checked on the
//! sanitizer axis of the engine configuration cube
//! ([`usfq::sim::check`]): the sanitizer observes event delivery and
//! never filters, delays or reorders pulses, so a sanitized run agrees
//! with an unsanitized one in every field but the violations it
//! records — loose pulses and coalesced trains, any scheduler, any
//! shard count, with or without wire jitter.

use usfq::core::netlists::shipped_netlists;
use usfq::sim::check::{assert_agree, for_all, random_cell};
use usfq::sim::{SanitizerConfig, Sched, SimConfig};
use usfq_bench::kernels::{catalogue_trial, jitter_ps, random_catalogue_workload, StimulusKind};

/// Any catalogue netlist, stimulus kind and seed, in a random cell:
/// sanitizer on agrees with sanitizer off.
#[test]
fn sanitizer_on_is_bit_identical_to_sanitizer_off() {
    let catalogue = shipped_netlists();
    let jitters = [None, Some(jitter_ps(2.0))];
    for_all(256, |rng| {
        let workload = random_catalogue_workload(rng, &catalogue);
        let plain = SimConfig {
            sanitizer: None,
            ..random_cell(rng, 1..3, &jitters)
        };
        let sanitized = SimConfig {
            sanitizer: Some(SanitizerConfig::default()),
            ..plain
        };
        assert_agree(
            &workload.name,
            &(workload.run)(&plain),
            &plain,
            &(workload.run)(&sanitized),
            &sanitized,
        );
    });
}

/// The scheduler must be equally invisible: in a random cell, the
/// wheel gives exactly the heap's fingerprint, violations included.
#[test]
fn wheel_is_bit_identical_to_heap() {
    let catalogue = shipped_netlists();
    let jitters = [None, Some(jitter_ps(2.0))];
    for_all(256, |rng| {
        let workload = random_catalogue_workload(rng, &catalogue);
        let heap = SimConfig {
            sched: Sched::Heap,
            ..random_cell(rng, 1..3, &jitters)
        };
        let wheel = SimConfig {
            sched: Sched::Wheel,
            ..heap.clone()
        };
        assert_eq!(
            (workload.run)(&wheel),
            (workload.run)(&heap),
            "{} under {heap:?}",
            workload.name
        );
    });
}

/// A netlist whose waived hazards fire dynamically (the unipolar
/// multiplier's NDRO race): the sanitizer records violations and leaves
/// everything else exactly as the unsanitized run has it.
#[test]
fn sanitizer_reports_without_perturbing_a_hazardous_run() {
    let catalogue = shipped_netlists();
    let netlist = catalogue
        .iter()
        .find(|n| n.name == "unipolar-multiplier")
        .expect("catalogue ships the unipolar multiplier");
    let plain = SimConfig::reference();
    let sanitized = SimConfig {
        sanitizer: Some(SanitizerConfig::default()),
        ..plain
    };
    let mut recorded = 0;
    for seed in 0..8 {
        let with = catalogue_trial(netlist, StimulusKind::Pulses, &sanitized, seed);
        let without = catalogue_trial(netlist, StimulusKind::Pulses, &plain, seed);
        assert_agree(&format!("seed {seed}"), &without, &plain, &with, &sanitized);
        recorded += with.violations.len();
    }
    assert!(
        recorded > 0,
        "expected the multiplier's waived NDRO hazard to fire dynamically"
    );
}
