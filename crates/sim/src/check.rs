//! A seeded property-test runner and the engine configuration cube,
//! with no dependency beyond std.
//!
//! [`for_all`] runs a property over a number of generated cases. Case
//! `i` draws its inputs from [`SplitMix64::new(i)`](SplitMix64::new),
//! so every case is a pure function of its index: a failure names the
//! case, and rerunning the test replays exactly the same inputs. There
//! is no shrinking and nothing is persisted; a failure worth keeping
//! becomes a fixed `#[test]`.
//!
//! ```
//! usfq_sim::check::for_all(64, |rng| {
//!     let a = rng.gen_range(0u64..1_000);
//!     let b = rng.gen_range(0u64..1_000);
//!     assert_eq!(a + b, b + a);
//! });
//! ```
//!
//! The *engine configuration cube* checks that the engine's
//! interchangeable paths give the same answer. A [`Workload`] is a
//! simulation whose output must not depend on how the engine computes
//! it; a *cell* is one full [`SimConfig`] from [`cube`]: scheduler ×
//! delivery × sanitizer × shard count × wire jitter. [`check_cube`]
//! runs every workload under every cell and compares each run's
//! [`Fingerprint`] by `==` with its [`reference_for`] cell's: the
//! sequential, heap-scheduled, pulse-level run under the cell's
//! sanitizer and jitter. Each sanitized reference is in turn compared
//! with the unsanitized one, leaving out the violations it records:
//! the sanitizer axis is the only one on which a field may differ.
//! Every cell sets every field, so no check depends on the
//! environment.

use std::panic::{self, AssertUnwindSafe};
use std::sync::OnceLock;

use crate::config::{Fingerprint, Jitter, SimConfig};
use crate::rng::SplitMix64;
use crate::runner::Runner;
use crate::sanitizer::SanitizerConfig;
use crate::sched::Sched;

/// When set to a count, replaces the case count of every property (the
/// nightly workflow deepens every suite this way). Read once per
/// process.
pub const CASES_ENV: &str = "PROPTEST_CASES";

fn cases_override() -> Option<u64> {
    static CASES: OnceLock<Option<u64>> = OnceLock::new();
    *CASES.get_or_init(|| std::env::var(CASES_ENV).ok()?.parse().ok())
}

/// Runs `property` on `cases` generated cases ([`CASES_ENV`] overrides
/// the count), each with its own freshly seeded generator.
///
/// # Panics
///
/// When the property panics, with the failing case's index and seed
/// and the property's own message.
pub fn for_all(cases: u64, mut property: impl FnMut(&mut SplitMix64)) {
    let cases = cases_override().unwrap_or(cases);
    for case in 0..cases {
        let mut rng = SplitMix64::new(case);
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| property(&mut rng))) {
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("(non-string panic payload)");
            panic!("property failed at case {case} of {cases} (SplitMix64 seed {case}): {message}");
        }
    }
}

/// One workload of the configuration cube: a label for failure
/// messages and the run it stands for, under any configuration.
pub struct Workload<'a> {
    /// Names the workload in a failure message.
    pub name: String,
    /// Runs the workload under a configuration.
    pub run: Box<dyn Fn(&SimConfig) -> Fingerprint + Sync + 'a>,
}

impl<'a> Workload<'a> {
    /// A workload named `name` that runs `run`.
    pub fn new(
        name: impl Into<String>,
        run: impl Fn(&SimConfig) -> Fingerprint + Sync + 'a,
    ) -> Workload<'a> {
        Workload {
            name: name.into(),
            run: Box::new(run),
        }
    }
}

/// Every cell of `sched × burst × sanitizer × shards × jitter`.
pub fn cube(shards: &[usize], jitters: &[Option<Jitter>]) -> Vec<SimConfig> {
    let mut cells = Vec::new();
    for &jitter in jitters {
        for &shards in shards {
            for sched in [Sched::Heap, Sched::Wheel] {
                for burst in [false, true] {
                    for sanitize in [false, true] {
                        cells.push(SimConfig {
                            sched,
                            burst,
                            shards,
                            jitter,
                            sanitizer: sanitize.then(SanitizerConfig::default),
                        });
                    }
                }
            }
        }
    }
    cells
}

/// A random cell: scheduler, delivery and sanitizer drawn uniformly,
/// the shard count from `shards` and the jitter from `jitters`.
pub fn random_cell(
    rng: &mut SplitMix64,
    shards: std::ops::Range<usize>,
    jitters: &[Option<Jitter>],
) -> SimConfig {
    SimConfig {
        sched: if rng.gen_bool(0.5) {
            Sched::Wheel
        } else {
            Sched::Heap
        },
        burst: rng.gen_bool(0.5),
        shards: rng.gen_range(shards),
        jitter: jitters[rng.gen_range(0..jitters.len())],
        sanitizer: rng.gen_bool(0.5).then(SanitizerConfig::default),
    }
}

/// The cell `cell` is checked against: [`SimConfig::reference`] with
/// the cell's sanitizer and jitter.
pub fn reference_for(cell: &SimConfig) -> SimConfig {
    SimConfig {
        jitter: cell.jitter,
        sanitizer: cell.sanitizer.clone(),
        ..SimConfig::reference()
    }
}

/// Asserts that `subject`, a run under `cell`, equals `reference`, a
/// run of the same stimulus under `reference_cfg`. When the two ran
/// different sanitizers, the violations are left out.
///
/// # Panics
///
/// When the runs disagree, naming `what` and the cell, or when the two
/// configurations differ in jitter, which changes what is simulated.
pub fn assert_agree(
    what: &str,
    reference: &Fingerprint,
    reference_cfg: &SimConfig,
    subject: &Fingerprint,
    cell: &SimConfig,
) {
    assert_eq!(
        reference_cfg.jitter, cell.jitter,
        "runs under different jitter are not comparable"
    );
    if reference_cfg.sanitizer == cell.sanitizer {
        assert_eq!(subject, reference, "{what} diverged under {cell:?}");
    } else {
        let unsanitized = |fp: &Fingerprint| Fingerprint {
            violations: Vec::new(),
            ..fp.clone()
        };
        assert_eq!(
            unsanitized(subject),
            unsanitized(reference),
            "{what} diverged under {cell:?}"
        );
    }
}

/// Runs every workload under every cell and checks each run against
/// its [`reference_for`] cell, and each sanitized reference against
/// the unsanitized one. The cells run on a 4-thread [`Runner`] and
/// each workload's references on the calling thread, so the thread
/// axis is covered too.
///
/// # Panics
///
/// At the first run that disagrees with its reference.
pub fn check_cube(workloads: &[Workload], cells: &[SimConfig]) {
    let jobs: Vec<(&Workload, &SimConfig)> = workloads
        .iter()
        .flat_map(|w| cells.iter().map(move |c| (w, c)))
        .collect();
    let subjects = Runner::with_threads(4).map(&jobs, |_, (w, c)| (w.run)(c));
    // Each distinct reference, and the unsanitized twin of each
    // sanitized one.
    let mut reference_cfgs: Vec<SimConfig> = Vec::new();
    for cell in cells {
        let r = reference_for(cell);
        let bare = SimConfig {
            sanitizer: None,
            ..r.clone()
        };
        for r in [bare, r] {
            if !reference_cfgs.contains(&r) {
                reference_cfgs.push(r);
            }
        }
    }
    let index = |r: &SimConfig| {
        reference_cfgs
            .iter()
            .position(|c| c == r)
            .expect("listed above")
    };
    for (workload, subjects) in workloads.iter().zip(subjects.chunks(cells.len())) {
        let references: Vec<Fingerprint> =
            reference_cfgs.iter().map(|r| (workload.run)(r)).collect();
        for (r, reference) in reference_cfgs.iter().zip(&references) {
            if r.sanitizer.is_some() {
                let bare = SimConfig {
                    sanitizer: None,
                    ..r.clone()
                };
                let expected = &references[index(&bare)];
                assert_agree(&workload.name, expected, &bare, reference, r);
            }
        }
        for (cell, subject) in cells.iter().zip(subjects) {
            let r = reference_for(cell);
            assert_agree(&workload.name, &references[index(&r)], &r, subject, cell);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_case_draws_from_its_own_seed() {
        let mut firsts = Vec::new();
        for_all(3, |rng| firsts.push(rng.next_u64()));
        for (case, first) in (0..).zip(firsts) {
            assert_eq!(first, SplitMix64::new(case).next_u64());
        }
    }

    #[test]
    #[should_panic(expected = "property failed at case 0 of")]
    fn a_failing_case_names_its_index_and_seed() {
        for_all(4, |_| panic!("boom"));
    }

    /// A run that counts one event under the wheel and none under the
    /// heap: the scheduler axis must catch it.
    fn sched_dependent(cfg: &SimConfig) -> Fingerprint {
        Fingerprint {
            summary: crate::engine::RunSummary {
                events: u64::from(cfg.sched == Sched::Wheel),
                end_time: crate::time::Time::ZERO,
            },
            probe_times: Vec::new(),
            handled: Vec::new(),
            emitted: Vec::new(),
            anomalies: Vec::new(),
            violations: Vec::new(),
        }
    }

    #[test]
    #[should_panic(expected = "sched-dependent diverged under")]
    fn check_cube_catches_a_configuration_dependent_workload() {
        check_cube(
            &[Workload::new("sched-dependent", sched_dependent)],
            &cube(&[1, 2], &[None]),
        );
    }

    /// A run that ends at `shards` fs with bursts on and at 1 fs
    /// without, so only sharded burst runs differ from the reference.
    fn sharded_burst_end_time(cfg: &SimConfig) -> Fingerprint {
        let mut fp = sched_dependent(&SimConfig::reference());
        let fs = if cfg.burst { cfg.shards as u64 } else { 1 };
        fp.summary.end_time = crate::time::Time::from_fs(fs);
        fp
    }

    #[test]
    #[should_panic(expected = "sharded burst end time diverged under")]
    fn check_cube_compares_sharded_bursts_with_sequential_bursts() {
        check_cube(
            &[Workload::new(
                "sharded burst end time",
                sharded_burst_end_time,
            )],
            &cube(&[1, 2], &[None]),
        );
    }

    /// A sanitized run that records two violations, in an order set by
    /// the delivery mode: only the sanitizer axis may leave them out.
    fn delivery_ordered_violations(cfg: &SimConfig) -> Fingerprint {
        let mut fp = sched_dependent(&SimConfig::reference());
        if cfg.sanitizer.is_some() {
            fp.violations = vec!["a".into(), "b".into()];
            if cfg.burst {
                fp.violations.reverse();
            }
        }
        fp
    }

    #[test]
    #[should_panic(expected = "violation order diverged under")]
    fn check_cube_compares_violation_order_across_delivery() {
        check_cube(
            &[Workload::new(
                "violation order",
                delivery_ordered_violations,
            )],
            &cube(&[1], &[None]),
        );
    }

    #[test]
    fn a_reference_keeps_only_the_sanitizer_and_the_jitter() {
        let jitter = Some(Jitter {
            sigma: crate::time::Time::from_fs(2000),
            seed: 1,
        });
        for cell in cube(&[1, 3], &[None, jitter]) {
            let want = SimConfig {
                jitter: cell.jitter,
                sanitizer: cell.sanitizer.clone(),
                ..SimConfig::reference()
            };
            assert_eq!(reference_for(&cell), want, "{cell:?}");
        }
    }
}
