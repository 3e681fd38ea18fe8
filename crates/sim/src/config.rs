//! One engine configuration ([`SimConfig`]) and one run fingerprint
//! ([`Fingerprint`]).
//!
//! Every simulator is assembled from a [`SimConfig`] through
//! [`Simulator::with_config`](crate::Simulator::with_config) or
//! [`ShardedSimulator::with_config`]. The engine's interchangeable
//! paths — heap or wheel scheduler, pulse or burst delivery, one or N
//! shards, sanitizer on or off — must give the same answer: two runs
//! of one stimulus under the same jitter have equal [`Fingerprint`]s,
//! except that a run without the sanitizer records no violations.

use std::sync::OnceLock;

use crate::circuit::ProbeId;
use crate::engine::RunSummary;
use crate::sanitizer::SanitizerConfig;
use crate::sched::Sched;
use crate::shard::ShardedSimulator;
use crate::time::Time;

/// Environment variable toggling the coalesced-burst fast path:
/// `0`, `off`, `false` or `no` (case-insensitive) disables it; anything
/// else, or the variable being unset, leaves it on.
pub const BURST_ENV: &str = "USFQ_BURST";

/// Environment variable giving the default shard count of
/// [`ShardedSimulator::new`]: a positive integer. Unset, empty, `0` or
/// unparsable values mean 1 (sequential).
pub const SHARDS_ENV: &str = "USFQ_SHARDS";

/// Environment variable arming wire-delay jitter in every simulator:
/// `<sigma_fs>[:<seed>]`, the standard deviation in femtoseconds and an
/// optional draw seed (default [`WIRE_JITTER_DEFAULT_SEED`]). Unset,
/// empty, unparsable or `0` leaves jitter off.
pub const WIRE_JITTER_ENV: &str = "USFQ_WIRE_JITTER";

/// Jitter seed used by [`WIRE_JITTER_ENV`] when the value carries no
/// explicit `:<seed>` suffix.
pub const WIRE_JITTER_DEFAULT_SEED: u64 = 0x5EED;

/// Deterministic bounded wire-delay jitter: the parameters of
/// [`Simulator::enable_wire_jitter`](crate::Simulator::enable_wire_jitter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Jitter {
    /// Standard deviation of the per-crossing delay deviate.
    pub sigma: Time,
    /// Seed of the draws, which are pure functions of
    /// `(seed, wire, emission time)`.
    pub seed: u64,
}

/// One full engine configuration: everything that selects *how* a run
/// is computed, as opposed to what is simulated.
///
/// [`SimConfig::from_env`] is the only reader of the three engine
/// variables ([`BURST_ENV`], [`SHARDS_ENV`], [`WIRE_JITTER_ENV`]);
/// [`Simulator::new`](crate::Simulator::new) and
/// [`ShardedSimulator::new`] start from it. [`SimConfig::reference`] is
/// the configuration every other one is checked against.
///
/// `USFQ_WIRE_JITTER` perturbs every simulator built from the
/// environment, so tests that assert exact pulse times of a default
/// simulator (block, cell and engine unit tests) fail under it. Jitter
/// draws are keyed by the source circuit's wires, so a jittered sharded
/// run still equals the sequential one. The suites that must hold
/// under it are the configuration-cube suites
/// ([`check_cube`](crate::check::check_cube) and its callers:
/// `crates/bench/tests/{sched,burst,shard}_differential.rs`,
/// `parallel_determinism.rs`, `crates/noc/tests/differential.rs` and
/// `tests/sanitizer_identity.rs`), which pin every field of every
/// configuration they run, and `tests/figures_smoke.rs`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfig {
    /// Event-queue scheduler. No variable sets it: the heap unless a
    /// caller names the wheel.
    pub sched: Sched,
    /// Coalesced-burst delivery on (`true`) or pulse-level (`false`).
    pub burst: bool,
    /// Shard count. Only [`ShardedSimulator::with_config`] reads it; a
    /// plain [`Simulator`](crate::Simulator) is always one shard.
    pub shards: usize,
    /// Wire-delay jitter, or `None` for exact wire delays.
    pub jitter: Option<Jitter>,
    /// Runtime pulse sanitizer, or `None` for off. A sanitized run is
    /// a pulse run, whatever [`SimConfig::burst`] says.
    pub sanitizer: Option<SanitizerConfig>,
}

impl Default for SimConfig {
    /// What [`SimConfig::from_env`] yields in an empty environment:
    /// heap scheduler, bursts on, one shard, no jitter, no sanitizer.
    fn default() -> Self {
        SimConfig {
            sched: Sched::Heap,
            burst: true,
            shards: 1,
            jitter: None,
            sanitizer: None,
        }
    }
}

impl SimConfig {
    /// The reference configuration: heap scheduler, pulse-level
    /// delivery, one shard, no jitter, no sanitizer.
    pub fn reference() -> SimConfig {
        SimConfig {
            burst: false,
            ..SimConfig::default()
        }
    }

    /// The configuration named by the environment, parsed once per
    /// process on first use; setting a variable after that has no
    /// effect. Never fails: an unrecognised value falls back to the
    /// default, as documented on each variable's constant.
    pub fn from_env() -> &'static SimConfig {
        static ENV: OnceLock<SimConfig> = OnceLock::new();
        ENV.get_or_init(|| SimConfig::parse(|name| std::env::var(name).ok()))
    }

    /// The configuration an environment holding exactly `vars` names,
    /// so a grammar test never depends on its own environment.
    #[cfg(test)]
    pub(crate) fn from_vars(vars: &[(&str, &str)]) -> SimConfig {
        SimConfig::parse(|name| {
            vars.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| (*v).to_string())
        })
    }

    /// Parses the three engine variables through `var`, which returns a
    /// variable's value or `None` when it is unset.
    fn parse(var: impl Fn(&str) -> Option<String>) -> SimConfig {
        let burst_off = |v: String| {
            matches!(
                v.trim().to_ascii_lowercase().as_str(),
                "0" | "off" | "false" | "no"
            )
        };
        SimConfig {
            burst: !var(BURST_ENV).is_some_and(burst_off),
            shards: var(SHARDS_ENV)
                .and_then(|v| v.trim().parse().ok())
                .filter(|&n| n >= 1)
                .unwrap_or(1),
            jitter: var(WIRE_JITTER_ENV).and_then(|v| parse_jitter(&v)),
            ..SimConfig::default()
        }
    }
}

/// Parses a [`WIRE_JITTER_ENV`] value: `<sigma_fs>[:<seed>]`.
fn parse_jitter(raw: &str) -> Option<Jitter> {
    let (sigma, seed) = match raw.split_once(':') {
        Some((sigma, seed)) => (sigma, seed.trim().parse().ok()?),
        None => (raw, WIRE_JITTER_DEFAULT_SEED),
    };
    let sigma_fs: u64 = sigma.trim().parse().ok()?;
    (sigma_fs > 0).then(|| Jitter {
        sigma: Time::from_fs(sigma_fs),
        seed,
    })
}

/// Everything observable about one finished run: the output two
/// configurations of the engine must agree on. Queue metrics such as
/// [`ActivityReport::peak_pending`](crate::ActivityReport::peak_pending)
/// describe how a run was computed, not what it computed, and are not
/// part of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Events processed and the clock when the run stopped.
    pub summary: RunSummary,
    /// Recorded pulse times, one list per probe in the order asked for.
    pub probe_times: Vec<Vec<Time>>,
    /// Pulses handled per component.
    pub handled: Vec<u64>,
    /// Pulses emitted per component.
    pub emitted: Vec<u64>,
    /// Anomaly tallies, rendered as `(StatKind debug name, count)` in
    /// `StatKind` order.
    pub anomalies: Vec<(String, u64)>,
    /// Rendered sanitizer violations, in the order of
    /// [`SanitizerReport::violations`](crate::SanitizerReport::violations);
    /// empty when the sanitizer is off.
    pub violations: Vec<String>,
}

impl Fingerprint {
    /// Captures a finished run of `sim`, whose `run` returned
    /// `summary`, recording `probes` in the given order.
    ///
    /// # Panics
    ///
    /// Panics if a probe's count, read before its times, disagrees
    /// with the number of times it then returns.
    pub fn capture(sim: &ShardedSimulator, summary: RunSummary, probes: &[ProbeId]) -> Fingerprint {
        let activity = sim.activity();
        Fingerprint {
            summary,
            probe_times: probes
                .iter()
                .map(|&p| {
                    let count = sim.probe_count(p);
                    let times = sim.probe_times(p);
                    assert_eq!(
                        count,
                        times.len(),
                        "probe {} counts {count} pulses but reads {} times",
                        p.index(),
                        times.len()
                    );
                    times.to_vec()
                })
                .collect(),
            handled: activity.handled.clone(),
            emitted: activity.emitted.clone(),
            anomalies: activity
                .anomalies
                .iter()
                .map(|(kind, &count)| (format!("{kind:?}"), count))
                .collect(),
            violations: sim.sanitizer_violations(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `USFQ_BURST` grammar and all three variables at once,
    /// through a pure lookup; no variable sets the scheduler.
    /// `USFQ_SHARDS` is tested in `shard::tests::shards_env_parsing` and
    /// `USFQ_WIRE_JITTER` in `engine::tests::wire_jitter_env_grammar`.
    #[test]
    fn engine_variable_grammar() {
        let edit = |f: fn(&mut SimConfig)| {
            let mut cfg = SimConfig::default();
            f(&mut cfg);
            cfg
        };
        let default = SimConfig::default();
        let cases: &[(&[(&str, &str)], SimConfig)] = &[
            (&[], default.clone()),
            (&[("USFQ_SCHED", "wheel")], default.clone()),
            // USFQ_BURST: 0|off|false|no disable, anything else enables.
            (&[(BURST_ENV, "0")], edit(|c| c.burst = false)),
            (&[(BURST_ENV, " OFF ")], edit(|c| c.burst = false)),
            (&[(BURST_ENV, "false")], edit(|c| c.burst = false)),
            (&[(BURST_ENV, "No")], edit(|c| c.burst = false)),
            (&[(BURST_ENV, "1")], default.clone()),
            (&[(BURST_ENV, "")], default.clone()),
            (&[(BURST_ENV, "nope")], default),
            // All three at once; the sanitizer has no variable.
            (
                &[
                    (BURST_ENV, "no"),
                    (SHARDS_ENV, "2"),
                    (WIRE_JITTER_ENV, "4000:9"),
                ],
                SimConfig {
                    sched: Sched::Heap,
                    burst: false,
                    shards: 2,
                    jitter: Some(jitter(4000, 9)),
                    sanitizer: None,
                },
            ),
        ];
        for (vars, want) in cases {
            assert_eq!(&SimConfig::from_vars(vars), want, "{vars:?}");
        }
    }

    fn jitter(fs: u64, seed: u64) -> Jitter {
        Jitter {
            sigma: Time::from_fs(fs),
            seed,
        }
    }

    #[test]
    fn reference_is_heap_pulse_sequential_and_bare() {
        let r = SimConfig::reference();
        assert_eq!(
            (r.sched, r.burst, r.shards, r.jitter, r.sanitizer),
            (Sched::Heap, false, 1, None, None)
        );
    }
}
