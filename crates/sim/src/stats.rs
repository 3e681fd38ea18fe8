//! Switching-activity and anomaly statistics collected during a run.

use std::collections::BTreeMap;

/// Discrete anomaly events a component may report via
/// [`crate::Ctx::record`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum StatKind {
    /// Two pulses arrived at a merger closer than its collision window and
    /// only one propagated (the paper's Fig. 5 loss mode).
    MergerCollision,
    /// A pulse arrived at a balancer while its routing flip-flop was still
    /// transitioning; the pulse was routed by the stale state (paper §4.2
    /// case iii — output count preserved, routing possibly biased).
    BalancerTransitionHit,
    /// A pulse was dropped by an injected fault.
    InjectedLoss,
    /// A state-holding cell received a pulse it had to ignore (e.g. a second
    /// `set` while already set).
    IgnoredPulse,
}

/// Observability counters for the coalesced-burst fast path: how often
/// trains were absorbed in closed form, and — when they were not — why.
///
/// Purely diagnostic: never part of a differential fingerprint (the
/// two engines *should* differ here), but surfaced in `figures --json`
/// and the benchkernel provenance block so a regression in coalesce
/// coverage shows up in CI before it shows up as wall-clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoalesceStats {
    /// Closed-form `step_burst` absorptions of two or more pulses (a
    /// one-pulse prefix takes the exact head path instead).
    pub hits: u64,
    /// Pulses absorbed by those closed-form steps.
    pub pulses: u64,
    /// Trains re-queued with a remainder after a partial absorb.
    pub lazy_splits: u64,
    /// Emitted trains delivered by the chase loop without a queue
    /// round-trip (the whole-epoch symbolic fast path).
    pub chases: u64,
    /// Bail-outs because a jitter envelope could not be kept symbolic
    /// (per-wire expansion, head-only prefixes, depth-capped trails).
    pub bail_jitter: u64,
    /// Bail-outs because the receiver sits on a feedback cycle whose
    /// lookahead could not cover the train (or jitter made the nominal
    /// lookahead unsound).
    pub bail_feedback: u64,
    /// Bail-outs because a sanitizer was attached: a sanitized run is a
    /// pulse run, so this counts only prefixes of trains queued before
    /// [`Simulator::enable_sanitizer`](crate::Simulator::enable_sanitizer).
    pub bail_sanitizer: u64,
    /// Bail-outs because the cell itself declined
    /// (`BurstStep::PulseByPulse`).
    pub bail_cell: u64,
}

impl CoalesceStats {
    /// Sums another shard's (or run's) counters into this one.
    pub fn merge(&mut self, other: &CoalesceStats) {
        self.hits += other.hits;
        self.pulses += other.pulses;
        self.lazy_splits += other.lazy_splits;
        self.chases += other.chases;
        self.bail_jitter += other.bail_jitter;
        self.bail_feedback += other.bail_feedback;
        self.bail_sanitizer += other.bail_sanitizer;
        self.bail_cell += other.bail_cell;
    }

    /// Total bail-outs across all reasons.
    pub fn bails(&self) -> u64 {
        self.bail_jitter + self.bail_feedback + self.bail_sanitizer + self.bail_cell
    }
}

/// Per-component pulse counters plus global anomaly tallies.
///
/// Activity is the basis of the active-power model: active energy is
/// proportional to the number of pulses each cell processes, weighted by the
/// cell's switching-JJ estimate.
#[derive(Debug, Clone, Default)]
pub struct ActivityReport {
    /// Pulses handled (arrived at) each component, indexed by component id.
    pub handled: Vec<u64>,
    /// Pulses emitted by each component, indexed by component id.
    pub emitted: Vec<u64>,
    /// Anomaly tallies across the whole circuit.
    pub anomalies: BTreeMap<StatKind, u64>,
    /// High-water mark of the event queue across the run — how many
    /// pulses were in flight at the busiest instant. Both schedulers
    /// count it identically, but it is a queue metric, not behaviour:
    /// it depends on the delivery mode and, for a sharded run (the
    /// largest shard's), on the shard count, so it is not part of a
    /// [`Fingerprint`](crate::Fingerprint).
    pub peak_pending: u64,
    /// Burst-coalescing observability counters (see [`CoalesceStats`]).
    /// Excluded from differential fingerprints: the pulse engine
    /// legitimately records zeros where the burst engine records hits.
    pub coalesce: CoalesceStats,
}

impl ActivityReport {
    pub(crate) fn with_components(n: usize) -> Self {
        ActivityReport {
            handled: vec![0; n],
            emitted: vec![0; n],
            anomalies: BTreeMap::new(),
            peak_pending: 0,
            coalesce: CoalesceStats::default(),
        }
    }

    /// Total pulses handled across all components.
    pub fn total_handled(&self) -> u64 {
        self.handled.iter().sum()
    }

    /// Total pulses emitted across all components.
    pub fn total_emitted(&self) -> u64 {
        self.emitted.iter().sum()
    }

    /// Count of a particular anomaly, zero if never recorded.
    pub fn anomaly_count(&self, kind: StatKind) -> u64 {
        self.anomalies.get(&kind).copied().unwrap_or(0)
    }

    pub(crate) fn record_anomaly(&mut self, kind: StatKind) {
        *self.anomalies.entry(kind).or_insert(0) += 1;
    }

    /// Batched form of [`ActivityReport::record_anomaly`], used when a
    /// coalesced burst accounts for `n` identical anomalies at once so
    /// the tallies stay identical to pulse-level simulation.
    pub(crate) fn record_anomaly_n(&mut self, kind: StatKind, n: u64) {
        if n > 0 {
            *self.anomalies.entry(kind).or_insert(0) += n;
        }
    }

    /// Zeroes every counter in place, keeping the allocated per-component
    /// vectors — so a [`crate::Simulator::reset`] between trials costs no
    /// allocation.
    pub fn reset(&mut self) {
        self.handled.fill(0);
        self.emitted.fill(0);
        self.anomalies.clear();
        self.peak_pending = 0;
        self.coalesce = CoalesceStats::default();
    }

    /// Renders a per-component activity summary against the circuit's
    /// bill of materials, hottest components first — the raw material
    /// of a power debug session.
    pub fn render(&self, circuit: &crate::circuit::Circuit) -> String {
        use std::fmt::Write as _;
        let mut rows: Vec<(&str, u32, u64, u64)> = circuit
            .components()
            .map(|(id, name, jj)| {
                let i = id.index();
                (name, jj, self.handled[i], self.emitted[i])
            })
            .collect();
        rows.sort_by_key(|&(_, _, handled, _)| std::cmp::Reverse(handled));
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<24} {:>5} {:>10} {:>10}",
            "component", "JJ", "handled", "emitted"
        );
        for (name, jj, handled, emitted) in rows {
            let _ = writeln!(out, "{name:<24} {jj:>5} {handled:>10} {emitted:>10}");
        }
        for (kind, count) in &self.anomalies {
            let _ = writeln!(out, "anomaly {kind:?}: {count}");
        }
        if self.peak_pending > 0 {
            let _ = writeln!(out, "peak pending events: {}", self.peak_pending);
        }
        let c = &self.coalesce;
        if c.hits > 0 || c.bails() > 0 {
            let _ = writeln!(
                out,
                "coalesce: {} hits ({} pulses), {} lazy splits, {} chases; bails: {} jitter, {} feedback, {} sanitizer, {} cell",
                c.hits,
                c.pulses,
                c.lazy_splits,
                c.chases,
                c.bail_jitter,
                c.bail_feedback,
                c.bail_sanitizer,
                c.bail_cell
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_sorts_by_activity() {
        use crate::circuit::Circuit;
        use crate::component::Buffer;
        use crate::Time;
        let mut c = Circuit::new();
        c.add(Buffer::new("cold", Time::ZERO));
        c.add(Buffer::new("hot", Time::ZERO));
        let mut r = ActivityReport::with_components(2);
        r.handled[0] = 1;
        r.handled[1] = 100;
        r.emitted[1] = 100;
        r.record_anomaly(StatKind::IgnoredPulse);
        let s = r.render(&c);
        let hot_at = s.find("hot").unwrap();
        let cold_at = s.find("cold").unwrap();
        assert!(hot_at < cold_at, "hot component listed first:\n{s}");
        assert!(s.contains("anomaly IgnoredPulse: 1"));
    }

    #[test]
    fn totals_and_anomalies() {
        let mut r = ActivityReport::with_components(3);
        r.handled[0] = 2;
        r.handled[2] = 5;
        r.emitted[1] = 4;
        r.record_anomaly(StatKind::MergerCollision);
        r.record_anomaly(StatKind::MergerCollision);
        assert_eq!(r.total_handled(), 7);
        assert_eq!(r.total_emitted(), 4);
        assert_eq!(r.anomaly_count(StatKind::MergerCollision), 2);
        assert_eq!(r.anomaly_count(StatKind::InjectedLoss), 0);
        r.reset();
        assert_eq!(r.handled, vec![0, 0, 0]);
        assert_eq!(r.emitted, vec![0, 0, 0]);
        assert_eq!(r.anomaly_count(StatKind::MergerCollision), 0);
    }
}
