//! Coalescing observability — not a paper figure, but the engine
//! telemetry that explains the figures' wall-clock: for each
//! pulse-stream kernel, how the burst engine actually handled the
//! workload. Closed-form hits (whole trains consumed atomically),
//! lazy suffix splits, chase steps (queue-bypassing single-wire
//! hand-offs), and fall-backs to pulse-level dispatch broken down by
//! reason: a jitter envelope exceeding a cell's window, a feedback
//! cycle under jitter, a sanitizer attached to a train queued before
//! it (a sanitized run is otherwise a pulse run and queues no train),
//! or a cell declining the closed form.
//!
//! The same counters ride along in every `benchkernel` snapshot (the
//! `coalesce` provenance block) so a CI timing shift can be
//! attributed to a coalescing-behavior change without a bisect.

use usfq_sim::{CoalesceStats, SimConfig, Simulator, Time};

use crate::kernels::{
    burst_stream, counting_feedback, drive_burst_stream, drive_burst_stream_jittered,
    drive_counting_feedback, BURST_STREAM_JITTER_SIGMA_PS, JITTER_SEED,
};
use crate::render;

/// One kernel's coalescing telemetry.
#[derive(Debug, Clone)]
pub struct CoalescePoint {
    /// Kernel identifier (matches the `benchkernel` snapshot key suffix).
    pub kernel: String,
    /// Whole trains consumed in closed form.
    pub hits: u64,
    /// Pulses those trains carried (the events the queue never saw).
    pub pulses: u64,
    /// Trains split lazily at a consumption boundary.
    pub lazy_splits: u64,
    /// Queue-bypassing single-wire hand-offs.
    pub chases: u64,
    /// Fall-backs: jitter envelope exceeded a cell's window.
    pub bail_jitter: u64,
    /// Fall-backs: feedback cycle under jitter.
    pub bail_feedback: u64,
    /// Fall-backs: a sanitizer was attached.
    pub bail_sanitizer: u64,
    /// Fall-backs: cell declined the closed form.
    pub bail_cell: u64,
}

crate::json::to_json!(CoalescePoint:
    kernel, hits, pulses, lazy_splits, chases, bail_jitter, bail_feedback, bail_sanitizer,
    bail_cell
);

fn point(kernel: &str, c: CoalesceStats) -> CoalescePoint {
    CoalescePoint {
        kernel: kernel.to_string(),
        hits: c.hits,
        pulses: c.pulses,
        lazy_splits: c.lazy_splits,
        chases: c.chases,
        bail_jitter: c.bail_jitter,
        bail_feedback: c.bail_feedback,
        bail_sanitizer: c.bail_sanitizer,
        bail_cell: c.bail_cell,
    }
}

/// Runs each pulse-stream kernel once, coalesced, and collects its
/// telemetry.
pub fn series() -> Vec<CoalescePoint> {
    let coalesced = |c| {
        Simulator::with_config(
            c,
            &SimConfig {
                burst: true,
                ..SimConfig::from_env().clone()
            },
        )
    };
    let mut out = Vec::new();
    {
        let (c, input, div, tap) = burst_stream();
        let mut sim = coalesced(c);
        drive_burst_stream(&mut sim, input, div, tap, 12);
        out.push(point("burst_stream/12bits", sim.activity().coalesce));
    }
    {
        let (c, input, div, tap) = burst_stream();
        let mut sim = coalesced(c);
        sim.enable_wire_jitter(Time::from_ps(BURST_STREAM_JITTER_SIGMA_PS), JITTER_SEED);
        drive_burst_stream_jittered(&mut sim, input, div, tap, 12);
        out.push(point("burst_stream/12bits_jitter", sim.activity().coalesce));
    }
    {
        let (c, input, probe) = counting_feedback();
        let mut sim = coalesced(c);
        drive_counting_feedback(&mut sim, input, probe, 12);
        out.push(point(
            "burst_stream/counting_feedback",
            sim.activity().coalesce,
        ));
    }
    out
}

/// Renders the telemetry table.
pub fn render() -> String {
    let mut out =
        String::from("burst coalescing telemetry: closed-form hits and fall-backs per kernel\n");
    let rows: Vec<Vec<String>> = series()
        .iter()
        .map(|p| {
            vec![
                p.kernel.clone(),
                p.hits.to_string(),
                p.pulses.to_string(),
                p.lazy_splits.to_string(),
                p.chases.to_string(),
                p.bail_jitter.to_string(),
                p.bail_feedback.to_string(),
                p.bail_sanitizer.to_string(),
                p.bail_cell.to_string(),
            ]
        })
        .collect();
    out.push_str(&render::table(
        &[
            "kernel", "hits", "pulses", "splits", "chases", "b.jitter", "b.cycle", "b.sanit",
            "b.cell",
        ],
        &rows,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The showcase kernels must actually coalesce — a silent fall
    /// back to pulse level would leave the telemetry all zeros and
    /// the speedup claims hollow.
    #[test]
    fn kernels_coalesce_and_report_it() {
        let pts = series();
        assert_eq!(pts.len(), 3);
        for p in &pts {
            assert!(p.hits > 0, "{p:?}");
            assert!(p.pulses > p.hits, "{p:?}");
        }
        let jittered = &pts[1];
        assert_eq!(jittered.bail_jitter, 0, "{jittered:?}");
        let feedback = &pts[2];
        assert_eq!(feedback.bail_feedback, 0, "{feedback:?}");
        // log-generation consumption: far fewer hits than pulses.
        assert!(feedback.hits < 64, "{feedback:?}");
    }

    #[test]
    fn renders() {
        let s = render();
        assert!(s.contains("closed-form hits"));
        assert!(s.contains("counting_feedback"));
    }
}
