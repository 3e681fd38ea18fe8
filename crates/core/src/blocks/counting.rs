//! The M:1 counting network (paper §4.2-B, Fig. 6d): a binary tree of
//! 2:2 balancers that accumulates M parallel pulse streams without
//! collision loss.
//!
//! Each balancer emits `(N_A + N_B) / 2` pulses on *each* output, so a
//! tree that forwards one output per stage delivers
//! `(N₁ + … + N_M) / M` at the root — the paper's Fig. 6d builds the
//! 4:1 network from exactly three balancers. Odd pulse counts round up
//! at each stage (the first of an odd total lands on the forwarded
//! output), producing the ±0.5-pulse error the paper notes in §5.4.1.

use usfq_cells::balancer::Balancer;
use usfq_encoding::{Epoch, PulseStream};
use usfq_sim::{Circuit, InputId, NodeRef, ProbeId, SimError, Time};

use crate::error::CoreError;
use crate::rig::Rig;

/// An M:1 counting network of balancers (M a power of two).
#[derive(Debug, Clone, Copy)]
pub struct CountingNetwork {
    epoch: Epoch,
    width: usize,
}

impl CountingNetwork {
    /// Creates a counting network of the given width.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] unless `width` is a power of
    /// two and at least 2 (paper: "M is a power of two").
    pub fn new(epoch: Epoch, width: usize) -> Result<Self, CoreError> {
        if width < 2 || !width.is_power_of_two() {
            return Err(CoreError::InvalidConfig(format!(
                "counting network width must be a power of two >= 2, got {width}"
            )));
        }
        Ok(CountingNetwork { epoch, width })
    }

    /// The network's epoch.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Number of inputs M.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of balancers: `M − 1` (paper Fig. 6d: a 4:1 network uses
    /// three).
    pub fn balancer_count(&self) -> u64 {
        self.width as u64 - 1
    }

    /// Tree depth in balancer stages: `log2 M`.
    pub fn depth(&self) -> u32 {
        self.width.trailing_zeros()
    }

    /// Sums `width` streams through the simulated balancer tree; the
    /// returned stream (the root's Y1) encodes `(p_1 + … + p_M) / M`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] on an input-count mismatch,
    /// or a simulation error.
    pub fn accumulate(&self, streams: &[PulseStream]) -> Result<PulseStream, CoreError> {
        self.accumulate_on(&mut Rig::new(self.circuit()?), streams)
    }

    /// Sums `width` streams on a rig of [`CountingNetwork::circuit`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] on an input-count mismatch,
    /// or a simulation error.
    pub fn accumulate_on(
        &self,
        rig: &mut Rig<CountingIo>,
        streams: &[PulseStream],
    ) -> Result<PulseStream, CoreError> {
        self.check_inputs(streams)?;
        rig.run(|stimulus, io| {
            // Stagger the inputs so lanes interleave at the first rank.
            let stagger = Time::from_ps(1.0);
            for (i, (&input, stream)) in io.inputs.iter().zip(streams).enumerate() {
                let offset = stagger.scale(i as u64);
                stimulus.schedule_burst(input, stream.burst_from(Time::ZERO).delayed(offset))?;
            }
            Ok(())
        })?;
        Ok(PulseStream::from_count(
            (rig.sim().probe_count(rig.io().top) as u64).min(self.epoch.n_max()),
            self.epoch,
        )?)
    }

    /// The standalone network: inputs `a{i}` through pass-through
    /// buffers into the balancer tree, probed at `top`.
    ///
    /// # Errors
    ///
    /// Propagates circuit wiring errors.
    pub fn circuit(&self) -> Result<(Circuit, CountingIo), CoreError> {
        let mut c = Circuit::new();
        let mut inputs = Vec::with_capacity(self.width);
        let mut lanes = Vec::with_capacity(self.width);
        for i in 0..self.width {
            let input = c.input(format!("a{i}"));
            let b = c.add(usfq_sim::component::Buffer::new(
                format!("in{i}"),
                Time::ZERO,
            ));
            c.connect_input(input, b.input(0), Time::ZERO)?;
            inputs.push(input);
            lanes.push(b.output(0));
        }
        let top = Self::build_tree(&mut c, lanes, "bal")?;
        let top = c.probe(top, "top");
        Ok((c, CountingIo { inputs, top }))
    }

    /// Reduces `lanes` (a power of two of them) pairwise through a
    /// balancer tree that forwards `Y1` at every stage (paper Fig. 6d),
    /// naming the balancers `{prefix}0`, `{prefix}1`, … level by level,
    /// and returns the root. The one counting tree: the standalone
    /// network, the monolithic DPU and the composed FIR netlist all use
    /// it.
    ///
    /// # Errors
    ///
    /// Propagates circuit wiring errors.
    pub(crate) fn build_tree(
        circuit: &mut Circuit,
        mut lanes: Vec<NodeRef>,
        prefix: &str,
    ) -> Result<NodeRef, SimError> {
        let mut id = 0usize;
        while lanes.len() > 1 {
            let mut next = Vec::with_capacity(lanes.len() / 2);
            for pair in lanes.chunks(2) {
                let bal = circuit.add(Balancer::new(format!("{prefix}{id}")));
                id += 1;
                circuit.connect(pair[0], bal.input(Balancer::IN_A), Time::ZERO)?;
                circuit.connect(pair[1], bal.input(Balancer::IN_B), Time::ZERO)?;
                next.push(bal.output(Balancer::OUT_Y1));
            }
            lanes = next;
        }
        Ok(lanes[0])
    }

    fn check_inputs(&self, streams: &[PulseStream]) -> Result<(), CoreError> {
        if streams.len() != self.width {
            return Err(CoreError::InvalidConfig(format!(
                "expected {} streams, got {}",
                self.width,
                streams.len()
            )));
        }
        Ok(())
    }

    /// Functional mirror: pairwise `⌈(a + b) / 2⌉` reduction, matching
    /// the structural tree's per-stage rounding.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] on an input-count mismatch.
    pub fn accumulate_functional(&self, streams: &[PulseStream]) -> Result<PulseStream, CoreError> {
        self.check_inputs(streams)?;
        let mut counts: Vec<u64> = streams.iter().map(PulseStream::count).collect();
        while counts.len() > 1 {
            counts = counts
                .chunks(2)
                .map(|pair| (pair[0] + pair[1]).div_ceil(2))
                .collect();
        }
        Ok(PulseStream::from_count(
            counts[0].min(self.epoch.n_max()),
            self.epoch,
        )?)
    }
}

/// The ids of a standalone counting network
/// ([`CountingNetwork::circuit`]).
#[derive(Debug, Clone)]
pub struct CountingIo {
    /// One stream input per lane.
    pub inputs: Vec<InputId>,
    /// The root's `Y1` output.
    pub top: ProbeId,
}

#[cfg(test)]
mod tests {
    use super::*;
    use usfq_sim::check::for_all;

    fn epoch(bits: u32) -> Epoch {
        Epoch::with_slot(bits, usfq_cells::catalog::t_bff()).unwrap()
    }

    #[test]
    fn rejects_bad_widths() {
        let e = epoch(4);
        assert!(CountingNetwork::new(e, 0).is_err());
        assert!(CountingNetwork::new(e, 1).is_err());
        assert!(CountingNetwork::new(e, 3).is_err());
        assert!(CountingNetwork::new(e, 6).is_err());
        assert!(CountingNetwork::new(e, 4).is_ok());
    }

    /// Paper Fig. 6d: a 4:1 network uses exactly three balancers.
    #[test]
    fn balancer_count_matches_figure() {
        let e = epoch(4);
        assert_eq!(CountingNetwork::new(e, 4).unwrap().balancer_count(), 3);
        assert_eq!(CountingNetwork::new(e, 2).unwrap().balancer_count(), 1);
        assert_eq!(CountingNetwork::new(e, 256).unwrap().balancer_count(), 255);
        assert_eq!(CountingNetwork::new(e, 8).unwrap().depth(), 3);
    }

    #[test]
    fn four_to_one_accumulates() {
        let e = epoch(4);
        let net = CountingNetwork::new(e, 4).unwrap();
        let streams = [
            PulseStream::from_count(8, e).unwrap(),
            PulseStream::from_count(4, e).unwrap(),
            PulseStream::from_count(2, e).unwrap(),
            PulseStream::from_count(2, e).unwrap(),
        ];
        let out = net.accumulate(&streams).unwrap();
        assert_eq!(out.count(), 4); // 16 / 4
    }

    #[test]
    fn functional_matches_structural_width8() {
        let e = epoch(4);
        let net = CountingNetwork::new(e, 8).unwrap();
        let counts = [3u64, 7, 0, 16, 5, 9, 1, 12];
        let streams: Vec<_> = counts
            .iter()
            .map(|&n| PulseStream::from_count(n, e).unwrap())
            .collect();
        let s = net.accumulate(&streams).unwrap();
        let f = net.accumulate_functional(&streams).unwrap();
        // Total 53 over 8 lanes ≈ 7 after per-stage rounding.
        assert!(
            (f.count() as i64 - 7).abs() <= 1,
            "functional {}",
            f.count()
        );
        assert!((s.count() as i64 - f.count() as i64).abs() <= 1);
    }

    #[test]
    fn width_mismatch_rejected() {
        let e = epoch(3);
        let net = CountingNetwork::new(e, 4).unwrap();
        let s = PulseStream::from_count(1, e).unwrap();
        assert!(net.accumulate(&[s, s]).is_err());
        assert!(net.accumulate_functional(&[s, s, s]).is_err());
        assert_eq!(net.width(), 4);
        assert_eq!(net.epoch(), e);
    }

    /// The first `2^width_log` counts of `seed` as 4-bit streams into
    /// a counting network of that width.
    fn network(width_log: u32, seed: &[u64]) -> (CountingNetwork, Vec<PulseStream>) {
        let e = epoch(4);
        let width = 1usize << width_log;
        let streams = seed[..width]
            .iter()
            .map(|&n| PulseStream::from_count(n, e).unwrap())
            .collect();
        (CountingNetwork::new(e, width).unwrap(), streams)
    }

    /// The root output approximates total/M within one pulse per tree
    /// stage (per-stage ceil rounding).
    fn assert_root_tracks_average(width_log: u32, seed: &[u64]) {
        let (net, streams) = network(width_log, seed);
        let top = net.accumulate(&streams).unwrap().count();
        let total: u64 = streams.iter().map(PulseStream::count).sum();
        let ideal = total as f64 / streams.len() as f64;
        assert!(
            (top as f64 - ideal).abs() <= width_log as f64 + 1.0,
            "top {top}, ideal {ideal}"
        );
    }

    /// Functional and structural trees agree within the balancer bias
    /// tolerance.
    fn assert_functional_tracks_structural(width_log: u32, seed: &[u64]) {
        let (net, streams) = network(width_log, seed);
        let s = net.accumulate(&streams).unwrap().count();
        let f = net.accumulate_functional(&streams).unwrap().count();
        assert!(
            (s as i64 - f as i64).abs() <= width_log as i64,
            "structural {s}, functional {f}"
        );
    }

    #[test]
    fn root_tracks_average() {
        for_all(256, |rng| {
            let width_log = rng.gen_range(1u32..=3);
            assert_root_tracks_average(width_log, &rng.vec(0u64..=16, 8));
        });
    }

    #[test]
    fn functional_tracks_structural() {
        for_all(256, |rng| {
            let width_log = rng.gen_range(1u32..=3);
            assert_functional_tracks_structural(width_log, &rng.vec(0u64..=16, 8));
        });
    }

    /// The input a past property run shrank a failure to.
    #[test]
    fn counting_regression_case() {
        let seed = [2, 12, 15, 7, 14, 7, 0, 14];
        assert_root_tracks_average(3, &seed);
        assert_functional_tracks_structural(3, &seed);
    }
}
