//! Interleaving switches: 1:2 demultiplexer and 2:1 multiplexer
//! [Zheng '99], used by the RL memory cell (paper Fig. 10d) to ping-pong
//! between its two integrator buffers on alternating epochs.

use usfq_sim::circuit::{NodeRef, SinkRef};
use usfq_sim::component::{CellState, Component, Ctx, Hazard, StaticMeta};
use usfq_sim::{Circuit, SimError, Time};

use crate::catalog;
use crate::interconnect::Jtl;

/// A 1:2 demultiplexer: routes `IN` pulses to the currently selected
/// output; each `SEL` pulse toggles the selection. Its state bit is the
/// selected output.
#[derive(Debug, Clone)]
pub struct Demux {
    name: String,
    delay: Time,
}

impl Demux {
    /// Data input port.
    pub const IN: usize = 0;
    /// Selection-toggle port.
    pub const IN_SEL: usize = 1;
    /// First output (selected at power-on).
    pub const OUT_A: usize = 0;
    /// Second output.
    pub const OUT_B: usize = 1;

    /// Creates a demux selecting [`Demux::OUT_A`].
    pub fn new(name: impl Into<String>) -> Self {
        Demux {
            name: name.into(),
            delay: catalog::t_ff(),
        }
    }

    /// The output port a demux in `state` selects.
    pub fn selected(state: CellState) -> usize {
        usize::from(state.bits)
    }
}

impl Component for Demux {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_inputs(&self) -> usize {
        2
    }
    fn num_outputs(&self) -> usize {
        2
    }
    fn jj_count(&self) -> u32 {
        catalog::JJ_DEMUX
    }
    fn on_pulse(&self, state: &mut CellState, port: usize, _now: Time, ctx: &mut Ctx) {
        match port {
            Self::IN => ctx.emit(Self::selected(*state), self.delay),
            Self::IN_SEL => state.bits ^= 1,
            _ => unreachable!("demux has two inputs"),
        }
    }
    fn static_meta(&self) -> StaticMeta {
        StaticMeta::new("demux", self.delay).with_hazard(Hazard::Setup {
            control: Self::IN_SEL,
            sampled: Self::IN,
            window: self.delay,
        })
    }
}

/// A 1:*n* demultiplexer built as a balanced binary tree of [`Demux`]
/// cells, the temporal-router crossbar primitive: `IN` pulses reach
/// exactly one of `n` leaves, chosen by the states of the internal
/// demuxes.
///
/// Unlike a full 2^k tree, the tree is sized to exactly `n` leaves
/// (`n - 1` demuxes), so no output ever dangles — every leaf is a real
/// destination and the netlist stays clean under the unconsumed-output
/// lint. Each internal demux exposes its `SEL` sink in `selects`
/// (creation order); [`DemuxTree::paths`] records, per leaf, which
/// `(select, state)` settings steer `IN` there, with `false` meaning
/// the power-on [`Demux::OUT_A`] side.
///
/// A single-leaf tree degenerates to a [`Jtl`] passthrough so the
/// `input`/`leaves` contract holds for every `n >= 1`.
#[derive(Debug)]
pub struct DemuxTree {
    /// Drive data pulses into this sink.
    pub input: SinkRef,
    /// The `n` leaf outputs, in order.
    pub leaves: Vec<NodeRef>,
    /// `SEL` sinks of the internal demuxes, in creation order.
    pub selects: Vec<SinkRef>,
    /// Per leaf: the `(select index, state)` settings along its path.
    /// `state == false` selects [`Demux::OUT_A`].
    pub paths: Vec<Vec<(usize, bool)>>,
}

impl DemuxTree {
    /// Instantiates a tree with `n` leaves into `circuit`. Demuxes are
    /// named `{name}_d{i}`; the degenerate single-leaf passthrough is
    /// `{name}_j0`.
    ///
    /// # Errors
    ///
    /// `n == 0` is rejected as [`SimError::InvalidPort`]-free misuse:
    /// the builder returns the circuit's wiring error if any connect
    /// fails (none occur for a well-formed build).
    pub fn build(circuit: &mut Circuit, name: &str, n: usize) -> Result<Self, SimError> {
        assert!(n >= 1, "DemuxTree needs at least one leaf");
        if n == 1 {
            let j = circuit.add(Jtl::new(format!("{name}_j0")));
            return Ok(DemuxTree {
                input: j.input(Jtl::IN),
                leaves: vec![j.output(Jtl::OUT)],
                selects: Vec::new(),
                paths: vec![Vec::new()],
            });
        }
        let mut selects = Vec::new();
        let mut leaves = Vec::new();
        let mut paths = Vec::new();
        let input = Self::subtree(
            circuit,
            name,
            n,
            &mut Vec::new(),
            &mut selects,
            &mut leaves,
            &mut paths,
        )?;
        Ok(DemuxTree {
            input,
            leaves,
            selects,
            paths,
        })
    }

    /// Builds the subtree for `n >= 2` leaves and returns its root data
    /// sink; `n == 1` subtrees are handled by the caller wiring the
    /// parent demux output straight through.
    fn subtree(
        circuit: &mut Circuit,
        name: &str,
        n: usize,
        prefix: &mut Vec<(usize, bool)>,
        selects: &mut Vec<SinkRef>,
        leaves: &mut Vec<NodeRef>,
        paths: &mut Vec<Vec<(usize, bool)>>,
    ) -> Result<SinkRef, SimError> {
        debug_assert!(n >= 2);
        let idx = selects.len();
        let d = circuit.add(Demux::new(format!("{name}_d{idx}")));
        selects.push(d.input(Demux::IN_SEL));
        let left = n.div_ceil(2);
        for (state, out, count) in [(false, Demux::OUT_A, left), (true, Demux::OUT_B, n - left)] {
            prefix.push((idx, state));
            if count == 1 {
                leaves.push(d.output(out));
                paths.push(prefix.clone());
            } else {
                let child = Self::subtree(circuit, name, count, prefix, selects, leaves, paths)?;
                circuit.connect(d.output(out), child, Time::ZERO)?;
            }
            prefix.pop();
        }
        Ok(d.input(Demux::IN))
    }
}

/// A 2:1 multiplexer. In the memory cell the two sources are active on
/// disjoint epochs, so the cell is simply a loss-free confluence of its
/// inputs.
#[derive(Debug, Clone)]
pub struct Mux {
    name: String,
    delay: Time,
}

impl Mux {
    /// First data input.
    pub const IN_A: usize = 0;
    /// Second data input.
    pub const IN_B: usize = 1;
    /// Output port.
    pub const OUT: usize = 0;

    /// Creates a mux.
    pub fn new(name: impl Into<String>) -> Self {
        Mux {
            name: name.into(),
            delay: catalog::t_ff(),
        }
    }
}

impl Component for Mux {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_inputs(&self) -> usize {
        2
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn jj_count(&self) -> u32 {
        catalog::JJ_MUX
    }
    fn on_pulse(&self, _state: &mut CellState, _port: usize, _now: Time, ctx: &mut Ctx) {
        ctx.emit(Self::OUT, self.delay);
    }
    fn static_meta(&self) -> StaticMeta {
        StaticMeta::new("mux", self.delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usfq_sim::{Circuit, Simulator};

    #[test]
    fn demux_routes_and_toggles() {
        let mut c = Circuit::new();
        let din = c.input("in");
        let sel = c.input("sel");
        let d = c.add(Demux::new("d"));
        c.connect_input(din, d.input(Demux::IN), Time::ZERO)
            .unwrap();
        c.connect_input(sel, d.input(Demux::IN_SEL), Time::ZERO)
            .unwrap();
        let pa = c.probe(d.output(Demux::OUT_A), "a");
        let pb = c.probe(d.output(Demux::OUT_B), "b");
        let mut sim = Simulator::new(c);
        sim.schedule_input(din, Time::from_ps(0.0)).unwrap(); // → A
        sim.schedule_input(sel, Time::from_ps(10.0)).unwrap();
        sim.schedule_input(din, Time::from_ps(20.0)).unwrap(); // → B
        sim.schedule_input(din, Time::from_ps(30.0)).unwrap(); // → B
        sim.schedule_input(sel, Time::from_ps(40.0)).unwrap();
        sim.schedule_input(din, Time::from_ps(50.0)).unwrap(); // → A
        sim.run().unwrap();
        assert_eq!(sim.probe_count(pa), 2);
        assert_eq!(sim.probe_count(pb), 2);
    }

    #[test]
    fn demux_reset_selects_a() {
        let d = Demux::new("d");
        let mut state = d.power_on();
        let mut ctx = Ctx::default();
        d.on_pulse(&mut state, Demux::IN_SEL, Time::ZERO, &mut ctx);
        assert_eq!(Demux::selected(state), Demux::OUT_B);
        state = d.power_on();
        assert_eq!(Demux::selected(state), Demux::OUT_A);
    }

    #[test]
    fn mux_merges_disjoint_sources() {
        let mut c = Circuit::new();
        let a = c.input("a");
        let b = c.input("b");
        let m = c.add(Mux::new("m"));
        c.connect_input(a, m.input(Mux::IN_A), Time::ZERO).unwrap();
        c.connect_input(b, m.input(Mux::IN_B), Time::ZERO).unwrap();
        let y = c.probe(m.output(Mux::OUT), "y");
        let mut sim = Simulator::new(c);
        sim.schedule_input(a, Time::from_ps(0.0)).unwrap();
        sim.schedule_input(b, Time::from_ps(100.0)).unwrap();
        sim.run().unwrap();
        assert_eq!(sim.probe_count(y), 2);
    }
}
