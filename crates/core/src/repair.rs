//! Netlist mutation primitives for machine-applied timing repairs.
//!
//! `usfq-lint --fix` drives these against an in-memory [`Circuit`]: the
//! analyzer decides *what* to change (pad a hazard port, legalize an
//! over-driven net) and this module performs the surgery using the
//! simulator's wire-level mutation API ([`Circuit::disconnect`] and
//! friends). Both operations are purely additive — components, inputs,
//! and probes are never removed — so every id a caller holds stays
//! valid. A mutation drops the circuit's compiled form, so the next
//! [`usfq_sim::CircuitGraph`] view compiles the repaired topology
//! afresh, fan-in table and condensation included.
//!
//! The repairs mirror physical design practice from the paper's
//! ecosystem: path-balancing JTL chains are the clock-follow-data delay
//! balancing of Aviles et al., and splitter trees are the only legal
//! fan-out structure in RSFQ (paper Table 1).

use usfq_cells::interconnect::{Jtl, Splitter};
use usfq_sim::{Circuit, CompId, InputId, SimError, Time, WireId};

/// The source net a repair operates on: an external input or one
/// component output port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetSource {
    /// An external input's net.
    Input(InputId),
    /// A component output port's net.
    Output(CompId, usize),
}

/// Splices a chain of `count` catalog JTLs into one wire: the original
/// wire delay moves onto the hop into the chain, the chain links are
/// zero-delay wires, and the last JTL drives the original sink. Each
/// JTL adds its catalog delay, so the sink's arrival shifts later by
/// `count × t_jtl`.
///
/// Inserted cells are named `{prefix}_jtl{i}`; pass a prefix unique
/// within the netlist so JJ accounting and diagnostics stay
/// unambiguous. `count == 0` is a no-op.
///
/// # Errors
///
/// Returns the underlying [`SimError`] when `wire` does not exist.
pub fn insert_jtl_chain(
    c: &mut Circuit,
    wire: WireId,
    count: u32,
    prefix: &str,
) -> Result<(), SimError> {
    if count == 0 {
        return Ok(());
    }
    let (dst, dst_port, delay) = c.disconnect(wire)?;
    let mut chain = Vec::with_capacity(count as usize);
    for i in 0..count {
        chain.push(c.add(Jtl::new(format!("{prefix}_jtl{i}"))));
    }
    let head = chain[0].input(Jtl::IN);
    match wire {
        WireId::FromInput { input, .. } => c.connect_input(input, head, delay)?,
        WireId::FromComp { comp, port, .. } => {
            let from = c.output_ref(comp, port)?;
            c.connect(from, head, delay)?;
        }
    }
    for pair in chain.windows(2) {
        c.connect(pair[0].output(Jtl::OUT), pair[1].input(Jtl::IN), Time::ZERO)?;
    }
    let tail = chain[chain.len() - 1];
    let sink = c.input_ref(dst, dst_port)?;
    c.connect(tail.output(Jtl::OUT), sink, Time::ZERO)?;
    Ok(())
}

/// Rebuilds an over-driven net as an explicit binary splitter tree:
/// every direct wire is disconnected and re-attached to a tree leaf,
/// keeping its original delay, so each physical output drives exactly
/// one sink afterwards (`N − 1` splitters for `N` sinks).
///
/// Returns the number of splitters added (zero when the net already
/// drives at most one sink). Inserted cells are named
/// `{prefix}_spl{i}`.
///
/// # Errors
///
/// Returns the underlying [`SimError`] when `source` does not exist.
pub fn split_fanout(c: &mut Circuit, source: NetSource, prefix: &str) -> Result<usize, SimError> {
    let n = match source {
        NetSource::Input(input) => c.input_fanout(input)?,
        NetSource::Output(comp, port) => c.net_fanout(comp, port)?,
    };
    if n <= 1 {
        return Ok(0);
    }
    // Disconnect in descending position order so earlier handles stay
    // valid, then restore creation order for deterministic tree wiring.
    let mut sinks = Vec::with_capacity(n);
    for nth in (0..n).rev() {
        let id = match source {
            NetSource::Input(input) => WireId::FromInput { input, nth },
            NetSource::Output(comp, port) => WireId::FromComp { comp, port, nth },
        };
        sinks.push(c.disconnect(id)?);
    }
    sinks.reverse();

    let first = c.add(Splitter::new(format!("{prefix}_spl0")));
    match source {
        NetSource::Input(input) => {
            c.connect_input(input, first.input(Splitter::IN), Time::ZERO)?;
        }
        NetSource::Output(comp, port) => {
            let from = c.output_ref(comp, port)?;
            c.connect(from, first.input(Splitter::IN), Time::ZERO)?;
        }
    }
    let mut taps = vec![first.output(Splitter::OUT_A), first.output(Splitter::OUT_B)];
    let mut added = 1usize;
    while taps.len() < n {
        let feed = taps.remove(0);
        let spl = c.add(Splitter::new(format!("{prefix}_spl{added}")));
        added += 1;
        c.connect(feed, spl.input(Splitter::IN), Time::ZERO)?;
        taps.push(spl.output(Splitter::OUT_A));
        taps.push(spl.output(Splitter::OUT_B));
    }
    for (tap, (dst, port, delay)) in taps.into_iter().zip(sinks) {
        let sink = c.input_ref(dst, port)?;
        c.connect(tap, sink, delay)?;
    }
    Ok(added)
}

#[cfg(test)]
mod tests {
    use super::*;
    use usfq_sim::component::Buffer;
    use usfq_sim::Simulator;

    fn buffer(name: &str) -> Buffer {
        Buffer::new(name, Time::from_ps(1.0))
    }

    #[test]
    fn jtl_chain_preserves_sink_and_adds_delay() {
        let mut c = Circuit::new();
        let input = c.input("x");
        let b = c.add(buffer("b"));
        c.connect_input(input, b.input(0), Time::from_ps(2.0))
            .unwrap();
        let p = c.probe(b.output(0), "end");
        insert_jtl_chain(&mut c, WireId::FromInput { input, nth: 0 }, 3, "fx0").unwrap();
        assert_eq!(c.num_components(), 4);
        assert!(c.find_component("fx0_jtl2").is_some());
        assert_eq!(c.input_fanout(input).unwrap(), 1);
        // End-to-end: arrival = wire 2 ps + 3 × t_jtl + buffer 1 ps.
        let mut sim = Simulator::new(c);
        sim.schedule_input(input, Time::ZERO).unwrap();
        sim.run().unwrap();
        let expected =
            Time::from_ps(2.0) + usfq_cells::catalog::t_jtl().scale(3) + Time::from_ps(1.0);
        assert_eq!(sim.probe_times(p), &[expected]);
    }

    #[test]
    fn jtl_chain_of_zero_is_a_noop() {
        let mut c = Circuit::new();
        let input = c.input("x");
        let b = c.add(buffer("b"));
        c.connect_input(input, b.input(0), Time::ZERO).unwrap();
        insert_jtl_chain(&mut c, WireId::FromInput { input, nth: 0 }, 0, "fx0").unwrap();
        assert_eq!(c.num_components(), 1);
    }

    #[test]
    fn split_fanout_legalizes_an_input_net() {
        let mut c = Circuit::new();
        let input = c.input("clk");
        let mut probes = Vec::new();
        for i in 0..5 {
            let b = c.add(buffer(&format!("b{i}")));
            c.connect_input(input, b.input(0), Time::from_ps(f64::from(i)))
                .unwrap();
            probes.push(c.probe(b.output(0), format!("p{i}")));
        }
        assert_eq!(c.fanout_overflows().len(), 1);
        let added = split_fanout(&mut c, NetSource::Input(input), "fx0").unwrap();
        assert_eq!(added, 4);
        assert!(c.fanout_overflows().is_empty());
        // Every original sink still fires, with its own wire delay kept
        // (splitter cell delays shift all arrivals later).
        let mut sim = Simulator::new(c);
        sim.schedule_input(input, Time::ZERO).unwrap();
        sim.run().unwrap();
        for (i, p) in probes.iter().enumerate() {
            let times = sim.probe_times(*p);
            assert_eq!(times.len(), 1, "sink {i} lost its pulse");
            assert!(times[0] >= Time::from_ps(i as f64));
        }
    }

    #[test]
    fn split_fanout_on_component_net_and_noop() {
        let mut c = Circuit::new();
        let input = c.input("x");
        let src = c.add(buffer("src"));
        let a = c.add(buffer("a"));
        let b = c.add(buffer("b"));
        c.connect_input(input, src.input(0), Time::ZERO).unwrap();
        c.connect(src.output(0), a.input(0), Time::ZERO).unwrap();
        c.connect(src.output(0), b.input(0), Time::from_ps(7.0))
            .unwrap();
        let added = split_fanout(&mut c, NetSource::Output(src.id(), 0), "fx0").unwrap();
        assert_eq!(added, 1);
        assert!(c.fanout_overflows().is_empty());
        // Already-legal nets are untouched.
        let again = split_fanout(&mut c, NetSource::Output(a.id(), 0), "fx1").unwrap();
        assert_eq!(again, 0);
    }
}
