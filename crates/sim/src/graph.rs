//! The netlist graph: a borrowed view of a [`Circuit`]'s compiled form,
//! and the one strongly-connected-components pass over it.
//!
//! [`CircuitGraph`] is what the `usfq-lint` static checks walk. It
//! copies nothing: it reads the tables the compiled form holds for the
//! simulator (fan-out, cell facts) and two that only analysis needs,
//! the fan-in table and the condensation ([`Sccs`]). Those two are
//! built on first use, once per topology, and shared by every clone;
//! lint's cycle check (USFQ005) and the engine's feedback lookahead read
//! the one condensation.

use crate::circuit::{Circuit, Compiled, ProbeSource};
use crate::component::Hazard;
use crate::engine::NetSource;
use crate::time::Time;

/// What drives a component input port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// An external input, with the wire delay.
    Input(usize, Time),
    /// Another component's output port, with the wire delay.
    Comp(usize, usize, Time),
}

/// Every component input port's drivers, flattened: the fan-in
/// counterpart of the engine's fan-out table.
#[derive(Debug)]
pub(crate) struct FanIn {
    /// Component `c`'s input ports are ports `port_base[c]..port_base[c + 1]`.
    port_base: Vec<usize>,
    /// Port `p`'s drivers are `drivers[start[p]..start[p + 1]]`.
    start: Vec<usize>,
    /// Per port: the component wires into it in [`Circuit::wires`]
    /// order, then the input wires in [`Circuit::input_wires`] order.
    drivers: Vec<Driver>,
}

impl FanIn {
    pub(crate) fn build(circuit: &Circuit) -> FanIn {
        let mut port_base = vec![0];
        for model in &circuit.topo.models {
            port_base.push(port_base[port_base.len() - 1] + model.num_inputs());
        }
        let slot = |comp: usize, port: usize| port_base[comp] + port;
        let wired = || {
            let comp_wires = circuit.wires().map(|(src, src_port, dst, port, delay)| {
                let driver = Driver::Comp(src.index(), src_port, delay);
                (slot(dst.index(), port), driver)
            });
            let input_wires = circuit.input_wires().map(|(input, dst, port, delay)| {
                (slot(dst.index(), port), Driver::Input(input.index(), delay))
            });
            comp_wires.chain(input_wires)
        };
        // Counting sort by port: count, prefix-sum, then fill in wire
        // order, which keeps each port's drivers in that order.
        let mut start = vec![0; port_base[port_base.len() - 1] + 1];
        for (p, _) in wired() {
            start[p + 1] += 1;
        }
        for p in 1..start.len() {
            start[p] += start[p - 1];
        }
        let mut fill = start.clone();
        let mut drivers = vec![Driver::Input(0, Time::ZERO); start[start.len() - 1]];
        for (p, driver) in wired() {
            drivers[fill[p]] = driver;
            fill[p] += 1;
        }
        FanIn {
            port_base,
            start,
            drivers,
        }
    }
}

/// A netlist's graph as the static checks see it: a view over the
/// circuit's compiled form that borrows every table and copies nothing
/// per cell. Components and inputs are addressed by their index.
#[derive(Clone, Copy)]
pub struct CircuitGraph<'a> {
    circuit: &'a Circuit,
    compiled: &'a Compiled,
    fan_in: &'a FanIn,
}

impl<'a> CircuitGraph<'a> {
    /// The graph of `circuit`: compiles its topology if nothing has yet,
    /// and builds the fan-in table on the topology's first view.
    pub fn new(circuit: &'a Circuit) -> Self {
        let compiled = circuit.compiled();
        let fan_in = compiled.fan_in.get_or_init(|| FanIn::build(circuit));
        CircuitGraph {
            circuit,
            compiled,
            fan_in,
        }
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.compiled.models.len()
    }

    /// Whether the circuit has no components.
    pub fn is_empty(&self) -> bool {
        self.compiled.models.is_empty()
    }

    /// Component `c`'s name.
    pub fn name(&self, c: usize) -> &'a str {
        self.compiled.models[c].name()
    }

    /// Component `c`'s JJ count.
    pub fn jj(&self, c: usize) -> u32 {
        self.compiled.models[c].jj_count()
    }

    /// Component `c`'s declared kind ([`crate::StaticMeta::kind`]).
    pub fn kind(&self, c: usize) -> &'static str {
        self.compiled.kinds[c]
    }

    /// Component `c`'s least input-to-output delay.
    pub fn min_delay(&self, c: usize) -> Time {
        self.compiled.delays[c].0
    }

    /// Component `c`'s largest input-to-output delay.
    pub fn max_delay(&self, c: usize) -> Time {
        self.compiled.delays[c].1
    }

    /// Component `c`'s declared hazards.
    pub fn hazards(&self, c: usize) -> &'a [Hazard] {
        self.compiled.facts.hazards(c)
    }

    /// Component `c`'s declared counting capacity
    /// ([`crate::StaticMeta::counting_capacity`]).
    pub fn counting_capacity(&self, c: usize) -> Option<u64> {
        self.compiled.facts.counting_capacity(c)
    }

    /// Number of component `c`'s input ports.
    pub fn num_inputs(&self, c: usize) -> usize {
        self.fan_in.port_base[c + 1] - self.fan_in.port_base[c]
    }

    /// Number of component `c`'s output ports.
    pub fn num_outputs(&self, c: usize) -> usize {
        self.compiled.models[c].num_outputs()
    }

    /// Everything wired into input port `port` of component `c`:
    /// component wires in [`Circuit::wires`] order, then input wires.
    pub fn drivers(&self, c: usize, port: usize) -> &'a [Driver] {
        let p = self.fan_in.port_base[c] + port;
        &self.fan_in.drivers[self.fan_in.start[p]..self.fan_in.start[p + 1]]
    }

    /// Every driver of every input port of component `c`, port after
    /// port.
    pub fn all_drivers(&self, c: usize) -> &'a [Driver] {
        let fan_in = self.fan_in;
        let ports = fan_in.port_base[c]..fan_in.port_base[c + 1];
        &fan_in.drivers[fan_in.start[ports.start]..fan_in.start[ports.end]]
    }

    /// The components `c` drives, once per wire, in [`Circuit::wires`]
    /// order.
    pub fn succs(&self, c: usize) -> impl Iterator<Item = usize> + 'a {
        self.compiled.nets.comp_edges(c).map(|(dest, _)| dest)
    }

    /// The `(component, input port)` pairs output `port` of component
    /// `c` drives, once per wire, in wire order.
    pub fn sinks(&self, c: usize, port: usize) -> impl Iterator<Item = (usize, usize)> + 'a {
        self.compiled.nets.sinks(NetSource::Output(c, port))
    }

    /// External input `i`'s name.
    pub fn input_name(&self, i: usize) -> &'a str {
        &self.circuit.topo.inputs[i].name
    }

    /// Every probe's name and tap, in [`Circuit::probe_taps`] order.
    pub fn probes(&self) -> impl Iterator<Item = (&'a str, ProbeSource)> + 'a {
        let probes = &self.circuit.topo.probes;
        self.circuit
            .probe_taps()
            .map(move |(id, source)| (probes[id.index()].name.as_str(), source))
    }

    /// The strongly connected components of the component graph (wires
    /// between components; external inputs are not nodes), shared with
    /// the engine's cycle lookahead.
    pub fn sccs(&self) -> &'a Sccs {
        self.circuit.sccs()
    }

    /// Kahn topological order over the components not marked in `skip`
    /// (callers typically skip cyclic regions). Every driver of an
    /// unskipped component must itself be unskipped or an external
    /// input, or that component never closes its in-degree and is
    /// silently absent from the order — exactly the behaviour the
    /// timing and slack passes want for nodes downstream of a cycle.
    pub fn topo_order(&self, skip: &[bool]) -> Vec<usize> {
        let mut indegree = vec![0usize; self.len()];
        for c in 0..self.len() {
            if skip[c] {
                continue;
            }
            indegree[c] = self
                .all_drivers(c)
                .iter()
                .filter(|d| matches!(d, Driver::Comp(..)))
                .count();
        }
        let mut order: Vec<usize> = (0..self.len())
            .filter(|&c| !skip[c] && indegree[c] == 0)
            .collect();
        let mut head = 0;
        while head < order.len() {
            let c = order[head];
            head += 1;
            for s in self.succs(c) {
                if skip[s] {
                    continue;
                }
                indegree[s] -= 1;
                if indegree[s] == 0 {
                    order.push(s);
                }
            }
        }
        order
    }

    /// Components reachable from any external input.
    pub fn reachable_from_inputs(&self) -> Vec<bool> {
        let nets = &self.compiled.nets;
        let mut seen = vec![false; self.len()];
        let mut stack: Vec<usize> = (0..self.circuit.num_inputs())
            .flat_map(|i| nets.sinks(NetSource::Input(i)).map(|(sink, _)| sink))
            .collect();
        while let Some(c) = stack.pop() {
            if seen[c] {
                continue;
            }
            seen[c] = true;
            stack.extend(self.succs(c));
        }
        seen
    }
}

/// The strongly connected components of a directed graph, in the
/// order one Tarjan pass completes them: reverse topological order of
/// the condensation.
#[derive(Debug)]
pub struct Sccs {
    /// `scc_of[v]`: the index of node `v`'s component.
    pub(crate) scc_of: Vec<usize>,
    /// Every component's members, component after component, each in
    /// the order Tarjan's stack gave them up.
    members: Vec<usize>,
    /// Component `s` is `members[start[s]..start[s + 1]]`.
    start: Vec<usize>,
}

impl Sccs {
    /// Every component's members, in completion order.
    pub fn iter(&self) -> impl Iterator<Item = &[usize]> + '_ {
        self.start.windows(2).map(|w| &self.members[w[0]..w[1]])
    }
}

/// Finds the strongly connected components of the graph on nodes
/// `0..n` whose node `v` has the successors `succs(v)` (repeats and
/// self-loops allowed), by one iterative Tarjan pass: netlists reach
/// 10⁵ cells, and recursion would overflow the stack. Roots are tried
/// in index order and successors in the order `succs` yields them, so
/// the result is a pure function of the successor lists.
pub(crate) fn sccs<I: Iterator<Item = usize>>(n: usize, succs: impl Fn(usize) -> I) -> Sccs {
    const UNVISITED: usize = usize::MAX;
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0; n];
    let mut on_stack = vec![false; n];
    let mut stack = Vec::new();
    let mut next_index = 0;
    let mut found = Sccs {
        scc_of: vec![UNVISITED; n],
        members: Vec::with_capacity(n),
        start: vec![0],
    };
    // Explicit call frames: (node, its successors not yet tried).
    let mut frames: Vec<(usize, I)> = Vec::new();
    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        let mut discovered = Some(root);
        loop {
            if let Some(v) = discovered.take() {
                index[v] = next_index;
                lowlink[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
                frames.push((v, succs(v)));
            }
            let Some((v, untried)) = frames.last_mut() else {
                break;
            };
            let v = *v;
            match untried.next() {
                Some(w) if index[w] == UNVISITED => discovered = Some(w),
                Some(w) => {
                    if on_stack[w] {
                        lowlink[v] = lowlink[v].min(index[w]);
                    }
                }
                None => {
                    frames.pop();
                    if let Some(&(parent, _)) = frames.last() {
                        lowlink[parent] = lowlink[parent].min(lowlink[v]);
                    }
                    if lowlink[v] == index[v] {
                        let s = found.start.len() - 1;
                        while let Some(w) = stack.pop() {
                            on_stack[w] = false;
                            found.scc_of[w] = s;
                            found.members.push(w);
                            if w == v {
                                break;
                            }
                        }
                        found.start.push(found.members.len());
                    }
                }
            }
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{CompHandle, InputId, NodeRef};
    use crate::component::{Buffer, CellState, Component, Ctx, StaticMeta};
    use crate::rng::SplitMix64;

    #[test]
    fn extraction_matches_topology() {
        let mut c = Circuit::new();
        let input = c.input("x");
        let b1 = c.add(Buffer::new("b1", Time::from_ps(1.0)));
        let b2 = c.add(Buffer::new("b2", Time::from_ps(1.0)));
        c.connect_input(input, b1.input(0), Time::from_ps(2.0))
            .unwrap();
        c.connect(b1.output(0), b2.input(0), Time::from_ps(3.0))
            .unwrap();
        c.probe(b2.output(0), "end");
        let g = CircuitGraph::new(&c);
        assert_eq!(g.len(), 2);
        assert!(!g.is_empty());
        assert_eq!([g.name(0), g.name(1)], ["b1", "b2"]);
        assert_eq!(g.drivers(1, 0), [Driver::Comp(0, 0, Time::from_ps(3.0))]);
        assert_eq!(g.drivers(0, 0), [Driver::Input(0, Time::from_ps(2.0))]);
        assert_eq!(g.input_name(0), "x");
        assert_eq!(g.succs(0).collect::<Vec<_>>(), [1]);
        assert_eq!(g.probes().count(), 1);
        assert_eq!(g.reachable_from_inputs(), vec![true, true]);
        assert_eq!(g.topo_order(&[false, false]), vec![0, 1]);
        // Skipping a node drops it (and anything only it feeds).
        assert_eq!(g.topo_order(&[true, false]), Vec::<usize>::new());
    }

    #[test]
    fn unreachable_components_are_flagged() {
        let mut c = Circuit::new();
        let input = c.input("x");
        let b1 = c.add(Buffer::new("fed", Time::from_ps(1.0)));
        let _orphan = c.add(Buffer::new("orphan", Time::from_ps(1.0)));
        c.connect_input(input, b1.input(0), Time::ZERO).unwrap();
        let g = CircuitGraph::new(&c);
        assert_eq!(g.reachable_from_inputs(), vec![true, false]);
    }

    /// A two-node loop fed by a chain, a self-loop, and an isolated
    /// node: components complete sinks first, and a lone node is its
    /// own component whether or not it loops.
    #[test]
    fn sccs_complete_in_reverse_topological_order() {
        let succs: Vec<Vec<usize>> = vec![vec![1], vec![2, 4], vec![1, 3], vec![3], vec![], vec![]];
        let found = sccs(succs.len(), |v| succs[v].iter().copied());
        let groups: Vec<Vec<usize>> = found.iter().map(<[usize]>::to_vec).collect();
        assert_eq!(groups, [vec![3], vec![4], vec![2, 1], vec![0], vec![5]]);
        assert_eq!(found.scc_of, [3, 2, 2, 0, 1, 4]);
        assert_eq!(sccs(0, |_| std::iter::empty()).iter().count(), 0);
    }

    /// A cell with any port counts and declared facts, which ignores
    /// its pulses: the graph reads only its shape and its meta.
    struct Cell {
        name: String,
        ports: (usize, usize),
        jj: u32,
        meta: StaticMeta,
    }

    impl Component for Cell {
        fn name(&self) -> &str {
            &self.name
        }
        fn num_inputs(&self) -> usize {
            self.ports.0
        }
        fn num_outputs(&self) -> usize {
            self.ports.1
        }
        fn jj_count(&self) -> u32 {
            self.jj
        }
        fn on_pulse(&self, _: &mut CellState, _: usize, _: Time, _: &mut Ctx) {}
        fn static_meta(&self) -> StaticMeta {
            self.meta.clone()
        }
    }

    /// The owned copy the graph view replaced, built straight from the
    /// circuit's public iterators exactly as the copy was.
    struct Reference {
        names: Vec<String>,
        jj: Vec<u32>,
        meta: Vec<StaticMeta>,
        drivers: Vec<Vec<Vec<Driver>>>,
        out_ports: Vec<usize>,
        succs: Vec<Vec<usize>>,
        input_sinks: Vec<Vec<usize>>,
        input_names: Vec<String>,
        probes: Vec<(String, ProbeSource)>,
    }

    impl Reference {
        fn build(circuit: &Circuit) -> Reference {
            let n = circuit.num_components();
            let mut names = Vec::new();
            let mut jj = Vec::new();
            let mut meta = Vec::new();
            let mut ports = Vec::new();
            for (id, name, count) in circuit.components() {
                names.push(name.to_string());
                jj.push(count);
                let model = &circuit.topo.models[id.index()];
                meta.push(model.static_meta());
                ports.push((model.num_inputs(), model.num_outputs()));
            }
            let mut drivers: Vec<Vec<Vec<Driver>>> = ports
                .iter()
                .map(|&(n_in, _)| vec![Vec::new(); n_in])
                .collect();
            let out_ports = ports.iter().map(|&(_, n_out)| n_out).collect();
            let mut succs = vec![Vec::new(); n];
            for (src, src_port, dst, dst_port, delay) in circuit.wires() {
                drivers[dst.index()][dst_port].push(Driver::Comp(src.index(), src_port, delay));
                succs[src.index()].push(dst.index());
            }
            let mut input_sinks = vec![Vec::new(); circuit.num_inputs()];
            for (input, comp, port, delay) in circuit.input_wires() {
                drivers[comp.index()][port].push(Driver::Input(input.index(), delay));
                input_sinks[input.index()].push(comp.index());
            }
            let input_names = circuit.inputs().map(|(_, name)| name.to_string()).collect();
            let probes = circuit
                .probe_taps()
                .map(|(id, source)| (circuit.probe_name(id).unwrap().to_string(), source))
                .collect();
            Reference {
                names,
                jj,
                meta,
                drivers,
                out_ports,
                succs,
                input_sinks,
                input_names,
                probes,
            }
        }

        fn topo_order(&self, skip: &[bool]) -> Vec<usize> {
            let n = self.names.len();
            let mut indegree = vec![0usize; n];
            for c in (0..n).filter(|&c| !skip[c]) {
                indegree[c] = self.drivers[c]
                    .iter()
                    .flatten()
                    .filter(|d| matches!(d, Driver::Comp(..)))
                    .count();
            }
            let mut order: Vec<usize> = (0..n).filter(|&c| !skip[c] && indegree[c] == 0).collect();
            let mut head = 0;
            while head < order.len() {
                let c = order[head];
                head += 1;
                for &s in &self.succs[c] {
                    if !skip[s] {
                        indegree[s] -= 1;
                        if indegree[s] == 0 {
                            order.push(s);
                        }
                    }
                }
            }
            order
        }

        fn reachable_from_inputs(&self) -> Vec<bool> {
            let mut seen = vec![false; self.names.len()];
            let mut stack: Vec<usize> = self.input_sinks.iter().flatten().copied().collect();
            while let Some(c) = stack.pop() {
                if !seen[c] {
                    seen[c] = true;
                    stack.extend(self.succs[c].iter().copied());
                }
            }
            seen
        }
    }

    fn random_meta(rng: &mut SplitMix64, c: usize) -> StaticMeta {
        let ps = |rng: &mut SplitMix64| Time::from_fs(rng.gen_range(0u64..20_000));
        let min = ps(rng);
        let mut meta = StaticMeta::custom(
            ["buffer", "merger", "ndro", "custom"][c % 4],
            min,
            min + ps(rng),
        );
        for _ in 0..rng.gen_range(0usize..3) {
            meta.hazards.push(if rng.gen_bool(0.5) {
                Hazard::Collision { window: ps(rng) }
            } else {
                Hazard::Transition { window: ps(rng) }
            });
        }
        meta.counting_capacity = rng.gen_bool(0.3).then(|| rng.gen_range(1u64..100));
        meta
    }

    /// Random netlists of multi-port cells: ports driven by several
    /// wires, inputs fanned out to several sinks, probes on inputs and
    /// outputs in mixed creation order, self-loops, zero-delay wires,
    /// floating ports and cells with no outputs. Every accessor of the
    /// view equals the owned copy it replaced.
    #[test]
    fn view_matches_the_owned_copy() {
        crate::check::for_all(256, |rng| {
            let mut c = Circuit::new();
            let mut outs: Vec<NodeRef> = Vec::new();
            let mut sinks: Vec<(CompHandle, usize)> = Vec::new();
            for i in 0..rng.gen_range(0usize..14) {
                let (ins, n_out) = (rng.gen_range(0usize..4), rng.gen_range(0usize..3));
                let h = c.add(Cell {
                    name: format!("c{i}"),
                    ports: (ins, n_out),
                    jj: rng.gen_range(0u32..30),
                    meta: random_meta(rng, i),
                });
                outs.extend((0..n_out).map(|p| h.output(p)));
                sinks.extend((0..ins).map(|p| (h, p)));
            }
            let inputs: Vec<InputId> = (0..rng.gen_range(0usize..4))
                .map(|i| c.input(format!("in{i}")))
                .collect();
            let delay = |rng: &mut SplitMix64| {
                [Time::ZERO, Time::from_fs(rng.gen_range(1u64..50_000))][rng.gen_range(0usize..2)]
            };
            if !sinks.is_empty() {
                for _ in 0..rng.gen_range(0usize..30) {
                    let (h, port) = sinks[rng.gen_range(0..sinks.len())];
                    let roll = rng.gen_range(0u32..4);
                    if roll == 0 && !inputs.is_empty() {
                        let input = inputs[rng.gen_range(0..inputs.len())];
                        c.connect_input(input, h.input(port), delay(rng)).unwrap();
                    } else if !outs.is_empty() {
                        // A self-loop when the sink's cell has an output.
                        let own = outs.iter().find(|o| o.comp() == h.id());
                        let src = match own {
                            Some(&o) if roll == 1 => o,
                            _ => outs[rng.gen_range(0..outs.len())],
                        };
                        c.connect(src, h.input(port), delay(rng)).unwrap();
                    }
                }
            }
            for p in 0..rng.gen_range(0usize..6) {
                if rng.gen_bool(0.5) && !outs.is_empty() {
                    c.probe(outs[rng.gen_range(0..outs.len())], format!("p{p}"));
                } else if !inputs.is_empty() {
                    c.probe_input(inputs[rng.gen_range(0..inputs.len())], format!("p{p}"));
                }
            }

            let want = Reference::build(&c);
            let g = CircuitGraph::new(&c);
            let n = g.len();
            assert_eq!(n, want.names.len());
            assert_eq!(g.is_empty(), n == 0);
            for c in 0..n {
                assert_eq!(g.name(c), want.names[c]);
                assert_eq!(g.jj(c), want.jj[c]);
                let meta = &want.meta[c];
                assert_eq!(g.kind(c), meta.kind);
                assert_eq!(
                    (g.min_delay(c), g.max_delay(c)),
                    (meta.min_delay, meta.max_delay)
                );
                assert_eq!(g.hazards(c), meta.hazards);
                assert_eq!(g.counting_capacity(c), meta.counting_capacity);
                assert_eq!(g.num_inputs(c), want.drivers[c].len());
                assert_eq!(g.num_outputs(c), want.out_ports[c]);
                for (port, drivers) in want.drivers[c].iter().enumerate() {
                    assert_eq!(g.drivers(c, port), drivers, "drivers of {c}.{port}");
                }
                assert_eq!(g.all_drivers(c), want.drivers[c].concat());
                assert_eq!(g.succs(c).collect::<Vec<_>>(), want.succs[c]);
            }
            for (i, name) in want.input_names.iter().enumerate() {
                assert_eq!(g.input_name(i), name);
            }
            let probes: Vec<(String, ProbeSource)> =
                g.probes().map(|(name, s)| (name.to_string(), s)).collect();
            assert_eq!(probes, want.probes);
            assert_eq!(g.reachable_from_inputs(), want.reachable_from_inputs());
            let skip: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.2)).collect();
            assert_eq!(g.topo_order(&skip), want.topo_order(&skip));
            assert_eq!(
                g.topo_order(&vec![false; n]),
                want.topo_order(&vec![false; n])
            );
            let groups = |s: &Sccs| s.iter().map(<[usize]>::to_vec).collect::<Vec<_>>();
            let from_lists = sccs(n, |v| want.succs[v].iter().copied());
            assert_eq!(groups(g.sccs()), groups(&from_lists));
            assert_eq!(g.sccs().scc_of, from_lists.scc_of);
        });
    }
}
