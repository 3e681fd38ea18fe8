//! Netlist view: a plain adjacency structure extracted from a
//! [`Circuit`] through its public introspection API, and the one
//! strongly-connected-components pass over such graphs.
//!
//! [`CircuitGraph`] is what the `usfq-lint` static checks walk: names,
//! static metadata, drivers and successors, with no component models.
//! Nothing in it touches simulation state — the view is a snapshot of
//! the topology at extraction time. [`sccs`] takes plain successor
//! lists; lint's cycle check (USFQ005) and the engine's feedback
//! lookahead both call it.

use crate::circuit::{Circuit, ProbeSource};
use crate::component::StaticMeta;
use crate::time::Time;

/// What drives a component input port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// An external input, with the wire delay.
    Input(usize, Time),
    /// Another component's output port, with the wire delay.
    Comp(usize, usize, Time),
}

/// The extracted netlist.
#[derive(Debug)]
pub struct CircuitGraph {
    /// Component names, indexed by component id.
    pub names: Vec<String>,
    /// Component JJ counts.
    pub jj: Vec<u32>,
    /// Component static metadata (kind, delay range, hazards).
    pub meta: Vec<StaticMeta>,
    /// `drivers[comp][port]` — everything wired into that input port.
    pub drivers: Vec<Vec<Vec<Driver>>>,
    /// Number of output ports per component.
    pub out_ports: Vec<usize>,
    /// `succs[comp]` — components driven by `comp` (may repeat).
    pub succs: Vec<Vec<usize>>,
    /// `input_sinks[input]` — components driven by that input.
    pub input_sinks: Vec<Vec<usize>>,
    /// External input names, indexed by input id (path endpoints for
    /// timing/slack reports).
    pub input_names: Vec<String>,
    /// Probes: `(name, source)`.
    pub probes: Vec<(String, ProbeSource)>,
}

impl CircuitGraph {
    /// Number of components.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the extracted view has no components.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Extracts the view from a circuit.
    pub fn build(circuit: &Circuit) -> CircuitGraph {
        let n = circuit.num_components();
        let mut names = Vec::with_capacity(n);
        let mut jj = Vec::with_capacity(n);
        let mut meta = Vec::with_capacity(n);
        let mut ports = Vec::with_capacity(n);
        for (id, name, count) in circuit.components() {
            names.push(name.to_string());
            jj.push(count);
            meta.push(
                circuit
                    .component_static_meta(id)
                    .expect("component id from the circuit's own iterator"),
            );
            ports.push(
                circuit
                    .component_ports(id)
                    .expect("component id from the circuit's own iterator"),
            );
        }

        let mut drivers: Vec<Vec<Vec<Driver>>> = ports
            .iter()
            .map(|&(n_in, _)| vec![Vec::new(); n_in])
            .collect();
        let out_ports: Vec<usize> = ports.iter().map(|&(_, n_out)| n_out).collect();
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (src, src_port, dst, dst_port, delay) in circuit.wires() {
            drivers[dst.index()][dst_port].push(Driver::Comp(src.index(), src_port, delay));
            succs[src.index()].push(dst.index());
        }

        let mut input_sinks: Vec<Vec<usize>> = vec![Vec::new(); circuit.num_inputs()];
        for (input, comp, port, delay) in circuit.input_wires() {
            drivers[comp.index()][port].push(Driver::Input(input.index(), delay));
            input_sinks[input.index()].push(comp.index());
        }
        let input_names = circuit.inputs().map(|(_, name)| name.to_string()).collect();

        let probes = circuit
            .probe_taps()
            .map(|(id, source)| {
                (
                    circuit
                        .probe_name(id)
                        .expect("probe id from the circuit's own iterator")
                        .to_string(),
                    source,
                )
            })
            .collect();

        CircuitGraph {
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
            indegree[c] = self.drivers[c]
                .iter()
                .flatten()
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
            for &s in &self.succs[c] {
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
        let mut seen = vec![false; self.len()];
        let mut stack: Vec<usize> = self.input_sinks.iter().flatten().copied().collect();
        while let Some(c) = stack.pop() {
            if seen[c] {
                continue;
            }
            seen[c] = true;
            stack.extend(self.succs[c].iter().copied());
        }
        seen
    }
}

/// The strongly connected components of a directed graph, in the
/// order [`sccs`] completes them: reverse topological order of the
/// condensation.
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
/// in index order and successors in the order `succs` lists them, so
/// the result is a pure function of the lists.
pub fn sccs<'a>(n: usize, succs: impl Fn(usize) -> &'a [usize]) -> Sccs {
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
    // Explicit call frames: (node, position of its next successor).
    let mut frames: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        frames.push((root, 0));
        while let Some(&mut (v, ref mut pos)) = frames.last_mut() {
            if *pos == 0 {
                index[v] = next_index;
                lowlink[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = succs(v).get(*pos) {
                *pos += 1;
                if index[w] == UNVISITED {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
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
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::Buffer;

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
        let g = CircuitGraph::build(&c);
        assert_eq!(g.len(), 2);
        assert!(!g.is_empty());
        assert_eq!(g.names, vec!["b1", "b2"]);
        assert_eq!(
            g.drivers[1][0],
            vec![Driver::Comp(0, 0, Time::from_ps(3.0))]
        );
        assert_eq!(g.drivers[0][0], vec![Driver::Input(0, Time::from_ps(2.0))]);
        assert_eq!(g.input_sinks[0], vec![0]);
        assert_eq!(g.input_names, vec!["x"]);
        assert_eq!(g.succs[0], vec![1]);
        assert_eq!(g.probes.len(), 1);
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
        let g = CircuitGraph::build(&c);
        assert_eq!(g.reachable_from_inputs(), vec![true, false]);
    }

    /// A two-node loop fed by a chain, a self-loop, and an isolated
    /// node: components complete sinks first, and a lone node is its
    /// own component whether or not it loops.
    #[test]
    fn sccs_complete_in_reverse_topological_order() {
        let succs: Vec<Vec<usize>> = vec![vec![1], vec![2, 4], vec![1, 3], vec![3], vec![], vec![]];
        let found = sccs(succs.len(), |v| &succs[v]);
        let groups: Vec<Vec<usize>> = found.iter().map(<[usize]>::to_vec).collect();
        assert_eq!(groups, [vec![3], vec![4], vec![2, 1], vec![0], vec![5]]);
        assert_eq!(found.scc_of, [3, 2, 2, 0, 1, 4]);
        assert_eq!(sccs(0, |_| &[]).iter().count(), 0);
    }
}
