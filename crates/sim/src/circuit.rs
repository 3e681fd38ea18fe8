//! Netlist construction: components, wires, external inputs, and probes.

use std::sync::{Arc, OnceLock};

use crate::component::{CellState, Component};
use crate::engine::NetTable;
use crate::error::SimError;
use crate::graph::{self, FanIn, Sccs};
use crate::sanitizer::SanitizerFacts;
use crate::time::Time;

/// Identifier of a component inside a [`Circuit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CompId(pub(crate) usize);

impl CompId {
    /// Position of this component in the circuit's component list —
    /// the index into [`crate::stats::ActivityReport`] vectors.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Identifier of an external input of a [`Circuit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InputId(pub(crate) usize);

impl InputId {
    /// Position of this input in creation order.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Identifier of an output probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProbeId(pub(crate) usize);

impl ProbeId {
    /// Position of this probe in creation order.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A component output port: the *source* end of a wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeRef {
    pub(crate) comp: CompId,
    pub(crate) port: usize,
}

/// A component input port: the *sink* end of a wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SinkRef {
    pub(crate) comp: CompId,
    pub(crate) port: usize,
}

/// Handle returned by [`Circuit::add`]; names the component's ports.
///
/// ```
/// use usfq_sim::{Circuit, Time};
/// use usfq_sim::component::Buffer;
///
/// let mut c = Circuit::new();
/// let b = c.add(Buffer::new("b", Time::from_ps(1.0)));
/// let _in = b.input(0);
/// let _out = b.output(0);
/// assert_eq!(b.id(), _in.comp());
/// # let _ = _out;
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CompHandle {
    id: CompId,
}

impl CompHandle {
    /// The component id.
    pub fn id(self) -> CompId {
        self.id
    }

    /// Reference to input port `port`. Validity is checked on `connect`.
    pub fn input(self, port: usize) -> SinkRef {
        SinkRef {
            comp: self.id,
            port,
        }
    }

    /// Reference to output port `port`. Validity is checked on `connect`.
    pub fn output(self, port: usize) -> NodeRef {
        NodeRef {
            comp: self.id,
            port,
        }
    }
}

impl SinkRef {
    /// The component this sink belongs to.
    pub fn comp(self) -> CompId {
        self.comp
    }

    /// The input port index on that component.
    pub fn port(self) -> usize {
        self.port
    }
}

impl NodeRef {
    /// The component this node belongs to.
    pub fn comp(self) -> CompId {
        self.comp
    }

    /// The output port index on that component.
    pub fn port(self) -> usize {
        self.port
    }
}

/// One wire, identified by its source net and its position within that
/// net's wire list — the handle [`Circuit::disconnect`] operates on.
///
/// Positions are creation-order indices into the net. Disconnecting a
/// wire shifts the positions of every later wire on the same net down
/// by one, so when removing several wires from one net, remove them in
/// descending `nth` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireId {
    /// The `nth` wire leaving an external input.
    FromInput {
        /// The source input.
        input: InputId,
        /// Position within the input net's wire list.
        nth: usize,
    },
    /// The `nth` wire leaving a component output port.
    FromComp {
        /// The source component.
        comp: CompId,
        /// The source output port.
        port: usize,
        /// Position within the output net's wire list.
        nth: usize,
    },
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct Wire {
    pub(crate) dest: CompId,
    pub(crate) port: usize,
    pub(crate) delay: Time,
}

#[derive(Debug, Clone, Default)]
pub(crate) struct OutputNet {
    pub(crate) wires: Vec<Wire>,
    pub(crate) probes: Vec<ProbeId>,
}

#[derive(Debug, Clone)]
pub(crate) struct InputSlot {
    pub(crate) name: String,
    pub(crate) net: OutputNet,
}

#[derive(Debug, Clone)]
pub(crate) struct ProbeSlot {
    pub(crate) name: String,
}

/// A cell model as circuits hold it, shared through an [`Arc`] by every
/// copied topology and shard sub-circuit that holds the cell.
///
/// The model is boxed inside the `Arc`, so the handle is one thin
/// pointer and the model's own pointer sits at a fixed offset behind
/// it. Dispatch through an `Arc<dyn Component>` instead finds the
/// model's data at an offset read from its vtable on every pulse: on a
/// chain of buffers that measured 27 % slower per event than owned
/// boxes, against about 10 % for this handle (EXPERIMENTS.md,
/// "Stateless cells").
pub(crate) struct Model(Box<dyn Component>);

impl std::ops::Deref for Model {
    type Target = dyn Component;
    fn deref(&self) -> &Self::Target {
        &*self.0
    }
}

/// Where a probe taps the netlist — see [`Circuit::probe_taps`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProbeSource {
    /// The probe watches a component output port.
    Output(CompId, usize),
    /// The probe watches an external input directly.
    Input(InputId),
}

/// One over-driven net found by [`Circuit::fanout_overflows`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FanoutOverflow {
    /// The offending component, or `None` for an external input.
    pub comp: Option<CompId>,
    /// The over-driven output port (0 for external inputs).
    pub port: usize,
    /// Component or input name, for diagnostics.
    pub name: String,
    /// Number of wired sinks the net drives (always > 1).
    pub sinks: usize,
}

/// A netlist of SFQ cells.
///
/// Components are added with [`Circuit::add`], wired with
/// [`Circuit::connect`], driven from named external [inputs](Circuit::input)
/// and observed through [probes](Circuit::probe). A finished circuit is
/// handed to [`crate::Simulator::new`].
///
/// In real RSFQ an output can only drive one sink; fan-out needs an explicit
/// splitter cell. The builder permits electrical fan-out for modelling
/// convenience, but [`Circuit::assert_single_fanout`] lets structural
/// netlists verify they are physically realisable.
///
/// A circuit is an immutable description: its cells, their wiring, and
/// the compiled form the simulator runs from. It holds no run state —
/// each simulator keeps its cells' state ([`crate::CellState`]) itself
/// — so a clone, made at any time, even of [`crate::Simulator::circuit`]
/// after a run, simulates from power-on. A clone is one reference-count
/// increment: it shares the cells, the wiring, the fan-out table, the
/// cell facts and the power-on states, and a clone that is rewired
/// copies the wiring first (the cells stay shared). So a fresh
/// simulator per trial pays for its own state and nothing else.
#[derive(Clone)]
pub struct Circuit {
    pub(crate) topo: Arc<Topology>,
}

/// The cells and wiring of a [`Circuit`]: every model, net, input and
/// probe, plus the compiled form the simulator runs from. Clones of a
/// circuit share one `Topology` behind an [`Arc`]; the builder methods
/// copy it on write.
#[derive(Default)]
pub(crate) struct Topology {
    /// The cell models, in component order. They hold no state, so a
    /// copied topology and a shard's sub-circuit share them.
    pub(crate) models: Vec<Arc<Model>>,
    /// One net per output port, per component.
    pub(crate) outputs: Vec<Vec<OutputNet>>,
    pub(crate) inputs: Vec<InputSlot>,
    pub(crate) probes: Vec<ProbeSlot>,
    /// Built on first use and dropped by every mutation.
    compiled: OnceLock<Compiled>,
}

impl Clone for Topology {
    /// Copies the wiring and shares the models: the copy is about to be
    /// mutated, so its compiled form is rebuilt on next use.
    fn clone(&self) -> Self {
        Topology {
            models: self.models.clone(),
            outputs: self.outputs.clone(),
            inputs: self.inputs.clone(),
            probes: self.probes.clone(),
            compiled: OnceLock::new(),
        }
    }
}

/// Everything derived from a circuit's topology and its cells'
/// declared facts, built once per topology and shared (through `Arc`
/// slices) by every simulator, sanitizer and graph view built from it
/// or its clones. What only analysis reads is built on first use.
pub(crate) struct Compiled {
    /// The cell models as one slice, which every simulator of this
    /// topology holds inline.
    pub(crate) models: Arc<[Arc<Model>]>,
    /// Every cell's [`Component::power_on`] state, in component order:
    /// what a fresh simulator copies and a reset restores.
    pub(crate) power_on: Box<[CellState]>,
    /// The flattened fan-out table.
    pub(crate) nets: NetTable,
    /// Largest cell or wire delay; see [`Circuit::max_delay`].
    pub(crate) max_delay: Time,
    /// Per-cell hazards, counting capacity and input layout.
    pub(crate) facts: SanitizerFacts,
    /// Each cell's declared kind, in component order.
    pub(crate) kinds: Box<[&'static str]>,
    /// Each cell's declared `[min, max]` delay, in component order.
    pub(crate) delays: Box<[(Time, Time)]>,
    /// Each input port's drivers, built on the first graph view.
    pub(crate) fan_in: OnceLock<FanIn>,
    /// The condensation of the component graph, built on the first
    /// graph view or coalesced delivery, whichever comes first.
    sccs: OnceLock<Sccs>,
    /// Per-component feedback lookahead, built on the first coalesced
    /// delivery (see `engine::cycle_lookahead`).
    cycle_la: OnceLock<Arc<[Time]>>,
}

impl Compiled {
    fn build(circuit: &Circuit) -> Self {
        // One `static_meta` call per cell feeds the sanitizer's facts,
        // the kinds and the delay ranges.
        let models = &circuit.topo.models;
        let mut kinds = Vec::with_capacity(models.len());
        let mut delays = Vec::with_capacity(models.len());
        let facts = SanitizerFacts::compile(models.iter().map(|m| {
            let meta = m.static_meta();
            kinds.push(meta.kind);
            delays.push((meta.min_delay, meta.max_delay));
            (meta, m.num_inputs())
        }));
        let max_delay = circuit
            .wires()
            .map(|(.., delay)| delay)
            .chain(circuit.input_wires().map(|(.., delay)| delay))
            .chain(delays.iter().map(|&(_, max)| max))
            .fold(Time::ZERO, Ord::max);
        Compiled {
            models: models.as_slice().into(),
            power_on: models.iter().map(|m| m.power_on()).collect(),
            nets: NetTable::build(circuit),
            max_delay,
            facts,
            kinds: kinds.into(),
            delays: delays.into(),
            fan_in: OnceLock::new(),
            sccs: OnceLock::new(),
            cycle_la: OnceLock::new(),
        }
    }
}

impl Default for Circuit {
    fn default() -> Self {
        Self::new()
    }
}

impl Circuit {
    /// Creates an empty circuit.
    pub fn new() -> Self {
        Circuit {
            topo: Arc::default(),
        }
    }

    /// The compiled form of this circuit, built on first use.
    pub(crate) fn compiled(&self) -> &Compiled {
        self.topo.compiled.get_or_init(|| Compiled::build(self))
    }

    /// The condensation of the component graph, from one Tarjan pass
    /// over the fan-out table on first use; lint's graph views and the
    /// cycle lookahead of every simulator of this topology share it.
    pub(crate) fn sccs(&self) -> &Sccs {
        let compiled = self.compiled();
        compiled.sccs.get_or_init(|| {
            graph::sccs(compiled.models.len(), |v| {
                compiled.nets.comp_edges(v).map(|(dest, _)| dest)
            })
        })
    }

    /// The feedback lookahead table, built on first use and shared by
    /// every simulator of this topology.
    pub(crate) fn cycle_lookahead(&self) -> Arc<[Time]> {
        Arc::clone(
            self.compiled()
                .cycle_la
                .get_or_init(|| crate::engine::cycle_lookahead(self).into()),
        )
    }

    /// The wiring for mutation: copied first if a clone shares it, and
    /// its compiled form dropped either way.
    fn topo_mut(&mut self) -> &mut Topology {
        let topo = Arc::make_mut(&mut self.topo);
        topo.compiled.take();
        topo
    }

    /// Adds a component and returns a handle naming its ports.
    pub fn add(&mut self, component: impl Component + 'static) -> CompHandle {
        self.add_boxed(Box::new(component))
    }

    /// Adds an already-boxed component (useful for heterogeneous builders).
    pub fn add_boxed(&mut self, model: Box<dyn Component>) -> CompHandle {
        self.add_shared(Arc::new(Model(model)))
    }

    /// Adds a model another circuit may share (a shard's sub-circuit
    /// shares its source circuit's).
    pub(crate) fn add_shared(&mut self, model: Arc<Model>) -> CompHandle {
        let outputs = vec![OutputNet::default(); model.num_outputs()];
        let topo = self.topo_mut();
        let id = CompId(topo.models.len());
        topo.outputs.push(outputs);
        topo.models.push(model);
        CompHandle { id }
    }

    /// Declares a named external input.
    pub fn input(&mut self, name: impl Into<String>) -> InputId {
        let inputs = &mut self.topo_mut().inputs;
        let id = InputId(inputs.len());
        inputs.push(InputSlot {
            name: name.into(),
            net: OutputNet::default(),
        });
        id
    }

    /// Connects a component output to a component input through a wire with
    /// the given propagation delay.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidPort`] if either port index is out of
    /// range for its component.
    pub fn connect(&mut self, from: NodeRef, to: SinkRef, delay: Time) -> Result<(), SimError> {
        self.check_output(from)?;
        self.check_input(to)?;
        self.topo_mut().outputs[from.comp.0][from.port]
            .wires
            .push(Wire {
                dest: to.comp,
                port: to.port,
                delay,
            });
        Ok(())
    }

    /// Connects an external input to a component input port.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownId`] for a foreign `InputId`, or
    /// [`SimError::InvalidPort`] for a bad sink port.
    pub fn connect_input(
        &mut self,
        from: InputId,
        to: SinkRef,
        delay: Time,
    ) -> Result<(), SimError> {
        if from.0 >= self.topo.inputs.len() {
            return Err(SimError::UnknownId(format!("input {}", from.0)));
        }
        self.check_input(to)?;
        self.topo_mut().inputs[from.0].net.wires.push(Wire {
            dest: to.comp,
            port: to.port,
            delay,
        });
        Ok(())
    }

    /// Attaches a recording probe to a component output port.
    ///
    /// Pulse emission times (before wire delay) are recorded during
    /// simulation and retrieved with [`crate::Simulator::probe_times`].
    ///
    /// # Panics
    ///
    /// Panics if `at` references an invalid port — probes are test
    /// instrumentation, so failing fast is preferable to an error path.
    pub fn probe(&mut self, at: NodeRef, name: impl Into<String>) -> ProbeId {
        self.check_output(at)
            .expect("probe attached to invalid port");
        let topo = self.topo_mut();
        let id = ProbeId(topo.probes.len());
        topo.probes.push(ProbeSlot { name: name.into() });
        topo.outputs[at.comp.0][at.port].probes.push(id);
        id
    }

    /// Attaches a recording probe directly to an external input.
    ///
    /// # Panics
    ///
    /// Panics if `input` belongs to a different circuit.
    pub fn probe_input(&mut self, input: InputId, name: impl Into<String>) -> ProbeId {
        assert!(
            input.0 < self.topo.inputs.len(),
            "probe attached to unknown input"
        );
        let topo = self.topo_mut();
        let id = ProbeId(topo.probes.len());
        topo.probes.push(ProbeSlot { name: name.into() });
        topo.inputs[input.0].net.probes.push(id);
        id
    }

    /// Number of components in the circuit.
    pub fn num_components(&self) -> usize {
        self.topo.models.len()
    }

    /// Number of declared external inputs.
    pub fn num_inputs(&self) -> usize {
        self.topo.inputs.len()
    }

    /// Total number of wired sinks across all nets (component outputs
    /// plus external inputs) — the netlist's aggregate fan-out.
    pub fn num_wires(&self) -> usize {
        self.compiled().nets.num_wires()
    }

    /// The largest single-hop latency anywhere in the netlist: the
    /// maximum over every wire delay and every component's declared
    /// [`crate::StaticMeta::max_delay`]. An event scheduled by a pulse
    /// at time `t` lands no later than `t + 2 * max_delay()` (cell delay
    /// plus wire delay), which is what sizes the calendar-wheel bucket
    /// width in [`crate::sched`]. Zero for an empty circuit.
    pub fn max_delay(&self) -> Time {
        self.compiled().max_delay
    }

    /// Name of an external input.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownId`] for a foreign id.
    pub fn input_name(&self, id: InputId) -> Result<&str, SimError> {
        self.topo
            .inputs
            .get(id.0)
            .map(|s| s.name.as_str())
            .ok_or_else(|| SimError::UnknownId(format!("input {}", id.0)))
    }

    /// Name of a probe.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownId`] for a foreign id.
    pub fn probe_name(&self, id: ProbeId) -> Result<&str, SimError> {
        self.topo
            .probes
            .get(id.0)
            .map(|s| s.name.as_str())
            .ok_or_else(|| SimError::UnknownId(format!("probe {}", id.0)))
    }

    /// Name of a component.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownId`] for a foreign id.
    pub fn component_name(&self, id: CompId) -> Result<&str, SimError> {
        self.model(id).map(Component::name)
    }

    /// Total Josephson-junction count over all components — the paper's area
    /// metric.
    pub fn total_jj(&self) -> u64 {
        self.components().map(|(.., jj)| u64::from(jj)).sum()
    }

    /// Iterates over `(id, name, jj_count)` of every component — the
    /// circuit's bill of materials.
    pub fn components(&self) -> impl Iterator<Item = (CompId, &str, u32)> + '_ {
        self.topo
            .models
            .iter()
            .enumerate()
            .map(|(i, m)| (CompId(i), m.name(), m.jj_count()))
    }

    /// Iterates over every wire as
    /// `(source component, source port, dest component, dest port, delay)`.
    pub fn wires(&self) -> impl Iterator<Item = (CompId, usize, CompId, usize, Time)> + '_ {
        self.topo.outputs.iter().enumerate().flat_map(|(i, nets)| {
            nets.iter().enumerate().flat_map(move |(port, net)| {
                net.wires
                    .iter()
                    .map(move |w| (CompId(i), port, w.dest, w.port, w.delay))
            })
        })
    }

    /// Exports the netlist in Graphviz DOT format: one node per
    /// component (labelled with its JJ cost), one edge per wire
    /// (labelled with its delay when non-zero), plus the external
    /// inputs.
    pub fn to_dot(&self, graph_name: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "digraph {} {{", sanitize(graph_name).replace(' ', "_"));
        let _ = writeln!(out, "  rankdir=LR;");
        let _ = writeln!(out, "  node [shape=box, fontsize=10];");
        for (id, name, jj) in self.components() {
            let _ = writeln!(
                out,
                "  c{} [label=\"{}\\n{} JJ\"];",
                id.0,
                sanitize(name),
                jj
            );
        }
        for (i, input) in self.topo.inputs.iter().enumerate() {
            let _ = writeln!(
                out,
                "  in{i} [label=\"{}\", shape=plaintext];",
                sanitize(&input.name)
            );
            for w in &input.net.wires {
                if w.delay == Time::ZERO {
                    let _ = writeln!(out, "  in{i} -> c{};", w.dest.0);
                } else {
                    let _ = writeln!(out, "  in{i} -> c{} [label=\"{}\"];", w.dest.0, w.delay);
                }
            }
        }
        for (from, _port, to, _to_port, delay) in self.wires() {
            if delay == Time::ZERO {
                let _ = writeln!(out, "  c{} -> c{};", from.0, to.0);
            } else {
                let _ = writeln!(out, "  c{} -> c{} [label=\"{delay}\"];", from.0, to.0);
            }
        }
        out.push_str("}\n");
        out
    }

    /// Collects every net (component output or external input) that drives
    /// more than one wired sink — the shared primitive behind
    /// [`Circuit::assert_single_fanout`] and the `usfq-lint` fanout check.
    /// Probes are test instrumentation and don't count as sinks.
    pub fn fanout_overflows(&self) -> Vec<FanoutOverflow> {
        let mut found = Vec::new();
        for (i, (model, nets)) in self.topo.models.iter().zip(&self.topo.outputs).enumerate() {
            for (port, net) in nets.iter().enumerate() {
                if net.wires.len() > 1 {
                    found.push(FanoutOverflow {
                        comp: Some(CompId(i)),
                        port,
                        name: model.name().to_owned(),
                        sinks: net.wires.len(),
                    });
                }
            }
        }
        for input in &self.topo.inputs {
            if input.net.wires.len() > 1 {
                found.push(FanoutOverflow {
                    comp: None,
                    port: 0,
                    name: input.name.clone(),
                    sinks: input.net.wires.len(),
                });
            }
        }
        found
    }

    /// Verifies that every output (and external input) drives at most one
    /// sink, i.e. that all fan-out is through explicit splitter cells, as
    /// physical RSFQ requires.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::FanoutViolation`] for the first offending net.
    pub fn assert_single_fanout(&self) -> Result<(), SimError> {
        match self.fanout_overflows().into_iter().next() {
            None => Ok(()),
            Some(over) => Err(SimError::FanoutViolation {
                component: over.name,
                port: over.port,
                sinks: over.sinks,
            }),
        }
    }

    /// Iterates over every external input as `(id, name)`.
    pub fn inputs(&self) -> impl Iterator<Item = (InputId, &str)> + '_ {
        self.topo
            .inputs
            .iter()
            .enumerate()
            .map(|(i, slot)| (InputId(i), slot.name.as_str()))
    }

    /// Iterates over every wire leaving an external input:
    /// `(input, sink component, sink port, wire delay)`.
    pub fn input_wires(&self) -> impl Iterator<Item = (InputId, CompId, usize, Time)> + '_ {
        self.topo.inputs.iter().enumerate().flat_map(|(i, slot)| {
            slot.net
                .wires
                .iter()
                .map(move |w| (InputId(i), w.dest, w.port, w.delay))
        })
    }

    /// Iterates over every probe and the net it taps.
    pub fn probe_taps(&self) -> impl Iterator<Item = (ProbeId, ProbeSource)> + '_ {
        let comp_taps = self.topo.outputs.iter().enumerate().flat_map(|(i, nets)| {
            nets.iter().enumerate().flat_map(move |(port, net)| {
                net.probes
                    .iter()
                    .map(move |&p| (p, ProbeSource::Output(CompId(i), port)))
            })
        });
        let input_taps = self.topo.inputs.iter().enumerate().flat_map(|(i, slot)| {
            slot.net
                .probes
                .iter()
                .map(move |&p| (p, ProbeSource::Input(InputId(i))))
        });
        comp_taps.chain(input_taps)
    }

    /// Number of attached probes.
    pub fn num_probes(&self) -> usize {
        self.topo.probes.len()
    }

    /// A validated reference to a component output port, for callers
    /// that hold a [`CompId`] rather than the original [`CompHandle`]
    /// (analyzers and repair passes re-wiring an existing netlist).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownId`] / [`SimError::InvalidPort`] when
    /// the component or port does not exist.
    pub fn output_ref(&self, comp: CompId, port: usize) -> Result<NodeRef, SimError> {
        let node = NodeRef { comp, port };
        self.check_output(node)?;
        Ok(node)
    }

    /// A validated reference to a component input port; the sink-side
    /// counterpart of [`Circuit::output_ref`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownId`] / [`SimError::InvalidPort`] when
    /// the component or port does not exist.
    pub fn input_ref(&self, comp: CompId, port: usize) -> Result<SinkRef, SimError> {
        let sink = SinkRef { comp, port };
        self.check_input(sink)?;
        Ok(sink)
    }

    /// The first component whose name equals `name`, if any. Names are
    /// not required to be unique; repair directives that address
    /// components by name assume the netlist builder kept them unique
    /// (every shipped and generated netlist does).
    pub fn find_component(&self, name: &str) -> Option<CompId> {
        self.topo
            .models
            .iter()
            .position(|m| m.name() == name)
            .map(CompId)
    }

    /// The first external input whose name equals `name`, if any.
    pub fn find_input(&self, name: &str) -> Option<InputId> {
        self.topo
            .inputs
            .iter()
            .position(|slot| slot.name == name)
            .map(InputId)
    }

    /// Number of wired sinks on a component output net.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownId`] / [`SimError::InvalidPort`] when
    /// the component or port does not exist.
    pub fn net_fanout(&self, comp: CompId, port: usize) -> Result<usize, SimError> {
        self.check_output(NodeRef { comp, port })?;
        Ok(self.topo.outputs[comp.0][port].wires.len())
    }

    /// Number of wired sinks on an external input's net.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownId`] for a foreign id.
    pub fn input_fanout(&self, input: InputId) -> Result<usize, SimError> {
        self.topo
            .inputs
            .get(input.0)
            .map(|slot| slot.net.wires.len())
            .ok_or_else(|| SimError::UnknownId(format!("input {}", input.0)))
    }

    /// Every wire feeding input port `port` of `comp`, from any source
    /// net, as removable [`WireId`] handles (in source scan order).
    pub fn wires_into(&self, comp: CompId, port: usize) -> Vec<WireId> {
        let mut found = Vec::new();
        for (src, nets) in self.topo.outputs.iter().enumerate() {
            for (src_port, net) in nets.iter().enumerate() {
                for (nth, w) in net.wires.iter().enumerate() {
                    if w.dest == comp && w.port == port {
                        found.push(WireId::FromComp {
                            comp: CompId(src),
                            port: src_port,
                            nth,
                        });
                    }
                }
            }
        }
        for (i, slot) in self.topo.inputs.iter().enumerate() {
            for (nth, w) in slot.net.wires.iter().enumerate() {
                if w.dest == comp && w.port == port {
                    found.push(WireId::FromInput {
                        input: InputId(i),
                        nth,
                    });
                }
            }
        }
        found
    }

    /// The sink and delay of a wire, without removing it.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownId`] when the source net or the `nth`
    /// position does not exist.
    pub fn wire_sink(&self, id: WireId) -> Result<(CompId, usize, Time), SimError> {
        let w = match id {
            WireId::FromInput { input, nth } => self
                .topo
                .inputs
                .get(input.0)
                .and_then(|slot| slot.net.wires.get(nth))
                .ok_or_else(|| SimError::UnknownId(format!("wire {id:?}")))?,
            WireId::FromComp { comp, port, nth } => self
                .topo
                .outputs
                .get(comp.0)
                .and_then(|nets| nets.get(port))
                .and_then(|net| net.wires.get(nth))
                .ok_or_else(|| SimError::UnknownId(format!("wire {id:?}")))?,
        };
        Ok((w.dest, w.port, w.delay))
    }

    /// Removes a wire, returning the `(sink component, sink port,
    /// delay)` it carried — the primitive repair passes splice against
    /// (disconnect, insert path-balancing cells, reconnect).
    ///
    /// Later wires on the same net shift down one position; remove in
    /// descending `nth` order when clearing a whole net. Components,
    /// inputs, and probes are never removed, so all existing ids stay
    /// valid.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownId`] when the source net or the `nth`
    /// position does not exist.
    pub fn disconnect(&mut self, id: WireId) -> Result<(CompId, usize, Time), SimError> {
        self.wire_sink(id)?;
        let topo = self.topo_mut();
        let w = match id {
            WireId::FromInput { input, nth } => topo.inputs[input.0].net.wires.remove(nth),
            WireId::FromComp { comp, port, nth } => topo.outputs[comp.0][port].wires.remove(nth),
        };
        Ok((w.dest, w.port, w.delay))
    }

    /// The model of component `id`.
    fn model(&self, id: CompId) -> Result<&dyn Component, SimError> {
        self.topo
            .models
            .get(id.0)
            .map(|m| &***m)
            .ok_or_else(|| SimError::UnknownId(format!("component {}", id.0)))
    }

    fn check_output(&self, node: NodeRef) -> Result<(), SimError> {
        let model = self.model(node.comp)?;
        check_port(model, node.port, model.num_outputs(), "output")
    }

    fn check_input(&self, sink: SinkRef) -> Result<(), SimError> {
        let model = self.model(sink.comp)?;
        check_port(model, sink.port, model.num_inputs(), "input")
    }
}

/// [`SimError::InvalidPort`] unless `port` is one of `model`'s
/// `available` ports in `direction`.
fn check_port(
    model: &dyn Component,
    port: usize,
    available: usize,
    direction: &'static str,
) -> Result<(), SimError> {
    if port >= available {
        return Err(SimError::InvalidPort {
            component: model.name().to_owned(),
            port,
            available,
            direction,
        });
    }
    Ok(())
}

fn sanitize(name: &str) -> String {
    name.replace(['"', '\n', '\\'], "_")
}

impl std::fmt::Debug for Circuit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Circuit")
            .field("components", &self.topo.models.len())
            .field("inputs", &self.topo.inputs.len())
            .field("probes", &self.topo.probes.len())
            .field("total_jj", &self.total_jj())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::Buffer;

    fn buffer() -> Buffer {
        Buffer::new("b", Time::from_ps(1.0))
    }

    #[test]
    fn build_and_introspect() {
        let mut c = Circuit::new();
        let input = c.input("a");
        let b1 = c.add(buffer());
        let b2 = c.add(buffer());
        c.connect_input(input, b1.input(0), Time::ZERO).unwrap();
        c.connect(b1.output(0), b2.input(0), Time::from_ps(2.0))
            .unwrap();
        assert_eq!(c.num_components(), 2);
        assert_eq!(c.num_inputs(), 1);
        assert_eq!(c.input_name(input).unwrap(), "a");
        let p = c.probe(b2.output(0), "watch");
        assert_eq!(c.probe_name(p).unwrap(), "watch");
        assert!(c.probe_name(ProbeId(7)).is_err());
        assert_eq!(c.component_name(b1.id()).unwrap(), "b");
        assert_eq!(c.total_jj(), 4);
        assert!(format!("{c:?}").contains("total_jj"));
    }

    #[test]
    fn invalid_ports_are_rejected() {
        let mut c = Circuit::new();
        let b1 = c.add(buffer());
        let b2 = c.add(buffer());
        let err = c
            .connect(b1.output(1), b2.input(0), Time::ZERO)
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::InvalidPort {
                direction: "output",
                ..
            }
        ));
        let err = c
            .connect(b1.output(0), b2.input(3), Time::ZERO)
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::InvalidPort {
                direction: "input",
                ..
            }
        ));
    }

    #[test]
    fn unknown_input_is_rejected() {
        let mut c = Circuit::new();
        let b1 = c.add(buffer());
        let foreign = InputId(5);
        let err = c
            .connect_input(foreign, b1.input(0), Time::ZERO)
            .unwrap_err();
        assert!(matches!(err, SimError::UnknownId(_)));
        assert!(c.input_name(foreign).is_err());
        assert!(c.component_name(CompId(9)).is_err());
    }

    #[test]
    fn single_fanout_check() {
        let mut c = Circuit::new();
        let b1 = c.add(buffer());
        let b2 = c.add(buffer());
        let b3 = c.add(buffer());
        c.connect(b1.output(0), b2.input(0), Time::ZERO).unwrap();
        assert!(c.assert_single_fanout().is_ok());
        c.connect(b1.output(0), b3.input(0), Time::ZERO).unwrap();
        let err = c.assert_single_fanout().unwrap_err();
        assert!(err.to_string().contains("splitters"));
        assert_eq!(
            err,
            SimError::FanoutViolation {
                component: "b".into(),
                port: 0,
                sinks: 2,
            }
        );
        let overflows = c.fanout_overflows();
        assert_eq!(overflows.len(), 1);
        assert_eq!(overflows[0].comp, Some(b1.id()));
        assert_eq!(overflows[0].sinks, 2);
    }

    #[test]
    fn input_fanout_check() {
        let mut c = Circuit::new();
        let input = c.input("x");
        let b1 = c.add(buffer());
        let b2 = c.add(buffer());
        c.connect_input(input, b1.input(0), Time::ZERO).unwrap();
        c.connect_input(input, b2.input(0), Time::ZERO).unwrap();
        let err = c.assert_single_fanout().unwrap_err();
        assert!(matches!(
            err,
            SimError::FanoutViolation {
                port: 0,
                sinks: 2,
                ..
            }
        ));
        let overflows = c.fanout_overflows();
        assert_eq!(overflows.len(), 1);
        assert_eq!(overflows[0].comp, None);
        assert_eq!(overflows[0].name, "x");
    }

    #[test]
    fn bill_of_materials_and_wires() {
        let mut c = Circuit::new();
        let input = c.input("x");
        let b1 = c.add(buffer());
        let b2 = c.add(Buffer::with_jj_count("big", Time::ZERO, 9));
        c.connect_input(input, b1.input(0), Time::ZERO).unwrap();
        c.connect(b1.output(0), b2.input(0), Time::from_ps(4.0))
            .unwrap();
        let bom: Vec<_> = c.components().collect();
        assert_eq!(bom.len(), 2);
        assert_eq!(bom[1].1, "big");
        assert_eq!(bom[1].2, 9);
        let wires: Vec<_> = c.wires().collect();
        assert_eq!(wires.len(), 1);
        assert_eq!(wires[0].4, Time::from_ps(4.0));
    }

    #[test]
    fn dot_export() {
        let mut c = Circuit::new();
        let input = c.input("clk");
        let b1 = c.add(buffer());
        let b2 = c.add(buffer());
        c.connect_input(input, b1.input(0), Time::ZERO).unwrap();
        c.connect(b1.output(0), b2.input(0), Time::from_ps(3.0))
            .unwrap();
        let dot = c.to_dot("delay line");
        assert!(dot.starts_with("digraph delay_line {"));
        assert!(dot.contains("c0 [label=\"b\\n2 JJ\"];"));
        assert!(dot.contains("in0 [label=\"clk\""));
        assert!(dot.contains("in0 -> c0;"));
        assert!(dot.contains("c0 -> c1 [label=\"3.000 ps\"];"));
        assert!(dot.trim_end().ends_with('}'));
    }

    /// Both edge kinds carry a delay label when the wire delay is
    /// non-zero — external-input edges used to drop theirs.
    #[test]
    fn dot_export_labels_input_edge_delays() {
        let mut c = Circuit::new();
        let input = c.input("clk");
        let b1 = c.add(buffer());
        let b2 = c.add(buffer());
        c.connect_input(input, b1.input(0), Time::from_ps(2.0))
            .unwrap();
        c.connect(b1.output(0), b2.input(0), Time::from_ps(3.0))
            .unwrap();
        let dot = c.to_dot("labelled");
        assert!(
            dot.contains("in0 -> c0 [label=\"2.000 ps\"];"),
            "input edge lost its delay label:\n{dot}"
        );
        assert!(
            dot.contains("c0 -> c1 [label=\"3.000 ps\"];"),
            "component edge lost its delay label:\n{dot}"
        );
    }

    #[test]
    fn introspection_for_analyzers() {
        let mut c = Circuit::new();
        let input = c.input("x");
        let b1 = c.add(buffer());
        let b2 = c.add(buffer());
        c.connect_input(input, b1.input(0), Time::from_ps(2.0))
            .unwrap();
        c.connect(b1.output(0), b2.input(0), Time::ZERO).unwrap();
        let p_out = c.probe(b2.output(0), "end");
        let p_in = c.probe_input(input, "raw");
        assert_eq!(c.num_probes(), 2);
        let g = crate::CircuitGraph::new(&c);
        let b = b1.id().index();
        assert_eq!(
            (g.num_inputs(b), g.num_outputs(b), g.kind(b)),
            (1, 1, "buffer")
        );
        let in_wires: Vec<_> = c.input_wires().collect();
        assert_eq!(in_wires, vec![(input, b1.id(), 0, Time::from_ps(2.0))]);
        let taps: Vec<_> = c.probe_taps().collect();
        assert!(taps.contains(&(p_out, ProbeSource::Output(b2.id(), 0))));
        assert!(taps.contains(&(p_in, ProbeSource::Input(input))));
    }

    #[test]
    fn max_delay_covers_wires_and_cells() {
        let mut c = Circuit::new();
        assert_eq!(c.max_delay(), Time::ZERO);
        let input = c.input("x");
        let b1 = c.add(Buffer::new("slowcell", Time::from_ps(9.0)));
        let b2 = c.add(buffer());
        c.connect_input(input, b1.input(0), Time::from_ps(2.0))
            .unwrap();
        assert_eq!(c.max_delay(), Time::from_ps(9.0));
        c.connect(b1.output(0), b2.input(0), Time::from_ps(40.0))
            .unwrap();
        assert_eq!(c.max_delay(), Time::from_ps(40.0));
    }

    #[test]
    fn num_wires_counts_all_sinks() {
        let mut c = Circuit::new();
        let input = c.input("x");
        let b1 = c.add(buffer());
        let b2 = c.add(buffer());
        assert_eq!(c.num_wires(), 0);
        c.connect_input(input, b1.input(0), Time::ZERO).unwrap();
        c.connect(b1.output(0), b2.input(0), Time::ZERO).unwrap();
        c.connect(b1.output(0), b2.input(0), Time::ZERO).unwrap();
        assert_eq!(c.num_wires(), 3);
    }

    #[test]
    fn clone_is_deep_and_independent() {
        let mut c = Circuit::new();
        let input = c.input("x");
        let b1 = c.add(buffer());
        c.connect_input(input, b1.input(0), Time::from_ps(2.0))
            .unwrap();
        c.probe(b1.output(0), "p");
        let mut copy = c.clone();
        // Growing the clone leaves the original untouched.
        let b2 = copy.add(buffer());
        copy.connect(b1.output(0), b2.input(0), Time::ZERO).unwrap();
        assert_eq!(c.num_components(), 1);
        assert_eq!(copy.num_components(), 2);
        assert_eq!(c.num_wires(), 1);
        assert_eq!(copy.num_wires(), 2);
        assert_eq!(copy.input_name(input).unwrap(), "x");
        assert_eq!(c.total_jj() + 2, copy.total_jj());
    }

    #[test]
    #[should_panic(expected = "invalid port")]
    fn probe_on_bad_port_panics() {
        let mut c = Circuit::new();
        let b1 = c.add(buffer());
        let _ = c.probe(b1.output(2), "bad");
    }

    #[test]
    fn find_by_name_and_validated_refs() {
        let mut c = Circuit::new();
        let input = c.input("clk");
        let b1 = c.add(Buffer::new("stage0", Time::from_ps(1.0)));
        assert_eq!(c.find_component("stage0"), Some(b1.id()));
        assert_eq!(c.find_component("missing"), None);
        assert_eq!(c.find_input("clk"), Some(input));
        assert_eq!(c.find_input("rst"), None);
        let out = c.output_ref(b1.id(), 0).unwrap();
        assert_eq!(out, b1.output(0));
        assert_eq!(out.port(), 0);
        let sink = c.input_ref(b1.id(), 0).unwrap();
        assert_eq!(sink, b1.input(0));
        assert_eq!(sink.port(), 0);
        assert!(c.output_ref(b1.id(), 3).is_err());
        assert!(c.input_ref(CompId(9), 0).is_err());
    }

    #[test]
    fn disconnect_removes_exactly_one_wire() {
        let mut c = Circuit::new();
        let input = c.input("x");
        let b1 = c.add(buffer());
        let b2 = c.add(buffer());
        c.connect_input(input, b1.input(0), Time::from_ps(2.0))
            .unwrap();
        c.connect(b1.output(0), b2.input(0), Time::from_ps(3.0))
            .unwrap();
        c.connect(b1.output(0), b2.input(0), Time::from_ps(4.0))
            .unwrap();
        assert_eq!(c.net_fanout(b1.id(), 0).unwrap(), 2);
        assert_eq!(c.input_fanout(input).unwrap(), 1);

        let id = WireId::FromComp {
            comp: b1.id(),
            port: 0,
            nth: 0,
        };
        assert_eq!(c.wire_sink(id).unwrap(), (b2.id(), 0, Time::from_ps(3.0)));
        let (dst, port, delay) = c.disconnect(id).unwrap();
        assert_eq!((dst, port, delay), (b2.id(), 0, Time::from_ps(3.0)));
        // The second wire shifted into position 0 and survives.
        assert_eq!(c.net_fanout(b1.id(), 0).unwrap(), 1);
        assert_eq!(c.wire_sink(id).unwrap(), (b2.id(), 0, Time::from_ps(4.0)));
        // Input wires disconnect through the same handle type.
        let in_id = WireId::FromInput { input, nth: 0 };
        assert_eq!(
            c.disconnect(in_id).unwrap(),
            (b1.id(), 0, Time::from_ps(2.0))
        );
        assert_eq!(c.input_fanout(input).unwrap(), 0);
        // Stale handles error instead of panicking.
        assert!(c.disconnect(in_id).is_err());
        assert!(c
            .wire_sink(WireId::FromComp {
                comp: b1.id(),
                port: 0,
                nth: 5,
            })
            .is_err());
    }

    #[test]
    fn wires_into_finds_every_driver() {
        let mut c = Circuit::new();
        let input = c.input("x");
        let b1 = c.add(buffer());
        let b2 = c.add(buffer());
        c.connect_input(input, b2.input(0), Time::ZERO).unwrap();
        c.connect(b1.output(0), b2.input(0), Time::from_ps(1.0))
            .unwrap();
        let into = c.wires_into(b2.id(), 0);
        assert_eq!(into.len(), 2);
        assert!(into.contains(&WireId::FromInput { input, nth: 0 }));
        assert!(into.contains(&WireId::FromComp {
            comp: b1.id(),
            port: 0,
            nth: 0,
        }));
        assert!(c.wires_into(b1.id(), 0).is_empty());
    }

    /// `in → b0 → b1 → b2` with a 10 ps feedback wire `b2 → b1` and a
    /// probe on `b2`. With `rewired`, the feedback wire is replaced by a
    /// 40 ps bypass `b0 → b2` and `b1` gains a probe: the shape the
    /// copy-on-write tests give a clone of the plain fixture.
    fn loop_fixture(rewired: bool) -> (Circuit, InputId, [CompHandle; 3]) {
        let mut c = Circuit::new();
        let input = c.input("in");
        let b = [0, 1, 2].map(|i| c.add(Buffer::new(format!("b{i}"), Time::from_ps(1.0))));
        c.connect_input(input, b[0].input(0), Time::from_ps(1.0))
            .unwrap();
        c.connect(b[0].output(0), b[1].input(0), Time::from_ps(2.0))
            .unwrap();
        c.connect(b[1].output(0), b[2].input(0), Time::from_ps(3.0))
            .unwrap();
        if rewired {
            c.connect(b[0].output(0), b[2].input(0), Time::from_ps(40.0))
                .unwrap();
        } else {
            c.connect(b[2].output(0), b[1].input(0), Time::from_ps(10.0))
                .unwrap();
        }
        c.probe(b[2].output(0), "out");
        if rewired {
            c.probe(b[1].output(0), "mid");
        }
        (c, input, b)
    }

    /// Rewires a clone of the plain loop fixture into the `rewired`
    /// shape: drop the feedback wire, add the bypass, probe `b1`.
    fn rewire(c: &mut Circuit, b: [CompHandle; 3]) {
        c.disconnect(WireId::FromComp {
            comp: b[2].id(),
            port: 0,
            nth: 0,
        })
        .unwrap();
        c.connect(b[0].output(0), b[2].input(0), Time::from_ps(40.0))
            .unwrap();
        c.probe(b[1].output(0), "mid");
    }

    /// Probe recordings and activity of a bounded run (the plain
    /// fixture's feedback loop never goes quiet).
    fn simulate(c: Circuit, input: InputId) -> (Vec<Vec<Time>>, Vec<u64>) {
        let mut sim = crate::Simulator::new(c);
        sim.schedule_pulses(input, [Time::ZERO, Time::from_ps(7.0)])
            .unwrap();
        sim.run_until(Time::from_ps(120.0)).unwrap();
        let probes = (0..sim.circuit().num_probes())
            .map(|p| sim.probe_times(ProbeId(p)).to_vec())
            .collect();
        (probes, sim.activity().handled.clone())
    }

    #[test]
    fn clones_share_one_compiled_form() {
        let (proto, _, b) = loop_fixture(false);
        let a = crate::Simulator::new(proto.clone());
        let c = crate::Simulator::new(proto.clone());
        assert!(Arc::ptr_eq(&a.circuit().topo, &c.circuit().topo));
        assert!(std::ptr::eq(a.circuit().compiled(), c.circuit().compiled()));
        assert!(std::ptr::eq(proto.compiled(), a.circuit().compiled()));
        let la = a.circuit().cycle_lookahead();
        assert!(Arc::ptr_eq(&la, &c.circuit().cycle_lookahead()));
        assert_eq!(la[b[0].id().index()], Time::MAX);
        assert_eq!(la[b[1].id().index()], Time::from_ps(13.0));
    }

    /// A simulator's first coalesced delivery builds the topology's
    /// condensation for its cycle lookahead, and lint's graph views of
    /// the circuit and of a clone read that same one: one Tarjan pass
    /// per topology.
    #[test]
    fn graph_views_and_the_lookahead_share_one_condensation() {
        let (proto, input, _) = loop_fixture(false);
        assert!(proto.compiled().sccs.get().is_none());
        let config = crate::SimConfig {
            burst: true,
            ..crate::SimConfig::reference()
        };
        let mut sim = crate::Simulator::with_config(proto.clone(), &config);
        sim.schedule_burst(
            input,
            crate::Burst::uniform(Time::ZERO, Time::from_ps(1.0), 3),
        )
        .unwrap();
        sim.run_until(Time::from_ps(30.0)).unwrap();
        assert!(sim.activity().coalesce.hits > 0, "a train was absorbed");
        let built = proto
            .compiled()
            .sccs
            .get()
            .expect("the first coalesced delivery builds the condensation");
        let lint = crate::CircuitGraph::new(&proto).sccs();
        let copy = proto.clone();
        assert!(std::ptr::eq(built, lint));
        assert!(std::ptr::eq(built, crate::CircuitGraph::new(&copy).sccs()));
        assert!(std::ptr::eq(built, sim.circuit().sccs()));
    }

    /// A clone shares its prototype's cells rather than copying them,
    /// and so do the workers of a sharded run of it.
    #[test]
    fn clones_share_their_cells() {
        let (proto, ..) = loop_fixture(false);
        let copy = proto.clone();
        assert!(Arc::ptr_eq(&proto.topo, &copy.topo));
        let mut rewired = proto.clone();
        rewired.probe_input(InputId(0), "raw");
        assert!(!Arc::ptr_eq(&proto.topo, &rewired.topo));
        for (a, b) in proto.topo.models.iter().zip(&rewired.topo.models) {
            assert!(Arc::ptr_eq(a, b), "a rewired clone copies no cell");
        }

        // Two chains joined by a 20 ps wire split into two shards.
        let mut c = Circuit::new();
        let input = c.input("in");
        let b = (0..4)
            .map(|i| c.add(Buffer::new(format!("b{i}"), Time::from_ps(1.0))))
            .collect::<Vec<_>>();
        c.connect_input(input, b[0].input(0), Time::ZERO).unwrap();
        for (i, pair) in b.windows(2).enumerate() {
            let delay = if i == 1 { 20.0 } else { 0.0 };
            c.connect(pair[0].output(0), pair[1].input(0), Time::from_ps(delay))
                .unwrap();
        }
        let config = crate::SimConfig {
            shards: 2,
            ..crate::SimConfig::reference()
        };
        let sharded = crate::ShardedSimulator::with_config(c.clone(), &config);
        assert_eq!(sharded.num_shards(), 2);
        let mut shared = 0;
        for worker in sharded.workers() {
            for model in &worker.circuit().topo.models {
                assert!(
                    c.topo.models.iter().any(|m| Arc::ptr_eq(m, model)),
                    "a shard copied `{}`",
                    model.name()
                );
                shared += 1;
            }
        }
        assert_eq!(shared, c.num_components());
    }

    #[test]
    fn mutating_a_clone_leaves_the_prototype_alone() {
        let (proto, input, b) = loop_fixture(false);
        let before = simulate(proto.clone(), input);
        let compiled = proto.compiled();
        let la = proto.cycle_lookahead();

        let mut copy = proto.clone();
        rewire(&mut copy, b);

        // The prototype keeps its wiring, its compiled form and its
        // results.
        assert!(std::ptr::eq(proto.compiled(), compiled));
        assert!(Arc::ptr_eq(&proto.cycle_lookahead(), &la));
        assert_eq!(proto.max_delay(), Time::from_ps(10.0));
        assert_eq!(proto.num_wires(), 4);
        assert_eq!(proto.num_probes(), 1);
        assert_eq!(simulate(proto.clone(), input), before);
        // The clone sees its own shape.
        assert!(!Arc::ptr_eq(&proto.topo, &copy.topo));
        assert_eq!(copy.max_delay(), Time::from_ps(40.0));
        assert_eq!(copy.num_wires(), 4);
        assert_eq!(copy.num_probes(), 2);
        assert!(copy.cycle_lookahead().iter().all(|&t| t == Time::MAX));
    }

    #[test]
    fn mutated_clone_simulates_like_a_direct_build() {
        let (proto, input, b) = loop_fixture(false);
        // Compile the shared form first, so the rewiring must drop it.
        assert_eq!(proto.num_wires(), 4);
        let mut copy = proto.clone();
        rewire(&mut copy, b);
        let (direct, direct_input, _) = loop_fixture(true);
        let rewired = simulate(copy, input);
        assert_eq!(rewired, simulate(direct, direct_input));
        assert_eq!(rewired.0[0].len(), 4, "both paths reach the probe twice");
        assert_eq!(proto.num_probes(), 1);
    }
}
