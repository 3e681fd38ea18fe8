//! The [`Component`] trait implemented by every cell model, and the
//! context handed to a component while it processes a pulse.

use crate::burst::Burst;
use crate::stats::StatKind;
use crate::time::Time;

/// Actions a component requests while handling a pulse or timer.
///
/// Components never touch the event queue directly; they describe what they
/// want through `Ctx` and the engine applies it after the handler returns.
/// This keeps components simple and the kernel free of re-entrancy.
#[derive(Debug, Default)]
pub struct Ctx {
    pub(crate) emissions: Vec<(usize, Time)>,
    pub(crate) timers: Vec<(u64, Time)>,
    pub(crate) stats: Vec<StatKind>,
    pub(crate) burst_emissions: Vec<(usize, Burst)>,
    pub(crate) stat_counts: Vec<(StatKind, u64)>,
}

impl Ctx {
    /// Emits a pulse on output port `port`, `delay` after the current time.
    ///
    /// The engine fans the pulse out to every connected sink (plus probes),
    /// each with its own wire delay.
    pub fn emit(&mut self, port: usize, delay: Time) {
        self.emissions.push((port, delay));
    }

    /// Schedules a call to [`Component::on_timer`] with `tag`, `delay` after
    /// the current time. Used by cells with internal timed behaviour (e.g.
    /// the integrator buffer's charge/discharge phases).
    pub fn schedule_timer(&mut self, tag: u64, delay: Time) {
        self.timers.push((tag, delay));
    }

    /// Records a statistics event (collision, dropped pulse, …) attributed
    /// to this component.
    pub fn record(&mut self, stat: StatKind) {
        self.stats.push(stat);
    }

    /// Emits a whole coalesced train on output port `port`. Unlike
    /// [`Ctx::emit`], the burst carries **absolute** pulse times — a
    /// cell typically builds it with [`Burst::delayed`] from the input
    /// train it received in [`Component::step_burst`].
    ///
    /// Only meaningful inside [`Component::step_burst`]; the engine
    /// rejects burst emissions from the per-pulse handlers.
    pub fn emit_burst(&mut self, port: usize, burst: Burst) {
        if !burst.is_empty() {
            self.burst_emissions.push((port, burst));
        }
    }

    /// Records `n` occurrences of a statistics event at once — the
    /// closed-form counterpart of calling [`Ctx::record`] `n` times.
    pub fn record_many(&mut self, stat: StatKind, n: u64) {
        if n > 0 {
            self.stat_counts.push((stat, n));
        }
    }

    /// The emissions requested so far, as `(output port, delay)` pairs.
    /// Mostly useful when unit-testing a component in isolation.
    pub fn emissions(&self) -> &[(usize, Time)] {
        &self.emissions
    }

    /// The timers requested so far, as `(tag, delay)` pairs.
    pub fn timers(&self) -> &[(u64, Time)] {
        &self.timers
    }

    /// The statistics events recorded so far.
    pub fn stats(&self) -> &[StatKind] {
        &self.stats
    }

    /// The coalesced emissions requested so far, as
    /// `(output port, absolute-time burst)` pairs.
    pub fn burst_emissions(&self) -> &[(usize, Burst)] {
        &self.burst_emissions
    }

    /// The batched statistics recorded via [`Ctx::record_many`].
    pub fn stat_counts(&self) -> &[(StatKind, u64)] {
        &self.stat_counts
    }

    pub(crate) fn clear(&mut self) {
        self.emissions.clear();
        self.timers.clear();
        self.stats.clear();
        self.burst_emissions.clear();
        self.stat_counts.clear();
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.emissions.is_empty()
            && self.timers.is_empty()
            && self.stats.is_empty()
            && self.burst_emissions.is_empty()
            && self.stat_counts.is_empty()
    }
}

/// What a cell did with a coalesced train offered to
/// [`Component::step_burst`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BurstStep {
    /// The cell absorbed the whole train in closed form: its state now
    /// reflects all `count` pulses and any resulting output trains were
    /// emitted via [`Ctx::emit_burst`] /
    /// [`Ctx::record_many`].
    Consumed,
    /// The cell cannot transform this train exactly; the engine falls
    /// back to delivering it pulse-by-pulse through
    /// [`Component::on_pulse`]. The cell must **not** have mutated any
    /// state before returning this.
    PulseByPulse,
}

/// A timing hazard a cell is statically susceptible to, as declared by
/// [`Component::static_meta`]. Static analyzers (e.g. `usfq-lint`) use
/// these to decide which arrival-window overlaps are dangerous.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Hazard {
    /// Two pulses arriving on different inputs within `window` of each
    /// other may merge into one (the Fig. 5 merger collision).
    Collision {
        /// The collision window.
        window: Time,
    },
    /// A pulse arriving on the *same* input within `window` of a
    /// previous pulse on either input lands mid-transition and may be
    /// misrouted (the balancer's t_BFF hazard, paper §4.2).
    Transition {
        /// The internal transition window.
        window: Time,
    },
    /// A pulse on the `control` input must settle `window` before a
    /// pulse on the `sampled` input reads the state (NDRO set/reset vs
    /// clock, inverter data vs clock, demux select vs data).
    Setup {
        /// Input port whose state must settle first.
        control: usize,
        /// Input port that samples that state.
        sampled: usize,
        /// Required settling window.
        window: Time,
    },
}

/// Static timing facts about a cell: its kind (for catalog lookups),
/// its propagation-delay range, and the hazards it is susceptible to.
///
/// Returned by [`Component::static_meta`] and consumed by static
/// analyzers; the simulation engine itself never reads it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticMeta {
    /// Catalog kind string (`"merger"`, `"balancer"`, …), or a custom
    /// tag for cells with no catalog entry.
    pub kind: &'static str,
    /// Minimum input-to-output propagation delay.
    pub min_delay: Time,
    /// Maximum input-to-output propagation delay (equals `min_delay`
    /// for fixed-latency cells; larger for timer-driven ones).
    pub max_delay: Time,
    /// Hazards this cell kind is statically susceptible to.
    pub hazards: Vec<Hazard>,
    /// For counting cells (integrators): the largest number of data
    /// pulses the cell can absorb per epoch before its count saturates
    /// or wraps. `None` for non-counting cells.
    ///
    /// This is the shared contract between the static analyzer's
    /// pulse-count intervals (`USFQ012`) and the runtime
    /// [`sanitizer`](crate::sanitizer)'s per-port overflow check: both
    /// read exactly this field, so a netlist the lint proves
    /// overflow-free can never trip the sanitizer's count check.
    pub counting_capacity: Option<u64>,
}

impl StaticMeta {
    /// Meta for a fixed-latency cell with no declared hazards.
    pub fn new(kind: &'static str, delay: Time) -> Self {
        StaticMeta {
            kind,
            min_delay: delay,
            max_delay: delay,
            hazards: Vec::new(),
            counting_capacity: None,
        }
    }

    /// Meta with an explicit `[min, max]` delay range.
    pub fn custom(kind: &'static str, min_delay: Time, max_delay: Time) -> Self {
        StaticMeta {
            kind,
            min_delay,
            max_delay,
            hazards: Vec::new(),
            counting_capacity: None,
        }
    }

    /// Adds a hazard declaration (builder style).
    #[must_use]
    pub fn with_hazard(mut self, hazard: Hazard) -> Self {
        self.hazards.push(hazard);
        self
    }

    /// Declares the cell's per-epoch counting capacity (builder style).
    #[must_use]
    pub fn with_counting_capacity(mut self, capacity: u64) -> Self {
        self.counting_capacity = Some(capacity);
        self
    }
}

/// One cell's mutable state: the part of a cell that a run changes.
///
/// Cells keep no state of their own. A [`Component`] is an immutable
/// description, shared by every clone of its [`Circuit`](crate::Circuit);
/// each simulator holds one `CellState` per cell in one flat vector,
/// lends a cell its entry in every handler, and restores the entries
/// from the models' [`Component::power_on`] on reset.
///
/// The value is fixed-size and `Copy`, with no heap, and sized for the
/// largest catalog cell, the balancer: two route bits and one
/// transition end per input port. Other cells use what they need: a
/// stored fluxon or a toggle phase is one bit, the end of a merger's
/// collision window is one time, an integrator's count is one word.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct CellState {
    /// Discrete state, one bit per flag (see [`CellState::bit`]).
    pub bits: u8,
    /// Two words, read as times (see [`CellState::time`]) or as counts.
    pub words: [u64; 2],
}

impl CellState {
    /// Bit `i` of [`CellState::bits`].
    pub fn bit(self, i: u32) -> bool {
        self.bits >> i & 1 == 1
    }

    /// Sets bit `i` of [`CellState::bits`] to `on`.
    pub fn set_bit(&mut self, i: u32, on: bool) {
        self.bits = self.bits & !(1 << i) | u8::from(on) << i;
    }

    /// Word `i` read as a time.
    pub fn time(self, i: usize) -> Time {
        Time::from_fs(self.words[i])
    }

    /// Stores time `t` in word `i`.
    pub fn set_time(&mut self, i: usize, t: Time) {
        self.words[i] = t.as_fs();
    }
}

/// A behavioral model of an SFQ cell.
///
/// Implementations are deterministic state machines: the engine delivers
/// pulses (and previously requested timers) in non-decreasing time order and
/// the component reacts by updating its [`CellState`] and requesting
/// emissions.
///
/// A component is an immutable description of its cell: name, ports,
/// delays, hazards. Its handlers take `&self` and the cell's state,
/// which the simulator owns (one [`CellState`] per cell) and which
/// starts at [`Component::power_on`]. So a circuit is shared, not
/// copied, by its clones and by the shards of a sharded run, and
/// components must be `Send + Sync` to reach the parallel
/// [`runner`](crate::runner)'s worker threads.
///
/// # Examples
///
/// A pass-through buffer (see [`Buffer`]) is the minimal implementation;
/// it keeps no state, so the default power-on state serves:
///
/// ```
/// use usfq_sim::component::{CellState, Component, Ctx};
/// use usfq_sim::Time;
///
/// struct Echo;
/// impl Component for Echo {
///     fn name(&self) -> &str { "echo" }
///     fn num_inputs(&self) -> usize { 1 }
///     fn num_outputs(&self) -> usize { 1 }
///     fn jj_count(&self) -> u32 { 2 }
///     fn on_pulse(&self, _state: &mut CellState, _port: usize, _now: Time, ctx: &mut Ctx) {
///         ctx.emit(0, Time::from_ps(3.0));
///     }
/// }
/// ```
pub trait Component: Send + Sync {
    /// Instance name, used in error messages and reports.
    fn name(&self) -> &str;

    /// Number of input ports.
    fn num_inputs(&self) -> usize;

    /// Number of output ports.
    fn num_outputs(&self) -> usize;

    /// Number of Josephson junctions this cell occupies. Feeds the area and
    /// passive-power accounting (the paper measures area exclusively in JJs).
    fn jj_count(&self) -> u32;

    /// Average number of JJs that switch when this cell processes one pulse.
    ///
    /// Used by the active-power model. The default — a quarter of the cell's
    /// junctions — matches the rule of thumb that a pulse traverses one of a
    /// few internal paths; cells calibrated against the paper's WRspice
    /// numbers override this.
    fn switching_jjs(&self) -> f64 {
        f64::from(self.jj_count()) / 4.0
    }

    /// The cell's state at power-on, which a fresh or reset simulator
    /// starts the cell from. The default, all zero, serves stateless
    /// cells and cells whose flags all start clear.
    fn power_on(&self) -> CellState {
        CellState::default()
    }

    /// Handles a pulse arriving on `port` at time `now`, in the cell's
    /// `state`.
    fn on_pulse(&self, state: &mut CellState, port: usize, now: Time, ctx: &mut Ctx);

    /// Offers a whole coalesced train arriving on `port`.
    ///
    /// A cell whose reaction to a uniform train has a closed form
    /// (delay elements, splitters, toggles, gated pass-throughs)
    /// absorbs it here: update `state` as if every pulse of `burst` had
    /// arrived through [`Component::on_pulse`], emit the transformed
    /// output trains via [`Ctx::emit_burst`] (with absolute times,
    /// usually `burst.delayed(cell_delay)`), record batched anomalies
    /// via [`Ctx::record_many`], and return [`BurstStep::Consumed`].
    ///
    /// The default declines ([`BurstStep::PulseByPulse`]): the engine
    /// then expands the train and delivers it through
    /// [`Component::on_pulse`] one pulse at a time, which is always
    /// correct. Contract for implementors: when returning
    /// `PulseByPulse`, no state may have been mutated and nothing may
    /// have been emitted; when returning `Consumed`, only
    /// [`Ctx::emit_burst`] / [`Ctx::record_many`] may be used — no
    /// per-pulse emissions and no timers.
    ///
    /// # Jitter envelopes
    ///
    /// A train may carry a jitter envelope
    /// ([`Burst::env_span`] `> 0`): each pulse's actual arrival lies
    /// within `[t_k − env_lo, t_k + env_hi]` of its nominal time, and
    /// the engine materializes the exact arrivals lazily. A cell may
    /// only consume an envelope train if its behaviour is
    /// *index-derived*: state updates depend on pulse **count/order**
    /// alone (never on the exact times), and every emission is some
    /// index transform of the input (`delayed`/`suffix`/`prefix`/
    /// `decimate`) — i.e. each output pulse is "this input pulse plus
    /// a fixed delay". The engine then reconstructs exact output times
    /// from the input's materialization, so byte-identity with the
    /// pulse engine is preserved. Cells whose state transitions read
    /// exact arrival times (collision windows, transition windows)
    /// must decline envelope trains (`!burst.is_exact()`) and let the
    /// per-pulse path judge the materialized times. Emitted bursts
    /// must also preserve the input's source-index map
    /// ([`Burst::src_map`]) — the built-in transforms do this
    /// automatically; hand-built emissions must derive from `burst`,
    /// not from a fresh [`Burst::uniform`].
    fn step_burst(
        &self,
        state: &mut CellState,
        port: usize,
        burst: &Burst,
        ctx: &mut Ctx,
    ) -> BurstStep {
        let _ = (state, port, burst, ctx);
        BurstStep::PulseByPulse
    }

    /// Handles a timer previously scheduled via [`Ctx::schedule_timer`].
    ///
    /// The default implementation ignores timers.
    fn on_timer(&self, state: &mut CellState, tag: u64, now: Time, ctx: &mut Ctx) {
        let _ = (state, tag, now, ctx);
    }

    /// Static timing facts for analyzers: cell kind, delay range, and
    /// hazards. The default — kind `"custom"`, a zero-width delay
    /// window, no hazards — keeps third-party components working but
    /// makes static timing treat them as ideal zero-delay cells;
    /// override it for anything with real latency.
    fn static_meta(&self) -> StaticMeta {
        StaticMeta::new("custom", Time::ZERO)
    }
}

/// A pure delay element: one input, one output, fixed latency.
///
/// Models a Josephson transmission line (JTL) segment or any other stateless
/// repeater. Also handy as a named observation point in tests.
#[derive(Debug, Clone)]
pub struct Buffer {
    name: String,
    delay: Time,
    jj: u32,
}

impl Buffer {
    /// Creates a buffer with the given propagation delay and a default cost
    /// of 2 JJs (a single JTL stage).
    pub fn new(name: impl Into<String>, delay: Time) -> Self {
        Buffer {
            name: name.into(),
            delay,
            jj: 2,
        }
    }

    /// Creates a buffer with an explicit JJ cost (e.g. a multi-stage JTL).
    pub fn with_jj_count(name: impl Into<String>, delay: Time, jj: u32) -> Self {
        Buffer {
            name: name.into(),
            delay,
            jj,
        }
    }

    /// The configured propagation delay.
    pub fn delay(&self) -> Time {
        self.delay
    }
}

impl Component for Buffer {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_inputs(&self) -> usize {
        1
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn jj_count(&self) -> u32 {
        self.jj
    }
    fn on_pulse(&self, _state: &mut CellState, _port: usize, _now: Time, ctx: &mut Ctx) {
        ctx.emit(0, self.delay);
    }
    fn step_burst(
        &self,
        _state: &mut CellState,
        _port: usize,
        burst: &Burst,
        ctx: &mut Ctx,
    ) -> BurstStep {
        // Stateless delay: the whole train shifts by the fixed latency.
        ctx.emit_burst(0, burst.delayed(self.delay));
        BurstStep::Consumed
    }
    fn static_meta(&self) -> StaticMeta {
        // The JJ count is caller-chosen, so the catalog's "buffer" row
        // deliberately carries none.
        StaticMeta::new("buffer", self.delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_collects_actions() {
        let mut ctx = Ctx::default();
        assert!(ctx.is_empty());
        ctx.emit(0, Time::from_ps(1.0));
        ctx.schedule_timer(7, Time::from_ps(2.0));
        ctx.record(StatKind::MergerCollision);
        assert!(!ctx.is_empty());
        assert_eq!(ctx.emissions, vec![(0, Time::from_ps(1.0))]);
        assert_eq!(ctx.timers, vec![(7, Time::from_ps(2.0))]);
        ctx.clear();
        assert!(ctx.is_empty());
    }

    #[test]
    fn buffer_emits_after_delay() {
        let b = Buffer::new("b", Time::from_ps(3.0));
        let mut ctx = Ctx::default();
        b.on_pulse(&mut b.power_on(), 0, Time::ZERO, &mut ctx);
        assert_eq!(ctx.emissions, vec![(0, Time::from_ps(3.0))]);
        assert_eq!(b.delay(), Time::from_ps(3.0));
        assert_eq!(b.jj_count(), 2);
        assert_eq!(b.num_inputs(), 1);
        assert_eq!(b.num_outputs(), 1);
    }

    /// A component added boxed survives a circuit clone, shared rather
    /// than copied, and the clone simulates it the same.
    #[test]
    fn clone_box_copies_boxed_components() {
        let mut c = crate::Circuit::new();
        let input = c.input("in");
        let boxed: Box<dyn Component> =
            Box::new(Buffer::with_jj_count("jtl", Time::from_ps(5.0), 6));
        let b = c.add_boxed(boxed);
        c.connect_input(input, b.input(0), Time::ZERO).unwrap();
        let p = c.probe(b.output(0), "out");
        let copy = c.clone();
        assert_eq!(copy.component_name(b.id()).unwrap(), "jtl");
        assert_eq!(copy.total_jj(), 6);
        assert!(std::sync::Arc::ptr_eq(
            &c.topo.models[b.id().index()],
            &copy.topo.models[b.id().index()]
        ));
        let run = |circuit| {
            let mut sim = crate::Simulator::new(circuit);
            sim.schedule_input(input, Time::ZERO).unwrap();
            sim.run().unwrap();
            sim.probe_times(p).to_vec()
        };
        assert_eq!(run(copy), vec![Time::from_ps(5.0)]);
        assert_eq!(run(c), vec![Time::from_ps(5.0)]);
    }

    #[test]
    fn buffer_with_custom_jj() {
        let b = Buffer::with_jj_count("jtl4", Time::from_ps(12.0), 8);
        assert_eq!(b.jj_count(), 8);
        assert_eq!(b.switching_jjs(), 2.0);
    }

    #[test]
    fn buffer_static_meta() {
        let b = Buffer::new("b", Time::from_ps(3.0));
        let meta = b.static_meta();
        assert_eq!(meta.kind, "buffer");
        assert_eq!(meta.min_delay, Time::from_ps(3.0));
        assert_eq!(meta.max_delay, Time::from_ps(3.0));
        assert!(meta.hazards.is_empty());
    }

    #[test]
    fn static_meta_builders() {
        let meta = StaticMeta::custom("x", Time::from_ps(1.0), Time::from_ps(4.0))
            .with_hazard(Hazard::Collision {
                window: Time::from_ps(5.0),
            })
            .with_hazard(Hazard::Setup {
                control: 0,
                sampled: 2,
                window: Time::from_ps(5.0),
            });
        assert_eq!(meta.min_delay, Time::from_ps(1.0));
        assert_eq!(meta.max_delay, Time::from_ps(4.0));
        assert_eq!(meta.hazards.len(), 2);
        assert_eq!(meta.counting_capacity, None);
        let counting = StaticMeta::new("ctr", Time::ZERO).with_counting_capacity(256);
        assert_eq!(counting.counting_capacity, Some(256));

        struct Bare;
        impl Component for Bare {
            fn name(&self) -> &'static str {
                "bare"
            }
            fn num_inputs(&self) -> usize {
                1
            }
            fn num_outputs(&self) -> usize {
                0
            }
            fn jj_count(&self) -> u32 {
                0
            }
            fn on_pulse(&self, _state: &mut CellState, _port: usize, _now: Time, _ctx: &mut Ctx) {}
        }
        let meta = Bare.static_meta();
        assert_eq!(meta.kind, "custom");
        assert_eq!(meta.max_delay, Time::ZERO);
    }
}
