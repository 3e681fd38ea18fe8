//! The event-driven simulation engine.

use std::sync::{Arc, OnceLock};

use crate::burst::Burst;
use crate::circuit::{Circuit, InputId, Model, OutputNet, ProbeId};
use crate::component::{BurstStep, CellState, Component, Ctx};
use crate::config::SimConfig;
use crate::error::SimError;
use crate::rng::SplitMix64;
use crate::sanitizer::{SanitizerConfig, SanitizerReport, SanitizerState};
use crate::sched::{CalendarWheel, RunHeap, Sched, WheelStats};
use crate::stats::ActivityReport;
use crate::time::Time;

/// Default safety valve: a run aborts after this many events, which points
/// at an oscillating circuit rather than a legitimate workload.
pub const DEFAULT_EVENT_LIMIT: u64 = 200_000_000;

/// Event payload, kept to 16 bytes (`u32` component/port indices, the
/// discriminant packed into their padding) so a queued [`Event`] stays
/// one 32-byte half-cache-line — the queues copy events around
/// constantly and payload size is directly visible in the engine's
/// hot-loop throughput.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    Deliver {
        comp: u32,
        port: u32,
    },
    Timer {
        comp: u32,
        tag: u64,
    },
    /// A whole coalesced train headed for one input port. The event is
    /// keyed by the train's *head* pulse; the train itself lives in the
    /// simulator's burst slab under `slot`, and `(time, seq)` of pulse
    /// `k` is `(burst.time_at(k), seq + k · stride)` — exactly the keys
    /// the pulse-level engine would have assigned, so lazily splitting
    /// the train at consumption boundaries preserves tie order.
    BurstDeliver {
        comp: u32,
        port: u32,
        slot: u32,
    },
}

/// One jittered hop in a coalesced train's provenance trail: the wire
/// crossed (its jitter key, see [`Simulator::key_jitter_by`]), its
/// nominal delay, the nominal train as it was emitted onto that wire,
/// and the affine map from the slab train's current index space into
/// that emission's index space (slab pulse `i` crossed this hop as
/// emission pulse `off + i · stride`).
///
/// The trail is the lazy-materialization recipe for exact jittered
/// arrival times: fold the hops in order, keying each draw by the
/// pulse's *actual* emission time onto the wire (nominal emission plus
/// the jitter accumulated over the earlier hops) — exactly the key the
/// pulse-level engine uses in `fan_out`, so both engines see identical
/// perturbations. A probe that records a trailed train keeps a copy of
/// the trail and folds it when its times are first read. The fold is
/// sound because every envelope-accepting cell emits at `actual input
/// arrival + fixed delay` (the `step_burst` contract), which makes
/// actual emission = nominal emission + accumulated input jitter.
#[derive(Debug, Clone)]
struct TrailHop {
    wire: u32,
    delay: Time,
    burst: Burst,
    off: u64,
    stride: u64,
}

/// Deepest provenance trail a coalesced train may accumulate before a
/// further jittered hop expands it to pulse level. Each hop costs one
/// draw per materialized pulse; past this depth the closed form no
/// longer pays for itself (and the envelope, which widens linearly per
/// hop, has almost certainly outgrown the train's spacing anyway).
const MAX_TRAIL_HOPS: usize = 32;

/// Slab record backing an in-flight [`EventKind::BurstDeliver`]: the
/// remaining train, the sequence-number stride between consecutive
/// pulses (the width of the net the train was fanned out over), and
/// the jittered hops crossed so far (empty for exact trains).
#[derive(Debug, Clone)]
struct BurstRec {
    burst: Burst,
    stride: u64,
    trail: Vec<TrailHop>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    time: Time,
    seq: u64,
    kind: EventKind,
}

/// A train's head pulse, as an [`EventKind::Deliver`] for the event
/// loop to dispatch, and the rest of the train to re-queue after it.
type Head = (Event, Option<Event>);

// The queues copy events around constantly; payload growth is directly
// visible in hot-loop throughput. Burst payloads live in the slab
// precisely so this stays one 32-byte half-cache-line.
const _: () = assert!(
    std::mem::size_of::<Event>() == 32,
    "Event must stay 32 bytes"
);

#[derive(Debug, Clone, Copy)]
pub(crate) enum NetSource {
    /// External input slot index.
    Input(usize),
    /// (component index, output port).
    Output(usize, usize),
}

/// One wire in the dense net table: destination component index,
/// destination port, propagation delay.
#[derive(Debug, Clone, Copy)]
struct FlatWire {
    dest: u32,
    port: u32,
    delay: Time,
}

/// A net's slices into the flat wire/probe arrays.
#[derive(Debug, Clone, Copy, Default)]
struct NetRange {
    wires_start: u32,
    wires_end: u32,
    probes_start: u32,
    probes_end: u32,
}

/// Dense, pre-computed fan-out indexing: every net's wires and probes
/// flattened into two contiguous arrays, addressed by net index
/// (external inputs first, then component outputs, component-major /
/// port-minor). This removes the nested `outputs[c][p].wires` pointer
/// chase from the hot `fan_out` path — one bounds-checked slice per
/// emission instead of three dependent loads.
///
/// Built once per topology (see `circuit::Compiled`); each simulator
/// holds its own handles to the shared slices, so a lookup costs
/// exactly what it would on owned `Vec`s.
#[derive(Debug, Clone)]
pub(crate) struct NetTable {
    nets: Arc<[NetRange]>,
    wires: Arc<[FlatWire]>,
    probes: Arc<[u32]>,
    /// Per-component base net index for its output ports.
    output_base: Arc<[u32]>,
}

impl NetTable {
    pub(crate) fn build(circuit: &Circuit) -> Self {
        let topo = &circuit.topo;
        let mut nets = Vec::new();
        let mut wires = Vec::new();
        let mut probes = Vec::new();
        // Appends one net; returns the index the next net will take.
        let mut flatten = |net: &OutputNet| {
            let wires_start = wires.len() as u32;
            wires.extend(net.wires.iter().map(|w| FlatWire {
                dest: w.dest.index() as u32,
                port: w.port as u32,
                delay: w.delay,
            }));
            let probes_start = probes.len() as u32;
            probes.extend(net.probes.iter().map(|p| p.index() as u32));
            nets.push(NetRange {
                wires_start,
                wires_end: wires.len() as u32,
                probes_start,
                probes_end: probes.len() as u32,
            });
            nets.len() as u32
        };
        let mut next = 0;
        for input in &topo.inputs {
            next = flatten(&input.net);
        }
        let mut output_base = Vec::with_capacity(topo.outputs.len());
        for outputs in &topo.outputs {
            output_base.push(next);
            for net in outputs {
                next = flatten(net);
            }
        }
        NetTable {
            nets: nets.into(),
            wires: wires.into(),
            probes: probes.into(),
            output_base: output_base.into(),
        }
    }

    /// Total wired sinks over every net.
    pub(crate) fn num_wires(&self) -> usize {
        self.wires.len()
    }

    /// The index of net `net`'s first wire; the wire count for the net
    /// past the last. Nets are flattened back to back, so a run of nets
    /// is one range of wires.
    fn first_wire(&self, net: usize) -> usize {
        self.nets
            .get(net)
            .map_or(self.wires.len(), |r| r.wires_start as usize)
    }

    /// Component `c`'s wires, port after port, as `(destination
    /// component, delay)`: its successors in `Circuit::wires` order.
    pub(crate) fn comp_edges(&self, c: usize) -> impl Iterator<Item = (usize, Time)> + '_ {
        let next = self
            .output_base
            .get(c + 1)
            .map_or(self.nets.len(), |&b| b as usize);
        let wires = self.first_wire(self.output_base[c] as usize)..self.first_wire(next);
        self.wires[wires].iter().map(|w| (w.dest as usize, w.delay))
    }

    /// The net's `(component, input port)` sinks, once per wire, in
    /// wire order.
    pub(crate) fn sinks(&self, source: NetSource) -> impl Iterator<Item = (usize, usize)> + '_ {
        let net = self.net(source);
        self.wires[net.wires_start as usize..net.wires_end as usize]
            .iter()
            .map(|w| (w.dest as usize, w.port as usize))
    }

    #[inline]
    fn net(&self, source: NetSource) -> NetRange {
        match source {
            NetSource::Input(i) => self.nets[i],
            NetSource::Output(c, p) => self.nets[self.output_base[c] as usize + p],
        }
    }
}

/// The selectable event queue: the run-fronted binary heap
/// ([`RunHeap`], the default) or the calendar wheel, as the
/// simulator's [`SimConfig::sched`] names. Both pop in strictly
/// ascending `(time, seq)` order, so the choice never changes a result
/// byte — only the cost of ordering.
#[derive(Debug)]
enum Queue {
    Heap(RunHeap<EventKind>),
    Wheel(CalendarWheel<EventKind>),
}

impl Queue {
    fn new(sched: Sched, max_delay: Time) -> Self {
        match sched {
            Sched::Heap => Queue::Heap(RunHeap::new()),
            Sched::Wheel => Queue::Wheel(CalendarWheel::for_max_delay(max_delay)),
        }
    }

    fn sched(&self) -> Sched {
        match self {
            Queue::Heap(_) => Sched::Heap,
            Queue::Wheel(_) => Sched::Wheel,
        }
    }

    fn wheel_stats(&self) -> Option<WheelStats> {
        match self {
            Queue::Heap(_) => None,
            Queue::Wheel(w) => Some(w.stats()),
        }
    }

    #[inline]
    fn push(&mut self, ev: Event) {
        match self {
            Queue::Heap(h) => h.push(ev.time, ev.seq, ev.kind),
            Queue::Wheel(w) => w.push(ev.time, ev.seq, ev.kind),
        }
    }

    #[inline]
    fn peek(&mut self) -> Option<Event> {
        let (time, seq, &kind) = match self {
            Queue::Heap(h) => h.peek(),
            Queue::Wheel(w) => w.peek(),
        }?;
        Some(Event { time, seq, kind })
    }

    /// Pops the earliest event only if it is due at `deadline`. One
    /// fused call instead of the peek-compare-pop sequence, so the
    /// wheel walks its cursor once per event instead of twice.
    #[inline]
    fn pop_due(&mut self, deadline: Time) -> Option<Event> {
        let (time, seq, kind) = match self {
            Queue::Heap(h) => h.pop_due(deadline),
            Queue::Wheel(w) => w.pop_due(deadline),
        }?;
        Some(Event { time, seq, kind })
    }

    fn len(&self) -> usize {
        match self {
            Queue::Heap(h) => h.len(),
            Queue::Wheel(w) => w.len(),
        }
    }

    fn clear(&mut self) {
        match self {
            Queue::Heap(h) => h.clear(),
            Queue::Wheel(w) => w.clear(),
        }
    }
}

/// Outcome of a [`Simulator::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    /// Number of events processed.
    pub events: u64,
    /// The simulation clock when the run stopped: the time of the
    /// latest processed pulse or timer, or [`Time::ZERO`] if nothing
    /// has run. Pulses absorbed by a closed-form burst step count as
    /// processed, so the clock does not depend on the delivery mode.
    pub end_time: Time,
}

/// Hard bound on the jitter deviate, in standard deviations: the
/// triangular distribution below has support `(−√6·σ, +√6·σ)`. The
/// envelope algebra leans on this being an *absolute* bound, never a
/// tail probability.
const JITTER_BOUND_SIGMAS: f64 = 2.449_489_742_783_178; // √6

/// Deterministic bounded wire-delay jitter: every wire traversal is
/// perturbed by a zero-mean triangular deviate of the given standard
/// deviation (sum of two uniforms — bell-shaped, with the hard
/// `±√6·σ` support bound the burst envelope algebra requires). Models
/// the delay variations the U-SFQ paper lists among its §5.4.1 error
/// sources (pulses arriving "outside the expected time-slot").
///
/// The draw is a *pure function* of `(seed, wire, emission time)` —
/// no generator state — so the coalesced engine can materialize the
/// draw for any pulse of a train lazily, in any order, and obtain
/// exactly the perturbation the pulse-level engine applies to the
/// same wire crossing. Byte-identity between the two engines under
/// jitter rests on this keying.
#[derive(Debug, Clone, Copy)]
struct JitterModel {
    seed: u64,
    /// `ceil(√6 · sigma)`: per-hop envelope half-width in fs.
    bound_fs: u64,
}

impl JitterModel {
    fn new(sigma: Time, seed: u64) -> Self {
        JitterModel {
            seed,
            bound_fs: (sigma.as_fs() as f64 * JITTER_BOUND_SIGMAS).ceil() as u64,
        }
    }

    /// The integer arrival perturbation for a pulse emitted at `t_fs`
    /// crossing `wire` (its flat index in the source circuit) with
    /// nominal propagation `delay_fs`. Negative jitter is clamped to the
    /// wire delay so the pulse never arrives before its emission
    /// instant.
    /// Shared by the pulse path (`fan_out`) and the lazy burst
    /// materialization so both apply bit-identical arithmetic.
    ///
    /// The draw is integer throughout: the [`SplitMix64::mix`]
    /// finalizer over the keyed state (uncorrelated draws across wires and times,
    /// identical for identical keys), whose two 32-bit lanes summed as
    /// `u1 + u2 − (2³² − 1)` form a triangular deviate in
    /// `(−2³², 2³²)` with std `2³²/√6`; scaling by `bound_fs / 2³²`
    /// (floor rounding — a ½ fs mean offset, far below σ) gives std σ
    /// and *hard* support `±bound_fs` — the absolute bound the
    /// envelope algebra leans on. Keeping the arithmetic off the FPU
    /// matters: this is evaluated once per pulse per hop, and an f64
    /// round-trip costs more than the rest of the draw combined on the
    /// virtualized CPUs CI runs on.
    #[inline]
    fn delta_fs(&self, wire: u32, t_fs: u64, delay_fs: u64) -> i64 {
        let x = SplitMix64::mix(
            self.seed
                .wrapping_add(t_fs.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_add((u64::from(wire) + 1).wrapping_mul(0x632B_E59B_D9B4_E019)),
        );
        let t = ((x >> 32) as i64 + (x & 0xFFFF_FFFF) as i64) - 0xFFFF_FFFF;
        let d = ((i128::from(t) * i128::from(self.bound_fs)) >> 32) as i64;
        // The clamp is ≤ 0, so one branchless `max` covers both signs.
        d.max(-(delay_fs.min(i64::MAX as u64) as i64))
    }

    /// The jittered arrival of a pulse emitted at `emit` onto `wire`
    /// with nominal propagation `delay`: emission plus delay plus the
    /// wire's draw, or `None` past the end of the clock. The one
    /// jittered-arrival rule of the pulse path ([`Simulator::fan_out`])
    /// and the burst path ([`exact_arrival`] and per-wire expansion).
    #[inline]
    fn arrival(&self, wire: u32, emit: Time, delay: Time) -> Option<Time> {
        let nominal = emit.checked_add(delay)?;
        let d = self.delta_fs(wire, emit.as_fs(), delay.as_fs());
        if d >= 0 {
            nominal.checked_add(Time::from_fs(d.unsigned_abs()))
        } else {
            // `delta_fs` clamps the negative side at the wire delay, so
            // this never passes the emission instant.
            Some(Time::from_fs(nominal.as_fs() - d.unsigned_abs()))
        }
    }
}

/// Exact arrival time of slab-train pulse `i`: its nominal rational
/// time plus the fold of the per-hop jitter draws along the trail (see
/// [`TrailHop`]). `O(trail length)` per pulse, paid only where an
/// exact time is observable: event keys, `now` and lazy splits. Probes
/// do not materialize on recording; a read of their times folds whole
/// trains at once ([`fold_trail_times`]).
fn jittered_time_at(jitter: &JitterModel, trail: &[TrailHop], burst: &Burst, i: u64) -> Time {
    let acc = trail_offset_fs(jitter, trail, i);
    let t = burst.time_at(i).as_fs() as i128 + acc;
    Time::from_fs(u64::try_from(t).expect("jittered burst time overflow"))
}

/// Appends the exact times of `b`'s pulses to `out`: each pulse's
/// nominal time plus its accumulated signed jitter — the value
/// `trail_offset_fs` computes for its source index — folded in
/// hop-major order, one pass per hop over the whole train. Identical
/// draws and identical overflow panics, but two structural wins over
/// the per-pulse fold: each hop's nominal emission time advances by a
/// division-free [`BurstStepper`] instead of a wide division per
/// pulse, and consecutive pulses' draw evaluations are independent
/// within a pass, so they overlap in the pipeline instead of
/// serializing behind each pulse's hop chain.
///
/// While the hops fold, the appended slots hold each pulse's
/// accumulated jitter in femtoseconds (two's complement); a last pass
/// adds the nominal times. The fold therefore needs no buffer besides
/// `out`. This is the `O(count·hops)` inner loop of probe reads and
/// per-wire exact expansion.
///
/// [`BurstStepper`]: crate::burst::BurstStepper
fn fold_trail_times(jitter: &JitterModel, trail: &[TrailHop], b: &Burst, out: &mut Vec<Time>) {
    let n = usize::try_from(b.count()).expect("burst count fits usize");
    let start = out.len();
    out.resize(start + n, Time::ZERO);
    let slots = &mut out[start..];
    let (off, step) = b.src_map();
    for h in trail {
        let mut s = h.burst.stepper(h.off + off * h.stride, step * h.stride);
        let delay_fs = h.delay.as_fs();
        for slot in slots.iter_mut() {
            let acc = slot.as_fs() as i64;
            let emit = s
                .next_fs()
                .checked_add_signed(acc)
                .expect("jittered burst time overflow");
            *slot = Time::from_fs((acc + jitter.delta_fs(h.wire, emit, delay_fs)) as u64);
        }
    }
    let mut own = b.stepper(0, 1);
    for slot in slots {
        *slot = Time::from_fs(
            own.next_fs()
                .checked_add_signed(slot.as_fs() as i64)
                .expect("jittered burst time overflow"),
        );
    }
}

/// The accumulated signed jitter (femtoseconds) for trail index `i`
/// over `trail`'s hops. Each hop's draw is keyed by the pulse's actual
/// emission time onto that hop's wire.
fn trail_offset_fs(jitter: &JitterModel, trail: &[TrailHop], i: u64) -> i128 {
    let mut acc: i128 = 0;
    for hop in trail {
        let k = hop.off + i * hop.stride;
        let emit = hop.burst.time_at(k).as_fs() as i128 + acc;
        // Clamping keeps every arrival at or after its emission, so the
        // running actual time can never go negative.
        let emit = u64::try_from(emit).expect("jittered burst time overflow");
        acc += i128::from(jitter.delta_fs(hop.wire, emit, hop.delay.as_fs()));
    }
    acc
}

/// The exact (fully materialized) arrival of pulse `k` of emission `b`
/// after crossing the jittered wire keyed `key` with the given `delay`:
/// the exact emission time (nominal + trail fold at `b`'s source index)
/// plus the wire delay plus this wire's own jitter draw. `None` on
/// femtosecond-clock overflow, mirroring the pulse engine's
/// `TimeOverflow` behaviour on the same pulse.
fn exact_arrival(
    jm: &JitterModel,
    parent_trail: &[TrailHop],
    b: &Burst,
    k: u64,
    key: u32,
    delay: Time,
) -> Option<Time> {
    let (off, step) = b.src_map();
    let acc = trail_offset_fs(jm, parent_trail, off + k * step);
    let emit_fs = u64::try_from(i128::from(b.time_at(k).as_fs()) + acc)
        .expect("jittered burst time overflow");
    jm.arrival(key, Time::from_fs(emit_fs), delay)
}

/// How many leading pulses of a queued train sort strictly before the
/// next queued event `next`. Pulse `k` is keyed
/// `(t_k + env_hi, seq0 + k·stride)`: its worst-case latest time, then
/// its sequence number. With `a` the pulses due before `next.time`, `b`
/// those due at or before it and `c` those numbered below `next.seq`,
/// the count is `max(a, min(b, c))`: two closed-form prefix counts and
/// one division, with no search. Exact for every pulse whose worst-case
/// time fits the clock, which is every pulse under `deliver_burst`'s
/// deadline bound.
fn keys_before(burst: &Burst, seq0: u64, stride: u64, next: Event) -> u64 {
    let a = next
        .time
        .as_fs()
        .checked_sub(1)
        .map_or(0, |t| burst.count_latest_at_or_before(Time::from_fs(t)));
    let b = burst.count_latest_at_or_before(next.time);
    let c = next.seq.saturating_sub(seq0).div_ceil(stride);
    a.max(b.min(c))
}

/// A train recorded at a probe and not yet expanded: the train as
/// emitted onto the probed net, plus, for a jittered train, the jitter
/// model and the trail its pulses crossed to reach the emitter.
#[derive(Debug)]
struct PendingTrain {
    burst: Burst,
    jitter: Option<(JitterModel, Box<[TrailHop]>)>,
    /// The probe's `times.len()` when the train was recorded: its
    /// pulses come after `times[..at]` and before `times[at..]`.
    at: usize,
}

impl PendingTrain {
    /// Appends the train's exact times to `out`: the nominal times,
    /// plus the trail fold for a jittered train.
    fn expand_into(&self, out: &mut Vec<Time>) {
        match &self.jitter {
            None => out.extend(self.burst.iter_times()),
            Some((jm, trail)) => fold_trail_times(jm, trail, &self.burst, out),
        }
    }
}

/// Appends the loose pulses `loose`, which start at loose-pulse index
/// `skip`, to `out`, with each of `trains` expanded at its place: a
/// train stored at `at` goes before `loose[at - skip]`.
fn merge_recording(out: &mut Vec<Time>, loose: &[Time], skip: usize, trains: &[PendingTrain]) {
    let mut from = 0;
    for p in trains {
        let at = p.at - skip;
        out.extend_from_slice(&loose[from..at]);
        from = at;
        p.expand_into(out);
    }
    out.extend_from_slice(&loose[from..]);
}

/// One probe's recording. Pulses land in `times` as they are emitted;
/// trains are stored symbolically in `pending`, each with its place
/// among the pulses, so recording and counting either is `O(1)` and
/// only a read of the times pays for the expansion.
///
/// Invariant: `expanded` is only ever filled while `pending` is
/// non-empty. A read without pending trains returns `times` itself;
/// any other read merges both into `expanded` once. The next recording
/// takes a filled `expanded` over as `times`, emptying `pending`
/// (`take_expansion`), so the pulse path pays one check before its
/// push (`push`).
#[derive(Debug, Default)]
struct ProbeRec {
    /// Loose pulses, in recording order.
    times: Vec<Time>,
    /// Stored trains, in recording order.
    pending: Vec<PendingTrain>,
    /// Pulses in `pending`.
    pending_pulses: usize,
    /// `times` with every pending train merged in at its place, filled
    /// by the first read after a train was recorded and taken over by
    /// the next recording.
    expanded: OnceLock<Vec<Time>>,
}

impl ProbeRec {
    fn count(&self) -> usize {
        self.times.len() + self.pending_pulses
    }

    /// Every recorded time, merging the pending trains in on the first
    /// read after they were recorded.
    fn times(&self) -> &[Time] {
        if self.pending.is_empty() {
            return &self.times;
        }
        self.expanded.get_or_init(|| {
            let mut out = Vec::with_capacity(self.count());
            merge_recording(&mut out, &self.times, 0, &self.pending);
            out
        })
    }

    /// Records a pulse. Stored trains stay stored.
    #[inline]
    fn push(&mut self, t: Time) {
        if self.expanded.get().is_some() {
            self.take_expansion();
        }
        self.times.push(t);
    }

    /// Takes a read's merged recording over as `times`, emptying
    /// `pending`.
    #[cold]
    #[inline(never)]
    fn take_expansion(&mut self) {
        if let Some(all) = self.expanded.take() {
            self.times = all;
            self.pending.clear();
            self.pending_pulses = 0;
        }
    }

    /// Every recorded time, with the pending trains merged into `times`
    /// itself: only the pulses from the first pending train on move.
    fn flushed(&mut self) -> &[Time] {
        self.take_expansion();
        if let Some(first) = self.pending.first() {
            let skip = first.at;
            let loose = self.times.split_off(skip);
            self.times.reserve(loose.len() + self.pending_pulses);
            merge_recording(&mut self.times, &loose, skip, &self.pending);
            self.pending.clear();
            self.pending_pulses = 0;
        }
        &self.times
    }

    /// Records a train emitted onto the probed net: `parent_trail` is
    /// the jitter trail of the train its emitter consumed, empty for
    /// an exact train.
    fn record_train(&mut self, b: Burst, parent_trail: &[TrailHop], jitter: Option<JitterModel>) {
        if b.is_empty() {
            return;
        }
        if self.expanded.get().is_some() {
            self.take_expansion();
        }
        let jitter = if parent_trail.is_empty() {
            None
        } else {
            let jm = jitter.expect("trailed bursts only exist under jitter");
            Some((jm, parent_trail.into()))
        };
        self.pending_pulses += usize::try_from(b.count()).expect("burst count fits usize");
        self.pending.push(PendingTrain {
            burst: b,
            jitter,
            at: self.times.len(),
        });
    }

    /// Empties the recording. A read's expansion is the longer
    /// buffer, so it stays on as the cleared `times`.
    fn clear(&mut self) {
        if let Some(all) = self.expanded.take() {
            self.times = all;
        }
        self.times.clear();
        self.pending.clear();
        self.pending_pulses = 0;
    }
}

/// Executes a [`Circuit`].
///
/// The simulator owns every cell's state, one [`CellState`] per
/// component in one flat vector, and lends each cell its entry as it
/// dispatches; the circuit itself holds none. The simulator is
/// restartable: [`Simulator::reset`] returns every component to
/// power-on state and clears probes, so one circuit can run many epochs
/// or randomized trials.
///
/// Determinism: events at equal times are processed in scheduling order
/// (a monotonically increasing sequence number breaks ties), so repeated
/// runs of the same stimulus are identical.
pub struct Simulator {
    circuit: Circuit,
    nets: NetTable,
    /// The circuit's cell models, shared with every simulator of its
    /// topology and held inline like the net table's slices.
    models: Arc<[Arc<Model>]>,
    /// Each cell's state, in component order.
    states: Vec<CellState>,
    queue: Queue,
    seq: u64,
    now: Time,
    probe_data: Vec<ProbeRec>,
    activity: ActivityReport,
    event_limit: u64,
    events_processed: u64,
    ctx: Ctx,
    jitter: Option<JitterModel>,
    /// The source circuit's flat index of each wire, for a shard's
    /// simulator (see [`Simulator::key_jitter_by`]); `None` keys jitter
    /// draws by this circuit's own flat index.
    jitter_keys: Option<Arc<[u32]>>,
    sanitizer: Option<SanitizerState>,
    /// Slab of in-flight coalesced trains, addressed by
    /// [`EventKind::BurstDeliver::slot`]; freed slots are recycled.
    bursts: Vec<BurstRec>,
    free_bursts: Vec<u32>,
    /// Reusable buffer for [`fold_trail_times`] (the exact emission
    /// times of a jittered train expanded per wire); kept on the
    /// simulator so steady-state expansion allocates nothing.
    trail_times: Vec<Time>,
    /// Pending *pulses* (a burst weighs its pulse count) and the
    /// high-water mark feeding [`ActivityReport::peak_pending`] — so
    /// pulse-mode runs report exactly what the old queue-length
    /// tracking did.
    pending_weight: u64,
    peak_weight: u64,
    /// Whether the coalesced fast path is enabled
    /// ([`SimConfig::burst`]).
    burst_enabled: bool,
    /// Per-component feedback lookahead: a lower bound on the wire
    /// delay around any comp-to-comp cycle through the component
    /// ([`Time::MAX`] for components on no cycle). While a train's
    /// pulses all lie within `head + lookahead`, nothing the component
    /// emits can travel around a cycle and arrive back between them,
    /// so the closed-form burst step stays exact. [`Time::ZERO`] (a
    /// zero-delay cycle) disables coalescing for that component.
    /// Fetched by [`Simulator::cycle_la`] on the first burst delivery
    /// from the circuit's compiled form, which builds it once per
    /// topology, so pulse-only runs never pay for the analysis.
    cycle_la: Option<Arc<[Time]>>,
}

/// SCCs above this size fall back from the exact all-pairs shortest
/// cycle (`O(size³)`) to the min-intra-SCC-edge lower bound.
const EXACT_CYCLE_SCC_LIMIT: usize = 64;

/// Computes each component's feedback lookahead: the minimum total
/// *wire* delay around any directed comp-to-comp cycle through it
/// (cell delays only add, so wire delay alone is a sound lower bound),
/// or [`Time::MAX`] for components on no cycle.
///
/// It walks the circuit's fan-out table and its condensation, which
/// lint's graph view shares. Inside an SCC of at most
/// [`EXACT_CYCLE_SCC_LIMIT`] nodes the exact shortest cycle through
/// each node is computed by min-plus Floyd–Warshall; larger SCCs
/// conservatively use the minimum intra-SCC edge delay (every cycle
/// contains at least one edge). Conservatism only costs the fast path,
/// never correctness.
pub(crate) fn cycle_lookahead(circuit: &Circuit) -> Vec<Time> {
    let nets = &circuit.compiled().nets;
    let edges = |v: usize| nets.comp_edges(v).map(|(w, d)| (w, d.as_fs()));
    let sccs = circuit.sccs();

    // Bound each component's shortest cycle. Single-node SCCs cycle
    // only via self-loop edges.
    let mut la = vec![Time::MAX; circuit.num_components()];
    for (s, group) in sccs.iter().enumerate() {
        if group.len() == 1 {
            let v = group[0];
            let self_loop = edges(v).filter(|&(w, _)| w == v).map(|(_, d)| d).min();
            if let Some(d) = self_loop {
                la[v] = Time::from_fs(d);
            }
            continue;
        }
        if group.len() <= EXACT_CYCLE_SCC_LIMIT {
            // Exact per-node shortest cycle by min-plus Floyd–Warshall
            // over the SCC's internal edges (self-loops included).
            let k_n = group.len();
            let mut pos = std::collections::HashMap::with_capacity(k_n);
            for (i, &v) in group.iter().enumerate() {
                pos.insert(v, i);
            }
            const INF: u64 = u64::MAX;
            let mut dist = vec![INF; k_n * k_n];
            for (i, &v) in group.iter().enumerate() {
                for (w, d) in edges(v) {
                    if let Some(&j) = pos.get(&w) {
                        let cell = &mut dist[i * k_n + j];
                        *cell = (*cell).min(d);
                    }
                }
            }
            for mid in 0..k_n {
                for i in 0..k_n {
                    let dim = dist[i * k_n + mid];
                    if dim == INF {
                        continue;
                    }
                    for j in 0..k_n {
                        let dmj = dist[mid * k_n + j];
                        if dmj == INF {
                            continue;
                        }
                        let cand = dim.saturating_add(dmj);
                        let cell = &mut dist[i * k_n + j];
                        if cand < *cell {
                            *cell = cand;
                        }
                    }
                }
            }
            for (i, &v) in group.iter().enumerate() {
                let d = dist[i * k_n + i];
                la[v] = if d == INF {
                    Time::MAX
                } else {
                    Time::from_fs(d)
                };
            }
        } else {
            // Lower bound: the lightest edge inside the SCC.
            let min_edge = group
                .iter()
                .flat_map(|&v| edges(v))
                .filter(|&(w, _)| sccs.scc_of[w] == s)
                .map(|(_, d)| d)
                .min()
                .unwrap_or(u64::MAX);
            for &v in group {
                la[v] = Time::from_fs(min_edge);
            }
        }
    }
    la
}

impl Simulator {
    /// Wraps a finished circuit in a simulator configured by the
    /// environment ([`SimConfig::from_env`]).
    pub fn new(circuit: Circuit) -> Self {
        Simulator::with_config(circuit, SimConfig::from_env())
    }

    /// [`Simulator::new`] with an explicit event scheduler.
    pub fn with_sched(circuit: Circuit, sched: Sched) -> Self {
        Simulator::with_config(
            circuit,
            &SimConfig {
                sched,
                ..SimConfig::from_env().clone()
            },
        )
    }

    /// Wraps a finished circuit in a simulator configured by `config`:
    /// scheduler, burst delivery, wire jitter and sanitizer. A plain
    /// simulator is one shard, so [`SimConfig::shards`] is ignored (see
    /// [`ShardedSimulator::with_config`](crate::ShardedSimulator::with_config)).
    ///
    /// The queue is the one [`SimConfig::sched`] names, and
    /// [`Simulator::sched`] reports it. Scheduler choice never affects
    /// results: both schedulers drain events in identical
    /// `(time, insertion)` order.
    ///
    /// The heap queue starts with room for 16 events in its sorted run
    /// and allocates its heap only once more events are pending than
    /// the run holds; each probe recording starts with room for 16
    /// times. [`Simulator::reset`]
    /// keeps those allocations for the next trial. The calendar wheel's
    /// bucket width is derived from the circuit's maximum cell/wire
    /// delay ([`Circuit::max_delay`]).
    ///
    /// The cell models, fan-out table, delay bound, cell facts and
    /// power-on states come from the circuit's compiled form, built once
    /// per topology and shared by every clone, so a simulator per trial
    /// only allocates its own mutable state: all its cells' state in one
    /// copy of the power-on states, plus its queue, probes and counters.
    pub fn with_config(circuit: Circuit, config: &SimConfig) -> Self {
        let compiled = circuit.compiled();
        let max_delay = compiled.max_delay;
        let nets = compiled.nets.clone();
        let models = Arc::clone(&compiled.models);
        let states = compiled.power_on.to_vec();
        let probe_data = (0..circuit.num_probes())
            .map(|_| ProbeRec {
                times: Vec::with_capacity(16),
                ..ProbeRec::default()
            })
            .collect();
        let activity = ActivityReport::with_components(circuit.num_components());
        let queue = Queue::new(config.sched, max_delay);
        let sanitizer = config
            .sanitizer
            .clone()
            .map(|cfg| SanitizerState::new(&circuit, cfg));
        Simulator {
            circuit,
            nets,
            models,
            states,
            queue,
            seq: 0,
            now: Time::ZERO,
            probe_data,
            activity,
            event_limit: DEFAULT_EVENT_LIMIT,
            events_processed: 0,
            ctx: Ctx::default(),
            jitter: config.jitter.map(|j| JitterModel::new(j.sigma, j.seed)),
            jitter_keys: None,
            sanitizer,
            bursts: Vec::new(),
            free_bursts: Vec::new(),
            trail_times: Vec::new(),
            pending_weight: 0,
            peak_weight: 0,
            burst_enabled: config.burst,
            cycle_la: None,
        }
    }

    /// The scheduler this simulator runs on.
    pub fn sched(&self) -> Sched {
        self.queue.sched()
    }

    /// Calendar-wheel operational counters, or `None` under
    /// [`Sched::Heap`].
    pub fn wheel_stats(&self) -> Option<WheelStats> {
        self.queue.wheel_stats()
    }

    /// Enables deterministic bounded wire-delay jitter: every wire
    /// traversal is perturbed by a zero-mean triangular deviate with
    /// standard deviation `sigma` and hard support `±√6·sigma`, clamped
    /// so pulses never travel back in time. Draws are pure functions of
    /// `(seed, wire, emission time)`, so the same seed gives the same
    /// run *and* the coalesced burst engine reproduces the pulse
    /// engine's perturbations exactly when it lazily materializes them.
    ///
    /// This is the fault model behind the paper's "delay variations
    /// cause the RL pulses to arrive outside the expected time-slot"
    /// (§5.4.1 error iii) at circuit level.
    pub fn enable_wire_jitter(&mut self, sigma: Time, seed: u64) {
        self.jitter = Some(JitterModel::new(sigma, seed));
    }

    /// Disables wire-delay jitter.
    pub fn disable_wire_jitter(&mut self) {
        self.jitter = None;
    }

    /// Keys the jitter draws on flat wire `flat` by `keys[flat]`: a
    /// shard's sub-circuit numbers its wires afresh, and keying by the
    /// source circuit's index makes it draw what the sequential run
    /// draws.
    pub(crate) fn key_jitter_by(&mut self, keys: Arc<[u32]>) {
        debug_assert_eq!(keys.len(), self.nets.num_wires());
        self.jitter_keys = Some(keys);
    }

    /// Enables the runtime pulse [`sanitizer`](crate::sanitizer): every
    /// delivered pulse is checked against the receiving cell's declared
    /// hazards and counting capacity, recording structured
    /// [`Violation`](crate::sanitizer::Violation)s. The sanitizer only
    /// observes — probe recordings are bit-identical with it on or off —
    /// and costs nothing when disabled (one `Option` check per event).
    /// A sanitized run is a pulse run: trains scheduled from here on go
    /// in as loose pulses, and a train already queued is delivered one
    /// pulse at a time.
    pub fn enable_sanitizer(&mut self, config: SanitizerConfig) {
        self.sanitizer = Some(SanitizerState::new(&self.circuit, config));
    }

    /// The sanitizer's findings so far, or `None` when it is disabled.
    pub fn sanitizer_report(&self) -> Option<SanitizerReport<'_>> {
        self.sanitizer.as_ref().map(SanitizerState::report)
    }

    /// Overrides the event safety limit (default
    /// [`DEFAULT_EVENT_LIMIT`]).
    pub fn set_event_limit(&mut self, limit: u64) {
        self.event_limit = limit;
    }

    /// Time of the earliest pending event, or `None` when the queue is
    /// empty — the shard coordinator's window input. `&mut` because the
    /// calendar wheel may rotate to find its head.
    pub(crate) fn next_event_time(&mut self) -> Option<Time> {
        self.queue.peek().map(|ev| ev.time)
    }

    /// Events processed over the simulator's lifetime (cleared by
    /// [`Simulator::reset`]).
    pub(crate) fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Schedules a pulse on an external input at absolute time `t`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownId`] if `input` belongs to another
    /// circuit.
    pub fn schedule_input(&mut self, input: InputId, t: Time) -> Result<(), SimError> {
        if input.0 >= self.circuit.num_inputs() {
            return Err(SimError::UnknownId(format!("input {}", input.0)));
        }
        // Fan the stimulus out exactly like a component emission.
        self.fan_out(NetSource::Input(input.0), t, |circuit| {
            SimError::TimeOverflow {
                component: circuit.topo.inputs[input.0].name.clone(),
                time: t,
            }
        })
    }

    /// Schedules one pulse per time in `times` on `input`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownId`] if `input` is foreign.
    pub fn schedule_pulses<I>(&mut self, input: InputId, times: I) -> Result<(), SimError>
    where
        I: IntoIterator<Item = Time>,
    {
        for t in times {
            self.schedule_input(input, t)?;
        }
        Ok(())
    }

    /// Schedules a whole coalesced train on an external input.
    ///
    /// With the burst fast path enabled this costs `O(fan-out)` queue
    /// operations instead of `O(count · fan-out)`; the result is
    /// byte-identical either way, because each fanned-out train keeps
    /// exactly the `(time, seq)` keys the pulse-by-pulse loop would
    /// have assigned. With bursts disabled, or a sanitizer attached,
    /// the train is expanded to pulse-level events up front: a
    /// sanitized run is a pulse run, so the sanitizer judges every
    /// pulse on its own. Wire jitter no longer forces
    /// expansion: jittered trains travel as bounded envelopes
    /// ([`Burst::widened`]) and materialize their exact per-pulse
    /// perturbations lazily through the provenance trail (see
    /// `TrailHop`), staying byte-identical to the pulse engine.
    /// Probes on the way store the train symbolically too: counting
    /// its pulses costs nothing, and only a read of the probe's times
    /// expands it.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownId`] if `input` is foreign, and
    /// [`SimError::TimeOverflow`] if any pulse of the train overflows
    /// the femtosecond clock.
    pub fn schedule_burst(&mut self, input: InputId, burst: Burst) -> Result<(), SimError> {
        if input.0 >= self.circuit.num_inputs() {
            return Err(SimError::UnknownId(format!("input {}", input.0)));
        }
        if burst.is_empty() {
            return Ok(());
        }
        let overflow = |circuit: &Circuit| SimError::TimeOverflow {
            component: circuit.topo.inputs[input.0].name.clone(),
            time: burst.checked_time_at(0).unwrap_or(Time::MAX),
        };
        if !self.burst_enabled || burst.count() == 1 || self.sanitizer.is_some() {
            for k in 0..burst.count() {
                let t = burst
                    .checked_time_at(k)
                    .ok_or_else(|| overflow(&self.circuit))?;
                self.schedule_input(input, t)?;
            }
            return Ok(());
        }
        // Validate the whole span up front, so burst scheduling fails
        // exactly where pulse-level scheduling would.
        burst
            .checked_time_at(burst.count() - 1)
            .ok_or_else(|| overflow(&self.circuit))?;
        self.fan_out_burst(NetSource::Input(input.0), burst)
    }

    /// Runs until the event queue is empty.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EventLimitExceeded`] if the safety valve trips.
    pub fn run(&mut self) -> Result<RunSummary, SimError> {
        self.run_until(Time::MAX)
    }

    /// Runs until the queue is empty or the next event is later than
    /// `deadline` (events after the deadline stay queued).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EventLimitExceeded`] if the safety valve trips.
    pub fn run_until(&mut self, deadline: Time) -> Result<RunSummary, SimError> {
        let start = self.events_processed;
        // One context serves the whole run: taken here, lent to every
        // dispatch, and handed back on every exit, errors included.
        let mut ctx = std::mem::take(&mut self.ctx);
        let drained = self.drain(deadline, &mut ctx);
        self.ctx = ctx;
        drained?;
        if self.events_processed >= self.event_limit {
            // Out of budget: if a due event is still pending, that is
            // exactly the event the pre-check used to trip on.
            if let Some(ev) = self.queue.peek() {
                if ev.time <= deadline {
                    return Err(self.event_limit_error(ev));
                }
            }
        }
        self.activity.peak_pending = self.activity.peak_pending.max(self.peak_weight);
        Ok(RunSummary {
            events: self.events_processed - start,
            end_time: self.now,
        })
    }

    /// The event loop of [`Simulator::run_until`], with the run's
    /// context: drains the due events. It is the only caller of
    /// [`Simulator::dispatch`], so the inliner folds the pulse path
    /// into the loop; a train's head comes back here to take it.
    fn drain(&mut self, deadline: Time, ctx: &mut Ctx) -> Result<(), SimError> {
        // The limit check gates the *loop*, not each event: a due
        // event is only ever consumed while `events_processed` is
        // strictly below the limit, so at most `event_limit`
        // dispatches happen and the clock never advances past the
        // last permitted one — identical to checking before each pop.
        while self.events_processed < self.event_limit {
            let Some(mut ev) = self.queue.pop_due(deadline) else {
                break;
            };
            let mut rest = None;
            if let EventKind::BurstDeliver { .. } = ev.kind {
                let head = match self.split_head(ev) {
                    Some(head) => Some(head),
                    None => self.deliver_burst(ev, deadline, ctx)?,
                };
                let Some(head) = head else {
                    continue;
                };
                (ev, rest) = head;
            }
            self.pending_weight -= 1;
            // A closed-form window may have advanced the clock past
            // the pulses it emitted downstream; those arrive later in
            // the loop and must not move it back.
            self.now = self.now.max(ev.time);
            self.events_processed += 1;
            self.dispatch(ev, ctx)?;
            if let Some(rest) = rest {
                // The rest's pulses never left `pending_weight`.
                self.queue.push(rest);
                self.activity.coalesce.lazy_splits += 1;
            }
        }
        Ok(())
    }

    /// The head of an interleaved train. When the second pulse of the
    /// popped exact train `ev` does not sort before the next queued
    /// event, only its head is due: the one-pulse prefix that
    /// [`Simulator::deliver_burst`] would cut, found without its slab
    /// trail take, lookahead fetch and prefix bounds. Advances the
    /// train's slab record past the head and returns the head with the
    /// rest's queue event, keyed by the second pulse's `(time, seq)`.
    /// `None` leaves the train to `deliver_burst`: jittered and
    /// enveloped trains, last pulses, and prefixes of two or more.
    fn split_head(&mut self, ev: Event) -> Option<Head> {
        let EventKind::BurstDeliver { comp, port, slot } = ev.kind else {
            return None;
        };
        if self.jitter.is_some() {
            return None;
        }
        let next = self.queue.peek()?;
        let rec = &mut self.bursts[slot as usize];
        let b = rec.burst;
        if b.count() < 2 || !b.is_exact() {
            return None;
        }
        let rest = Event {
            time: b.time_at(1),
            seq: ev.seq + rec.stride,
            kind: ev.kind,
        };
        if (rest.time, rest.seq) < (next.time, next.seq) {
            return None;
        }
        rec.burst = b.suffix(1).with_src_identity();
        let head = Event {
            kind: EventKind::Deliver { comp, port },
            ..ev
        };
        Some((head, Some(rest)))
    }

    /// The feedback lookahead of component `ci` ([`Time::MAX`] when it
    /// sits on no cycle), fetching the shared table on first use.
    fn cycle_la(&mut self, ci: usize) -> Time {
        self.cycle_la
            .get_or_insert_with(|| self.circuit.cycle_lookahead())[ci]
    }

    #[cold]
    #[inline(never)]
    fn event_limit_error(&self, ev: Event) -> SimError {
        let comp = match ev.kind {
            EventKind::Deliver { comp, .. }
            | EventKind::Timer { comp, .. }
            | EventKind::BurstDeliver { comp, .. } => comp,
        };
        SimError::EventLimitExceeded {
            limit: self.event_limit,
            component: self.models[comp as usize].name().to_string(),
            time: ev.time,
        }
    }

    /// Processes a popped [`EventKind::BurstDeliver`]: dispatches the
    /// longest leading prefix that is provably safe to absorb in one
    /// closed-form step, and lazily re-queues the remainder under its
    /// next pulse's original `(time, seq)` key.
    ///
    /// The prefix is bounded by (a) the run deadline, (b) the event
    /// limit budget, (c) the next pending event's key, and (d) the
    /// receiver's feedback lookahead — no other event may interleave
    /// the absorbed pulses, so the closed-form step is exactly
    /// equivalent to `m` individual deliveries. Jittered trains use
    /// their worst-case envelope bounds for (a) and (c), so an
    /// absorbed prefix is safe for *every* materialization of the
    /// envelope. Bounds (a), (c) and (d) are closed forms over the
    /// train's rational times ([`Burst::count_latest_at_or_before`],
    /// `keys_before`), a few 64-bit divisions per train whose own
    /// times fit 64 bits, so no bound searches the train. Only the
    /// head pulse is delivered, and returned to the
    /// event loop to take the exact pulse path, when
    ///
    /// - the safe prefix is a single pulse: a closed-form step buys
    ///   nothing for one pulse;
    /// - a sanitizer is attached: it judges pulses one at a time, and
    ///   only a train queued before [`Simulator::enable_sanitizer`]
    ///   gets here;
    /// - the cell declines ([`BurstStep::PulseByPulse`]);
    /// - the envelope alone exceeds the bound; or
    /// - a jittered train meets a feedback cycle, whose lookahead is
    ///   only sound for nominal delays.
    ///
    /// When the consumed train's single emission lands on a
    /// single-wire net and its head would be the very next event
    /// anyway, the emitted train is *chased*: delivered in the next
    /// loop iteration without a queue round-trip, so a feedback-free
    /// pipeline evaluates a whole epoch symbolically in one call.
    ///
    /// Trains that interleave with others half a slot apart, as the
    /// accelerators' clock and data trains do, have their heads cut
    /// by the queue bound (c) on every pulse; the event loop splits
    /// those itself ([`Simulator::split_head`]) and never calls this.
    /// What is left is kept out of line, so the loop pays one
    /// discriminant test per pulse for it.
    #[cold]
    #[inline(never)]
    fn deliver_burst(
        &mut self,
        ev: Event,
        deadline: Time,
        ctx: &mut Ctx,
    ) -> Result<Option<Head>, SimError> {
        let mut ev = ev;
        loop {
            let EventKind::BurstDeliver { comp, port, slot } = ev.kind else {
                unreachable!("deliver_burst takes coalesced trains")
            };
            let rec = &mut self.bursts[slot as usize];
            let burst = rec.burst;
            let stride = rec.stride;
            let trail = std::mem::take(&mut rec.trail);
            let ci = comp as usize;
            // Cap the prefix at the feedback lookahead: pulses later
            // than `ev.time + la` could race something this very step
            // emits around a cycle. The bound is inclusive — feedback
            // emissions draw sequence numbers *after* the train's
            // pre-allocated keys, so an arrival at exactly that
            // instant still sorts behind every absorbed pulse. The
            // nominal lookahead is unsound once jitter can shrink a
            // cycle's wire delays, so jittered runs bail to the head
            // pulse on cyclic receivers.
            let la = self.cycle_la(ci);
            let cyclic_jitter_bail = la != Time::MAX && self.jitter.is_some();
            let la = if cyclic_jitter_bail { Time::ZERO } else { la };
            let dl = deadline.min(ev.time.checked_add(la).unwrap_or(Time::MAX));
            let mut m = burst.count_latest_at_or_before(dl);
            // The caller checked `events_processed < event_limit`, so
            // the budget is at least one.
            m = m.min(self.event_limit - self.events_processed);
            if let Some(next) = self.queue.peek() {
                m = m.min(keys_before(&burst, ev.seq, stride, next));
            }
            // For exact trains the head pulse carries the popped
            // event's own key — the queue minimum — so it is always
            // consumable. A jitter envelope can push the head's
            // *worst-case* key past the bound even though its exact
            // arrival was due; that falls back to the exact head path.
            debug_assert!(
                m >= 1 || !burst.is_exact(),
                "exact burst head must be consumable"
            );
            let atomic = m > 1 && !cyclic_jitter_bail && self.sanitizer.is_none();
            let mut consumed = 1;
            let mut handled_atomically = false;
            let mut deferred = None;
            if atomic {
                let prefix = burst.prefix(m);
                ctx.clear();
                let step =
                    self.models[ci].step_burst(&mut self.states[ci], port as usize, &prefix, ctx);
                if step == BurstStep::Consumed {
                    debug_assert!(
                        ctx.emissions.is_empty() && ctx.timers.is_empty() && ctx.stats.is_empty(),
                        "step_burst must only use emit_burst/record_many"
                    );
                    // The exact arrival of the last absorbed pulse:
                    // nominal for exact trains, the trail fold for
                    // jittered ones.
                    let exact_last = if trail.is_empty() {
                        prefix.last()
                    } else {
                        let jm = self.jitter.expect("trailed bursts only exist under jitter");
                        jittered_time_at(&jm, &trail, &burst, m - 1)
                    };
                    // The absorbed pulses leave the queue's weight; the
                    // rest's stay.
                    self.pending_weight -= m;
                    self.now = self.now.max(exact_last);
                    self.events_processed += m;
                    self.activity.handled[ci] += m;
                    deferred = self.emit_bursts(ci, &ctx.burst_emissions, &trail)?;
                    for &(stat, n) in &ctx.stat_counts {
                        self.activity.record_anomaly_n(stat, n);
                    }
                    self.activity.coalesce.hits += 1;
                    self.activity.coalesce.pulses += m;
                    consumed = m;
                    handled_atomically = true;
                } else {
                    self.activity.coalesce.bail_cell += 1;
                }
            } else if cyclic_jitter_bail {
                self.activity.coalesce.bail_feedback += 1;
            } else if m == 0 {
                self.activity.coalesce.bail_jitter += 1;
            } else if m > 1 {
                // Only an attached sanitizer stops a step here.
                self.activity.coalesce.bail_sanitizer += 1;
            }
            let rest = if consumed < burst.count() {
                let rest = burst.suffix(consumed).with_src_identity();
                // Shift the trail's index maps into the suffix's index
                // space so hop emission indices stay aligned.
                let mut trail = trail;
                for hop in &mut trail {
                    hop.off += consumed * hop.stride;
                }
                let time = if trail.is_empty() {
                    rest.first()
                } else {
                    let jm = self.jitter.expect("trailed bursts only exist under jitter");
                    jittered_time_at(&jm, &trail, &rest, 0)
                };
                let rec = &mut self.bursts[slot as usize];
                rec.burst = rest;
                rec.trail = trail;
                Some(Event {
                    time,
                    seq: ev.seq + consumed * stride,
                    kind: EventKind::BurstDeliver { comp, port, slot },
                })
            } else {
                self.free_bursts.push(slot);
                None
            };
            if !handled_atomically {
                // Exact fallback: the head pulse alone, through the
                // same path a pulse-level event takes. `ev.time` is the
                // head's exact (already materialized) arrival.
                let head = Event {
                    kind: EventKind::Deliver { comp, port },
                    ..ev
                };
                return Ok(Some((head, rest)));
            }
            if let Some(rest) = rest {
                self.queue.push(rest);
                self.activity.coalesce.lazy_splits += 1;
            }
            // Chase: when the whole train was absorbed and its single
            // emission would be the very next event anyway, deliver it
            // here instead of a queue round-trip.
            let Some(dev) = deferred else {
                return Ok(None);
            };
            let chase = consumed == burst.count()
                && dev.time <= deadline
                && self
                    .queue
                    .peek()
                    .map_or(true, |next| (dev.time, dev.seq) < (next.time, next.seq));
            if !chase || self.events_processed >= self.event_limit {
                // Weight was already accounted when the event was
                // deferred, so this bypasses `push_weighted`. Out of
                // budget, the run loop finds the event due and reports
                // it.
                self.queue.push(dev);
                return Ok(None);
            }
            self.activity.coalesce.chases += 1;
            ev = dev;
        }
    }

    /// Fans a set of trains emitted by one closed-form step out to
    /// their nets, with a *padded round-robin* sequence allocation:
    /// pulse `k` of emission `e` (net width `w_e`, offset
    /// `o_e = Σ w_{<e}`, `W = Σ w_e`) gets seqs
    /// `base + k·W + o_e .. base + k·W + o_e + w_e`. That reproduces the
    /// pulse-index-major order of the pulse-level engine (which fans
    /// out all of pulse `k`'s emissions before pulse `k+1`'s), so
    /// equal-time ties between pulses of *different* emitted trains
    /// still resolve identically downstream.
    ///
    /// When the step produced exactly one train on a single-wire net,
    /// the queue event is *deferred* — returned to
    /// [`Simulator::deliver_burst`] with its weight already accounted,
    /// so the chase loop can consume it without a queue round-trip
    /// when it would have been the next event anyway.
    fn emit_bursts(
        &mut self,
        comp: usize,
        emissions: &[(usize, Burst)],
        parent_trail: &[TrailHop],
    ) -> Result<Option<Event>, SimError> {
        if emissions.is_empty() {
            return Ok(None);
        }
        let mut total_width = 0u64;
        let mut max_count = 0u64;
        for &(port, ref b) in emissions {
            let net = self.nets.net(NetSource::Output(comp, port));
            total_width += (net.wires_end - net.wires_start) as u64;
            max_count = max_count.max(b.count());
        }
        let defer_single = emissions.len() == 1 && total_width == 1;
        let base = self.seq;
        self.seq += max_count * total_width;
        let mut offset = 0u64;
        let mut deferred = None;
        for &(port, ref b) in emissions {
            self.activity.emitted[comp] += b.count();
            let net = self.nets.net(NetSource::Output(comp, port));
            let width = (net.wires_end - net.wires_start) as u64;
            deferred = self.push_burst_net(
                NetSource::Output(comp, port),
                *b,
                base + offset,
                total_width,
                parent_trail,
                defer_single,
            )?;
            offset += width;
        }
        Ok(deferred)
    }

    /// Fans one train out over a net: probes store the train and its
    /// trail unexpanded (see `ProbeRec`), and each wire gets the
    /// delayed train as a single queue event (or a plain pulse event
    /// for single-pulse trains).
    /// Wire `j`'s head pulse takes seq `seq0 + j` and pulse `k` takes
    /// `seq0 + j + k · stride` — the exact keys `count` pulse-level
    /// `fan_out` calls would have assigned.
    ///
    /// Under wire jitter each hop widens the train's envelope by the
    /// jitter bound and appends itself to the provenance trail; the
    /// queue key is the head pulse's exact (materialized) arrival
    /// while the body stays symbolic. A wire whose widened envelope
    /// could reorder pulses (`env_span > min_gap`) — or a trail at
    /// its depth cap — expands to exact pulse events instead, per
    /// wire, not per run.
    fn push_burst_net(
        &mut self,
        source: NetSource,
        b: Burst,
        seq0: u64,
        stride: u64,
        parent_trail: &[TrailHop],
        defer_single: bool,
    ) -> Result<Option<Event>, SimError> {
        let jitter = self.jitter;
        let net = self.nets.net(source);
        for &probe in &self.nets.probes[net.probes_start as usize..net.probes_end as usize] {
            self.probe_data[probe as usize].record_train(b, parent_trail, jitter);
        }
        let overflow = |circuit: &Circuit| SimError::TimeOverflow {
            component: match source {
                NetSource::Input(i) => circuit.topo.inputs[i].name.clone(),
                NetSource::Output(c, _) => circuit.topo.models[c].name().to_string(),
            },
            time: b.first(),
        };
        let mut deferred = None;
        for j in 0..(net.wires_end - net.wires_start) {
            let flat = net.wires_start + j;
            let wire = self.nets.wires[flat as usize];
            let bd = b
                .checked_delayed(wire.delay)
                .ok_or_else(|| overflow(&self.circuit))?;
            let Some(jm) = jitter else {
                // Exact path: unchanged from the jitter-free engine.
                let kind = if bd.count() == 1 {
                    EventKind::Deliver {
                        comp: wire.dest,
                        port: wire.port,
                    }
                } else {
                    let slot = self.alloc_burst(bd.with_src_identity(), stride, Vec::new());
                    EventKind::BurstDeliver {
                        comp: wire.dest,
                        port: wire.port,
                        slot,
                    }
                };
                let ev = Event {
                    time: bd.first(),
                    seq: seq0 + u64::from(j),
                    kind,
                };
                if defer_single && matches!(ev.kind, EventKind::BurstDeliver { .. }) {
                    self.defer_weight(bd.count());
                    deferred = Some(ev);
                } else {
                    self.push_weighted(ev, bd.count());
                }
                continue;
            };
            let key = self
                .jitter_keys
                .as_deref()
                .map_or(flat, |k| k[flat as usize]);
            if bd.count() == 1 {
                // Single pulse: materialize the exact arrival directly.
                let arrival = exact_arrival(&jm, parent_trail, &b, 0, key, wire.delay)
                    .ok_or_else(|| overflow(&self.circuit))?;
                self.push_weighted(
                    Event {
                        time: arrival,
                        seq: seq0 + u64::from(j),
                        kind: EventKind::Deliver {
                            comp: wire.dest,
                            port: wire.port,
                        },
                    },
                    1,
                );
                continue;
            }
            // Jittered hop: widen the envelope by the jitter bound
            // (negative side clamped at the wire delay — a pulse never
            // arrives before it was emitted).
            let bdw = bd.widened(jm.bound_fs.min(wire.delay.as_fs()), jm.bound_fs);
            let span_ok = bdw.min_gap() >= bdw.env_span();
            let depth_ok = parent_trail.len() < MAX_TRAIL_HOPS;
            if !span_ok || !depth_ok {
                // The envelope could reorder pulses on this wire (or
                // the trail hit its depth cap): expand to exact pulse
                // events — per wire; the net's other wires and the
                // upstream train stay coalesced.
                self.activity.coalesce.bail_jitter += 1;
                let mut emits = std::mem::take(&mut self.trail_times);
                emits.clear();
                fold_trail_times(&jm, parent_trail, &b, &mut emits);
                for (k, &emit) in (0u64..).zip(&emits) {
                    // `exact_arrival` per pulse, with the trail fold
                    // materialized hop-major up front.
                    let arrival = jm
                        .arrival(key, emit, wire.delay)
                        .ok_or_else(|| overflow(&self.circuit))?;
                    self.push_weighted(
                        Event {
                            time: arrival,
                            seq: seq0 + u64::from(j) + k * stride,
                            kind: EventKind::Deliver {
                                comp: wire.dest,
                                port: wire.port,
                            },
                        },
                        1,
                    );
                }
                self.trail_times = emits;
                continue;
            }
            // Accept the hop: compose the child trail. Child pulse `i`
            // derives from slab index `off + i·step` of the parent, so
            // earlier hops compose with this emission's source map and
            // the new hop indexes the emission burst directly.
            let (off, step) = b.src_map();
            let mut trail = Vec::with_capacity(parent_trail.len() + 1);
            for h in parent_trail {
                trail.push(TrailHop {
                    off: h.off + off * h.stride,
                    stride: h.stride * step,
                    ..h.clone()
                });
            }
            trail.push(TrailHop {
                wire: key,
                delay: wire.delay,
                burst: b.with_src_identity(),
                off: 0,
                stride: 1,
            });
            let head = jittered_time_at(&jm, &trail, &bdw, 0);
            let slot = self.alloc_burst(bdw.with_src_identity(), stride, trail);
            let ev = Event {
                time: head,
                seq: seq0 + u64::from(j),
                kind: EventKind::BurstDeliver {
                    comp: wire.dest,
                    port: wire.port,
                    slot,
                },
            };
            if defer_single {
                self.defer_weight(bdw.count());
                deferred = Some(ev);
            } else {
                self.push_weighted(ev, bdw.count());
            }
        }
        Ok(deferred)
    }

    /// Fans a scheduled train out from a source net, allocating the
    /// same `count · width` block of sequence numbers the equivalent
    /// `schedule_pulses` loop would have consumed.
    fn fan_out_burst(&mut self, source: NetSource, burst: Burst) -> Result<(), SimError> {
        let net = self.nets.net(source);
        let width = (net.wires_end - net.wires_start) as u64;
        let seq0 = self.seq;
        self.seq += burst.count() * width;
        self.push_burst_net(source, burst, seq0, width, &[], false)?;
        Ok(())
    }

    fn alloc_burst(&mut self, burst: Burst, stride: u64, trail: Vec<TrailHop>) -> u32 {
        if let Some(slot) = self.free_bursts.pop() {
            self.bursts[slot as usize] = BurstRec {
                burst,
                stride,
                trail,
            };
            slot
        } else {
            self.bursts.push(BurstRec {
                burst,
                stride,
                trail,
            });
            (self.bursts.len() - 1) as u32
        }
    }

    #[inline]
    fn push_weighted(&mut self, ev: Event, weight: u64) {
        self.queue.push(ev);
        self.pending_weight += weight;
        if self.pending_weight > self.peak_weight {
            self.peak_weight = self.pending_weight;
        }
    }

    /// Accounts a deferred (chase-candidate) event's weight without
    /// pushing it: the chase loop subtracts the same weight when it
    /// consumes the event, exactly as if it had crossed the queue.
    fn defer_weight(&mut self, weight: u64) {
        self.pending_weight += weight;
        if self.pending_weight > self.peak_weight {
            self.peak_weight = self.pending_weight;
        }
    }

    /// Delivers a pulse or timer to its component through the lent
    /// context, which is cleared first (an error exit may have left
    /// it filled), and applies what the component asked for.
    fn dispatch(&mut self, ev: Event, ctx: &mut Ctx) -> Result<(), SimError> {
        let comp_id = match ev.kind {
            EventKind::Deliver { comp, .. } | EventKind::Timer { comp, .. } => comp,
            EventKind::BurstDeliver { .. } => unreachable!("bursts go through deliver_burst"),
        };
        let ci = comp_id as usize;
        ctx.clear();
        {
            let model: &dyn Component = &**self.models[ci];
            let state = &mut self.states[ci];
            match ev.kind {
                EventKind::Deliver { port, .. } => {
                    self.activity.handled[ci] += 1;
                    if let Some(sanitizer) = &mut self.sanitizer {
                        sanitizer.observe(ci, model, port as usize, ev.time);
                    }
                    model.on_pulse(state, port as usize, ev.time, ctx);
                }
                EventKind::Timer { tag, .. } => {
                    model.on_timer(state, tag, ev.time, ctx);
                }
                EventKind::BurstDeliver { .. } => unreachable!("bursts go through deliver_burst"),
            }
        }
        if !ctx.is_empty() {
            let overflow = |circuit: &Circuit| SimError::TimeOverflow {
                component: circuit.topo.models[ci].name().to_string(),
                time: ev.time,
            };
            for &(port, delay) in &ctx.emissions {
                let t_emit = ev
                    .time
                    .checked_add(delay)
                    .ok_or_else(|| overflow(&self.circuit))?;
                self.activity.emitted[ci] += 1;
                self.fan_out(NetSource::Output(ci, port), t_emit, |circuit| {
                    SimError::TimeOverflow {
                        component: circuit.topo.models[ci].name().to_string(),
                        time: t_emit,
                    }
                })?;
            }
            for &(tag, delay) in &ctx.timers {
                let t = ev
                    .time
                    .checked_add(delay)
                    .ok_or_else(|| overflow(&self.circuit))?;
                let seq = self.next_seq();
                self.push(Event {
                    time: t,
                    seq,
                    kind: EventKind::Timer { comp: comp_id, tag },
                });
            }
            for &stat in &ctx.stats {
                self.activity.record_anomaly(stat);
            }
            for &(stat, n) in &ctx.stat_counts {
                self.activity.record_anomaly_n(stat, n);
            }
            debug_assert!(
                ctx.burst_emissions.is_empty(),
                "emit_burst is only valid inside step_burst"
            );
        }
        Ok(())
    }

    /// Fans a pulse emitted at `t` out over the net of `source`: its
    /// probes record it and each of its wires queues an arrival.
    /// `overflow` builds the error for an arrival past the end of the
    /// clock. Each caller passes a closure of its own type and so gets
    /// its own copy of this function; the event loop's copy has that
    /// one caller, and the inliner folds it into the loop.
    fn fan_out(
        &mut self,
        source: NetSource,
        t: Time,
        overflow: impl Fn(&Circuit) -> SimError,
    ) -> Result<(), SimError> {
        // One lookup in the dense net table yields contiguous wire and
        // probe slices; `nets`, `probe_data`, `seq`, `jitter`, `queue`
        // and `circuit` are disjoint fields, so no per-element
        // re-lookup is needed to satisfy the borrow checker.
        let net = self.nets.net(source);
        for &probe in &self.nets.probes[net.probes_start as usize..net.probes_end as usize] {
            self.probe_data[probe as usize].push(t);
        }
        let wires = &self.nets.wires[net.wires_start as usize..net.wires_end as usize];
        // Allocate sequence numbers for the whole net in one batch.
        let first_seq = self.seq;
        self.seq += wires.len() as u64;
        let jitter = self.jitter;
        let wires_start = net.wires_start;
        for (idx, wire) in wires.iter().enumerate() {
            let seq = first_seq + idx as u64;
            let mut arrival = t
                .checked_add(wire.delay)
                .ok_or_else(|| overflow(&self.circuit))?;
            if let Some(jm) = &jitter {
                let flat = wires_start + idx as u32;
                let key = self
                    .jitter_keys
                    .as_deref()
                    .map_or(flat, |k| k[flat as usize]);
                arrival = jm
                    .arrival(key, t, wire.delay)
                    .ok_or_else(|| overflow(&self.circuit))?;
            }
            self.queue.push(Event {
                time: arrival,
                seq,
                kind: EventKind::Deliver {
                    comp: wire.dest,
                    port: wire.port,
                },
            });
        }
        // Pending-pulse accounting hoisted out of the wire loop: the
        // count only grows here, so one post-loop comparison sees the
        // same peak as a per-push check would.
        self.pending_weight += wires.len() as u64;
        if self.pending_weight > self.peak_weight {
            self.peak_weight = self.pending_weight;
        }
        Ok(())
    }

    fn push(&mut self, ev: Event) {
        self.push_weighted(ev, 1);
    }

    fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    /// Pulse times recorded by a probe, in non-decreasing order.
    ///
    /// Probes store coalesced trains symbolically, each at its place
    /// among the loose pulses, and a pulse recorded behind a stored
    /// train leaves it stored. The first read after a train was
    /// recorded merges the stored trains and the pulses around them
    /// into one buffer, in `O(pulses × hops)` for a jittered train;
    /// later reads return that buffer until the next recording.
    ///
    /// # Panics
    ///
    /// Panics if `probe` belongs to a different circuit.
    pub fn probe_times(&self, probe: ProbeId) -> &[Time] {
        self.probe_data[probe.0].times()
    }

    /// [`Simulator::probe_times`] for a reader that rereads a probe
    /// after every window, as the shard coordinator reads its egress
    /// probes: the stored trains are merged into the recording itself,
    /// so each window expands and moves only what it recorded instead
    /// of copying the whole recording into a read cache.
    pub(crate) fn flushed_probe_times(&mut self, probe: ProbeId) -> &[Time] {
        self.probe_data[probe.0].flushed()
    }

    /// Number of pulses a probe recorded, in `O(1)`: no train is
    /// expanded.
    ///
    /// # Panics
    ///
    /// Panics if `probe` belongs to a different circuit.
    pub fn probe_count(&self, probe: ProbeId) -> usize {
        self.probe_data[probe.0].count()
    }

    /// The probe's recording as a named [`Waveform`], ready for a
    /// [`WaveformSet`](crate::trace::WaveformSet), ASCII rendering, or
    /// VCD export.
    ///
    /// [`Waveform`]: crate::trace::Waveform
    ///
    /// # Panics
    ///
    /// Panics if `probe` belongs to a different circuit.
    pub fn probe_waveform(&self, probe: ProbeId) -> crate::trace::Waveform {
        let name = self
            .circuit
            .probe_name(probe)
            .expect("probe belongs to this circuit")
            .to_owned();
        crate::trace::Waveform::new(name, self.probe_times(probe).to_vec())
    }

    /// The switching-activity report accumulated so far.
    pub fn activity(&self) -> &ActivityReport {
        &self.activity
    }

    /// Current simulation time: the time of the latest processed pulse
    /// or timer, coalesced pulses included. It never decreases between
    /// [`Simulator::run_until`] calls.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Shared access to the simulated circuit. It holds no run state: a
    /// clone of it simulates from power-on, whatever this simulator ran.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Returns all components to power-on state, clears probes, pending
    /// events, and activity counters. Input wiring is preserved.
    ///
    /// The cells' state returns to power-on in one slice copy, from the
    /// power-on states the circuit's compiled form holds. Everything
    /// else is cleared *in place* — queue, probe recordings, and
    /// activity counters keep their allocations — so resetting between
    /// trials of a sweep is allocation-free. A rerun still allocates
    /// where probes see trains: recording a jittered train copies its
    /// trail, and the first read of a probe's times after a train was
    /// recorded merges the stored trains and the loose pulses into a
    /// new buffer. Wire-delay jitter
    /// settings are kept, and since every draw is a pure function of
    /// seed, wire and emission time, a reset simulator repeats a fresh
    /// one's jitter exactly.
    pub fn reset(&mut self) {
        self.states
            .copy_from_slice(&self.circuit.compiled().power_on);
        self.queue.clear();
        self.seq = 0;
        self.now = Time::ZERO;
        for p in &mut self.probe_data {
            p.clear();
        }
        self.activity.reset();
        self.events_processed = 0;
        self.bursts.clear();
        self.free_bursts.clear();
        self.pending_weight = 0;
        self.peak_weight = 0;
        if let Some(sanitizer) = &mut self.sanitizer {
            sanitizer.reset();
        }
    }
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("circuit", &self.circuit)
            .field("now", &self.now)
            .field("sched", &self.queue.sched())
            .field("pending_events", &self.queue.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::Buffer;

    /// A reference-configured simulator with `sched` and `burst` set.
    fn sim_with(circuit: Circuit, sched: Sched, burst: bool) -> Simulator {
        Simulator::with_config(
            circuit,
            &SimConfig {
                sched,
                burst,
                ..SimConfig::reference()
            },
        )
    }

    #[test]
    fn delay_chain_propagates() {
        let mut c = Circuit::new();
        let input = c.input("in");
        let b1 = c.add(Buffer::new("b1", Time::from_ps(3.0)));
        let b2 = c.add(Buffer::new("b2", Time::from_ps(4.0)));
        c.connect_input(input, b1.input(0), Time::from_ps(1.0))
            .unwrap();
        c.connect(b1.output(0), b2.input(0), Time::from_ps(2.0))
            .unwrap();
        let probe = c.probe(b2.output(0), "out");

        let mut sim = Simulator::new(c);
        sim.schedule_input(input, Time::ZERO).unwrap();
        let summary = sim.run().unwrap();
        assert_eq!(sim.probe_times(probe), &[Time::from_ps(10.0)]);
        assert_eq!(summary.events, 2);
        assert_eq!(summary.end_time, Time::from_ps(6.0));
        assert_eq!(sim.activity().handled, vec![1, 1]);
        assert_eq!(sim.activity().emitted, vec![1, 1]);
    }

    #[test]
    fn fan_out_reaches_all_sinks() {
        let mut c = Circuit::new();
        let input = c.input("in");
        let b1 = c.add(Buffer::new("b1", Time::ZERO));
        let b2 = c.add(Buffer::new("b2", Time::ZERO));
        c.connect_input(input, b1.input(0), Time::ZERO).unwrap();
        c.connect_input(input, b2.input(0), Time::from_ps(5.0))
            .unwrap();
        let p1 = c.probe(b1.output(0), "p1");
        let p2 = c.probe(b2.output(0), "p2");

        let mut sim = Simulator::new(c);
        sim.schedule_pulses(input, [Time::ZERO, Time::from_ps(10.0)])
            .unwrap();
        sim.run().unwrap();
        assert_eq!(sim.probe_count(p1), 2);
        assert_eq!(
            sim.probe_times(p2),
            &[Time::from_ps(5.0), Time::from_ps(15.0)]
        );
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut c = Circuit::new();
        let input = c.input("in");
        let b = c.add(Buffer::new("b", Time::ZERO));
        c.connect_input(input, b.input(0), Time::ZERO).unwrap();
        let p = c.probe(b.output(0), "p");
        let mut sim = Simulator::new(c);
        sim.schedule_pulses(input, [Time::from_ps(1.0), Time::from_ps(100.0)])
            .unwrap();
        sim.run_until(Time::from_ps(50.0)).unwrap();
        assert_eq!(sim.probe_count(p), 1);
        sim.run().unwrap();
        assert_eq!(sim.probe_count(p), 2);
    }

    /// A pathological cell that echoes with zero delay to itself.
    struct Oscillator;
    impl Component for Oscillator {
        fn name(&self) -> &'static str {
            "osc"
        }
        fn num_inputs(&self) -> usize {
            1
        }
        fn num_outputs(&self) -> usize {
            1
        }
        fn jj_count(&self) -> u32 {
            2
        }
        fn on_pulse(&self, _state: &mut CellState, _port: usize, _now: Time, ctx: &mut Ctx) {
            ctx.emit(0, Time::from_ps(1.0));
        }
    }

    #[test]
    fn event_limit_catches_oscillation() {
        let mut c = Circuit::new();
        let input = c.input("in");
        let o = c.add(Oscillator);
        c.connect_input(input, o.input(0), Time::ZERO).unwrap();
        c.connect(o.output(0), o.input(0), Time::ZERO).unwrap();
        let mut sim = Simulator::new(c);
        sim.set_event_limit(1000);
        sim.schedule_input(input, Time::ZERO).unwrap();
        let err = sim.run().unwrap_err();
        assert!(
            matches!(
                &err,
                SimError::EventLimitExceeded {
                    limit: 1000,
                    component,
                    ..
                } if component == "osc"
            ),
            "{err:?}"
        );
    }

    /// The limit is exact: a workload of exactly `limit` events passes,
    /// and the `limit + 1`-th dispatch never happens (it used to be
    /// consumed off the queue and counted before the check fired).
    #[test]
    fn event_limit_is_exact() {
        let build = || {
            let mut c = Circuit::new();
            let input = c.input("in");
            let b = c.add(Buffer::new("b", Time::ZERO));
            c.connect_input(input, b.input(0), Time::ZERO).unwrap();
            let p = c.probe(b.output(0), "p");
            let mut sim = Simulator::new(c);
            for k in 0..4u64 {
                sim.schedule_input(input, Time::from_ps(k as f64)).unwrap();
            }
            (sim, p)
        };
        // Exactly at the limit: fine.
        let (mut sim, p) = build();
        sim.set_event_limit(4);
        let summary = sim.run().unwrap();
        assert_eq!(summary.events, 4);
        assert_eq!(sim.probe_count(p), 4);
        // One below: the 4th event must not be dispatched, and the
        // clock must not advance onto it.
        let (mut sim, p) = build();
        sim.set_event_limit(3);
        let err = sim.run().unwrap_err();
        // The error pinpoints the blocked event: the 4th delivery to `b`
        // at 3 ps, which was never dispatched.
        assert_eq!(
            err,
            SimError::EventLimitExceeded {
                limit: 3,
                component: "b".into(),
                time: Time::from_ps(3.0),
            }
        );
        assert_eq!(sim.probe_count(p), 3);
        assert_eq!(sim.now(), Time::from_ps(2.0));
    }

    #[test]
    fn timer_delivery() {
        struct TimerCell;
        impl Component for TimerCell {
            fn name(&self) -> &'static str {
                "t"
            }
            fn num_inputs(&self) -> usize {
                1
            }
            fn num_outputs(&self) -> usize {
                1
            }
            fn jj_count(&self) -> u32 {
                4
            }
            fn on_pulse(&self, _state: &mut CellState, _port: usize, _now: Time, ctx: &mut Ctx) {
                ctx.schedule_timer(42, Time::from_ps(7.0));
            }
            fn on_timer(&self, state: &mut CellState, tag: u64, now: Time, ctx: &mut Ctx) {
                assert_eq!(tag, 42);
                state.set_time(0, now);
                ctx.emit(0, Time::ZERO);
            }
        }
        let mut c = Circuit::new();
        let input = c.input("in");
        let t = c.add(TimerCell);
        c.connect_input(input, t.input(0), Time::ZERO).unwrap();
        let p = c.probe(t.output(0), "out");
        let mut sim = Simulator::new(c);
        sim.schedule_input(input, Time::from_ps(1.0)).unwrap();
        sim.run().unwrap();
        assert_eq!(sim.probe_times(p), &[Time::from_ps(8.0)]);
    }

    #[test]
    fn reset_restores_power_on_state() {
        let mut c = Circuit::new();
        let input = c.input("in");
        let b = c.add(Buffer::new("b", Time::ZERO));
        c.connect_input(input, b.input(0), Time::ZERO).unwrap();
        let p = c.probe(b.output(0), "p");
        let mut sim = Simulator::new(c);
        sim.schedule_input(input, Time::from_ps(3.0)).unwrap();
        sim.run().unwrap();
        assert_eq!(sim.probe_count(p), 1);
        sim.reset();
        assert_eq!(sim.probe_count(p), 0);
        assert_eq!(sim.now(), Time::ZERO);
        assert_eq!(sim.activity().total_handled(), 0);
        // And it runs again after reset.
        sim.schedule_input(input, Time::from_ps(4.0)).unwrap();
        sim.run().unwrap();
        assert_eq!(sim.probe_count(p), 1);
    }

    /// A cloned circuit is a power-on deep copy: it replays the same
    /// stimulus bit-for-bit, independently of the original.
    #[test]
    fn cloned_circuit_replays_identically() {
        let mut c = Circuit::new();
        let input = c.input("in");
        let b1 = c.add(Buffer::new("b1", Time::from_ps(3.0)));
        let b2 = c.add(Buffer::new("b2", Time::from_ps(4.0)));
        let b3 = c.add(Buffer::new("b3", Time::from_ps(5.0)));
        c.connect_input(input, b1.input(0), Time::from_ps(1.0))
            .unwrap();
        c.connect(b1.output(0), b2.input(0), Time::ZERO).unwrap();
        c.connect(b1.output(0), b3.input(0), Time::from_ps(2.0))
            .unwrap();
        let probe = c.probe(b3.output(0), "out");

        let run = |circuit: Circuit| {
            let mut sim = Simulator::new(circuit);
            sim.enable_wire_jitter(Time::from_ps(1.0), 5);
            sim.schedule_pulses(input, [Time::ZERO, Time::from_ps(40.0)])
                .unwrap();
            sim.run().unwrap();
            (sim.probe_times(probe).to_vec(), sim.activity().clone())
        };
        let (times_a, act_a) = run(c.clone());
        let (times_b, act_b) = run(c);
        assert_eq!(times_a, times_b);
        assert_eq!(act_a.handled, act_b.handled);
        assert_eq!(act_a.emitted, act_b.emitted);
    }

    /// A set/read latch: a pulse on port 0 sets it, and a pulse on
    /// port 1 reads it, passing after 1 ps while it is set.
    struct Latch;
    impl Component for Latch {
        fn name(&self) -> &'static str {
            "latch"
        }
        fn num_inputs(&self) -> usize {
            2
        }
        fn num_outputs(&self) -> usize {
            1
        }
        fn jj_count(&self) -> u32 {
            6
        }
        fn on_pulse(&self, state: &mut CellState, port: usize, _now: Time, ctx: &mut Ctx) {
            match port {
                0 => state.set_bit(0, true),
                _ if state.bit(0) => ctx.emit(0, Time::from_ps(1.0)),
                _ => {}
            }
        }
    }

    /// A circuit holds no run state: a clone of `sim.circuit()` taken
    /// after a run that leaves a toggle high (an odd pulse count) and a
    /// latch set simulates exactly like a fresh simulator of the
    /// prototype, from power-on.
    #[test]
    fn a_circuit_cloned_after_a_run_starts_at_power_on() {
        let mut c = Circuit::new();
        let toggle_in = c.input("toggle");
        let set = c.input("set");
        let read = c.input("read");
        let div = c.add(Divider);
        let latch = c.add(Latch);
        c.connect_input(toggle_in, div.input(0), Time::ZERO)
            .unwrap();
        c.connect_input(set, latch.input(0), Time::ZERO).unwrap();
        c.connect_input(read, latch.input(1), Time::ZERO).unwrap();
        let probes = [
            c.probe(div.output(0), "div"),
            c.probe(latch.output(0), "latch"),
        ];
        let fingerprint = |circuit: Circuit| {
            let mut sim = crate::ShardedSimulator::with_config(circuit, &SimConfig::reference());
            sim.schedule_input(toggle_in, Time::from_ps(10.0)).unwrap();
            sim.schedule_input(read, Time::from_ps(20.0)).unwrap();
            let summary = sim.run().unwrap();
            crate::Fingerprint::capture(&sim, summary, &probes)
        };

        let mut sim = Simulator::with_config(c.clone(), &SimConfig::reference());
        sim.schedule_pulses(toggle_in, [0.0, 5.0, 9.0].map(Time::from_ps))
            .unwrap();
        sim.schedule_input(set, Time::from_ps(1.0)).unwrap();
        sim.run().unwrap();
        let (div_state, latch_state) =
            (sim.states[div.id().index()], sim.states[latch.id().index()]);
        assert!(
            div_state.bit(0) && latch_state.bit(0),
            "the run leaves state behind"
        );

        let fresh = fingerprint(c);
        assert_eq!(fingerprint(sim.circuit().clone()), fresh);
        assert_eq!(fresh.probe_times, vec![vec![], vec![]]);
    }

    /// Reusing one simulator via `reset` matches building a fresh one —
    /// the trial-reuse pattern of the parallel runner.
    #[test]
    fn reset_reuse_matches_fresh_simulator() {
        let build = || {
            let mut c = Circuit::new();
            let input = c.input("in");
            let b = c.add(Buffer::new("b", Time::from_ps(2.0)));
            c.connect_input(input, b.input(0), Time::from_ps(1.0))
                .unwrap();
            let p = c.probe(b.output(0), "p");
            (c, input, p)
        };
        let (proto, input, p) = build();
        let mut reused = Simulator::new(proto.clone());
        let mut fresh_results = Vec::new();
        let mut reused_results = Vec::new();
        for trial in 0..3u64 {
            let stimulus: Vec<Time> = (0..4)
                .map(|k| Time::from_ps((10 * k + trial) as f64))
                .collect();
            let mut fresh = Simulator::new(proto.clone());
            fresh.schedule_pulses(input, stimulus.clone()).unwrap();
            fresh.run().unwrap();
            fresh_results.push(fresh.probe_times(p).to_vec());

            reused.reset();
            reused.schedule_pulses(input, stimulus).unwrap();
            reused.run().unwrap();
            reused_results.push(reused.probe_times(p).to_vec());
        }
        assert_eq!(fresh_results, reused_results);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let build = || {
            let mut c = Circuit::new();
            let input = c.input("in");
            let b = c.add(Buffer::new("b", Time::from_ps(100.0)));
            c.connect_input(input, b.input(0), Time::from_ps(50.0))
                .unwrap();
            let p = c.probe(b.output(0), "p");
            (Simulator::new(c), input, p)
        };
        let run = |seed: u64| {
            let (mut sim, input, p) = build();
            sim.enable_wire_jitter(Time::from_ps(2.0), seed);
            for k in 0..64u64 {
                sim.schedule_input(input, Time::from_ps(200.0 * k as f64))
                    .unwrap();
            }
            sim.run().unwrap();
            sim.probe_times(p).to_vec()
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b, "same seed, same run");
        let c = run(8);
        assert_ne!(a, c, "different seed perturbs differently");
        // Jitter is small relative to the nominal 150 ps path.
        for (k, &t) in a.iter().enumerate() {
            let nominal = Time::from_ps(200.0 * k as f64 + 150.0);
            assert!(
                t.abs_diff(nominal) < Time::from_ps(20.0),
                "pulse {k} at {t}, nominal {nominal}"
            );
        }
    }

    #[test]
    fn jitter_never_time_travels() {
        let mut c = Circuit::new();
        let input = c.input("in");
        // Zero-delay wire: negative jitter must clamp at emission time.
        let b = c.add(Buffer::new("b", Time::ZERO));
        c.connect_input(input, b.input(0), Time::ZERO).unwrap();
        let p = c.probe(b.output(0), "p");
        let mut sim = Simulator::new(c);
        sim.enable_wire_jitter(Time::from_ps(5.0), 3);
        for k in 0..32u64 {
            sim.schedule_input(input, Time::from_ps(100.0 * k as f64))
                .unwrap();
        }
        sim.run().unwrap();
        for (k, &t) in sim.probe_times(p).iter().enumerate() {
            assert!(t >= Time::from_ps(100.0 * k as f64), "pulse {k} at {t}");
        }
        sim.disable_wire_jitter();
    }

    /// The `USFQ_WIRE_JITTER` grammar, `<sigma_fs>[:<seed>]`, through
    /// a pure lookup, with the envelope half-width derived exactly as
    /// `enable_wire_jitter` derives it: `ceil(sigma · √6)` fs.
    #[test]
    fn wire_jitter_env_grammar() {
        use crate::config::{WIRE_JITTER_DEFAULT_SEED, WIRE_JITTER_ENV};
        let model = |raw: &str| {
            SimConfig::from_vars(&[(WIRE_JITTER_ENV, raw)])
                .jitter
                .map(|j| JitterModel::new(j.sigma, j.seed))
        };
        let jm = model("2000").expect("bare sigma parses");
        assert_eq!(jm.bound_fs, 4899); // ceil(2000·√6)
        assert_eq!(jm.seed, WIRE_JITTER_DEFAULT_SEED);
        let jm = model(" 500 : 7 ").expect("sigma:seed parses");
        assert_eq!(jm.bound_fs, 1225); // ceil(500·√6)
        assert_eq!(jm.seed, 7);
        assert!(model("0").is_none(), "0 means off");
        assert!(model("").is_none());
        assert!(model("2ps").is_none(), "units are rejected");
        assert!(model("2000:").is_none(), "dangling seed");
    }

    #[test]
    fn foreign_input_rejected() {
        let c = Circuit::new();
        let mut sim = Simulator::new(c);
        assert!(sim.schedule_input(InputId(0), Time::ZERO).is_err());
    }

    /// The scheduler contract in miniature: heap and wheel produce
    /// byte-identical traces, activity, and queue high-water marks on
    /// a fanned-out, jittered workload.
    #[test]
    fn schedulers_agree_end_to_end() {
        let mut c = Circuit::new();
        let input = c.input("in");
        let b1 = c.add(Buffer::new("b1", Time::from_ps(3.0)));
        let b2 = c.add(Buffer::new("b2", Time::from_ps(9.0)));
        let b3 = c.add(Buffer::new("b3", Time::from_ps(20.0)));
        c.connect_input(input, b1.input(0), Time::from_ps(1.0))
            .unwrap();
        c.connect(b1.output(0), b2.input(0), Time::ZERO).unwrap();
        c.connect(b1.output(0), b3.input(0), Time::from_ps(2.0))
            .unwrap();
        c.connect(b2.output(0), b3.input(0), Time::from_ps(0.5))
            .unwrap();
        let probe = c.probe(b3.output(0), "out");

        let run = |sched: Sched| {
            let mut sim = sim_with(c.clone(), sched, true);
            assert_eq!(sim.sched(), sched);
            sim.enable_wire_jitter(Time::from_ps(0.5), 11);
            for k in 0..64u64 {
                sim.schedule_input(input, Time::from_ps(25.0 * k as f64))
                    .unwrap();
            }
            sim.run().unwrap();
            (
                sim.probe_times(probe).to_vec(),
                sim.activity().clone(),
                sim.wheel_stats(),
            )
        };
        let (times_h, act_h, stats_h) = run(Sched::Heap);
        let (times_w, act_w, stats_w) = run(Sched::Wheel);
        assert_eq!(times_h, times_w);
        assert_eq!(act_h.handled, act_w.handled);
        assert_eq!(act_h.emitted, act_w.emitted);
        assert_eq!(act_h.peak_pending, act_w.peak_pending);
        assert!(act_w.peak_pending > 0);
        assert_eq!(stats_h, None, "heap has no wheel counters");
        let stats_w = stats_w.expect("wheel counters");
        assert!(stats_w.activations > 0);
        assert_eq!(stats_w.rebuilds, 0, "no past-time insert in a run");
    }

    /// Stimuli scheduled across a whole epoch land in the wheel's
    /// overflow level and migrate back without reordering.
    #[test]
    fn wheel_overflow_level_preserves_order() {
        let mut c = Circuit::new();
        let input = c.input("in");
        let b = c.add(Buffer::new("b", Time::from_ps(9.0)));
        c.connect_input(input, b.input(0), Time::ZERO).unwrap();
        let p = c.probe(b.output(0), "p");
        // Bucket width derives from the 9 ps delay, so a 1 µs horizon
        // is far beyond the wheel window.
        let mut sim = sim_with(c, Sched::Wheel, true);
        for k in (0..32u64).rev() {
            sim.schedule_input(input, Time::from_ns(40.0 * k as f64))
                .unwrap();
        }
        sim.run().unwrap();
        let times = sim.probe_times(p);
        assert_eq!(times.len(), 32);
        assert!(times.windows(2).all(|w| w[0] < w[1]));
        let stats = sim.wheel_stats().unwrap();
        assert!(stats.migrations > 0, "{stats:?}");
    }

    /// A 200-wire chain with real delays runs on the heap unless its
    /// configuration names the wheel: the queue does not depend on the
    /// netlist's size.
    #[test]
    fn dense_chain_runs_on_the_default_heap() {
        let mut c = Circuit::new();
        let input = c.input("in");
        let mut prev = c.add(Buffer::new("b0", Time::from_ps(3.0)));
        c.connect_input(input, prev.input(0), Time::ZERO).unwrap();
        for i in 1..200 {
            let b = c.add(Buffer::new(format!("b{i}"), Time::from_ps(3.0)));
            c.connect(prev.output(0), b.input(0), Time::ZERO).unwrap();
            prev = b;
        }
        assert_eq!(c.num_wires(), 200);
        assert_eq!(Simulator::new(c.clone()).sched(), Sched::Heap);
        let sim = Simulator::with_config(c, &SimConfig::default());
        assert_eq!(sim.sched(), Sched::Heap);
    }

    /// More loose pulses than the heap queue's sorted run holds, queued
    /// in descending and in shuffled time order (with equal-time
    /// pairs), so the run spills into its heap inside the engine: the
    /// heap run equals the wheel run and the pulse-level reference. The
    /// probe sits on the first cell, so it records the order in which
    /// the queue hands out the scheduled pulses.
    #[test]
    fn heap_queue_spills_past_its_run_in_order() {
        use crate::{Fingerprint, ShardedSimulator};
        let mut c = Circuit::new();
        let input = c.input("in");
        let b = c.add(Buffer::new("b", Time::from_ps(9.0)));
        c.connect_input(input, b.input(0), Time::from_ps(1.0))
            .unwrap();
        let p = c.probe(b.output(0), "out");
        let n = 150u64;
        let descending: Vec<u64> = (0..n).rev().collect();
        let mut shuffled: Vec<u64> = (0..n).collect();
        let mut rng = SplitMix64::new(7);
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.gen_range(0..=i));
        }
        for order in [descending, shuffled] {
            let run = |sched: Sched, burst: bool| {
                let cfg = SimConfig {
                    sched,
                    burst,
                    ..SimConfig::reference()
                };
                let mut sim = ShardedSimulator::with_config(c.clone(), &cfg);
                for &k in &order {
                    sim.schedule_input(input, Time::from_ps(7.0 * (k / 2) as f64))
                        .unwrap();
                }
                let summary = sim.run().unwrap();
                let peak = sim.activity().peak_pending;
                (Fingerprint::capture(&sim, summary, &[p]), peak)
            };
            let (reference, peak) = run(Sched::Heap, false);
            assert!(peak >= n, "peak_pending {peak}");
            let expected: Vec<Time> = (0..n)
                .map(|k| Time::from_ps(7.0 * (k / 2) as f64 + 10.0))
                .collect();
            assert_eq!(reference.probe_times, [expected]);
            assert_eq!(run(Sched::Heap, true).0, reference);
            assert_eq!(run(Sched::Wheel, false).0, reference);
            assert_eq!(run(Sched::Wheel, true).0, reference);
        }
    }

    fn chain_fixture() -> (Circuit, InputId, crate::ProbeId) {
        let mut c = Circuit::new();
        let input = c.input("in");
        let b1 = c.add(Buffer::new("b1", Time::from_ps(3.0)));
        let b2 = c.add(Buffer::new("b2", Time::from_ps(4.0)));
        c.connect_input(input, b1.input(0), Time::from_ps(1.0))
            .unwrap();
        c.connect(b1.output(0), b2.input(0), Time::from_ps(2.0))
            .unwrap();
        let p = c.probe(b2.output(0), "out");
        (c, input, p)
    }

    /// A coalesced train through a buffer chain is byte-identical to
    /// the expanded pulse-level run: probe times, activity counters,
    /// event count, and end time.
    #[test]
    fn burst_matches_pulse_level_on_chain() {
        let burst = Burst::uniform(Time::from_ps(5.0), Time::from_ps(10.0), 16);

        let (c, input, p) = chain_fixture();
        let mut fast = sim_with(c, Sched::Heap, true);
        fast.schedule_burst(input, burst).unwrap();
        let sum_fast = fast.run().unwrap();

        let (c, input, p2) = chain_fixture();
        let mut slow = sim_with(c, Sched::Heap, false);
        slow.schedule_burst(input, burst).unwrap();
        let sum_slow = slow.run().unwrap();

        assert_eq!(fast.probe_times(p), slow.probe_times(p2));
        assert_eq!(sum_fast.events, sum_slow.events);
        assert_eq!(sum_fast.end_time, sum_slow.end_time);
        assert_eq!(fast.activity().handled, slow.activity().handled);
        assert_eq!(fast.activity().emitted, slow.activity().emitted);
    }

    /// With bursts disabled, `schedule_burst` expands to exactly the
    /// `schedule_pulses` loop — sequence allocation included, which a
    /// zero-period (all-ties) train makes observable.
    #[test]
    fn schedule_burst_disabled_expands_to_pulses() {
        let t = Time::from_ps(7.0);
        let (c, input, p) = chain_fixture();
        let mut a = sim_with(c, Sched::Heap, false);
        a.schedule_burst(input, Burst::uniform(t, Time::ZERO, 4))
            .unwrap();
        a.run().unwrap();

        let (c, input, p2) = chain_fixture();
        let mut b = sim_with(c, Sched::Heap, false);
        b.schedule_pulses(input, [t, t, t, t]).unwrap();
        b.run().unwrap();

        assert_eq!(a.probe_times(p), b.probe_times(p2));
        assert_eq!(a.activity().handled, b.activity().handled);
        assert_eq!(a.activity().peak_pending, b.activity().peak_pending);
    }

    /// The event limit stays exact under coalescing: a burst is split
    /// so that at most `limit` pulses are ever dispatched, and the
    /// overflow error carries the same component and time as the
    /// pulse-level engine would report.
    #[test]
    fn burst_event_limit_is_exact() {
        let mut c = Circuit::new();
        let input = c.input("in");
        let b = c.add(Buffer::new("b", Time::ZERO));
        c.connect_input(input, b.input(0), Time::ZERO).unwrap();
        let p = c.probe(b.output(0), "p");
        let mut sim = sim_with(c, Sched::Heap, true);
        sim.set_event_limit(5);
        sim.schedule_burst(input, Burst::uniform(Time::ZERO, Time::from_ps(10.0), 10))
            .unwrap();
        let err = sim.run().unwrap_err();
        assert!(
            matches!(
                &err,
                SimError::EventLimitExceeded {
                    limit: 5,
                    component,
                    time,
                } if component == "b" && *time == Time::from_ps(50.0)
            ),
            "{err:?}"
        );
        assert_eq!(sim.probe_count(p), 5);
    }

    /// A component on a feedback cycle never absorbs a burst atomically:
    /// the head-pulse fallback keeps it exactly equivalent to the
    /// pulse-level run.
    #[test]
    fn burst_on_cycle_falls_back_to_head_pulses() {
        let build = || {
            let mut c = Circuit::new();
            let input = c.input("in");
            let o = c.add(Oscillator);
            c.connect_input(input, o.input(0), Time::ZERO).unwrap();
            c.connect(o.output(0), o.input(0), Time::from_ps(100.0))
                .unwrap();
            let p = c.probe(o.output(0), "p");
            (c, input, p)
        };
        let burst = Burst::uniform(Time::ZERO, Time::from_ps(3.0), 8);
        let deadline = Time::from_ps(500.0);

        let (c, input, p) = build();
        let mut fast = sim_with(c, Sched::Heap, true);
        fast.schedule_burst(input, burst).unwrap();
        fast.run_until(deadline).unwrap();

        let (c, input, p2) = build();
        let mut slow = sim_with(c, Sched::Heap, false);
        slow.schedule_burst(input, burst).unwrap();
        slow.run_until(deadline).unwrap();

        assert_eq!(fast.probe_times(p), slow.probe_times(p2));
        assert_eq!(fast.activity().handled, slow.activity().handled);
    }

    /// A toggle divider: every second pulse passes, after 1 ps, so a
    /// train with an odd count ends on a pulse that emits nothing. Its
    /// state bit is high after an odd pulse count.
    struct Divider;
    impl Component for Divider {
        fn name(&self) -> &'static str {
            "div"
        }
        fn num_inputs(&self) -> usize {
            1
        }
        fn num_outputs(&self) -> usize {
            1
        }
        fn jj_count(&self) -> u32 {
            4
        }
        fn on_pulse(&self, state: &mut CellState, _port: usize, _now: Time, ctx: &mut Ctx) {
            if state.bit(0) {
                ctx.emit(0, Time::from_ps(1.0));
            }
            state.bits ^= 1;
        }
        fn step_burst(
            &self,
            state: &mut CellState,
            _port: usize,
            burst: &Burst,
            ctx: &mut Ctx,
        ) -> BurstStep {
            let off = u64::from(!state.bit(0));
            ctx.emit_burst(0, burst.decimate(off, 2).delayed(Time::from_ps(1.0)));
            state.bits ^= u8::from(burst.count() % 2 == 1);
            BurstStep::Consumed
        }
    }

    /// A burst run ends when a pulse run does. The divider absorbs a
    /// 9-pulse train in closed form and emits 4 pulses; the last one
    /// reaches `b` at 75 ps, before the divider's own last, silent
    /// pulse at 83 ps, but is processed after it. The clock stays at
    /// 83 ps: whole or split by `run_until` at any deadline, it reads
    /// what the pulse run reads and never moves back.
    #[test]
    fn a_burst_run_ends_when_a_pulse_run_does() {
        let mut c = Circuit::new();
        let input = c.input("in");
        let a = c.add(Buffer::new("a", Time::from_ps(1.0)));
        let div = c.add(Divider);
        let b = c.add(Buffer::new("b", Time::from_ps(1.0)));
        c.connect_input(input, a.input(0), Time::from_ps(1.0))
            .unwrap();
        c.connect(a.output(0), div.input(0), Time::from_ps(1.0))
            .unwrap();
        c.connect(div.output(0), b.input(0), Time::from_ps(1.0))
            .unwrap();
        let p = c.probe(b.output(0), "out");
        let train = Burst::uniform(Time::ZERO, Time::from_ps(10.0), 9);
        // The clock after each split at `step`, then after the whole
        // run, with the run's summary.
        let run = |burst: bool, step: Option<Time>| {
            let mut sim = sim_with(c.clone(), Sched::Heap, burst);
            sim.schedule_burst(input, train).unwrap();
            let mut clocks = Vec::new();
            let mut events = 0;
            if let Some(step) = step {
                for k in 1..=12 {
                    events += sim.run_until(step * k).unwrap().events;
                    clocks.push(sim.now());
                }
            }
            let summary = sim.run().unwrap();
            events += summary.events;
            clocks.push(sim.now());
            assert_eq!(summary.end_time, sim.now());
            let div = div.id().index();
            assert_eq!(
                (sim.activity().handled[div], sim.activity().emitted[div]),
                (9, 4)
            );
            assert_eq!(sim.probe_count(p), 4);
            if burst && step.is_none() {
                assert!(sim.activity().coalesce.hits > 0);
            }
            (events, clocks)
        };
        let (events, clocks) = run(false, None);
        // The divider's last pulse arrives at 80 + 3 ps.
        assert_eq!(clocks, [Time::from_ps(83.0)]);
        assert_eq!(run(true, None), (events, clocks));
        for step_ps in [3.0, 7.0, 20.0] {
            let step = Some(Time::from_ps(step_ps));
            let (events, clocks) = run(false, step);
            assert!(clocks.windows(2).all(|w| w[0] <= w[1]), "{clocks:?}");
            assert_eq!(run(true, step), (events, clocks), "step {step_ps} ps");
        }
    }

    /// A run that stops on an error leaves a reusable simulator. The
    /// run's context goes back to the simulator on every exit, and an
    /// overflowing emission leaves it filled, so it must be cleared
    /// before its next use: after `reset`, a rerun is a fresh
    /// simulator's, whether the last run ran out of events amid two
    /// interleaved trains or overflowed the clock.
    #[test]
    fn error_exits_leave_a_reusable_simulator() {
        use crate::{Fingerprint, ShardedSimulator};
        let mut c = Circuit::new();
        let (a, b) = (c.input("a"), c.input("b"));
        let div = c.add(Divider);
        let buf = c.add(Buffer::new("buf", Time::from_ps(1.0)));
        c.connect_input(a, div.input(0), Time::from_ps(1.0))
            .unwrap();
        c.connect_input(b, buf.input(0), Time::from_ps(1.0))
            .unwrap();
        let probes = [c.probe(div.output(0), "div"), c.probe(buf.output(0), "buf")];
        let cfg = SimConfig {
            burst: true,
            ..SimConfig::reference()
        };
        // Two trains half a period apart, so every head is due alone.
        let schedule = |sim: &mut ShardedSimulator| {
            let train = |start| Burst::uniform(Time::from_ps(start), Time::from_ps(10.0), 8);
            sim.schedule_burst(a, train(0.0)).unwrap();
            sim.schedule_burst(b, train(5.0)).unwrap();
        };
        let run = |sim: &mut ShardedSimulator| {
            schedule(sim);
            let summary = sim.run().unwrap();
            assert!(sim.activity().coalesce.lazy_splits > 0);
            Fingerprint::capture(sim, summary, &probes)
        };
        let fresh = run(&mut ShardedSimulator::with_config(c.clone(), &cfg));
        let mut sim = ShardedSimulator::with_config(c, &cfg);

        sim.set_event_limit(5);
        schedule(&mut sim);
        let err = sim.run().unwrap_err();
        assert!(
            matches!(err, SimError::EventLimitExceeded { .. }),
            "{err:?}"
        );
        sim.reset();
        sim.set_event_limit(DEFAULT_EVENT_LIMIT);
        assert_eq!(run(&mut sim), fresh, "after {err:?}");

        sim.reset();
        schedule(&mut sim);
        // The buffer's emission lands 0.5 ps past the clock's end.
        sim.schedule_input(b, Time::from_fs(u64::MAX - 1_500))
            .unwrap();
        let err = sim.run().unwrap_err();
        assert!(matches!(err, SimError::TimeOverflow { .. }), "{err:?}");
        sim.reset();
        assert_eq!(run(&mut sim), fresh, "after {err:?}");
    }

    /// Deadline splitting: only the prefix at or before the deadline is
    /// consumed, and the remainder resumes exactly on the next run.
    #[test]
    fn burst_respects_run_until_deadline() {
        let (c, input, p) = chain_fixture();
        let mut sim = sim_with(c, Sched::Heap, true);
        sim.schedule_burst(input, Burst::uniform(Time::ZERO, Time::from_ps(10.0), 10))
            .unwrap();
        sim.run_until(Time::from_ps(45.0)).unwrap();
        // Chain latency is 10 ps; the last b2 arrival at or before the
        // deadline is 36 ps, so four pulses have reached the probe.
        assert_eq!(sim.probe_count(p), 4);
        sim.run().unwrap();
        assert_eq!(sim.probe_count(p), 10);
    }

    /// Lazily recorded probes agree with pulse delivery at every read.
    /// Exact and jittered trains cross a buffer chain whose first net
    /// carries two probes. The script reads counts before times, reads
    /// a probe and then records more trains and a pulse on it, records
    /// a pulse behind a train nobody read, and splits the run with
    /// `run_until`. Each snapshot must equal the `burst: false` run's,
    /// and a simulator reset with a filled read cache must repeat a
    /// fresh one.
    #[test]
    fn lazy_probes_agree_at_every_read() {
        let mut c = Circuit::new();
        let input = c.input("in");
        let b1 = c.add(Buffer::new("b1", Time::from_ps(3.0)));
        let b2 = c.add(Buffer::new("b2", Time::from_ps(4.0)));
        let b3 = c.add(Buffer::new("b3", Time::from_ps(5.0)));
        c.connect_input(input, b1.input(0), Time::from_ps(1.0))
            .unwrap();
        c.connect(b1.output(0), b2.input(0), Time::from_ps(2.0))
            .unwrap();
        c.connect(b2.output(0), b3.input(0), Time::from_ps(2.0))
            .unwrap();
        let probes = [
            c.probe(b1.output(0), "a"),
            c.probe(b1.output(0), "b"),
            c.probe(b3.output(0), "c"),
        ];
        // Counts first, then times; the two must agree.
        let snapshot = |sim: &Simulator| -> Vec<Vec<Time>> {
            probes
                .iter()
                .map(|&p| {
                    let count = sim.probe_count(p);
                    let times = sim.probe_times(p).to_vec();
                    assert_eq!(count, times.len());
                    times
                })
                .collect()
        };
        let script = |sim: &mut Simulator, period: Time| -> Vec<Vec<Vec<Time>>> {
            let train =
                |start: f64, count: u64| Burst::uniform(Time::from_ps(start), period, count);
            let mut snaps = Vec::new();
            sim.schedule_burst(input, train(0.0, 24)).unwrap();
            // Split the train: a prefix is recorded and read ...
            sim.run_until(period * 9).unwrap();
            snaps.push(snapshot(sim));
            // ... then the rest lands on the read probes,
            sim.run_until(period * 30).unwrap();
            snaps.push(snapshot(sim));
            // and so does a lone pulse.
            sim.schedule_input(input, period * 40).unwrap();
            sim.run_until(period * 50).unwrap();
            snaps.push(snapshot(sim));
            // A pulse behind a train no one read, and one more train,
            // whose read leaves a filled cache for the reset to clear.
            sim.schedule_burst(input, train(0.0, 16).delayed(period * 60))
                .unwrap();
            sim.schedule_input(input, period * 90).unwrap();
            sim.schedule_burst(input, train(0.0, 8).delayed(period * 100))
                .unwrap();
            sim.run().unwrap();
            snaps.push(snapshot(sim));
            snaps
        };
        for sigma_ps in [0.0, 1.0, 2.0] {
            let jitter = (sigma_ps > 0.0).then(|| crate::config::Jitter {
                sigma: Time::from_ps(sigma_ps),
                seed: 5,
            });
            // Jittered trains run at 40 ps so the envelopes stay
            // narrower than the spacing and the chain stays coalesced.
            let period = Time::from_ps(if jitter.is_some() { 40.0 } else { 10.0 });
            let sim = |burst: bool| {
                Simulator::with_config(
                    c.clone(),
                    &SimConfig {
                        sched: Sched::Heap,
                        burst,
                        jitter,
                        ..SimConfig::reference()
                    },
                )
            };
            let want = script(&mut sim(false), period);
            let mut lazy = sim(true);
            assert_eq!(script(&mut lazy, period), want, "sigma {sigma_ps} ps");
            assert!(lazy.activity().coalesce.hits > 0, "sigma {sigma_ps} ps");
            let counts: Vec<usize> = probes.iter().map(|&p| lazy.probe_count(p)).collect();
            lazy.reset();
            // The read expansion's buffer stays on as the cleared times.
            for (&p, &n) in probes.iter().zip(&counts) {
                assert!(lazy.probe_data[p.0].times.capacity() >= n);
            }
            assert_eq!(snapshot(&lazy), vec![Vec::new(); probes.len()]);
            assert_eq!(
                script(&mut lazy, period),
                want,
                "rerun, sigma {sigma_ps} ps"
            );
        }
    }

    /// A pulse recorded behind a stored train leaves it stored: the
    /// probe keeps the 1,024-pulse train symbolic and pushes the pulse
    /// behind it, and reads still equal the pulse run's through a
    /// further read, pulse, train, read and reset.
    #[test]
    fn a_pulse_behind_a_stored_train_keeps_it_stored() {
        let (c, input, p) = chain_fixture();
        let period = Time::from_ps(10.0);
        let train = Burst::uniform(Time::ZERO, period, 1_024);
        let snap = |sim: &Simulator| (sim.probe_count(p), sim.probe_times(p).to_vec());
        // The train, then a pulse behind it.
        let first = |sim: &mut Simulator| {
            sim.schedule_burst(input, train).unwrap();
            sim.schedule_input(input, period * 2_000).unwrap();
            sim.run().unwrap();
        };
        // Read, pulse, train, read.
        let rest = |sim: &mut Simulator| {
            let read = snap(sim);
            sim.schedule_input(input, period * 3_000).unwrap();
            sim.run().unwrap();
            sim.schedule_burst(input, train.delayed(period * 4_000))
                .unwrap();
            sim.run().unwrap();
            (read, snap(sim))
        };
        let mut pulses = sim_with(c.clone(), Sched::Heap, false);
        first(&mut pulses);
        let want = rest(&mut pulses);
        assert_eq!((want.0 .0, want.1 .0), (1_025, 2_050));

        let mut lazy = sim_with(c, Sched::Heap, true);
        for round in 0..2 {
            first(&mut lazy);
            let rec = &lazy.probe_data[p.0];
            assert_eq!(
                (rec.pending.len(), rec.pending_pulses, rec.times.len()),
                (1, 1_024, 1),
                "round {round}: the train stays stored, the pulse goes behind it"
            );
            assert_eq!(lazy.probe_count(p), 1_025);
            assert_eq!(rest(&mut lazy), want, "round {round}");
            lazy.reset();
            assert_eq!(snap(&lazy), (0, Vec::new()));
        }
    }

    /// Random interleavings of pulses, exact and jittered trains, reads,
    /// flushing reads and clears leave a probe's recording equal to a
    /// flat list of the same times, each jittered pulse folded on its
    /// own through its trail.
    #[test]
    fn probe_recordings_match_a_flat_list() {
        crate::check::for_all(128, |rng| {
            let jm = JitterModel::new(Time::from_fs(rng.gen_range(1u64..=2_000)), rng.next_u64());
            let mut rec = ProbeRec::default();
            let mut flat: Vec<Time> = Vec::new();
            let mut now = 1_000_000u64;
            for _ in 0..rng.gen_range(1usize..40) {
                let gap = rng.gen_range(0u64..50_000);
                match rng.gen_range(0u32..8) {
                    0 | 1 => {
                        now += gap;
                        rec.push(Time::from_fs(now));
                        flat.push(Time::from_fs(now));
                    }
                    2 | 3 => {
                        let parent = Burst::rational(
                            Time::from_fs(now + gap),
                            rng.gen_range(0u64..3),
                            rng.gen_range(0u64..100),
                            rng.gen_range(0u64..20_000),
                            rng.gen_range(1u64..100),
                            rng.gen_range(0u64..60),
                        );
                        let b = parent
                            .decimate(rng.gen_range(0u64..3), rng.gen_range(1u64..3))
                            .delayed(Time::from_fs(rng.gen_range(0u64..5_000)));
                        let trail: Vec<TrailHop> = if rng.gen_bool(0.5) {
                            Vec::new()
                        } else {
                            (0..rng.gen_range(1u32..4))
                                .map(|wire| TrailHop {
                                    wire,
                                    delay: Time::from_fs(rng.gen_range(0u64..3_000)),
                                    burst: parent,
                                    off: 0,
                                    stride: 1,
                                })
                                .collect()
                        };
                        let (off, step) = b.src_map();
                        for k in 0..b.count() {
                            let acc = trail_offset_fs(&jm, &trail, off + k * step);
                            let t = i128::from(b.time_at(k).as_fs()) + acc;
                            flat.push(Time::from_fs(u64::try_from(t).unwrap()));
                        }
                        if b.count() > 0 {
                            now = now.max(b.last().as_fs());
                        }
                        rec.record_train(b, &trail, Some(jm));
                    }
                    4 | 5 => assert_eq!(rec.times(), flat, "read"),
                    6 => assert_eq!(rec.flushed(), flat, "flushing read"),
                    _ => {
                        rec.clear();
                        flat.clear();
                    }
                }
                assert_eq!(rec.count(), flat.len());
            }
            assert_eq!(rec.times(), flat);
        });
    }

    /// The closed-form next-key bound of `deliver_burst` against the
    /// binary search it replaced, on every prefix cap the deadline and
    /// event budget can set. The next event sits at, between and around
    /// the train's worst-case times, with sequence numbers on both
    /// sides of the train's own, so equal times break on `seq`.
    #[test]
    fn keys_before_matches_the_binary_search() {
        fn search(burst: &Burst, seq0: u64, stride: u64, m: u64, next: Event) -> u64 {
            let (mut lo, mut hi) = (0u64, m);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                let t = Time::from_fs(burst.time_at(mid).as_fs().saturating_add(burst.env_hi()));
                if (t, seq0 + mid * stride) < (next.time, next.seq) {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            lo
        }
        crate::check::for_all(512, |rng| {
            let scale = [0, 1, rng.gen_range(1u64..1_000)][rng.gen_range(0usize..3)];
            let num = [0, rng.gen_range(1u64..10), rng.gen_range(1u64..100_000)]
                [rng.gen_range(0usize..3)];
            let burst = Burst::rational(
                Time::from_fs(rng.gen_range(0u64..1_000_000)),
                scale,
                rng.gen_range(0u64..1_000),
                num,
                rng.gen_range(1u64..1_000),
                rng.gen_range(1u64..300),
            )
            .widened(0, [0, rng.gen_range(0u64..5_000)][rng.gen_range(0usize..2)]);
            let seq0 = rng.gen_range(0u64..1_000);
            let stride = rng.gen_range(1u64..4);
            let k = rng.gen_range(0..burst.count());
            let t_k = burst.time_at(k).as_fs() + burst.env_hi();
            let time = match rng.gen_range(0u32..5) {
                0 => t_k,
                1 => t_k.saturating_sub(1),
                2 => t_k + 1,
                3 => rng.gen_range(0u64..2_000_000),
                _ => u64::MAX,
            };
            let seq = match rng.gen_range(0u32..3) {
                0 => seq0 + k * stride,
                1 => rng.gen_range(0u64..seq0 + 1),
                _ => seq0 + rng.gen_range(0u64..1_000),
            };
            let next = Event {
                time: Time::from_fs(time),
                seq,
                kind: EventKind::Deliver { comp: 0, port: 0 },
            };
            let deadline = [Time::MAX, Time::from_fs(rng.gen_range(0u64..2_000_000))]
                [rng.gen_range(0usize..2)];
            let m = burst
                .count_latest_at_or_before(deadline)
                .min(rng.gen_range(1u64..400));
            assert_eq!(
                m.min(keys_before(&burst, seq0, stride, next)),
                search(&burst, seq0, stride, m, next),
                "{burst:?} seq0 {seq0} stride {stride} next ({time}, {seq}) m {m}"
            );
        });
    }

    /// A sanitized run is a pulse run. A long train through a
    /// hazard-free chain, which an unsanitized simulator absorbs in
    /// closed form, goes in as loose pulses once a sanitizer is
    /// configured: no closed-form step, no lazy split, and the
    /// fingerprint of the sanitized pulse-level run.
    #[test]
    fn a_sanitized_run_is_a_pulse_run() {
        use crate::stats::CoalesceStats;
        use crate::{Fingerprint, ShardedSimulator};
        let (c, input, p) = chain_fixture();
        let train = Burst::uniform(Time::ZERO, Time::from_ps(10.0), 1_000);
        let run = |burst: bool, sanitize: bool| {
            let cfg = SimConfig {
                burst,
                sanitizer: sanitize.then(SanitizerConfig::default),
                ..SimConfig::reference()
            };
            let mut sim = ShardedSimulator::with_config(c.clone(), &cfg);
            sim.schedule_burst(input, train).unwrap();
            let summary = sim.run().unwrap();
            let coalesce = sim.activity().coalesce;
            (Fingerprint::capture(&sim, summary, &[p]), coalesce)
        };
        let (_, unsanitized) = run(true, false);
        assert!(unsanitized.hits > 0, "{unsanitized:?}");
        let (sanitized, coalesce) = run(true, true);
        assert_eq!(coalesce, CoalesceStats::default());
        assert_eq!(sanitized, run(false, true).0);
    }

    /// A train queued before the sanitizer was enabled is still judged
    /// pulse by pulse: every prefix that could have been a closed-form
    /// step counts a sanitizer bail instead, and the run equals the
    /// sanitized pulse-level run, down to the violations of a pulse
    /// queued after the train that lands past the epoch end.
    #[test]
    fn a_train_queued_before_the_sanitizer_is_judged_pulse_by_pulse() {
        let train = Burst::uniform(Time::ZERO, Time::from_ps(10.0), 64);
        let sanitizer = SanitizerConfig {
            epoch_end: Some(Time::from_ps(1_000.0)),
            ..SanitizerConfig::default()
        };
        let run = |sim: &mut Simulator, input, p| {
            sim.schedule_input(input, Time::from_ps(2_000.0)).unwrap();
            let summary = sim.run().unwrap();
            let violations = sim.sanitizer_report().unwrap().violations.to_vec();
            let activity = sim.activity();
            (
                summary,
                sim.probe_times(p).to_vec(),
                activity.handled.clone(),
                activity.emitted.clone(),
                violations,
            )
        };
        let (c, input, p) = chain_fixture();
        let mut reference = Simulator::with_config(
            c,
            &SimConfig {
                sanitizer: Some(sanitizer.clone()),
                ..SimConfig::reference()
            },
        );
        reference.schedule_burst(input, train).unwrap();
        let want = run(&mut reference, input, p);
        assert_eq!(want.4.len(), 2, "the late pulse reaches both buffers");

        let (c, input, p) = chain_fixture();
        let mut late = sim_with(c, Sched::Heap, true);
        late.schedule_burst(input, train).unwrap();
        late.enable_sanitizer(sanitizer);
        assert_eq!(run(&mut late, input, p), want);
        let coalesce = late.activity().coalesce;
        assert_eq!((coalesce.hits, coalesce.pulses), (0, 0), "{coalesce:?}");
        assert!(coalesce.bail_sanitizer > 0, "{coalesce:?}");
    }

    /// The lookahead as it was computed before the condensation was
    /// shared: a private CSR table of the wires, in `Circuit::wires`
    /// order, and a Tarjan pass of its own.
    fn private_table_lookahead(circuit: &Circuit) -> Vec<Time> {
        let n = circuit.num_components();
        // Flat CSR adjacency with per-edge delays, in `Circuit::wires`
        // order — this runs once per topology on first burst delivery and
        // must not allocate per-component edge lists.
        let wires: Vec<(usize, usize, u64)> = circuit
            .wires()
            .map(|(src, _, dst, _, delay)| (src.index(), dst.index(), delay.as_fs()))
            .collect();
        let mut succ_start = vec![0usize; n + 1];
        for &(src, _, _) in &wires {
            succ_start[src + 1] += 1;
        }
        for v in 0..n {
            succ_start[v + 1] += succ_start[v];
        }
        let mut fill = succ_start.clone();
        let mut succ = vec![0usize; wires.len()];
        let mut delay = vec![0u64; wires.len()];
        for &(src, dst, fs) in &wires {
            succ[fill[src]] = dst;
            delay[fill[src]] = fs;
            fill[src] += 1;
        }
        let edges = |v: usize| {
            let range = succ_start[v]..succ_start[v + 1];
            succ[range.clone()]
                .iter()
                .copied()
                .zip(delay[range].iter().copied())
        };
        let sccs = crate::graph::sccs(n, |v| {
            succ[succ_start[v]..succ_start[v + 1]].iter().copied()
        });

        // Bound each component's shortest cycle. Single-node SCCs cycle
        // only via self-loop edges.
        let mut la = vec![Time::MAX; n];
        for (s, group) in sccs.iter().enumerate() {
            if group.len() == 1 {
                let v = group[0];
                let self_loop = edges(v).filter(|&(w, _)| w == v).map(|(_, d)| d).min();
                if let Some(d) = self_loop {
                    la[v] = Time::from_fs(d);
                }
                continue;
            }
            if group.len() <= EXACT_CYCLE_SCC_LIMIT {
                // Exact per-node shortest cycle by min-plus Floyd–Warshall
                // over the SCC's internal edges (self-loops included).
                let k_n = group.len();
                let mut pos = std::collections::HashMap::with_capacity(k_n);
                for (i, &v) in group.iter().enumerate() {
                    pos.insert(v, i);
                }
                const INF: u64 = u64::MAX;
                let mut dist = vec![INF; k_n * k_n];
                for (i, &v) in group.iter().enumerate() {
                    for (w, d) in edges(v) {
                        if let Some(&j) = pos.get(&w) {
                            let cell = &mut dist[i * k_n + j];
                            *cell = (*cell).min(d);
                        }
                    }
                }
                for mid in 0..k_n {
                    for i in 0..k_n {
                        let dim = dist[i * k_n + mid];
                        if dim == INF {
                            continue;
                        }
                        for j in 0..k_n {
                            let dmj = dist[mid * k_n + j];
                            if dmj == INF {
                                continue;
                            }
                            let cand = dim.saturating_add(dmj);
                            let cell = &mut dist[i * k_n + j];
                            if cand < *cell {
                                *cell = cand;
                            }
                        }
                    }
                }
                for (i, &v) in group.iter().enumerate() {
                    let d = dist[i * k_n + i];
                    la[v] = if d == INF {
                        Time::MAX
                    } else {
                        Time::from_fs(d)
                    };
                }
            } else {
                // Lower bound: the lightest edge inside the SCC.
                let min_edge = group
                    .iter()
                    .flat_map(|&v| edges(v))
                    .filter(|&(w, _)| sccs.scc_of[w] == s)
                    .map(|(_, d)| d)
                    .min()
                    .unwrap_or(u64::MAX);
                for &v in group {
                    la[v] = Time::from_fs(min_edge);
                }
            }
        }
        la
    }

    /// The lookahead read from the fan-out table and the shared
    /// condensation equals the private table's, on random graphs of
    /// one SCC above [`EXACT_CYCLE_SCC_LIMIT`] nodes (the lower-bound
    /// branch), one at or below it (the exact branch), an acyclic tail,
    /// self-loops and zero-delay wires. Sometimes a back wire merges
    /// the two rings into one SCC.
    #[test]
    fn lookahead_matches_the_private_table() {
        crate::check::for_all(64, |rng| {
            let big = rng.gen_range(EXACT_CYCLE_SCC_LIMIT + 1..EXACT_CYCLE_SCC_LIMIT + 40);
            let small = rng.gen_range(2..=EXACT_CYCLE_SCC_LIMIT);
            let n = big + small + rng.gen_range(0usize..10);
            let mut c = Circuit::new();
            let cells: Vec<_> = (0..n)
                .map(|i| c.add(Buffer::new(format!("b{i}"), Time::from_ps(1.0))))
                .collect();
            let wire = |c: &mut Circuit, rng: &mut SplitMix64, from: usize, to: usize| {
                let delay = match rng.gen_range(0u32..4) {
                    0 => Time::ZERO,
                    _ => Time::from_fs(rng.gen_range(1u64..50_000)),
                };
                c.connect(cells[from].output(0), cells[to].input(0), delay)
                    .unwrap();
            };
            for (lo, len) in [(0, big), (big, small)] {
                for i in 0..len {
                    wire(&mut c, rng, lo + i, lo + (i + 1) % len);
                }
                for _ in 0..len / 2 {
                    let (a, b) = (rng.gen_range(0..len), rng.gen_range(0..len));
                    wire(&mut c, rng, lo + a, lo + b);
                }
            }
            for _ in 0..n / 2 {
                // Forward only: big ring → small ring → tail.
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(a..n);
                wire(&mut c, rng, a, b);
            }
            for _ in 0..rng.gen_range(0usize..6) {
                let v = rng.gen_range(0..n);
                wire(&mut c, rng, v, v);
            }
            if rng.gen_bool(0.25) {
                let (from, to) = (rng.gen_range(big..big + small), rng.gen_range(0..big));
                wire(&mut c, rng, from, to);
            }
            assert_eq!(cycle_lookahead(&c), private_table_lookahead(&c));
        });
    }
}
