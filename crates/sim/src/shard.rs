//! Conservative parallel discrete-event sharding: one circuit spread
//! across cores with windowed (bounded-lag) synchronization.
//!
//! A [`ShardedSimulator`] partitions a [`Circuit`] into `N` disjoint
//! component sets, builds one sub-circuit — and one ordinary
//! [`Simulator`] — per shard, and runs the shards on scoped threads.
//! Synchronization is classic conservative PDES in its barrier-window
//! (bounded-lag) form:
//!
//! * Every wire whose endpoints land in different shards is a *cut*
//!   wire. The **lookahead** `L` is the minimum cut-wire delay: a pulse
//!   dispatched anywhere at time `t` cannot influence another shard
//!   before `t + L`.
//! * Each round, a coordinator computes the global minimum pending
//!   event time `T` and every shard runs independently through the
//!   window `[T, T + L)` — no event in that window can depend on a
//!   not-yet-delivered remote pulse, so no null messages are needed;
//!   the barrier at the window's end plays their role.
//! * Cross-shard traffic travels as *messages at the barrier*: each cut
//!   wire's source port carries a hidden egress probe (recording
//!   emission times exactly like a user probe), and its sink side is a
//!   hidden ingress input in the destination sub-circuit wired with the
//!   cut wire's own delay. New emission times are forwarded after every
//!   window and re-injected; maximal arithmetic runs are re-coalesced
//!   into a single [`Burst`] — a pulse-stream train crossing a shard
//!   boundary is one message, not `2^N` pulses.
//!
//! Zero-delay wires are never cut (the partitioner contracts
//! zero-delay-connected components into atomic groups), so `L` is
//! always positive and same-femtosecond causal chains stay inside one
//! shard.
//!
//! # Determinism contract
//!
//! Sharded execution is deterministic: the same circuit, stimulus, and
//! shard count produce byte-identical results on every run, at any
//! machine load. Against the sequential engine, the whole
//! [`Fingerprint`](crate::Fingerprint), jittered or not, is
//! byte-identical whenever same-femtosecond pulse collisions do not
//! straddle a shard boundary — the normal case, pinned across the
//! netlist catalogue and the generated fabrics by the engine
//! configuration cube ([`check_cube`](crate::check::check_cube)).
//! Only the queue metric [`ActivityReport::peak_pending`] differs (the
//! largest shard's). The event safety valve is enforced per shard
//! rather than globally.
//!
//! One shard (the default) bypasses all of this: the
//! [`ShardedSimulator`] then holds a single ordinary [`Simulator`] and
//! delegates every call with zero overhead.

use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use crate::burst::Burst;
use crate::circuit::{Circuit, CompHandle, InputId, ProbeId, ProbeSource};
use crate::config::SimConfig;
use crate::engine::{RunSummary, Simulator};
use crate::error::SimError;
use crate::sanitizer::merge_violations;
use crate::stats::ActivityReport;
use crate::time::Time;

/// Planner scratch: one egress record per cut net —
/// `(source component index, output port, [(dest shard, ingress input)])`.
type EgressRecord = (usize, usize, Vec<(u32, InputId)>);

/// One shard's sub-circuit and the jitter key of each of its wires
/// (see [`Simulator::key_jitter_by`]).
type SubCircuit = (Circuit, Arc<[u32]>);

/// One shard's inbox slot: pulse trains posted to an ingress input
/// during the current exchange window.
type Mailbox = Mutex<Vec<(InputId, Vec<Time>)>>;

/// Coalesce an ingress run back into a [`Burst`] only at or above this
/// length — shorter runs are cheaper as plain pulses.
const MIN_INGRESS_RUN: usize = 4;

/// One cut-wire source port: the hidden egress probe recording its
/// emission times, and every destination the port feeds across the
/// boundary.
#[derive(Debug)]
struct EgressPort {
    probe: ProbeId,
    /// `(destination shard, hidden ingress input in that shard)` per
    /// cut wire, in global cut order.
    sinks: Vec<(u32, InputId)>,
}

/// The partition: sub-circuits plus every table needed to route
/// stimulus in and merge results out.
struct Plan {
    shards: usize,
    lookahead: Time,
    /// Per shard, the original component ids it owns (ascending) —
    /// `owned[s][local]` is the original id of local component `local`.
    owned: Vec<Vec<u32>>,
    /// Original probe id → `(shard, local probe id)`.
    probe_map: Vec<(u32, ProbeId)>,
    /// Original input id → shards it must be forwarded to (those with
    /// at least one wired sink or an attached input probe).
    input_shards: Vec<Vec<u32>>,
    /// Per shard, its egress ports in deterministic creation order.
    egress: Vec<Vec<EgressPort>>,
    /// Number of cut wires (diagnostics).
    cut_wires: usize,
    num_inputs: usize,
    num_comps: usize,
}

struct Union {
    parent: Vec<u32>,
}

impl Union {
    fn new(n: usize) -> Self {
        Union {
            parent: (0..n as u32).collect(),
        }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let g = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = g;
            x = g;
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[rb as usize] = ra;
        }
    }
}

impl Plan {
    /// Partitions `circuit` into at most `want` shards, building the
    /// sub-circuits. Returns `None` when sharding is not applicable:
    /// `want <= 1`, fewer than two zero-delay-contracted groups, or a
    /// degenerate partition that leaves everything in one shard.
    fn build(circuit: &Circuit, want: usize) -> Option<(Plan, Vec<SubCircuit>)> {
        let n = circuit.num_components();
        if want <= 1 || n < 2 {
            return None;
        }

        // 1. Contract zero-delay-connected components: a zero-delay
        // wire propagates within the same femtosecond, so cutting it
        // would make the lookahead zero. Groups are atomic.
        let mut uf = Union::new(n);
        for (src, _, dst, _, delay) in circuit.wires() {
            if delay == Time::ZERO {
                uf.union(src.index() as u32, dst.index() as u32);
            }
        }
        // Number groups by first member (component-index order), so the
        // linear partition below keeps construction-order locality.
        let mut group_of = vec![u32::MAX; n];
        let mut group_id = vec![u32::MAX; n];
        let mut weight: Vec<usize> = Vec::new();
        for (c, g) in group_of.iter_mut().enumerate() {
            let root = uf.find(c as u32) as usize;
            if group_id[root] == u32::MAX {
                group_id[root] = weight.len() as u32;
                weight.push(0);
            }
            *g = group_id[root];
            weight[group_id[root] as usize] += 1;
        }
        let groups = weight.len();
        let s_want = want.min(groups);
        if s_want <= 1 {
            return None;
        }

        // 2. Linear partition over groups in first-member order:
        // balanced cumulative-weight boundaries. Generated fabrics and
        // hand-built netlists alike are laid out construction-major, so
        // index-contiguous shards cut few wires.
        let mut group_shard = vec![0u32; groups];
        let mut shard = 0u32;
        let mut acc = 0usize;
        for (g, &w) in weight.iter().enumerate() {
            group_shard[g] = shard;
            acc += w;
            while (shard as usize + 1) < s_want && acc * s_want >= n * (shard as usize + 1) {
                shard += 1;
            }
        }
        let mut comp_shard: Vec<u32> = (0..n).map(|c| group_shard[group_of[c] as usize]).collect();
        // Compress away shards a giant group may have swallowed.
        let mut remap = vec![u32::MAX; s_want];
        let mut used = 0u32;
        for &s in &comp_shard {
            if remap[s as usize] == u32::MAX {
                remap[s as usize] = used;
                used += 1;
            }
        }
        for s in &mut comp_shard {
            *s = remap[*s as usize];
        }
        let s_used = used as usize;
        if s_used <= 1 {
            return None;
        }

        // 3. Lookahead = minimum cut-wire delay.
        let mut lookahead = Time::MAX;
        let mut cut_wires = 0usize;
        for (src, _, dst, _, delay) in circuit.wires() {
            if comp_shard[src.index()] != comp_shard[dst.index()] {
                cut_wires += 1;
                lookahead = lookahead.min(delay);
            }
        }
        if cut_wires > 0 && lookahead == Time::ZERO {
            // Unreachable (zero-delay wires are contracted), but a zero
            // lookahead would deadlock the window protocol — refuse.
            return None;
        }

        // 4. Build the sub-circuits, sharing the source circuit's cell
        // models. External inputs are replicated in every shard under
        // their original indices (unwired copies are inert), so one
        // global `InputId` is valid everywhere.
        let mut subs: Vec<Circuit> = (0..s_used).map(|_| Circuit::new()).collect();
        for (_, name) in circuit.inputs() {
            for sub in &mut subs {
                sub.input(name);
            }
        }
        let mut owned: Vec<Vec<u32>> = vec![Vec::new(); s_used];
        let mut handles: Vec<CompHandle> = Vec::with_capacity(n);
        for (c, &shard) in comp_shard.iter().enumerate() {
            let s = shard as usize;
            handles.push(subs[s].add_shared(Arc::clone(&circuit.topo.models[c])));
            owned[s].push(c as u32);
        }

        // 5. Wires, preserving per-net order (it fixes fan-out seq
        // allocation). Cut wires become egress-probe / ingress-input
        // pairs; the wire delay rides on the ingress side.
        // `keys[s]` collects the source circuit's flat wire index
        // (input nets, then outputs) of shard `s`'s wires in its own
        // flat order: original inputs, ingress inputs, outputs.
        let mut egress_raw: Vec<Vec<EgressRecord>> = vec![Vec::new(); s_used];
        let mut egress_index: HashMap<(usize, usize), usize> = HashMap::new();
        let mut input_used: Vec<Vec<bool>> = vec![vec![false; s_used]; circuit.num_inputs()];
        let mut keys: Vec<[Vec<u32>; 3]> = vec![Default::default(); s_used];
        let input_wires = circuit.input_wires().count();
        let mut cut_k = 0usize;
        for (k, (src, sp, dst, dp, delay)) in circuit.wires().enumerate() {
            let key = (input_wires + k) as u32;
            let ss = comp_shard[src.index()] as usize;
            let ds = comp_shard[dst.index()] as usize;
            if ss == ds {
                subs[ss]
                    .connect(
                        handles[src.index()].output(sp),
                        handles[dst.index()].input(dp),
                        delay,
                    )
                    .expect("ports validated by the source circuit");
                keys[ss][2].push(key);
            } else {
                keys[ds][1].push(key);
                let ingress = subs[ds].input(format!("__xwire{cut_k}"));
                subs[ds]
                    .connect_input(ingress, handles[dst.index()].input(dp), delay)
                    .expect("ports validated by the source circuit");
                let slot = *egress_index.entry((src.index(), sp)).or_insert_with(|| {
                    egress_raw[ss].push((src.index(), sp, Vec::new()));
                    egress_raw[ss].len() - 1
                });
                egress_raw[ss][slot].2.push((ds as u32, ingress));
                cut_k += 1;
            }
        }
        for (k, (input, dst, dp, delay)) in circuit.input_wires().enumerate() {
            let ds = comp_shard[dst.index()] as usize;
            subs[ds]
                .connect_input(input, handles[dst.index()].input(dp), delay)
                .expect("ports validated by the source circuit");
            input_used[input.index()][ds] = true;
            keys[ds][0].push(k as u32);
        }

        // 6. Original probes, created in original probe-id order so the
        // per-shard local ids are deterministic. Input probes live in
        // the input's first sink shard (or shard 0 when unwired).
        let mut taps: Vec<Option<(String, ProbeSource)>> = vec![None; circuit.num_probes()];
        for (p, source) in circuit.probe_taps() {
            let name = circuit
                .probe_name(p)
                .expect("probe id from the circuit's own iterator")
                .to_string();
            taps[p.index()] = Some((name, source));
        }
        let mut probe_map: Vec<(u32, ProbeId)> = Vec::with_capacity(circuit.num_probes());
        for tap in taps {
            let (name, source) = tap.expect("every probe id has a tap");
            match source {
                ProbeSource::Output(c, port) => {
                    let s = comp_shard[c.index()] as usize;
                    let local = subs[s].probe(handles[c.index()].output(port), name);
                    probe_map.push((s as u32, local));
                }
                ProbeSource::Input(i) => {
                    let home = input_used[i.index()].iter().position(|&u| u).unwrap_or(0);
                    let local = subs[home].probe_input(i, name);
                    input_used[i.index()][home] = true;
                    probe_map.push((home as u32, local));
                }
            }
        }

        // 7. Egress probes (after user probes, so user probe ids stay
        // compact and stable).
        let egress: Vec<Vec<EgressPort>> = egress_raw
            .into_iter()
            .enumerate()
            .map(|(s, ports)| {
                ports
                    .into_iter()
                    .map(|(c, port, sinks)| EgressPort {
                        probe: subs[s]
                            .probe(handles[c].output(port), format!("__xport_{c}_{port}")),
                        sinks,
                    })
                    .collect()
            })
            .collect();

        let input_shards = input_used
            .into_iter()
            .map(|used| {
                used.iter()
                    .enumerate()
                    .filter(|&(_, &u)| u)
                    .map(|(s, _)| s as u32)
                    .collect()
            })
            .collect();

        let keys = keys.into_iter().map(|k| k.concat().into());
        Some((
            Plan {
                shards: s_used,
                lookahead,
                owned,
                probe_map,
                input_shards,
                egress,
                cut_wires,
                num_inputs: circuit.num_inputs(),
                num_comps: n,
            },
            subs.into_iter().zip(keys).collect(),
        ))
    }
}

/// Re-injects a window's worth of forwarded emission times on one
/// hidden ingress input, re-coalescing maximal arithmetic runs into
/// single [`Burst`] messages.
fn inject_times(sim: &mut Simulator, input: InputId, times: &[Time]) -> Result<(), SimError> {
    let n = times.len();
    let mut i = 0usize;
    while i < n {
        let mut j = i;
        let mut period = 0u64;
        if i + 1 < n && times[i + 1] > times[i] {
            period = times[i + 1].as_fs() - times[i].as_fs();
            j = i + 1;
            while j + 1 < n
                && times[j + 1] > times[j]
                && times[j + 1].as_fs() - times[j].as_fs() == period
            {
                j += 1;
            }
        }
        let count = j - i + 1;
        if count >= MIN_INGRESS_RUN {
            sim.schedule_burst(
                input,
                Burst::uniform(times[i], Time::from_fs(period), count as u64),
            )?;
            i = j + 1;
        } else {
            sim.schedule_input(input, times[i])?;
            i += 1;
        }
    }
    Ok(())
}

/// Shared coordination state of one parallel run.
struct RunShared<'a> {
    plan: &'a Plan,
    barrier: Barrier,
    /// Per shard: earliest pending event time in femtoseconds
    /// (`u64::MAX` = empty; real times clamp to `u64::MAX - 1`).
    heads: Vec<AtomicU64>,
    /// Window deadline in femtoseconds, published by shard 0.
    deadline: AtomicU64,
    /// Any shard failed (error or panic) — stop at the next window.
    failed: AtomicBool,
    /// All queues drained — the run is complete.
    done: AtomicBool,
    error: Mutex<Option<SimError>>,
    /// `mailboxes[dst][src]`: messages posted this window, drained by
    /// `dst` after the exchange barrier in ascending `src` order.
    mailboxes: Vec<Vec<Mailbox>>,
}

fn head_key(sim: &mut Simulator) -> u64 {
    match sim.next_event_time() {
        Some(t) => t.as_fs().min(u64::MAX - 1),
        None => u64::MAX,
    }
}

/// One shard's run loop. Returns the events it processed. On a model
/// panic the shard keeps participating in the barrier protocol (so
/// nobody deadlocks), then re-raises the panic once the run stops.
fn worker_loop(
    idx: usize,
    sim: &mut Simulator,
    offsets: &mut [usize],
    shared: &RunShared<'_>,
) -> u64 {
    let la_m1 = shared.plan.lookahead.as_fs().saturating_sub(1);
    let mut events = 0u64;
    let mut dead = false;
    let mut panic_payload = None;
    shared.heads[idx].store(head_key(sim), Ordering::SeqCst);
    shared.barrier.wait();
    loop {
        if idx == 0 {
            let min = shared
                .heads
                .iter()
                .map(|h| h.load(Ordering::SeqCst))
                .min()
                .expect("at least one shard");
            if shared.failed.load(Ordering::SeqCst) || min == u64::MAX {
                shared.done.store(true, Ordering::SeqCst);
            } else {
                shared
                    .deadline
                    .store(min.saturating_add(la_m1), Ordering::SeqCst);
            }
        }
        shared.barrier.wait();
        if shared.done.load(Ordering::SeqCst) {
            break;
        }
        let deadline = Time::from_fs(shared.deadline.load(Ordering::SeqCst));
        if !dead {
            let round = catch_unwind(AssertUnwindSafe(|| -> Result<u64, SimError> {
                let summary = sim.run_until(deadline)?;
                // Forward every egress port's new emission times.
                for (port, offset) in shared.plan.egress[idx].iter().zip(offsets.iter_mut()) {
                    let recorded = sim.flushed_probe_times(port.probe);
                    if recorded.len() == *offset {
                        continue;
                    }
                    let fresh = recorded[*offset..].to_vec();
                    *offset = recorded.len();
                    for &(dst, input) in &port.sinks {
                        shared.mailboxes[dst as usize][idx]
                            .lock()
                            .expect("mailbox lock")
                            .push((input, fresh.clone()));
                    }
                }
                Ok(summary.events)
            }));
            match round {
                Ok(Ok(n)) => events += n,
                Ok(Err(e)) => {
                    *shared.error.lock().expect("error lock") = Some(e);
                    shared.failed.store(true, Ordering::SeqCst);
                    dead = true;
                }
                Err(p) => {
                    panic_payload = Some(p);
                    shared.failed.store(true, Ordering::SeqCst);
                    dead = true;
                }
            }
        }
        shared.barrier.wait();
        if !dead {
            let injected = catch_unwind(AssertUnwindSafe(|| -> Result<(), SimError> {
                for src in 0..shared.plan.shards {
                    let batch =
                        std::mem::take(&mut *shared.mailboxes[idx][src].lock().expect("mailbox"));
                    for (input, times) in batch {
                        inject_times(sim, input, &times)?;
                    }
                }
                Ok(())
            }));
            match injected {
                Ok(Ok(())) => {}
                Ok(Err(e)) => {
                    *shared.error.lock().expect("error lock") = Some(e);
                    shared.failed.store(true, Ordering::SeqCst);
                    dead = true;
                }
                Err(p) => {
                    panic_payload = Some(p);
                    shared.failed.store(true, Ordering::SeqCst);
                    dead = true;
                }
            }
        }
        shared.heads[idx].store(
            if dead { u64::MAX } else { head_key(sim) },
            Ordering::SeqCst,
        );
        shared.barrier.wait();
    }
    if let Some(p) = panic_payload {
        resume_unwind(p);
    }
    events
}

/// The sharded front-end: an N-way parallel drop-in for the common
/// [`Simulator`] surface (schedule / run / probes / activity / reset).
///
/// Construct with [`ShardedSimulator::with_config`]. A shard count of 1
/// — or a circuit the partitioner cannot split, e.g. one zero-delay
/// component group — falls back to a single embedded [`Simulator`] with
/// zero per-call overhead. See the [module docs](self) for the
/// synchronization protocol and the determinism contract.
pub struct ShardedSimulator {
    inner: Inner,
}

enum Inner {
    Single(Box<Simulator>),
    Multi(Box<Multi>),
}

struct Multi {
    workers: Vec<Simulator>,
    plan: Plan,
    /// Per shard, per egress port: how many recorded emission times
    /// have already been forwarded.
    offsets: Vec<Vec<usize>>,
    merged: ActivityReport,
    end_time: Time,
    /// The sanitizer's cap on stored violations, kept by the merge too.
    violation_cap: usize,
}

impl ShardedSimulator {
    /// [`ShardedSimulator::with_config`] on the environment's
    /// configuration ([`SimConfig::from_env`]) with an explicit shard
    /// count.
    pub fn new(circuit: Circuit, shards: usize) -> Self {
        Self::with_config(
            circuit,
            &SimConfig {
                shards,
                ..SimConfig::from_env().clone()
            },
        )
    }

    /// Partitions `circuit` into at most [`SimConfig::shards`] shards,
    /// each worker a [`Simulator::with_config`] of its sub-circuit.
    /// Falls back to one embedded simulator when `shards <= 1` or the
    /// circuit cannot be split.
    ///
    /// Each worker keys its jitter draws by the source circuit's flat
    /// wire index, so a jittered sharded run draws exactly what the
    /// sequential run draws.
    pub fn with_config(circuit: Circuit, config: &SimConfig) -> Self {
        match Plan::build(&circuit, config.shards) {
            None => ShardedSimulator {
                inner: Inner::Single(Box::new(Simulator::with_config(circuit, config))),
            },
            Some((plan, subs)) => {
                let workers: Vec<Simulator> = subs
                    .into_iter()
                    .map(|(sub, keys)| {
                        let mut sim = Simulator::with_config(sub, config);
                        sim.key_jitter_by(keys);
                        sim
                    })
                    .collect();
                let offsets = plan.egress.iter().map(|e| vec![0usize; e.len()]).collect();
                let merged = ActivityReport::with_components(plan.num_comps);
                ShardedSimulator {
                    inner: Inner::Multi(Box::new(Multi {
                        workers,
                        plan,
                        offsets,
                        merged,
                        end_time: Time::ZERO,
                        violation_cap: config.sanitizer.as_ref().map_or(0, |s| s.violation_cap),
                    })),
                }
            }
        }
    }

    /// Number of shards actually running (1 = sequential fallback).
    pub fn num_shards(&self) -> usize {
        match &self.inner {
            Inner::Single(_) => 1,
            Inner::Multi(m) => m.plan.shards,
        }
    }

    /// The conservative lookahead: minimum cut-wire delay, or
    /// [`Time::MAX`] when no wire crosses a shard boundary (including
    /// the sequential fallback, which has no cuts at all).
    pub fn lookahead(&self) -> Time {
        match &self.inner {
            Inner::Single(_) => Time::MAX,
            Inner::Multi(m) => m.plan.lookahead,
        }
    }

    /// Number of wires crossing shard boundaries.
    pub fn cut_wires(&self) -> usize {
        match &self.inner {
            Inner::Single(_) => 0,
            Inner::Multi(m) => m.plan.cut_wires,
        }
    }

    /// Overrides the event safety valve. For a sharded run the limit is
    /// enforced *per shard* (each shard aborts when it alone exceeds
    /// the limit), a documented approximation of the sequential global
    /// check.
    pub fn set_event_limit(&mut self, limit: u64) {
        match &mut self.inner {
            Inner::Single(sim) => sim.set_event_limit(limit),
            Inner::Multi(m) => {
                for w in &mut m.workers {
                    w.set_event_limit(limit);
                }
            }
        }
    }

    /// Schedules a pulse on an external input at absolute time `t`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownId`] if `input` is foreign.
    pub fn schedule_input(&mut self, input: InputId, t: Time) -> Result<(), SimError> {
        match &mut self.inner {
            Inner::Single(sim) => sim.schedule_input(input, t),
            Inner::Multi(m) => {
                if input.index() >= m.plan.num_inputs {
                    return Err(SimError::UnknownId(format!("input {}", input.index())));
                }
                for &s in &m.plan.input_shards[input.index()] {
                    m.workers[s as usize].schedule_input(input, t)?;
                }
                Ok(())
            }
        }
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
    /// # Errors
    ///
    /// Returns [`SimError::UnknownId`] if `input` is foreign, and
    /// [`SimError::TimeOverflow`] if any pulse of the train overflows
    /// the femtosecond clock.
    pub fn schedule_burst(&mut self, input: InputId, burst: Burst) -> Result<(), SimError> {
        match &mut self.inner {
            Inner::Single(sim) => sim.schedule_burst(input, burst),
            Inner::Multi(m) => {
                if input.index() >= m.plan.num_inputs {
                    return Err(SimError::UnknownId(format!("input {}", input.index())));
                }
                for &s in &m.plan.input_shards[input.index()] {
                    m.workers[s as usize].schedule_burst(input, burst)?;
                }
                Ok(())
            }
        }
    }

    /// Runs until every shard's event queue is empty, synchronizing
    /// through conservative lookahead windows (see the
    /// [module docs](self)).
    ///
    /// # Errors
    ///
    /// Returns the first shard error (e.g.
    /// [`SimError::EventLimitExceeded`]); remaining shards stop at the
    /// next window barrier.
    pub fn run(&mut self) -> Result<RunSummary, SimError> {
        match &mut self.inner {
            Inner::Single(sim) => sim.run(),
            Inner::Multi(m) => m.run(),
        }
    }

    /// Pulse times recorded by a probe, in non-decreasing order.
    ///
    /// # Panics
    ///
    /// Panics if `probe` belongs to a different circuit.
    pub fn probe_times(&self, probe: ProbeId) -> &[Time] {
        let (sim, local) = self.probe_home(probe);
        sim.probe_times(local)
    }

    /// Number of pulses a probe recorded.
    ///
    /// # Panics
    ///
    /// Panics if `probe` belongs to a different circuit.
    pub fn probe_count(&self, probe: ProbeId) -> usize {
        let (sim, local) = self.probe_home(probe);
        sim.probe_count(local)
    }

    /// The simulator that records `probe`, and the probe's id there.
    fn probe_home(&self, probe: ProbeId) -> (&Simulator, ProbeId) {
        match &self.inner {
            Inner::Single(sim) => (sim, probe),
            Inner::Multi(m) => {
                let (s, local) = m.plan.probe_map[probe.index()];
                (&m.workers[s as usize], local)
            }
        }
    }

    /// Switching-activity report, indexed by original component id.
    /// For a sharded run this is the deterministic merge of every
    /// shard's local report (counters summed per component, anomaly
    /// tallies summed per kind, `peak_pending` the maximum across
    /// shards), refreshed by [`ShardedSimulator::run`].
    pub fn activity(&self) -> &ActivityReport {
        match &self.inner {
            Inner::Single(sim) => sim.activity(),
            Inner::Multi(m) => &m.merged,
        }
    }

    /// Rendered sanitizer violations in the order and under the cap of
    /// [`SanitizerReport::violations`](crate::SanitizerReport::violations),
    /// keyed by original component index, so every shard count gives
    /// the sequential list. Empty when the sanitizer is disabled.
    pub fn sanitizer_violations(&self) -> Vec<String> {
        match &self.inner {
            Inner::Single(sim) => sim
                .sanitizer_report()
                .map(|r| r.violations.iter().map(ToString::to_string).collect())
                .unwrap_or_default(),
            Inner::Multi(m) => {
                let shards = m
                    .workers
                    .iter()
                    .zip(&m.plan.owned)
                    .filter_map(|(w, owned)| {
                        Some((w.sanitizer_report()?.violations, owned.as_slice()))
                    });
                merge_violations(shards, m.violation_cap)
                    .into_iter()
                    .map(ToString::to_string)
                    .collect()
            }
        }
    }

    /// The simulation clock: time of the last processed event across
    /// all shards.
    pub fn now(&self) -> Time {
        match &self.inner {
            Inner::Single(sim) => sim.now(),
            Inner::Multi(m) => m.end_time,
        }
    }

    /// Events processed per shard over the simulator's lifetime — the
    /// load-balance diagnostic (`sum / max` bounds the achievable
    /// parallel speedup).
    pub fn shard_events(&self) -> Vec<u64> {
        match &self.inner {
            Inner::Single(sim) => vec![sim.events_processed()],
            Inner::Multi(m) => m.workers.iter().map(Simulator::events_processed).collect(),
        }
    }

    /// Returns every shard to power-on state (each shard's cell states
    /// copied back from its power-on states, probes and forwarding state
    /// cleared), keeping all allocations.
    pub fn reset(&mut self) {
        match &mut self.inner {
            Inner::Single(sim) => sim.reset(),
            Inner::Multi(m) => {
                for w in &mut m.workers {
                    w.reset();
                }
                for offsets in &mut m.offsets {
                    offsets.fill(0);
                }
                m.merged.reset();
                m.end_time = Time::ZERO;
            }
        }
    }
}

impl Multi {
    fn run(&mut self) -> Result<RunSummary, SimError> {
        let shards = self.plan.shards;
        let shared = RunShared {
            plan: &self.plan,
            barrier: Barrier::new(shards),
            heads: (0..shards).map(|_| AtomicU64::new(u64::MAX)).collect(),
            deadline: AtomicU64::new(0),
            failed: AtomicBool::new(false),
            done: AtomicBool::new(false),
            error: Mutex::new(None),
            mailboxes: (0..shards)
                .map(|_| (0..shards).map(|_| Mutex::new(Vec::new())).collect())
                .collect(),
        };
        let mut events = 0u64;
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .workers
                .iter_mut()
                .zip(self.offsets.iter_mut())
                .enumerate()
                .map(|(idx, (sim, offsets))| {
                    let shared = &shared;
                    scope.spawn(move || worker_loop(idx, sim, offsets, shared))
                })
                .collect();
            for h in handles {
                events += h.join().unwrap_or_else(|p| resume_unwind(p));
            }
        });
        let error = shared.error.into_inner().expect("error lock");
        self.end_time = self
            .workers
            .iter()
            .map(Simulator::now)
            .max()
            .unwrap_or(Time::ZERO);
        self.merge_activity();
        if let Some(e) = error {
            return Err(e);
        }
        Ok(RunSummary {
            events,
            end_time: self.end_time,
        })
    }

    /// Deterministic merge of per-shard activity into original
    /// component indices, in place over the previous merge.
    fn merge_activity(&mut self) {
        let merged = &mut self.merged;
        merged.reset();
        for (s, w) in self.workers.iter().enumerate() {
            let local = w.activity();
            for (li, &orig) in self.plan.owned[s].iter().enumerate() {
                merged.handled[orig as usize] = local.handled[li];
                merged.emitted[orig as usize] = local.emitted[li];
            }
            for (&kind, &count) in &local.anomalies {
                *merged.anomalies.entry(kind).or_insert(0) += count;
            }
            merged.peak_pending = merged.peak_pending.max(local.peak_pending);
            merged.coalesce.merge(&local.coalesce);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{Buffer, CellState, Component, Ctx, Hazard, StaticMeta};
    use crate::config::{Fingerprint, Jitter};
    use crate::sanitizer::SanitizerConfig;

    impl ShardedSimulator {
        /// The simulators running this circuit, one per shard.
        pub(crate) fn workers(&self) -> &[Simulator] {
            match &self.inner {
                Inner::Single(sim) => std::slice::from_ref(&**sim),
                Inner::Multi(m) => &m.workers,
            }
        }
    }

    /// The default engine configuration at `shards` shards, whatever
    /// the environment says.
    fn sharded(circuit: Circuit, shards: usize) -> ShardedSimulator {
        ShardedSimulator::with_config(
            circuit,
            &SimConfig {
                shards,
                ..SimConfig::default()
            },
        )
    }

    /// Two parallel buffer chains with a positive-delay crosslink: the
    /// canonical 2-shard partition target.
    fn two_chains() -> (Circuit, Vec<InputId>, Vec<ProbeId>) {
        two_chains_crossing(Time::from_ps(15.0))
    }

    /// [`two_chains`] whose crosslink, the only cut wire, has delay
    /// `cross`, which is then the lookahead.
    fn two_chains_crossing(cross: Time) -> (Circuit, Vec<InputId>, Vec<ProbeId>) {
        let mut c = Circuit::new();
        let in_a = c.input("a");
        let in_b = c.input("b");
        let chain = |c: &mut Circuit, input: InputId, tag: &str| {
            let mut prev = None;
            let mut cells = Vec::new();
            for k in 0..6 {
                let cell = c.add(Buffer::new(format!("{tag}{k}"), Time::from_ps(3.0)));
                match prev {
                    None => c
                        .connect_input(input, cell.input(0), Time::from_ps(1.0))
                        .unwrap(),
                    Some(p) => c.connect(p, cell.input(0), Time::from_ps(2.0)).unwrap(),
                }
                prev = Some(cell.output(0));
                cells.push(cell);
            }
            cells
        };
        let a = chain(&mut c, in_a, "a");
        let b = chain(&mut c, in_b, "b");
        // Crosslink: a2 also feeds b3 with a slow wire (the only cut).
        c.connect(a[2].output(0), b[3].input(0), cross).unwrap();
        let pa = c.probe(a[5].output(0), "enda");
        let pb = c.probe(b[5].output(0), "endb");
        (c, vec![in_a, in_b], vec![pa, pb])
    }

    fn drive(sim: &mut ShardedSimulator, inputs: &[InputId]) -> RunSummary {
        for (k, &input) in inputs.iter().enumerate() {
            for p in 0..5u64 {
                sim.schedule_input(input, Time::from_ps(7.0 * p as f64 + k as f64))
                    .unwrap();
            }
        }
        sim.run().unwrap()
    }

    #[test]
    fn sharded_matches_sequential_on_two_chains() {
        let (c, inputs, probes) = two_chains();
        let mut seq = sharded(c.clone(), 1);
        let mut par = sharded(c, 2);
        assert_eq!(seq.num_shards(), 1);
        assert_eq!(par.num_shards(), 2);
        assert_eq!(par.lookahead(), Time::from_ps(15.0));
        assert_eq!(par.cut_wires(), 1);
        let s1 = drive(&mut seq, &inputs);
        let s2 = drive(&mut par, &inputs);
        for &p in &probes {
            assert_eq!(seq.probe_times(p), par.probe_times(p), "probe {p:?}");
        }
        assert_eq!(seq.activity().handled, par.activity().handled);
        assert_eq!(seq.activity().emitted, par.activity().emitted);
        assert_eq!(s1.events, s2.events);
        assert_eq!(s1.end_time, s2.end_time);
        assert_eq!(seq.now(), par.now());
    }

    #[test]
    fn reset_allows_identical_reruns() {
        let (c, inputs, probes) = two_chains();
        let mut par = sharded(c, 2);
        drive(&mut par, &inputs);
        let first: Vec<Vec<Time>> = probes
            .iter()
            .map(|&p| par.probe_times(p).to_vec())
            .collect();
        par.reset();
        assert_eq!(par.probe_count(probes[0]), 0);
        drive(&mut par, &inputs);
        let second: Vec<Vec<Time>> = probes
            .iter()
            .map(|&p| par.probe_times(p).to_vec())
            .collect();
        assert_eq!(first, second);
    }

    #[test]
    fn zero_delay_mesh_falls_back_to_sequential() {
        // Every wire zero-delay: one contracted group, unsplittable.
        let mut c = Circuit::new();
        let input = c.input("x");
        let mut prev = None;
        for k in 0..8 {
            let cell = c.add(Buffer::new(format!("z{k}"), Time::from_ps(1.0)));
            match prev {
                None => c.connect_input(input, cell.input(0), Time::ZERO).unwrap(),
                Some(p) => c.connect(p, cell.input(0), Time::ZERO).unwrap(),
            }
            prev = Some(cell.output(0));
        }
        let sim = sharded(c, 4);
        assert_eq!(sim.num_shards(), 1);
        assert_eq!(sim.lookahead(), Time::MAX);
    }

    #[test]
    fn foreign_ids_are_rejected() {
        let (c, _, _) = two_chains();
        let mut sim = sharded(c, 2);
        assert!(sim.schedule_input(InputId(99), Time::ZERO).is_err());
        assert!(sim
            .schedule_burst(
                InputId(99),
                Burst::uniform(Time::ZERO, Time::from_ps(1.0), 4)
            )
            .is_err());
    }

    #[test]
    #[cfg_attr(miri, ignore = "64-pulse burst trains are too slow under miri")]
    fn burst_stimulus_crosses_boundaries() {
        let (c, inputs, probes) = two_chains();
        let mut seq = sharded(c.clone(), 1);
        let mut par = sharded(c, 2);
        for sim in [&mut seq, &mut par] {
            for &input in &inputs {
                sim.schedule_burst(input, Burst::uniform(Time::ZERO, Time::from_ps(9.0), 32))
                    .unwrap();
            }
            sim.run().unwrap();
        }
        for &p in &probes {
            assert_eq!(seq.probe_times(p), par.probe_times(p));
        }
    }

    /// A train that a shard records lazily at a cut wire's egress
    /// probe crosses the cut intact. The trains span several lookahead
    /// windows with several pulses in each, so the source shard absorbs
    /// them in closed form one window at a time and every window
    /// forwards the train recorded since the last. Exact and jittered
    /// trains alike must match the sequential pulse-level run.
    #[test]
    fn lazily_recorded_trains_cross_the_cut_window_by_window() {
        let (c, inputs, probes) = two_chains_crossing(Time::from_ps(100.0));
        let run = |shards: usize, burst: bool, jitter: Option<Jitter>| {
            let mut sim = ShardedSimulator::with_config(
                c.clone(),
                &SimConfig {
                    burst,
                    shards,
                    jitter,
                    ..SimConfig::reference()
                },
            );
            assert_eq!(sim.num_shards(), shards);
            for &input in &inputs {
                sim.schedule_burst(input, Burst::uniform(Time::ZERO, Time::from_ps(30.0), 12))
                    .unwrap();
            }
            sim.run().unwrap();
            let times: Vec<Vec<Time>> = probes
                .iter()
                .map(|&p| {
                    assert_eq!(sim.probe_count(p), sim.probe_times(p).len());
                    sim.probe_times(p).to_vec()
                })
                .collect();
            (times, sim.activity().coalesce.hits)
        };
        let (exact, hits) = run(2, true, None);
        assert!(hits > 0, "the chains must absorb trains in closed form");
        assert_eq!(exact, run(1, false, None).0);
        let jitter = Some(Jitter {
            sigma: Time::from_ps(1.0),
            seed: 9,
        });
        let (jittered, hits) = run(2, true, jitter);
        assert!(hits > 0, "jittered chains must absorb trains too");
        assert_eq!(jittered, run(1, false, jitter).0);
        assert_ne!(jittered, exact, "jitter must move the times");
    }

    /// Exact and jittered trains through [`two_chains`], whose
    /// crosslink is cut at 2 and 3 shards: every shard draws the
    /// sequential run's jitter, so each run equals the 1-shard run.
    #[test]
    #[cfg_attr(miri, ignore = "burst trains are too slow under miri")]
    fn jittered_trains_cross_a_cut_as_in_one_shard() {
        let (c, inputs, probes) = two_chains();
        for sigma_ps in [0.0, 1.0, 2.0] {
            let jitter = (sigma_ps > 0.0).then(|| Jitter {
                sigma: Time::from_ps(sigma_ps),
                seed: 3,
            });
            for burst in [false, true] {
                let run = |shards: usize| {
                    let mut sim = ShardedSimulator::with_config(
                        c.clone(),
                        &SimConfig {
                            burst,
                            shards,
                            jitter,
                            ..SimConfig::reference()
                        },
                    );
                    assert_eq!(sim.num_shards(), shards);
                    for (k, &input) in inputs.iter().enumerate() {
                        let start = Time::from_ps(k as f64);
                        sim.schedule_burst(input, Burst::uniform(start, Time::from_ps(20.0), 10))
                            .unwrap();
                    }
                    let summary = sim.run().unwrap();
                    Fingerprint::capture(&sim, summary, &probes)
                };
                let sequential = run(1);
                assert_eq!(sequential.probe_times[1].len(), 20);
                for shards in [2, 3] {
                    assert_eq!(
                        run(shards),
                        sequential,
                        "sigma {sigma_ps} ps, burst {burst}, {shards} shards"
                    );
                }
            }
        }
    }

    /// A cell that repeats every pulse after 1 ps and declares a 4 ps
    /// collision window, so the sanitizer flags pulses closer than that.
    struct Guard(String);
    impl Component for Guard {
        fn name(&self) -> &str {
            &self.0
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
        fn static_meta(&self) -> StaticMeta {
            StaticMeta::new("guard", Time::from_ps(1.0)).with_hazard(Hazard::Collision {
                window: Time::from_ps(4.0),
            })
        }
    }

    /// Guards `g0`..`g3`, each on its own input, with `g1` feeding `g2`
    /// over a 20 ps cut wire, under a sanitizer that keeps `cap`
    /// violations. Each input gets a two-pulse train that collides at
    /// its guard; `g1`'s train is scheduled before `g0`'s, so their
    /// collisions at 5 ps are detected in the opposite of component
    /// order. Returns the fingerprint of a run at `shards` shards.
    fn guarded_run(shards: usize, burst: bool, cap: usize) -> Fingerprint {
        let mut c = Circuit::new();
        let mut guards = Vec::new();
        let mut inputs = Vec::new();
        for k in 0..4 {
            let g = c.add(Guard(format!("g{k}")));
            let input = c.input(format!("in{k}"));
            c.connect_input(input, g.input(0), Time::from_ps(1.0))
                .unwrap();
            guards.push(g);
            inputs.push(input);
        }
        c.connect(guards[1].output(0), guards[2].input(0), Time::from_ps(20.0))
            .unwrap();
        let mut sim = ShardedSimulator::with_config(
            c,
            &SimConfig {
                burst,
                shards,
                sanitizer: Some(SanitizerConfig {
                    violation_cap: cap,
                    ..SanitizerConfig::default()
                }),
                ..SimConfig::reference()
            },
        );
        assert_eq!(sim.num_shards(), shards);
        // (guard, first pulse, period) in scheduling order.
        for (g, start, period) in [(2, 0.0, 2.0), (1, 1.0, 3.0), (0, 2.0, 2.0), (3, 4.0, 3.0)] {
            let train = Burst::uniform(Time::from_ps(start), Time::from_ps(period), 2);
            sim.schedule_burst(inputs[g], train).unwrap();
        }
        let summary = sim.run().unwrap();
        Fingerprint::capture(&sim, summary, &[])
    }

    /// Violations recorded in two and three shards merge into the
    /// sequential list: `(time, component, port)` order, which is
    /// neither their detection order nor the order of their strings.
    #[test]
    fn violations_merge_in_one_order_at_any_shard_count() {
        let collision = |g: usize, ps: f64| format!("collision at `g{g}` port 0 ({ps:.1} ps)");
        let want = [
            collision(2, 3.0),
            collision(0, 5.0),
            collision(1, 5.0),
            collision(3, 8.0),
            collision(2, 26.0),
        ];
        let mut strings = want.clone();
        strings.sort_unstable();
        assert_ne!(strings, want);
        for burst in [false, true] {
            let sequential = guarded_run(1, burst, 256);
            assert_eq!(sequential.violations, want, "burst {burst}");
            for shards in [2, 3] {
                assert_eq!(
                    guarded_run(shards, burst, 256),
                    sequential,
                    "burst {burst}, {shards} shards"
                );
            }
        }
    }

    /// A sharded run keeps the sequential run's first `violation_cap`
    /// violations, not each shard's: a cap that splits the equal-time
    /// pair keeps its lower component.
    #[test]
    fn a_sharded_run_keeps_the_first_violation_cap_violations() {
        for cap in [0, 2, 3] {
            for burst in [false, true] {
                let sequential = guarded_run(1, burst, cap);
                assert_eq!(sequential.violations.len(), cap);
                for shards in [2, 3] {
                    assert_eq!(
                        guarded_run(shards, burst, cap),
                        sequential,
                        "cap {cap}, burst {burst}, {shards} shards"
                    );
                }
            }
        }
        let kept = guarded_run(1, false, 2).violations;
        assert_eq!(kept[1], "collision at `g0` port 0 (5.0 ps)");
    }

    /// The merged activity report is updated in place: neither a run
    /// nor a reset reallocates it.
    #[test]
    fn merged_activity_keeps_its_allocation() {
        let (c, inputs, _) = two_chains();
        let mut par = sharded(c, 2);
        let ptr = par.activity().handled.as_ptr();
        drive(&mut par, &inputs);
        assert_eq!(par.activity().handled.as_ptr(), ptr);
        assert!(par.activity().total_handled() > 0);
        par.reset();
        assert_eq!(par.activity().handled.as_ptr(), ptr);
        assert_eq!(par.activity().total_handled(), 0);
        drive(&mut par, &inputs);
        assert_eq!(par.activity().handled.as_ptr(), ptr);
    }

    #[test]
    fn event_limit_trips_in_a_shard() {
        let (c, inputs, _) = two_chains();
        let mut par = sharded(c, 2);
        par.set_event_limit(3);
        for &input in &inputs {
            for p in 0..5u64 {
                par.schedule_input(input, Time::from_ps(7.0 * p as f64))
                    .unwrap();
            }
        }
        assert!(matches!(
            par.run(),
            Err(SimError::EventLimitExceeded { .. })
        ));
    }

    /// The `USFQ_SHARDS` grammar through a pure lookup, so the result
    /// never depends on the test's environment: a positive integer; 0,
    /// empty and garbage mean 1.
    #[test]
    fn shards_env_parsing() {
        use crate::config::SHARDS_ENV;
        let shards = |raw: &str| SimConfig::from_vars(&[(SHARDS_ENV, raw)]).shards;
        assert_eq!(SimConfig::from_vars(&[]).shards, 1, "unset means 1");
        assert_eq!(shards(" 4 "), 4);
        for raw in ["0", "", "two", "-2", "1.5"] {
            assert_eq!(shards(raw), 1, "{raw:?}");
        }
    }

    #[test]
    fn ingress_run_coalescing_matches_pulses() {
        // Mixed stream: an arithmetic run, a lone pulse, another run.
        let mut c = Circuit::new();
        let input = c.input("x");
        let b = c.add(Buffer::new("b", Time::from_ps(1.0)));
        c.connect_input(input, b.input(0), Time::ZERO).unwrap();
        let probe = c.probe(b.output(0), "p");
        let times: Vec<Time> = [10, 20, 30, 40, 55, 70, 72, 74, 76, 78]
            .iter()
            .map(|&f| Time::from_fs(f))
            .collect();
        let mut coalesced = Simulator::new(c.clone());
        inject_times(&mut coalesced, input, &times).unwrap();
        coalesced.run().unwrap();
        let mut plain = Simulator::new(c);
        plain.schedule_pulses(input, times.iter().copied()).unwrap();
        plain.run().unwrap();
        assert_eq!(coalesced.probe_times(probe), plain.probe_times(probe));
    }
}
