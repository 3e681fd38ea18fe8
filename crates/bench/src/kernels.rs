//! Reusable engine workloads for performance and differential testing.
//!
//! One definition of each kernel, shared by two consumers so they
//! can never drift apart:
//!
//! * the self-timed [`benchkernel`](../bin/benchkernel.rs) binary whose
//!   snapshots the CI perf-regression gate compares, and
//! * the engine configuration cube ([`usfq_sim::check::check_cube`]),
//!   whose suites (`tests/{sched,burst,shard}_differential.rs`,
//!   `tests/parallel_determinism.rs`) run every workload under every
//!   engine configuration.
//!
//! Every stimulus here is derived from an explicit seed via the
//! [`xorshift64`] step, so a workload is a pure function of
//! `(kernel, seed)` — never of wall clock or thread count.

use usfq_cells::interconnect::{Jtl, Merger, Splitter};
use usfq_cells::storage::Ndro;
use usfq_cells::toggle::Tff;
use usfq_core::netlists::{shipped_netlists, BuiltNetlist};
use usfq_sim::check::{assert_agree, Workload};
use usfq_sim::component::Buffer;
use usfq_sim::rng::{xorshift64, SplitMix64};
use usfq_sim::{
    Burst, Circuit, Fingerprint, InputId, Jitter, ProbeId, RunSummary, Runner, ShardedSimulator,
    SimConfig, Simulator, Time,
};

/// Fixed base seed for jittered kernels and differential trials, so a
/// jittered workload stays a pure function of `(kernel, seed, sigma)`
/// — never of wall clock or ambient RNG state.
pub const JITTER_SEED: u64 = 0x0005_EED5_EED5_EED5;

/// A chain of `stages` buffers fed from one input — the simplest
/// event-per-hop workload, N events per injected pulse.
pub fn delay_chain(stages: usize) -> (Circuit, InputId, ProbeId) {
    let mut circuit = Circuit::new();
    let input = circuit.input("in");
    let mut prev = None;
    for i in 0..stages {
        let buf = circuit.add(Buffer::new(format!("b{i}"), Time::from_ps(3.0)));
        match prev {
            None => circuit
                .connect_input(input, buf.input(0), Time::ZERO)
                .unwrap(),
            Some(p) => circuit.connect(p, buf.input(0), Time::ZERO).unwrap(),
        }
        prev = Some(buf.output(0));
    }
    let probe = circuit.probe(prev.unwrap(), "out");
    (circuit, input, probe)
}

/// Drives `pulses` spaced pulses through a [`delay_chain`] simulator
/// and asserts they all arrive.
pub fn drive_delay_chain(sim: &mut Simulator, input: InputId, probe: ProbeId, pulses: u64) {
    for k in 0..pulses {
        sim.schedule_input(input, Time::from_ps(20.0 * k as f64))
            .unwrap();
    }
    sim.run().unwrap();
    assert_eq!(sim.probe_count(probe), pulses as usize);
}

/// The pulse-stream showcase kernel: a `2^bits`-pulse coalesced train
/// through a JTL, a splitter whose B output is a probe-only monitor
/// tap, a TFF divide-by-four chain, and an always-set NDRO gate.
///
/// The pipeline is deliberately *linear*: the splitter's B branch ends
/// at a probe (recorded at fan-out, never queued), so at most one
/// train is ever in flight and every cell absorbs its whole train in
/// one closed-form step. The burst engine crosses the chain in `O(1)`
/// queue operations per cell where the pulse-level engine pays
/// `O(2^bits)`. (Trains racing on *parallel* branches interleave at
/// consumption boundaries instead — that regime is covered by the
/// burst differential suite, not this throughput kernel.)
pub fn burst_stream() -> (Circuit, InputId, ProbeId, ProbeId) {
    let mut c = Circuit::new();
    let input = c.input("stream");
    let jtl = c.add(Jtl::new("jtl"));
    let split = c.add(Splitter::new("split"));
    let t0 = c.add(Tff::new("t0"));
    let t1 = c.add(Tff::new("t1"));
    let gate = c.add(Ndro::new_set("gate"));
    c.connect_input(input, jtl.input(Jtl::IN), Time::ZERO)
        .unwrap();
    c.connect(jtl.output(Jtl::OUT), split.input(Splitter::IN), Time::ZERO)
        .unwrap();
    c.connect(split.output(Splitter::OUT_A), t0.input(Tff::IN), Time::ZERO)
        .unwrap();
    c.connect(t0.output(Tff::OUT), t1.input(Tff::IN), Time::ZERO)
        .unwrap();
    c.connect(t1.output(Tff::OUT), gate.input(Ndro::IN_CLK), Time::ZERO)
        .unwrap();
    let div = c.probe(gate.output(Ndro::OUT_Q), "div4");
    let tap = c.probe(split.output(Splitter::OUT_B), "tap");
    (c, input, div, tap)
}

/// Drives a `2^bits`-pulse uniform train through a [`burst_stream`]
/// simulator and asserts both the divided output and the full-rate
/// monitor tap saw the whole train.
pub fn drive_burst_stream(
    sim: &mut Simulator,
    input: InputId,
    div: ProbeId,
    tap: ProbeId,
    bits: u32,
) {
    let pulses = 1u64 << bits;
    sim.schedule_burst(
        input,
        Burst::uniform(Time::ZERO, Time::from_ps(10.0), pulses),
    )
    .unwrap();
    sim.run().unwrap();
    assert_eq!(sim.probe_count(div), (pulses / 4) as usize);
    assert_eq!(sim.probe_count(tap), pulses as usize);
}

/// Jitter std-dev of the jittered pulse-stream kernel: 2 ps, the
/// paper-scale figure the ablation sweep centres on.
pub const BURST_STREAM_JITTER_SIGMA_PS: f64 = 2.0;

/// The jittered twin of [`drive_burst_stream`]: the same `2^bits`
/// train at a 40 ps period, so even after five hops of envelope
/// accumulation (each wire widens the train by the ±√6·σ jitter
/// bound, ≈4.9 ps at σ = 2 ps) the worst-case envelope span stays
/// below every cell's minimum pulse gap and the whole chain coalesces
/// instead of falling back per-cell. The caller enables jitter
/// (`sim.enable_wire_jitter(..)`) before driving; pulse-level and
/// coalesced runs of the same simulator configuration are
/// byte-identical because jitter draws are keyed by
/// `(seed, wire, emission time)`, not by event order.
pub fn drive_burst_stream_jittered(
    sim: &mut Simulator,
    input: InputId,
    div: ProbeId,
    tap: ProbeId,
    bits: u32,
) {
    let pulses = 1u64 << bits;
    sim.schedule_burst(
        input,
        Burst::uniform(Time::ZERO, Time::from_ps(40.0), pulses),
    )
    .unwrap();
    sim.run().unwrap();
    assert_eq!(sim.probe_count(div), (pulses / 4) as usize);
    assert_eq!(sim.probe_count(tap), pulses as usize);
}

/// The counting-feedback kernel: a TFF halver inside a merger-closed
/// feedback loop — the smallest counting-network shape whose cycle
/// used to force the burst engine to peel every train back to pulses.
///
/// ```text
/// input ──► Merger.IN_A ──► TFF ──► Splitter ──► OUT_B ──► probe
///                ▲                      │
///                └──── 50 ns wire ◄──── OUT_A
/// ```
///
/// A `2^bits` train at a 10 ps period spans just under 41 ns, and the
/// only cycle through the netlist is the 50 ns feedback wire — so the
/// engine's per-component cycle lookahead proves each generation can
/// be consumed *atomically*: the whole train passes Merger → TFF →
/// Splitter in closed form, its halved successor returns 50 ns later,
/// and the run takes `O(log N)` queue operations where the pulse
/// engine pays `O(N)` per hop. Generation counts halve `N, N/2, …, 1`
/// (the TFF emits every second pulse and absorbs the final singleton),
/// so the probe records exactly `N − 1` pulses.
pub fn counting_feedback() -> (Circuit, InputId, ProbeId) {
    let mut c = Circuit::new();
    let input = c.input("count");
    // Ideal confluence buffer: zero collision window, so the merger
    // stays a pure count-based cell and the loop's semantics are
    // exactly the counting-network abstraction.
    let merge = c.add(Merger::with_window("confluence", Time::ZERO));
    let tff = c.add(Tff::new("halver"));
    let split = c.add(Splitter::new("loop"));
    c.connect_input(input, merge.input(Merger::IN_A), Time::ZERO)
        .unwrap();
    c.connect(merge.output(Merger::OUT), tff.input(Tff::IN), Time::ZERO)
        .unwrap();
    c.connect(tff.output(Tff::OUT), split.input(Splitter::IN), Time::ZERO)
        .unwrap();
    c.connect(
        split.output(Splitter::OUT_A),
        merge.input(Merger::IN_B),
        Time::from_ns(50.0),
    )
    .unwrap();
    let probe = c.probe(split.output(Splitter::OUT_B), "count_down");
    (c, input, probe)
}

/// Drives a `2^bits` train through a [`counting_feedback`] simulator
/// and asserts the probe saw the full count-down (`2^bits − 1`
/// pulses).
pub fn drive_counting_feedback(sim: &mut Simulator, input: InputId, probe: ProbeId, bits: u32) {
    let pulses = 1u64 << bits;
    sim.schedule_burst(
        input,
        Burst::uniform(Time::ZERO, Time::from_ps(10.0), pulses),
    )
    .unwrap();
    sim.run().unwrap();
    assert_eq!(sim.probe_count(probe), (pulses - 1) as usize);
}

/// A parametric fabric-scale netlist (10⁴–10⁶ cells) for the shard
/// scaling benchmarks: `width` buffer chains of `depth` stages, where
/// chain `c` forwards a copy of its stream into chain `c + 1` through
/// one crosslink wire per chain (fan-out at the source buffer, fan-in
/// at the destination buffer — the engine's multi-driver nets stand in
/// for explicit splitter/merger cells so every delay in the fabric is
/// chosen here, not by the cell catalogue).
///
/// Two properties make this the shard workload:
///
/// * **Chain-major component order.** All of chain `c`'s buffers are
///   contiguous, so the shard partitioner's linear cut assigns whole
///   chains to shards and every cut wire is a crosslink.
/// * **Parity-disjoint delays.** In-chain wire and buffer delays are
///   even femtosecond counts and stimulus trains use even starts and
///   periods, while every crosslink delay is odd — a pulse that
///   crossed one shard boundary can never collide to the femtosecond
///   with a chain-local pulse, keeping the workload clear of the
///   shard tie divergence class (DESIGN.md). Crosslink depths descend
///   as `c` grows (wrapping every 8 chains), so a forwarded copy
///   almost never re-crosses and the event count stays linear in
///   `width × depth` instead of exploding combinatorially.
pub struct Fabric {
    /// The generated netlist.
    pub circuit: Circuit,
    /// One external input per chain, in chain order.
    pub inputs: Vec<InputId>,
    /// One probe on each chain's final buffer, in chain order.
    pub probes: Vec<ProbeId>,
}

/// Builds a [`Fabric`] of `width` chains × `depth` buffers with
/// seed-derived delays. `width × depth` is the exact cell count.
pub fn fabric(width: usize, depth: usize, seed: u64) -> Fabric {
    assert!(width >= 1 && depth >= 2, "fabric needs at least 1×2 cells");
    let mut rng = seed
        .wrapping_mul(0xD130_2B97_9AF0_16AD)
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        | 1;
    // Crosslink junction depth per chain: descending within each
    // 8-chain cycle so forwarded copies land past the next chain's
    // junction (see type docs).
    let cycle = 8usize;
    let stride = (depth / (cycle + 1)).max(1);
    let junction = |c: usize| (stride * (cycle - (c % cycle))).min(depth - 2);

    let mut circuit = Circuit::new();
    let mut inputs = Vec::with_capacity(width);
    let mut probes = Vec::with_capacity(width);
    // (source chain, source buffer output, destination depth) of each
    // pending crosslink; wired once the destination chain exists.
    let mut pending_links = Vec::new();
    let mut chain_inputs: Vec<Vec<usfq_sim::SinkRef>> = Vec::new();

    for c in 0..width {
        let input = circuit.input(format!("drive{c}"));
        inputs.push(input);
        let mut stage_inputs = Vec::with_capacity(depth);
        let mut prev = None;
        for d in 0..depth {
            let delay = Time::from_fs(1_000 + 2 * (xorshift64(&mut rng) % 1_500));
            let buf = circuit.add(Buffer::new(format!("f{c}_{d}"), delay));
            stage_inputs.push(buf.input(0));
            let wire = Time::from_fs(200 + 2 * (xorshift64(&mut rng) % 900));
            match prev {
                None => circuit.connect_input(input, buf.input(0), wire).unwrap(),
                Some(p) => circuit.connect(p, buf.input(0), wire).unwrap(),
            }
            if c + 1 < width && d == junction(c) {
                pending_links.push((c, buf.output(0), d + 1));
            }
            prev = Some(buf.output(0));
        }
        probes.push(circuit.probe(prev.unwrap(), format!("end{c}")));
        chain_inputs.push(stage_inputs);
    }
    for (c, from, dst_depth) in pending_links {
        // Odd delay around 17 ps, unique per junction: the minimum
        // over these is the conservative lookahead window.
        let delay = Time::from_fs(17_001 + 2 * (xorshift64(&mut rng) % 1_000));
        circuit
            .connect(from, chain_inputs[c + 1][dst_depth], delay)
            .unwrap();
    }
    Fabric {
        circuit,
        inputs,
        probes,
    }
}

/// Seed-derived uniform-train stimulus for a [`Fabric`]: one train per
/// chain input, with even-femtosecond starts and periods so stimulus
/// parity stays disjoint from crosslink parity.
pub fn fabric_stimulus(fabric: &Fabric, count: u64, seed: u64) -> Vec<(InputId, Burst)> {
    let mut rng = seed
        .wrapping_mul(0xA24B_AED4_963E_E407)
        .wrapping_add(0x5851_F42D_4C95_7F2D)
        | 1;
    fabric
        .inputs
        .iter()
        .map(|&input| {
            let start = Time::from_fs(2 * (xorshift64(&mut rng) % 5_000));
            let period = Time::from_fs(2_000 + 2 * (xorshift64(&mut rng) % 2_000));
            (input, Burst::uniform(start, period, count))
        })
        .collect()
}

/// A `width × depth` [`fabric`] of seed `seed` driven by `count`-pulse
/// [`fabric_stimulus`] trains of seed `stimulus_seed`, as a
/// configuration-cube workload.
pub fn fabric_workload(
    width: usize,
    depth: usize,
    seed: u64,
    count: u64,
    stimulus_seed: u64,
) -> Workload<'static> {
    let fab = fabric(width, depth, seed);
    let stimulus = fabric_stimulus(&fab, count, stimulus_seed);
    Workload::new(format!("fabric {width}x{depth} seed {seed}"), move |cfg| {
        run_trains(fab.circuit.clone(), &stimulus, &fab.probes, cfg).0
    })
}

/// The randomized catalogue stimulus of the differential sweep: for
/// each external input, a seed-derived pulse count (up to the epoch's
/// `n_max`, capped at 8) at seed-derived offsets inside the netlist's
/// declared input window.
pub fn catalogue_stimulus(netlist: &BuiltNetlist, seed: u64) -> Vec<(InputId, Time)> {
    let mut rng = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(0x0123_4567_89AB_CDEF)
        | 1;
    let max_pulses = netlist.epoch.n_max().min(8);
    let window_ps = netlist.input_window.as_ps();
    let mut stimulus = Vec::new();
    for (input, _) in netlist.circuit.inputs() {
        let pulses = xorshift64(&mut rng) % (max_pulses + 1);
        for _ in 0..pulses {
            let frac = (xorshift64(&mut rng) % 10_000) as f64 / 10_000.0;
            stimulus.push((input, Time::from_ps(window_ps * frac)));
        }
    }
    stimulus
}

/// The coalesced-train counterpart of [`catalogue_stimulus`]: one
/// seed-derived *uniform* train per external input (count up to the
/// epoch's `n_max`, capped at 8; start and period inside the input
/// window), so every input is a closed-form burst rather than loose
/// pulses.
pub fn catalogue_burst_stimulus(netlist: &BuiltNetlist, seed: u64) -> Vec<(InputId, Burst)> {
    let mut rng = seed
        .wrapping_mul(0xA076_1D64_78BD_642F)
        .wrapping_add(0xE703_7ED1_A0B4_28DB)
        | 1;
    let max_pulses = netlist.epoch.n_max().min(8);
    let window_fs = netlist.input_window.as_fs().max(1);
    let mut stimulus = Vec::new();
    for (input, _) in netlist.circuit.inputs() {
        let count = xorshift64(&mut rng) % (max_pulses + 1);
        if count == 0 {
            continue;
        }
        let start = Time::from_fs(xorshift64(&mut rng) % window_fs);
        let period = Time::from_fs(1 + xorshift64(&mut rng) % (window_fs / count + 1));
        stimulus.push((input, Burst::uniform(start, period, count)));
    }
    stimulus
}

/// Which seeded catalogue stimulus a trial drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StimulusKind {
    /// Loose pulses ([`catalogue_stimulus`]).
    Pulses,
    /// One uniform train per input ([`catalogue_burst_stimulus`]).
    Trains,
}

/// Schedules the seeded stimulus of `kind` on a simulator of `netlist`
/// and runs it.
pub fn drive_catalogue(
    sim: &mut ShardedSimulator,
    netlist: &BuiltNetlist,
    kind: StimulusKind,
    seed: u64,
) -> RunSummary {
    match kind {
        StimulusKind::Pulses => {
            for (input, at) in catalogue_stimulus(netlist, seed) {
                sim.schedule_input(input, at).expect("catalogue input");
            }
        }
        StimulusKind::Trains => {
            for (input, burst) in catalogue_burst_stimulus(netlist, seed) {
                sim.schedule_burst(input, burst).expect("catalogue input");
            }
        }
    }
    sim.run().expect("catalogue netlist simulates")
}

/// Every probe of `netlist`, in index order.
pub fn catalogue_probes(netlist: &BuiltNetlist) -> Vec<ProbeId> {
    let mut probes: Vec<ProbeId> = netlist.circuit.probe_taps().map(|(id, _)| id).collect();
    probes.sort_by_key(|p| p.index());
    probes
}

/// The configuration a catalogue trial of stimulus `seed` runs under:
/// `cfg` with its jitter seed mixed with the stimulus seed, so every
/// stimulus seed draws its own jitter stream.
pub fn catalogue_config(cfg: &SimConfig, seed: u64) -> SimConfig {
    SimConfig {
        jitter: cfg.jitter.map(|j| Jitter {
            seed: j.seed ^ seed,
            ..j
        }),
        ..cfg.clone()
    }
}

/// Runs one seeded trial of a catalogue netlist under
/// [`catalogue_config`]`(cfg, seed)` and returns its fingerprint,
/// probes in index order.
pub fn catalogue_trial(
    netlist: &BuiltNetlist,
    kind: StimulusKind,
    cfg: &SimConfig,
    seed: u64,
) -> Fingerprint {
    let cfg = catalogue_config(cfg, seed);
    let mut sim = ShardedSimulator::with_config(netlist.circuit.clone(), &cfg);
    let summary = drive_catalogue(&mut sim, netlist, kind, seed);
    Fingerprint::capture(&sim, summary, &catalogue_probes(netlist))
}

/// Seeded trials of every netlist of `catalogue` as configuration-cube
/// workloads, one per `(netlist, stimulus kind, seed)`.
pub fn catalogue_workloads<'a>(
    catalogue: &'a [BuiltNetlist],
    kinds: &[StimulusKind],
    seeds: std::ops::Range<u64>,
) -> Vec<Workload<'a>> {
    let mut workloads = Vec::new();
    for netlist in catalogue {
        for &kind in kinds {
            for seed in seeds.clone() {
                workloads.push(Workload::new(
                    format!("`{}` {kind:?} seed {seed}", netlist.name),
                    move |cfg| catalogue_trial(netlist, kind, cfg, seed),
                ));
            }
        }
    }
    workloads
}

/// A seeded trial of a random netlist of `catalogue`, with a random
/// stimulus kind and seed, as a configuration-cube workload.
pub fn random_catalogue_workload<'a>(
    rng: &mut SplitMix64,
    catalogue: &'a [BuiltNetlist],
) -> Workload<'a> {
    let netlist = &catalogue[rng.gen_range(0..catalogue.len())];
    let kind = if rng.gen_bool(0.5) {
        StimulusKind::Trains
    } else {
        StimulusKind::Pulses
    };
    let seed = rng.gen_range(0u64..1_000_000);
    Workload::new(
        format!("`{}` {kind:?} seed {seed}", netlist.name),
        move |cfg| catalogue_trial(netlist, kind, cfg, seed),
    )
}

/// Asserts that seeded `kind` trials of every shipped netlist, fanned
/// out under `cell` over a 4-thread runner with one catalogue per
/// worker, agree with the sequential loop under `reference`.
pub fn assert_parallel_catalogue_sweep(
    kind: StimulusKind,
    reference: &SimConfig,
    cell: &SimConfig,
) {
    let catalogue = shipped_netlists();
    let jobs: Vec<(usize, u64)> = (0..catalogue.len())
        .flat_map(|n| (0..3u64).map(move |seed| (n, seed)))
        .collect();
    let parallel =
        Runner::with_threads(4).map_init(&jobs, shipped_netlists, |catalogue, _, &(n, seed)| {
            catalogue_trial(&catalogue[n], kind, cell, seed)
        });
    for (&(n, seed), subject) in jobs.iter().zip(&parallel) {
        let expected = catalogue_trial(&catalogue[n], kind, reference, seed);
        let what = format!("`{}` seed {seed}", catalogue[n].name);
        assert_agree(&what, &expected, reference, subject, cell);
    }
}

/// Runs `trains` through `circuit` under `cfg` and returns the
/// fingerprint of `probes` with the finished simulator.
pub fn run_trains(
    circuit: Circuit,
    trains: &[(InputId, Burst)],
    probes: &[ProbeId],
    cfg: &SimConfig,
) -> (Fingerprint, ShardedSimulator) {
    let mut sim = ShardedSimulator::with_config(circuit, cfg);
    for &(input, train) in trains {
        sim.schedule_burst(input, train)
            .expect("input of this circuit");
    }
    let summary = sim.run().expect("trains simulate");
    (Fingerprint::capture(&sim, summary, probes), sim)
}

/// Wire jitter of std-dev `ps` picoseconds on [`JITTER_SEED`].
pub fn jitter_ps(ps: f64) -> Jitter {
    Jitter {
        sigma: Time::from_ps(ps),
        seed: JITTER_SEED,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usfq_sim::{SanitizerConfig, Sched};

    /// A reference-configured simulator with burst delivery on or off.
    fn burst_sim(circuit: Circuit, burst: bool) -> Simulator {
        Simulator::with_config(
            circuit,
            &SimConfig {
                burst,
                ..SimConfig::reference()
            },
        )
    }

    #[test]
    fn delay_chain_shape() {
        let (c, _, _) = delay_chain(16);
        assert_eq!(c.num_components(), 16);
        assert_eq!(c.num_wires(), 16);
    }

    #[test]
    fn stimulus_is_a_pure_function_of_the_seed() {
        let netlist = &shipped_netlists()[0];
        assert_eq!(
            catalogue_stimulus(netlist, 3),
            catalogue_stimulus(netlist, 3)
        );
        // Different seeds almost surely differ (fixed netlist, so this
        // is a deterministic assertion, not a flaky one).
        assert_ne!(
            catalogue_stimulus(netlist, 3),
            catalogue_stimulus(netlist, 4)
        );
    }

    #[test]
    fn fingerprints_match_across_schedulers_smoke() {
        let netlist = &shipped_netlists()[0];
        let cfg = |sched| SimConfig {
            sched,
            sanitizer: Some(SanitizerConfig::default()),
            ..SimConfig::reference()
        };
        assert_eq!(
            catalogue_trial(netlist, StimulusKind::Pulses, &cfg(Sched::Heap), 1),
            catalogue_trial(netlist, StimulusKind::Pulses, &cfg(Sched::Wheel), 1)
        );
    }

    #[test]
    fn burst_stream_kernel_counts() {
        let (c, input, div, tap) = burst_stream();
        let mut sim = burst_sim(c, true);
        drive_burst_stream(&mut sim, input, div, tap, 6);
        let (c, input, div, tap) = burst_stream();
        let mut slow = burst_sim(c, false);
        drive_burst_stream(&mut slow, input, div, tap, 6);
        assert_eq!(sim.probe_times(div), slow.probe_times(div));
        assert_eq!(sim.probe_times(tap), slow.probe_times(tap));
    }

    #[test]
    fn jittered_burst_stream_coalesces_and_matches_pulse() {
        let sigma = Time::from_ps(BURST_STREAM_JITTER_SIGMA_PS);
        let (c, input, div, tap) = burst_stream();
        let mut sim = burst_sim(c, true);
        sim.enable_wire_jitter(sigma, JITTER_SEED);
        drive_burst_stream_jittered(&mut sim, input, div, tap, 6);
        let (c, input, div, tap) = burst_stream();
        let mut slow = burst_sim(c, false);
        slow.enable_wire_jitter(sigma, JITTER_SEED);
        drive_burst_stream_jittered(&mut slow, input, div, tap, 6);
        assert_eq!(sim.probe_times(div), slow.probe_times(div));
        assert_eq!(sim.probe_times(tap), slow.probe_times(tap));
        // The 40 ps period clears every envelope, so the coalesced run
        // really stays coalesced rather than silently falling back.
        let coalesce = sim.activity().coalesce;
        assert!(coalesce.hits > 0, "{coalesce:?}");
        assert_eq!(coalesce.bail_jitter, 0, "{coalesce:?}");
    }

    #[test]
    fn counting_feedback_burst_equals_pulse_in_log_steps() {
        let (c, input, probe) = counting_feedback();
        let mut sim = burst_sim(c, true);
        drive_counting_feedback(&mut sim, input, probe, 8);
        let (c, input, probe) = counting_feedback();
        let mut slow = burst_sim(c, false);
        drive_counting_feedback(&mut slow, input, probe, 8);
        assert_eq!(sim.probe_times(probe), slow.probe_times(probe));
        // The cycle lookahead must consume each halved generation
        // atomically: a handful of coalesce hits, no feedback bails.
        let coalesce = sim.activity().coalesce;
        assert!(coalesce.hits > 0, "{coalesce:?}");
        assert_eq!(coalesce.bail_feedback, 0, "{coalesce:?}");
    }

    /// Unsanitized, so the jittered trains coalesce: a sanitized run
    /// is a pulse run.
    #[test]
    fn jittered_catalogue_trial_is_deterministic() {
        let netlist = &shipped_netlists()[0];
        let cfg = SimConfig {
            sched: Sched::Wheel,
            burst: true,
            jitter: Some(jitter_ps(2.0)),
            ..SimConfig::reference()
        };
        let a = catalogue_trial(netlist, StimulusKind::Trains, &cfg, 1);
        let b = catalogue_trial(netlist, StimulusKind::Trains, &cfg, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn fabric_shape_and_determinism() {
        let f = fabric(4, 24, 7);
        assert_eq!(f.circuit.num_components(), 4 * 24);
        assert_eq!(f.inputs.len(), 4);
        assert_eq!(f.probes.len(), 4);
        // Chain wires + input wires + one crosslink per non-final
        // chain.
        assert_eq!(f.circuit.num_wires(), 4 * 24 + (4 - 1));
        let again = fabric(4, 24, 7);
        assert_eq!(f.circuit.num_wires(), again.circuit.num_wires());
        assert_eq!(fabric_stimulus(&f, 8, 3), fabric_stimulus(&again, 8, 3));
        assert_ne!(fabric_stimulus(&f, 8, 3), fabric_stimulus(&f, 8, 4));
    }

    #[test]
    fn small_fabric_shards_match_sequential() {
        let f = fabric(6, 30, 11);
        let stimulus = fabric_stimulus(&f, 8, 1);
        let seq_cfg = SimConfig::default();
        let (seq, _) = run_trains(f.circuit.clone(), &stimulus, &f.probes, &seq_cfg);
        for shards in [2, 3] {
            let cfg = SimConfig {
                shards,
                ..SimConfig::default()
            };
            let (sharded, _) = run_trains(f.circuit.clone(), &stimulus, &f.probes, &cfg);
            assert_agree(&format!("{shards} shards"), &seq, &seq_cfg, &sharded, &cfg);
        }
    }

    #[test]
    fn burst_stimulus_is_a_pure_function_of_the_seed() {
        let netlist = &shipped_netlists()[0];
        assert_eq!(
            catalogue_burst_stimulus(netlist, 5),
            catalogue_burst_stimulus(netlist, 5)
        );
        assert_ne!(
            catalogue_burst_stimulus(netlist, 5),
            catalogue_burst_stimulus(netlist, 6)
        );
    }
}
