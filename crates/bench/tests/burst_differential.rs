//! The `burst == pulse` slice of the engine configuration cube
//! ([`usfq_sim::check`]): coalesced delivery must reproduce the
//! pulse-level reference exactly — probe times, activity, event count,
//! end time and violations.
//!
//! The catalogue cubes check every cell on a 4-thread runner against
//! references on the test thread. The directed tests after them pin
//! what a cube cannot: the one pinned divergence, both sides of the
//! jitter-envelope boundary, trains straddling a shard cut, and random
//! cell chains.

use usfq_bench::kernels::{
    assert_parallel_catalogue_sweep, burst_stream, catalogue_workloads, jitter_ps, run_trains,
    StimulusKind, JITTER_SEED,
};
use usfq_cells::interconnect::{Jtl, Merger, Splitter};
use usfq_cells::storage::{Dff, Ndro};
use usfq_cells::toggle::Tff;
use usfq_core::netlists::shipped_netlists;
use usfq_sim::check::{assert_agree, check_cube, cube, for_all, Workload};
use usfq_sim::component::Buffer;
use usfq_sim::{Burst, Circuit, InputId, Jitter, ProbeId, SanitizerConfig, Sched, SimConfig, Time};

/// The reference configuration with burst delivery `on` or off.
fn delivery(on: bool) -> SimConfig {
    SimConfig {
        burst: on,
        ..SimConfig::reference()
    }
}

/// Loose pulses and uniform trains through every shipped netlist, at
/// one shard: every burst-on cell of the cube (heap and wheel,
/// sanitizer off and on) against the pulse-level reference.
#[test]
fn full_catalogue_burst_equals_pulse() {
    let catalogue = shipped_netlists();
    let kinds = [StimulusKind::Pulses, StimulusKind::Trains];
    let cells: Vec<SimConfig> = cube(&[1], &[None])
        .into_iter()
        .filter(|c| c.burst)
        .collect();
    check_cube(&catalogue_workloads(&catalogue, &kinds, 0..4), &cells);
}

/// Uniform trains through every shipped netlist under 2 ps and 4 ps
/// wire jitter, at 1 and 2 shards: wide enough that some envelopes
/// clear their windows and coalesce while others fall back per cell.
/// Every cell compares with the sequential pulse-level run at the same
/// jitter; each stimulus seed draws its own jitter stream.
#[test]
fn jittered_catalogue_burst_equals_pulse_across_shards() {
    let catalogue = shipped_netlists();
    check_cube(
        &catalogue_workloads(&catalogue, &[StimulusKind::Trains], 0..2),
        &cube(&[1, 2], &[Some(jitter_ps(2.0)), Some(jitter_ps(4.0))]),
    );
}

/// A coalesced, wheel-scheduled sweep fanned out over a 4-thread
/// runner with per-thread catalogues equals the pulse-level,
/// heap-scheduled, sanitized sequential loop, violations aside. The
/// sweep runs unsanitized: a sanitized run is a pulse run, and this
/// one must coalesce.
#[test]
fn parallel_burst_sweep_equals_sequential_pulse_sweep() {
    let sanitized = SimConfig {
        sanitizer: Some(SanitizerConfig::default()),
        ..SimConfig::reference()
    };
    let cell = SimConfig {
        sched: Sched::Wheel,
        burst: true,
        ..SimConfig::reference()
    };
    assert_parallel_catalogue_sweep(StimulusKind::Trains, &sanitized, &cell);
}

/// Reconvergent fan-out with an exact equal-time tie at a
/// port-order-sensitive cell — the one *pinned residual divergence* of
/// burst coalescing (see DESIGN.md, "Burst-event coalescing").
///
/// Both paths from buffer `a` reach the DFF at the same femtosecond
/// (direct 3 ps to IN_S vs 1 ps + buffer + 4 ps to IN_R, with the
/// buffer re-emitting as part of the same train). The pulse-level
/// engine allocates seq numbers interleaved with downstream activity,
/// so the regenerated IN_R pulse sorts *before* the same-time IN_S
/// pulse; the burst engine allocates a whole emitted train's seqs in
/// one block at emission time, inverting that tie. A set-before-read
/// DFF drops one read (IgnoredPulse) where read-before-set answers it.
/// Both orders are deterministic and both are defensible semantics for
/// a zero-margin race the sanitizer would flag anyway — so the exact
/// outcome of *each* mode is pinned here rather than forcing the modes
/// to agree.
#[test]
fn reconvergent_equal_time_tie_is_a_pinned_divergence() {
    let mut c = Circuit::new();
    let input = c.input("in");
    let a = c.add(Buffer::new("a", Time::from_ps(1.0)));
    let b = c.add(Buffer::new("b", Time::from_ps(1.0)));
    let d = c.add(Dff::new("dff"));
    c.connect_input(input, a.input(0), Time::ZERO).unwrap();
    // Direct "set" path: A -> DFF.IN_S, wire 3 ps.
    c.connect(a.output(0), d.input(Dff::IN_S), Time::from_ps(3.0))
        .unwrap();
    // Long "read" path: A -> B (1 ps wire) -> DFF.IN_R (4 ps wire).
    c.connect(a.output(0), b.input(0), Time::from_ps(1.0))
        .unwrap();
    c.connect(b.output(0), d.input(Dff::IN_R), Time::from_ps(4.0))
        .unwrap();
    let q = c.probe(d.output(Dff::OUT_Q), "q");
    let trains = [(input, Burst::uniform(Time::ZERO, Time::from_ps(3.0), 4))];
    let ps = |v: &[f64]| v.iter().map(|&t| Time::from_ps(t)).collect::<Vec<_>>();
    // Both schedulers must resolve the tie identically: they pop equal
    // times in insertion order.
    for sched in [Sched::Heap, Sched::Wheel] {
        let cfg = |burst| SimConfig {
            sched,
            ..delivery(burst)
        };
        let (pulse, _) = run_trains(c.clone(), &trains, &[q], &cfg(false));
        // Pulse-level: every read finds the bit set -> four Q pulses.
        assert_eq!(
            pulse.probe_times,
            [ps(&[12.0, 15.0, 18.0, 21.0])],
            "{sched}"
        );
        assert!(pulse.anomalies.is_empty(), "{sched}: {:?}", pulse.anomalies);

        let (burst, _) = run_trains(c.clone(), &trains, &[q], &cfg(true));
        // Coalesced: the tie inverts once, one read hits an empty cell.
        assert_eq!(burst.probe_times, [ps(&[12.0, 15.0, 18.0])], "{sched}");
        assert_eq!(
            burst.anomalies,
            [("IgnoredPulse".to_string(), 1)],
            "{sched}"
        );
    }
}

/// The per-cell fallback boundary, pinned from both sides on the
/// pulse-stream showcase chain (five zero-delay hops, so the envelope
/// span after hop `k` is exactly `k` jitter bounds wide, and the
/// tightest acceptance check is hop 3 against the 40 ps train
/// period): at σ = 5 ps every hop's worst-case envelope clears its
/// window and the whole chain coalesces, while at σ = 6 ps hop 3
/// exceeds the window and *only that wire* expands to exact pulses —
/// upstream hops keep their closed forms. Both sides agree with the
/// pulse-level reference.
#[test]
fn envelope_exceeding_a_window_falls_back_per_cell_not_per_run() {
    for sigma_ps in [5.0, 6.0] {
        let run = |burst: bool| {
            let (c, input, div, tap) = burst_stream();
            let cfg = SimConfig {
                jitter: Some(jitter_ps(sigma_ps)),
                ..delivery(burst)
            };
            let train = Burst::uniform(Time::ZERO, Time::from_ps(40.0), 64);
            let (fp, sim) = run_trains(c, &[(input, train)], &[div, tap], &cfg);
            assert_eq!(fp.probe_times[0].len(), 16, "sigma {sigma_ps} ps");
            assert_eq!(fp.probe_times[1].len(), 64, "sigma {sigma_ps} ps");
            (fp, cfg, sim.activity().coalesce)
        };
        let (pulse, pulse_cfg, _) = run(false);
        let (burst, burst_cfg, stats) = run(true);
        assert_agree(
            &format!("sigma {sigma_ps} ps"),
            &pulse,
            &pulse_cfg,
            &burst,
            &burst_cfg,
        );
        assert!(stats.hits > 0, "sigma {sigma_ps} ps: {stats:?}");
        if sigma_ps < 5.5 {
            assert_eq!(stats.bail_jitter, 0, "sigma {sigma_ps} ps: {stats:?}");
        } else {
            assert!(stats.bail_jitter > 0, "sigma {sigma_ps} ps: {stats:?}");
        }
    }
}

/// Two buffer chains bridged by a long crosslink, driven by trains
/// dense enough that every conservative lookahead window cuts them:
/// each round the upstream shard emits a *prefix* of a train and the
/// remainder crosses the boundary in later rounds. Sharded output
/// equals the sequential pulse-level run, end time included.
#[test]
fn bursts_straddling_a_shard_boundary_match_sequential() {
    let mut c = Circuit::new();
    let input = c.input("drive");
    let mut prev = None;
    for i in 0..6 {
        let b = c.add(Buffer::new(format!("a{i}"), Time::from_fs(900 + 10 * i)));
        match prev {
            None => c
                .connect_input(input, b.input(0), Time::from_fs(200))
                .unwrap(),
            Some(p) => c.connect(p, b.input(0), Time::from_fs(1_100)).unwrap(),
        }
        prev = Some(b.output(0));
    }
    let cut_src = prev.unwrap();
    let mut prev = None;
    let mut first = None;
    for i in 0..6 {
        let b = c.add(Buffer::new(format!("b{i}"), Time::from_fs(950 + 10 * i)));
        if let Some(p) = prev {
            c.connect(p, b.input(0), Time::from_fs(1_300)).unwrap();
        } else {
            first = Some(b.input(0));
        }
        prev = Some(b.output(0));
    }
    // The only inter-chain wire: a 15 ps crosslink, so the
    // conservative lookahead window is 15 ps.
    c.connect(cut_src, first.unwrap(), Time::from_ps(15.0))
        .unwrap();
    let probe = c.probe(prev.unwrap(), "end");

    // ~2 ps period over 64 pulses: each 15 ps window carries ~7 pulses
    // of the train across the cut, so every round splits a train into
    // prefix + straddling suffix. The second train starts mid-window
    // and is sparse enough to straddle with 1-2 pulses per round.
    let trains = [
        (input, Burst::uniform(Time::ZERO, Time::from_fs(2_048), 64)),
        (
            input,
            Burst::uniform(Time::from_fs(13_000), Time::from_ps(11.0), 24),
        ),
    ];
    let seq_cfg = delivery(false);
    let (seq, _) = run_trains(c.clone(), &trains, &[probe], &seq_cfg);
    for burst in [false, true] {
        for shards in [2, 3] {
            let cfg = SimConfig {
                shards,
                ..delivery(burst)
            };
            let (sharded, sim) = run_trains(c.clone(), &trains, &[probe], &cfg);
            assert_eq!(sim.num_shards(), shards, "the chains split");
            assert_agree("straddling trains", &seq, &seq_cfg, &sharded, &cfg);
        }
    }
}

/// A randomly shaped chain of closed-form cells: input → stages →
/// probe. Stage codes: 0 = JTL, 1 = TFF, 2 = splitter (chain continues
/// on A, B is probed), 3 = merger (on IN_A), 4 = set NDRO clocked on
/// the chain.
fn random_chain(stages: &[u8]) -> (Circuit, InputId, Vec<ProbeId>) {
    let mut c = Circuit::new();
    let input = c.input("drive");
    let mut probes = Vec::new();
    let mut prev = None;
    for (i, &code) in stages.iter().enumerate() {
        let delay = Time::from_fs(500 + 700 * i as u64);
        let (inp, out) = match code % 5 {
            0 => {
                let n = c.add(Jtl::new(format!("jtl{i}")));
                (n.input(Jtl::IN), n.output(Jtl::OUT))
            }
            1 => {
                let n = c.add(Tff::new(format!("tff{i}")));
                (n.input(Tff::IN), n.output(Tff::OUT))
            }
            2 => {
                let n = c.add(Splitter::new(format!("split{i}")));
                probes.push(c.probe(n.output(Splitter::OUT_B), format!("tap{i}")));
                (n.input(Splitter::IN), n.output(Splitter::OUT_A))
            }
            3 => {
                let n = c.add(Merger::new(format!("merge{i}")));
                (n.input(Merger::IN_A), n.output(Merger::OUT))
            }
            _ => {
                let n = c.add(Ndro::new_set(format!("gate{i}")));
                (n.input(Ndro::IN_CLK), n.output(Ndro::OUT_Q))
            }
        };
        match prev {
            None => c.connect_input(input, inp, delay).unwrap(),
            Some(from) => c.connect(from, inp, delay).unwrap(),
        }
        prev = Some(out);
    }
    if let Some(out) = prev {
        probes.push(c.probe(out, "end"));
    }
    (c, input, probes)
}

/// One uniform train through a [`random_chain`] agrees with bursts on
/// and off, under wire jitter of std-dev `sigma_fs` (0 = off).
fn assert_chain_agrees(stages: &[u8], train: Burst, sigma_fs: u64) {
    let (c, input, probes) = random_chain(stages);
    let cell = SimConfig {
        jitter: (sigma_fs > 0).then_some(Jitter {
            sigma: Time::from_fs(sigma_fs),
            seed: JITTER_SEED,
        }),
        ..delivery(true)
    };
    let what = format!("chain {stages:?}, {train:?}, sigma {sigma_fs} fs");
    let workload = Workload::new(what, |cfg| {
        run_trains(c.clone(), &[(input, train)], &probes, cfg).0
    });
    check_cube(&[workload], &[cell]);
}

/// Directed cell-chain sweep: dense, sparse, and zero-period trains
/// through chains covering every stage kind.
#[test]
fn directed_chains_burst_equals_pulse() {
    let chains: [&[u8]; 6] = [
        &[0],
        &[1, 1],
        &[2, 1, 4],
        &[3, 0, 2, 1],
        &[4, 2, 3, 1, 0],
        &[1, 2, 1, 2, 1, 4, 3],
    ];
    let trains = [
        Burst::uniform(Time::ZERO, Time::from_ps(10.0), 32),
        Burst::uniform(Time::from_fs(123), Time::from_fs(1), 47),
        Burst::uniform(Time::from_ps(3.0), Time::ZERO, 5),
        Burst::uniform(Time::ZERO, Time::from_ps(1000.0), 9),
    ];
    for stages in chains {
        for train in trains {
            assert_chain_agrees(stages, train, 0);
        }
    }
}

// Each property case simulates two full trials; keep the default case
// counts moderate. The nightly workflow raises PROPTEST_CASES.

/// Random uniform trains through random cell chains agree with
/// coalescing on and off.
#[test]
fn random_trains_through_random_chains_match() {
    for_all(96, |rng| {
        let len = rng.gen_range(1usize..8);
        let stages = rng.vec(0u8..5, len);
        let count = rng.gen_range(1u64..48);
        let start_fs = rng.gen_range(0u64..20_000);
        let period_fs = rng.gen_range(0u64..40_000);
        let train = Burst::uniform(Time::from_fs(start_fs), Time::from_fs(period_fs), count);
        assert_chain_agrees(&stages, train, 0);
    });
}

/// Random envelope widths against random windows: the jitter std-dev
/// ranges from a fraction of the train period to several times it, so
/// envelopes land on every side of the per-wire acceptance boundary
/// (`min_gap >= env_span`) — fully coalesced, fully expanded, and mixed
/// per-cell fallback chains all agree with the pulse-level reference.
#[test]
fn jittered_random_trains_through_random_chains_match() {
    for_all(96, |rng| {
        let len = rng.gen_range(1usize..8);
        let stages = rng.vec(0u8..5, len);
        let count = rng.gen_range(1u64..32);
        let start_fs = rng.gen_range(0u64..20_000);
        let period_fs = rng.gen_range(0u64..40_000);
        let sigma_fs = rng.gen_range(0u64..20_000);
        let train = Burst::uniform(Time::from_fs(start_fs), Time::from_fs(period_fs), count);
        assert_chain_agrees(&stages, train, sigma_fs);
    });
}
