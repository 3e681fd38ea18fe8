//! Self-timed kernel benchmark snapshot for the CI perf-regression gate.
//!
//! Runs the engine's kernel workloads with plain `std::time::Instant`
//! timing and writes one machine-readable JSON snapshot to the path
//! given with `--out`. It runs identically in CI, on a developer
//! laptop, and offline:
//!
//! ```text
//! OUT=/tmp/bench.json ./scripts/bench_snapshot.sh
//! ./scripts/bench_pair.sh <base-rev> /tmp/pair   # base vs head, interleaved
//! ```
//!
//! Snapshot schema (`schema_version` 5):
//!
//! ```text
//! {
//!   "generated_by": "usfq-bench/benchkernel",
//!   "schema_version": 5,
//!   "commit": "<git hash or \"unknown\">",   // from $USFQ_COMMIT
//!   "threads": <resolved USFQ_THREADS>,
//!   "sched": "heap",                         // default scheduler in force
//!   "shards": <resolved USFQ_SHARDS>,        // default shard count in force
//!   "unit": "nanoseconds",
//!   "coalesce": { "<group>/<name>": { "hits": .., "pulses": .., "lazy_splits": ..,
//!                                     "chases": .., "bail_jitter": .., "bail_feedback": ..,
//!                                     "bail_sanitizer": .., "bail_cell": .. }, .. },
//!   "replays": { "kernel/accel/<name>": <rig runs answered by replay>, .. },
//!   "benchmarks": { "<group>/<name>": { "min_ns": .., "median_ns": .., "mean_ns": .., "samples": .. }, .. }
//! }
//! ```
//!
//! The `coalesce` block is *provenance*, not a gated metric: one
//! instrumented (untimed) run per coalescing kernel, recording how the
//! burst engine actually handled the workload — closed-form hits,
//! lazy suffix splits, chase steps, and per-reason fall-backs — so a
//! timing shift in the gate can be attributed to a coalescing-behavior
//! change without re-running anything. Every key in `coalesce` also
//! appears in `benchmarks`.
//!
//! The `replays` block is provenance of the same kind, from the same
//! instrumented runs of the `kernel/accel/*` kernels: how many of their
//! rig runs repeated their rig's last operands and were answered
//! without simulating ([`Rig::run`]). The structural FIR's PNM rigs
//! replay every sample after the first; the PE and the dot product see
//! new operands every op.
//!
//! The `kernel/shard/*` entries pin their shard count in the key
//! itself (`/seq`, `/2shards`, …), so they are comparable across
//! snapshots regardless of the ambient `USFQ_SHARDS`; the top-level
//! `shards` field records the ambient default so the compare gate can
//! refuse unlike-for-unlike comparisons of everything else.
//!
//! Keys are stable identifiers the `scripts/bench_compare.py` gate
//! matches between base and head snapshots; a key the base records
//! and the head does not fails the gate, so renaming a kernel fails
//! it once, in the change that renames it.

use std::fmt::Write as _;
use std::time::Instant;

use usfq_bench::experiments::{fig18, fig19};
use usfq_bench::kernels::{
    burst_stream, catalogue_trial, counting_feedback, delay_chain, drive_burst_stream,
    drive_burst_stream_jittered, drive_counting_feedback, drive_delay_chain, fabric,
    fabric_stimulus, StimulusKind, BURST_STREAM_JITTER_SIGMA_PS, JITTER_SEED,
};
use usfq_cells::catalog::t_bff;
use usfq_core::accel::{DotProductUnit, ProcessingElement, StructuralFir};
use usfq_core::netlists::shipped_netlists;
use usfq_core::Rig;
use usfq_dsp::design::lowpass;
use usfq_dsp::signal::paper_test_signal;
use usfq_encoding::Epoch;
use usfq_lint::{fix_to_fixpoint, slack_report, FixOptions, LintConfig};
use usfq_sim::rng::{xorshift64, SplitMix64};
use usfq_sim::{
    CalendarWheel, CoalesceStats, RunHeap, Runner, SanitizerConfig, Sched, ShardedSimulator,
    SimConfig, Simulator, Time,
};

/// One sample policy for every kernel: the gate compares `min_ns`
/// across runs, and a min over fewer samples is a noisier estimator —
/// the old 10-vs-3 split made the heavyweight kernels *more* flaky
/// than the cheap ones, exactly backwards. Heavy kernels pay ~5 s
/// more wall clock each; the gate's stability is worth it.
const SAMPLES: usize = 10;

/// One measured kernel: warm up with one full batch, then sample
/// `samples` times.
///
/// Each sample runs the closure `iters` times and divides, so
/// microsecond-scale kernels still produce millisecond-scale samples —
/// small enough timer/scheduler jitter to gate on. Per-sample stats are
/// per-iteration nanoseconds.
struct Measurement {
    name: &'static str,
    samples: Vec<u64>,
}

impl Measurement {
    fn run(name: &'static str, samples: usize, f: impl FnMut()) -> Measurement {
        Self::run_batched(name, samples, 1, f)
    }

    fn run_batched(
        name: &'static str,
        samples: usize,
        iters: u64,
        mut f: impl FnMut(),
    ) -> Measurement {
        // Warm-up: one full untimed batch, so the first timed sample
        // sees the same warmed caches and allocator state as the rest
        // (a single warm-up call left `iters > 1` batches cold-started
        // and skewed their mean upward).
        for _ in 0..iters {
            f();
        }
        let samples = (0..samples)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..iters {
                    f();
                }
                start.elapsed().as_nanos() as u64 / iters
            })
            .collect();
        Measurement { name, samples }
    }

    fn key(&self) -> &str {
        self.name
    }

    /// The noise-robust point estimate the CI gate compares: on a
    /// shared runner, interference only ever adds time, so the fastest
    /// observed sample tracks the true cost far more stably than the
    /// median does.
    fn min_ns(&self) -> u64 {
        *self.samples.iter().min().expect("at least one sample")
    }

    fn median_ns(&self) -> u64 {
        let mut s = self.samples.clone();
        s.sort_unstable();
        s[s.len() / 2]
    }

    fn mean_ns(&self) -> u64 {
        self.samples.iter().sum::<u64>() / self.samples.len() as u64
    }
}

/// Seed-derived raw-queue event schedule for `sched/queue_ops`.
fn event_times(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = seed | 1;
    let mut now = 0u64;
    (0..n)
        .map(|_| {
            let r = xorshift64(&mut rng);
            if r % 16 == 0 {
                now += 1_000_000;
            } else {
                now += r % 20_000;
            }
            now
        })
        .collect()
}

fn main() {
    let Some(out_path) = std::env::args().skip_while(|a| a != "--out").nth(1) else {
        eprintln!("usage: benchkernel --out <snapshot.json>");
        std::process::exit(2);
    };
    let commit = std::env::var("USFQ_COMMIT").unwrap_or_else(|_| "unknown".to_string());
    let threads = Runner::from_env().threads();
    let env = SimConfig::from_env();
    // The environment's configuration with burst delivery forced on or
    // off, for the coalesced kernels and their pulse-level twins.
    let burst = |on| SimConfig {
        burst: on,
        ..env.clone()
    };

    let mut results: Vec<Measurement> = Vec::new();

    // Raw queue ops: push 100k seed-derived events, drain them all.
    let times = event_times(100_000, 0xC0FFEE);
    results.push(Measurement::run(
        "sched/queue_ops/wheel/100000",
        SAMPLES,
        || {
            let mut wheel: CalendarWheel<u32> = CalendarWheel::for_max_delay(Time::from_ps(20.0));
            for (seq, &t) in times.iter().enumerate() {
                wheel.push(Time::from_fs(t), seq as u64, 0u32);
            }
            let mut drained = 0usize;
            while wheel.pop().is_some() {
                drained += 1;
            }
            assert_eq!(drained, times.len());
        },
    ));
    results.push(Measurement::run(
        "sched/queue_ops/heap/100000",
        SAMPLES,
        || {
            let mut heap: RunHeap<u32> = RunHeap::new();
            for (seq, &t) in times.iter().enumerate() {
                heap.push(Time::from_fs(t), seq as u64, 0u32);
            }
            let mut drained = 0usize;
            while heap.pop().is_some() {
                drained += 1;
            }
            assert_eq!(drained, times.len());
        },
    ));

    // Engine end-to-end, per scheduler, on the canonical delay chain.
    let (proto, input, probe) = delay_chain(1024);
    for (name, sched) in [
        ("sched/engine_delay_chain_1024/heap", Sched::Heap),
        ("sched/engine_delay_chain_1024/wheel", Sched::Wheel),
    ] {
        let proto = proto.clone();
        let cfg = SimConfig {
            sched,
            ..env.clone()
        };
        results.push(Measurement::run(name, SAMPLES, move || {
            let mut sim = Simulator::with_config(proto.clone(), &cfg);
            drive_delay_chain(&mut sim, input, probe, 32);
        }));
    }

    // The historical kernel group, under the default scheduler —
    // continuity with the pre-wheel kernel trajectory.
    for (name, stages) in [
        ("kernel/delay_chain/128", 128usize),
        ("kernel/delay_chain/1024", 1024),
    ] {
        let iters = if stages < 512 { 8 } else { 1 };
        let (proto, input, probe) = delay_chain(stages);
        results.push(Measurement::run_batched(name, SAMPLES, iters, move || {
            let mut sim = Simulator::new(proto.clone());
            drive_delay_chain(&mut sim, input, probe, 32);
        }));
    }
    // Pulse-stream kernels: a coalesced 2^bits train end-to-end
    // through closed-form cells, plus the pulse-level reference at the
    // largest size (the tentpole speedup the burst engine exists for).
    for (name, bits, iters) in [
        ("kernel/burst_stream/8bits", 8u32, 64u64),
        ("kernel/burst_stream/12bits", 12, 16),
    ] {
        let (proto, input, div, tap) = burst_stream();
        results.push(Measurement::run_batched(name, SAMPLES, iters, move || {
            let mut sim = Simulator::with_config(proto.clone(), &burst(true));
            drive_burst_stream(&mut sim, input, div, tap, bits);
        }));
    }
    {
        let (proto, input, div, tap) = burst_stream();
        results.push(Measurement::run_batched(
            "kernel/burst_stream/12bits_pulse",
            SAMPLES,
            1,
            move || {
                let mut sim = Simulator::with_config(proto.clone(), &burst(false));
                drive_burst_stream(&mut sim, input, div, tap, 12);
            },
        ));
    }
    // The jittered twins: the same chain under deterministic 2 ps
    // wire-delay jitter. The coalesced run rides the envelope algebra
    // (trains stay symbolic, draws materialize lazily per trail);
    // the pulse run materializes every draw — the speedup between the
    // two is the jitter-envelope tentpole's headline number.
    let jitter_sigma = Time::from_ps(BURST_STREAM_JITTER_SIGMA_PS);
    {
        let (proto, input, div, tap) = burst_stream();
        results.push(Measurement::run_batched(
            "kernel/burst_stream/12bits_jitter",
            SAMPLES,
            16,
            move || {
                let mut sim = Simulator::with_config(proto.clone(), &burst(true));
                sim.enable_wire_jitter(jitter_sigma, JITTER_SEED);
                drive_burst_stream_jittered(&mut sim, input, div, tap, 12);
            },
        ));
        let (proto, input, div, tap) = burst_stream();
        results.push(Measurement::run_batched(
            "kernel/burst_stream/12bits_jitter_pulse",
            SAMPLES,
            1,
            move || {
                let mut sim = Simulator::with_config(proto.clone(), &burst(false));
                sim.enable_wire_jitter(jitter_sigma, JITTER_SEED);
                drive_burst_stream_jittered(&mut sim, input, div, tap, 12);
            },
        ));
    }
    // The counting-feedback kernel: a TFF halver closed by a 50 ns
    // merger feedback loop. Coalesced, the cycle lookahead consumes
    // each halved generation atomically (O(log N) queue ops); the
    // pulse twin pays every hop of every generation.
    {
        let (proto, input, probe) = counting_feedback();
        results.push(Measurement::run_batched(
            "kernel/burst_stream/counting_feedback",
            SAMPLES,
            16,
            move || {
                let mut sim = Simulator::with_config(proto.clone(), &burst(true));
                drive_counting_feedback(&mut sim, input, probe, 12);
            },
        ));
        let (proto, input, probe) = counting_feedback();
        results.push(Measurement::run_batched(
            "kernel/burst_stream/counting_feedback_pulse",
            SAMPLES,
            1,
            move || {
                let mut sim = Simulator::with_config(proto.clone(), &burst(false));
                drive_counting_feedback(&mut sim, input, probe, 12);
            },
        ));
    }
    // Coalescing provenance: one untimed instrumented run per
    // coalescing kernel (see the module docs).
    let mut coalesce: Vec<(&'static str, CoalesceStats)> = Vec::new();
    let mut replays: Vec<(&'static str, u64)> = Vec::new();
    {
        let (proto, input, div, tap) = burst_stream();
        let mut sim = Simulator::with_config(proto, &burst(true));
        drive_burst_stream(&mut sim, input, div, tap, 12);
        coalesce.push(("kernel/burst_stream/12bits", sim.activity().coalesce));

        let (proto, input, div, tap) = burst_stream();
        let mut sim = Simulator::with_config(proto, &burst(true));
        sim.enable_wire_jitter(jitter_sigma, JITTER_SEED);
        drive_burst_stream_jittered(&mut sim, input, div, tap, 12);
        coalesce.push(("kernel/burst_stream/12bits_jitter", sim.activity().coalesce));

        let (proto, input, probe) = counting_feedback();
        let mut sim = Simulator::with_config(proto, &burst(true));
        drive_counting_feedback(&mut sim, input, probe, 12);
        coalesce.push((
            "kernel/burst_stream/counting_feedback",
            sim.activity().coalesce,
        ));
    }
    // The accelerator group: the `accel_pipeline` workload's three ops
    // at its shapes (a 4-tap 5-bit structural FIR, a PE and an 8-lane
    // monolithic dot product at the 5-bit balancer epoch), each on
    // circuits built once and rerun per op under the environment's
    // configuration. Their clock and data trains interleave half a
    // slot apart, so most train pulses are due one at a time and the
    // event loop delivers them as heads. Each `coalesce` and `replays`
    // entry sums one fresh instance's rigs over the first `ACCEL_OPS`
    // ops.
    {
        const ACCEL_OPS: usize = 64;
        let epoch = Epoch::with_slot(5, t_bff()).expect("5-bit balancer epoch");
        let signal = paper_test_signal(32_000.0, ACCEL_OPS);
        let fir = || StructuralFir::new(&lowpass(4, 2_000.0, 32_000.0), 5).expect("4-tap FIR");
        let mut rng = SplitMix64::new(0xACCE1);
        let macs: Vec<[f64; 3]> = (0..ACCEL_OPS)
            .map(|_| [(); 3].map(|()| rng.gen_range(0.0..=1.0)))
            .collect();
        let mut vector = || [(); 8].map(|()| rng.gen_range(-1.0..=1.0));
        let dots: Vec<([f64; 8], [f64; 8])> =
            (0..ACCEL_OPS).map(|_| (vector(), vector())).collect();

        let (mut f, mut k) = (fir(), 0);
        results.push(Measurement::run_batched(
            "kernel/accel/fir_push",
            SAMPLES,
            16,
            || {
                f.push(signal[k % ACCEL_OPS]).expect("FIR push");
                k += 1;
            },
        ));
        let (mut pe, mut k) = (ProcessingElement::new(epoch), 0);
        results.push(Measurement::run_batched(
            "kernel/accel/pe_mac",
            SAMPLES,
            256,
            || {
                let [a, b, c] = macs[k % ACCEL_OPS];
                pe.mac(a, b, c).expect("PE MAC");
                k += 1;
            },
        ));
        let (mut dpu, mut k) = (DotProductUnit::new(epoch, 8).expect("8 lanes"), 0);
        results.push(Measurement::run_batched(
            "kernel/accel/dpu8_dot",
            SAMPLES,
            16,
            || {
                let (x, y) = &dots[k % ACCEL_OPS];
                dpu.dot_monolithic(x, y).expect("dot product");
                k += 1;
            },
        ));

        let mut f = fir();
        for &x in &signal {
            f.push(x).expect("FIR push");
        }
        coalesce.push(("kernel/accel/fir_push", f.coalesce()));
        replays.push(("kernel/accel/fir_push", f.replays()));
        let pe = ProcessingElement::new(epoch);
        let mut rig = Rig::new(pe.circuit().expect("PE circuit"));
        for &[a, b, c] in &macs {
            pe.mac_on(&mut rig, a, b, c).expect("PE MAC");
        }
        coalesce.push(("kernel/accel/pe_mac", rig.coalesce()));
        replays.push(("kernel/accel/pe_mac", rig.replays()));
        let dpu = DotProductUnit::new(epoch, 8).expect("8 lanes");
        let mut rig = Rig::new(dpu.circuit().expect("DPU circuit"));
        for (x, y) in &dots {
            dpu.dot_on(&mut rig, x, y).expect("dot product");
        }
        coalesce.push(("kernel/accel/dpu8_dot", rig.coalesce()));
        replays.push(("kernel/accel/dpu8_dot", rig.replays()));
    }
    {
        let (proto, input, probe) = delay_chain(128);
        results.push(Measurement::run(
            "kernel/sim_reuse/clone_and_reset",
            SAMPLES,
            move || {
                let mut sim = Simulator::new(proto.clone());
                for _ in 0..8 {
                    sim.reset();
                    drive_delay_chain(&mut sim, input, probe, 32);
                }
            },
        ));
    }

    // The shard scaling group: one ~10⁵-cell fabric, sequential and at
    // 2/4/8 shards. Keys pin the shard count, so these stay comparable
    // under any ambient USFQ_SHARDS. `/seq` goes through the sharded
    // front end at one shard deliberately — it measures exactly the
    // `USFQ_SHARDS=1` default path the no-regression criterion gates
    // on.
    let sharded = |shards| SimConfig {
        shards,
        ..env.clone()
    };
    {
        let fab = fabric(64, 1_563, 0xFAB);
        let stimulus = fabric_stimulus(&fab, 12, 1);
        let expect = fab.probes[0];
        for (name, shards) in [
            ("kernel/shard/fabric_100k/seq", 1usize),
            ("kernel/shard/fabric_100k/2shards", 2),
            ("kernel/shard/fabric_100k/4shards", 4),
            ("kernel/shard/fabric_100k/8shards", 8),
        ] {
            let proto = fab.circuit.clone();
            let stimulus = stimulus.clone();
            let cfg = sharded(shards);
            results.push(Measurement::run(name, SAMPLES, move || {
                let mut sim = ShardedSimulator::with_config(proto.clone(), &cfg);
                for &(input, train) in &stimulus {
                    sim.schedule_burst(input, train).unwrap();
                }
                sim.run().unwrap();
                assert!(sim.probe_count(expect) >= 12);
            }));
        }
        // Per-shard event counts: the load-balance proxy recorded in
        // EXPERIMENTS.md (sum/max bounds the achievable speedup on a
        // machine with enough cores).
        for shards in [2usize, 4, 8] {
            let mut sim = ShardedSimulator::with_config(fab.circuit.clone(), &sharded(shards));
            for &(input, train) in &stimulus {
                sim.schedule_burst(input, train).unwrap();
            }
            sim.run().unwrap();
            let events = sim.shard_events();
            let total: u64 = events.iter().sum();
            let max = events.iter().copied().max().unwrap_or(1).max(1);
            println!(
                "shard/fabric_100k {shards} shards: events/shard {events:?}, \
                 balance bound {:.2}x",
                total as f64 / max as f64
            );
        }
    }

    // The timing-closure group: full slack/critical-path analysis and
    // one lint→repair→re-lint round over the same ~10⁵-cell fabric the
    // shard group measures. These pin the closure engine's fabric-scale
    // promise — slack plus one fix iteration inside the CI budget. The
    // fabric's engine-level fan-out nets (its crosslinks) are exactly
    // the defect class `--fix` discharges with splitter trees, so the
    // repair round does representative work, not a no-op.
    {
        let fab = fabric(64, 1_563, 0xFAB);
        let cfg = LintConfig {
            input_window: Time::from_ps(10.0),
            epoch_budget: Some(Time::from_ns(8.0)),
            ..LintConfig::default()
        };
        let n_probes = fab.probes.len();
        {
            let proto = fab.circuit.clone();
            let cfg = cfg.clone();
            results.push(Measurement::run(
                "kernel/lint/fabric_100k/slack",
                SAMPLES,
                move || {
                    let report = slack_report(&proto, &cfg);
                    assert_eq!(report.endpoints.len(), n_probes);
                    assert!(report.worst_slack_fs.is_some());
                },
            ));
        }
        {
            let opts = FixOptions {
                max_iterations: 1,
                allow_budget_extension: false,
            };
            results.push(Measurement::run(
                "kernel/lint/fabric_100k/fix1",
                SAMPLES,
                move || {
                    let (_, outcome) = fix_to_fixpoint(&fab.circuit, "fabric-100k", &cfg, &opts);
                    assert!(!outcome.applied.is_empty());
                },
            ));
        }
    }

    // The temporal-NoC group: build, plan, simulate, and decode one
    // routed traffic scenario per (topology, pattern) pair the `noc`
    // figure sweeps. Each kernel covers the full stack — topology
    // builder, TDM planner, pulse-level simulation, in-window decode —
    // and asserts loss-free delivery, so a timing regression here
    // localises to the NoC path rather than the engine groups above.
    // Keys pin the reference config (1 shard, heap, pulse scheduling);
    // the shard/sched/burst cube is covered by the differential tests,
    // not the snapshot.
    for (name, topology, pattern) in [
        (
            "kernel/noc/mesh4x4/uniform",
            usfq_noc::Topology::Mesh { k: 4 },
            usfq_noc::Pattern::Uniform,
        ),
        (
            "kernel/noc/torus4x4/hotspot",
            usfq_noc::Topology::Torus { k: 4 },
            usfq_noc::Pattern::Hotspot,
        ),
        (
            "kernel/noc/bigswitch8/permutation",
            usfq_noc::Topology::BigSwitch { n: 8 },
            usfq_noc::Pattern::Permutation,
        ),
    ] {
        results.push(Measurement::run(name, SAMPLES, move || {
            let result =
                usfq_noc::run_scenario(topology, pattern, 2, 2022, &SimConfig::reference());
            assert_eq!(result.lost_pulses, 0, "{name}: routed traffic lost pulses");
            assert_eq!(result.delivered_flows, result.flows);
        }));
    }

    // End-to-end sweep kernels (fig18 series, fig19 fault sweep, one
    // differential sanitizer pass, the biggest structural netlist).
    results.push(Measurement::run_batched(
        "sweeps/fig18_series",
        SAMPLES,
        128,
        || {
            assert!(fig18::series().len() > 10);
        },
    ));
    {
        let runner = Runner::with_threads(1);
        results.push(Measurement::run(
            "sweeps/fig19_stats/8_seeds_1_thread",
            SAMPLES,
            move || {
                assert!(!fig19::snr_sweep_stats_on(8, &runner).is_empty());
            },
        ));
    }
    let catalogue = shipped_netlists();
    // The environment's configuration with an explicit scheduler, one
    // shard, and the sanitizer on or off.
    let trial_cfg = |sched, sanitize: bool| SimConfig {
        sched,
        shards: 1,
        sanitizer: sanitize.then(SanitizerConfig::default),
        ..env.clone()
    };
    for (name, sched) in [
        ("sweeps/differential_trial/heap", Sched::Heap),
        ("sweeps/differential_trial/wheel", Sched::Wheel),
    ] {
        let catalogue = &catalogue;
        let cfg = trial_cfg(sched, true);
        results.push(Measurement::run_batched(name, SAMPLES, 8, move || {
            for netlist in catalogue {
                catalogue_trial(netlist, StimulusKind::Pulses, &cfg, 1);
            }
        }));
    }
    let biggest = catalogue
        .iter()
        .max_by_key(|n| n.circuit.num_components())
        .expect("catalogue non-empty");
    for (name, sched) in [
        ("sweeps/structural_epoch/heap", Sched::Heap),
        ("sweeps/structural_epoch/wheel", Sched::Wheel),
    ] {
        let cfg = trial_cfg(sched, false);
        results.push(Measurement::run_batched(name, SAMPLES, 16, || {
            catalogue_trial(biggest, StimulusKind::Pulses, &cfg, 7);
        }));
    }

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"generated_by\": \"usfq-bench/benchkernel\",");
    let _ = writeln!(json, "  \"schema_version\": 5,");
    let _ = writeln!(json, "  \"commit\": \"{commit}\",");
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(json, "  \"sched\": \"{}\",", env.sched);
    let _ = writeln!(json, "  \"shards\": {},", env.shards);
    let _ = writeln!(json, "  \"unit\": \"nanoseconds\",");
    let _ = writeln!(json, "  \"coalesce\": {{");
    coalesce.sort_by(|a, b| a.0.cmp(b.0));
    for (i, (key, c)) in coalesce.iter().enumerate() {
        let comma = if i + 1 == coalesce.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    \"{key}\": {{ \"hits\": {}, \"pulses\": {}, \"lazy_splits\": {}, \
             \"chases\": {}, \"bail_jitter\": {}, \"bail_feedback\": {}, \
             \"bail_sanitizer\": {}, \"bail_cell\": {} }}{comma}",
            c.hits,
            c.pulses,
            c.lazy_splits,
            c.chases,
            c.bail_jitter,
            c.bail_feedback,
            c.bail_sanitizer,
            c.bail_cell
        );
    }
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"replays\": {{");
    replays.sort_by(|a, b| a.0.cmp(b.0));
    for (i, (key, n)) in replays.iter().enumerate() {
        let comma = if i + 1 == replays.len() { "" } else { "," };
        let _ = writeln!(json, "    \"{key}\": {n}{comma}");
    }
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"benchmarks\": {{");
    results.sort_by(|a, b| a.key().cmp(b.key()));
    for (i, m) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    \"{}\": {{ \"min_ns\": {}, \"median_ns\": {}, \"mean_ns\": {}, \"samples\": {} }}{comma}",
            m.key(),
            m.min_ns(),
            m.median_ns(),
            m.mean_ns(),
            m.samples.len()
        );
    }
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");

    std::fs::write(&out_path, &json).expect("write snapshot");
    let wheel = results
        .iter()
        .find(|m| m.key() == "sched/engine_delay_chain_1024/wheel")
        .map(Measurement::median_ns);
    let heap = results
        .iter()
        .find(|m| m.key() == "sched/engine_delay_chain_1024/heap")
        .map(Measurement::median_ns);
    if let (Some(w), Some(h)) = (wheel, heap) {
        println!(
            "engine_delay_chain_1024: heap {h} ns, wheel {w} ns ({:.2}x)",
            h as f64 / w as f64
        );
    }
    println!("wrote {out_path} with {} benchmarks", results.len());
}
