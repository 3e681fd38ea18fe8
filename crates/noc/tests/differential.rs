//! Routed traffic through the engine configuration cube
//! ([`usfq_sim::check`]): every topology × traffic pattern, in every
//! scheduler × delivery × sanitizer × shard-count cell, equals the
//! sequential, heap-scheduled, pulse-level reference run, violations
//! left out only where one of the two runs is unsanitized.

use usfq_noc::{
    plan, simulate, simulate_env, FlitGeometry, NocFabric, Pattern, Schedule, Topology,
};
use usfq_sim::check::{assert_agree, check_cube, cube, reference_for, Workload};
use usfq_sim::{SanitizerConfig, Sched, SimConfig};

/// The nine scenarios: mesh, torus and big-switch fabrics under every
/// traffic pattern, each with its own traffic seed.
fn scenarios() -> Vec<(String, NocFabric, Schedule)> {
    let geometry = FlitGeometry::with_bits(4).unwrap();
    let mut v = Vec::new();
    for topology in [
        Topology::Mesh { k: 3 },
        Topology::Torus { k: 3 },
        Topology::BigSwitch { n: 6 },
    ] {
        for (i, pattern) in Pattern::all().into_iter().enumerate() {
            let fabric = topology.build(geometry);
            let seed = 40 + i as u64;
            let flows =
                usfq_noc::generate(pattern, topology.nodes(), 2, geometry.epoch.n_max(), seed);
            let schedule = plan(&fabric, &flows);
            let name = format!("{} × {} (seed {seed})", topology.label(), pattern.label());
            v.push((name, fabric, schedule));
        }
    }
    v
}

/// The scenarios as configuration-cube workloads.
fn workloads(scenarios: &[(String, NocFabric, Schedule)]) -> Vec<Workload<'_>> {
    scenarios
        .iter()
        .map(|(name, fabric, schedule)| {
            Workload::new(name.clone(), move |cfg| {
                simulate(fabric, schedule, cfg).unwrap()
            })
        })
        .collect()
}

/// The acceptance corner `{2 shards, wheel, burst}`, with and without
/// the sanitizer, equals `{1 shard, heap, pulse}`.
#[test]
fn sharded_wheel_burst_equals_sequential_heap_pulse() {
    let corner = SimConfig {
        sched: Sched::Wheel,
        burst: true,
        shards: 2,
        ..SimConfig::reference()
    };
    let sanitized = SimConfig {
        sanitizer: Some(SanitizerConfig::default()),
        ..corner
    };
    check_cube(&workloads(&scenarios()), &[corner, sanitized]);
}

/// Every scenario in every cell at 1, 2 and 4 shards, the cells on a
/// 4-thread runner.
#[test]
fn full_config_cube_agrees_on_routed_traffic() {
    check_cube(&workloads(&scenarios()), &cube(&[1, 2, 4], &[None]));
}

/// The environment's configuration (whatever `USFQ_BURST`,
/// `USFQ_SHARDS` and `USFQ_WIRE_JITTER` say, defaults included)
/// agrees with its reference: `simulate_env` forwards
/// [`SimConfig::from_env`] unchanged.
#[test]
fn env_config_matches_reference() {
    let env = SimConfig::from_env();
    let reference_cfg = reference_for(env);
    for (name, fabric, schedule) in scenarios() {
        assert_agree(
            &name,
            &simulate(&fabric, &schedule, &reference_cfg).unwrap(),
            &reference_cfg,
            &simulate_env(&fabric, &schedule).unwrap(),
            env,
        );
    }
}
