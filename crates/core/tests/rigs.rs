//! Build-once rigs under every engine configuration.
//!
//! A rig resets its simulator before each run, so a rig reused across
//! operand sets must reproduce a fresh simulator exactly: the stateful
//! cells the accelerator rigs rely on (pre-set NDRO gates, TFF2s, the
//! clocked inverter, balancers, the integrator's timer) must all return
//! to power-on state. And since every closed-form burst step now
//! absorbs at least two pulses, the accelerators' interleaved trains
//! must reach the same answer with bursts on as pulse by pulse.

use usfq_core::accel::{DotProductUnit, ProcessingElement};
use usfq_core::blocks::{BipolarMultiplier, CountingNetwork, PulseNumberMultiplier};
use usfq_core::Rig;
use usfq_encoding::{Epoch, PulseStream, RlValue};
use usfq_sim::check::{assert_agree, check_cube, cube, for_all, Workload};
use usfq_sim::rng::SplitMix64;
use usfq_sim::{Fingerprint, Jitter, ProbeId, SimConfig, Time};

/// The accelerators' 5-bit balancer-slot epoch.
fn epoch() -> Epoch {
    Epoch::with_slot(5, usfq_cells::catalog::t_bff()).unwrap()
}

/// The structural FIR's 5-bit PNM epoch: one slot per PNM clock.
fn pnm_epoch() -> Epoch {
    Epoch::with_slot(5, usfq_cells::catalog::t_tff2().scale(5)).unwrap()
}

/// Builds a block's rig under a configuration.
type Build<P> = Box<dyn Fn(&SimConfig) -> Rig<P> + Sync>;
/// Drives one operand set through the block's own runner and renders
/// its result.
type Drive<P, O> = Box<dyn Fn(&mut Rig<P>, &O) -> String + Sync>;

/// One block as a rig: how to build and drive it, and which probe to
/// fingerprint.
struct Block<P, O> {
    name: String,
    rig: Build<P>,
    drive: Drive<P, O>,
    probe: fn(&P) -> ProbeId,
}

impl<P, O: Sync> Block<P, O> {
    /// A fresh rig under `cfg` after one run of `operands`, with the
    /// rendered result.
    fn run_fresh(&self, cfg: &SimConfig, operands: &O) -> (Rig<P>, String) {
        let mut rig = (self.rig)(cfg);
        let out = (self.drive)(&mut rig, operands);
        (rig, out)
    }

    fn fingerprint(&self, rig: &Rig<P>) -> Fingerprint {
        rig.fingerprint(&[(self.probe)(rig.io())])
    }

    /// A cube workload: `decoy`, then `measured` on one rig, checked
    /// against a fresh rig's run of `measured` under the same cell.
    fn reuse_workload(&self, decoy: O, measured: O) -> Workload<'_> {
        Workload::new(self.name.clone(), move |cfg| {
            let (fresh, want_out) = self.run_fresh(cfg, &measured);
            let want = self.fingerprint(&fresh);
            let mut rig = (self.rig)(cfg);
            (self.drive)(&mut rig, &decoy);
            let out = (self.drive)(&mut rig, &measured);
            let what = format!("{} under {cfg:?}", self.name);
            assert_eq!(self.fingerprint(&rig), want, "reused vs fresh rig: {what}");
            assert_eq!(out, want_out, "result: {what}");
            want
        })
    }

    /// Runs `operands` through fresh rigs pulse by pulse and with bursts
    /// on: every closed-form step absorbs two pulses or more, and the
    /// runs agree.
    fn assert_no_one_pulse_steps(&self, operands: &O) {
        let pulse = SimConfig::reference();
        let burst = SimConfig {
            burst: true,
            ..SimConfig::reference()
        };
        let (reference, _) = self.run_fresh(&pulse, operands);
        let (rig, _) = self.run_fresh(&burst, operands);
        let coalesce = rig.sim().activity().coalesce;
        assert!(
            coalesce.pulses >= 2 * coalesce.hits,
            "{}: {} closed-form steps absorbed {} pulses",
            self.name,
            coalesce.hits,
            coalesce.pulses
        );
        let (reference, subject) = (self.fingerprint(&reference), self.fingerprint(&rig));
        assert_agree(&self.name, &reference, &pulse, &subject, &burst);
    }
}

fn pnm(word: u64) -> Block<usfq_core::blocks::PnmIo, ()> {
    let pnm = PulseNumberMultiplier::new(pnm_epoch());
    Block {
        name: format!("PNM word {word}"),
        rig: Box::new(move |cfg| Rig::with_config(pnm.circuit(word).unwrap(), cfg)),
        drive: Box::new(move |rig, ()| format!("{:?}", pnm.generate_on(rig))),
        probe: |io| io.out,
    }
}

fn multiplier(e: Epoch) -> Block<usfq_core::blocks::BipolarIo, (u64, u64)> {
    let mult = BipolarMultiplier::new(e);
    Block {
        name: "bipolar multiplier".into(),
        rig: Box::new(move |cfg| Rig::with_config(mult.circuit().unwrap(), cfg)),
        drive: Box::new(move |rig, &(count, slot)| {
            let a = PulseStream::from_count(count, e).unwrap();
            let b = RlValue::from_slot(slot, e).unwrap();
            format!("{:?}", mult.multiply_on(rig, a, b))
        }),
        probe: |io| io.out,
    }
}

fn tree(e: Epoch) -> Block<usfq_core::blocks::CountingIo, [u64; 4]> {
    let net = CountingNetwork::new(e, 4).unwrap();
    Block {
        name: "4:1 counting tree".into(),
        rig: Box::new(move |cfg| Rig::with_config(net.circuit().unwrap(), cfg)),
        drive: Box::new(move |rig, counts| {
            let streams = counts.map(|n| PulseStream::from_count(n, e).unwrap());
            format!("{:?}", net.accumulate_on(rig, &streams))
        }),
        probe: |io| io.top,
    }
}

fn pe() -> Block<usfq_core::accel::PeIo, [f64; 3]> {
    Block {
        name: "processing element".into(),
        rig: Box::new(|cfg| {
            Rig::with_config(ProcessingElement::new(epoch()).circuit().unwrap(), cfg)
        }),
        drive: Box::new(|rig, &[a, b, c]| {
            format!("{:?}", ProcessingElement::new(epoch()).mac_on(rig, a, b, c))
        }),
        probe: |io| io.out,
    }
}

fn dpu() -> Block<usfq_core::accel::DpuIo, ([f64; 4], [f64; 4])> {
    let unit = || DotProductUnit::new(epoch(), 4).unwrap();
    Block {
        name: "4-lane monolithic DPU".into(),
        rig: Box::new(move |cfg| Rig::with_config(unit().circuit().unwrap(), cfg)),
        drive: Box::new(move |rig, (a, b)| format!("{:?}", unit().dot_on(rig, a, b))),
        probe: |io| io.top,
    }
}

/// Counts that fit a 5-bit epoch (`0..=32`).
fn count(rng: &mut SplitMix64) -> u64 {
    rng.gen_range(0u64..=32)
}

fn multiplier_operands(rng: &mut SplitMix64) -> (u64, u64) {
    (count(rng), count(rng))
}

fn tree_operands(rng: &mut SplitMix64) -> [u64; 4] {
    [(); 4].map(|()| count(rng))
}

fn pe_operands(rng: &mut SplitMix64) -> [f64; 3] {
    [(); 3].map(|()| rng.gen_range(0.0..=1.0))
}

fn dpu_operands(rng: &mut SplitMix64) -> ([f64; 4], [f64; 4]) {
    let mut vector = || [(); 4].map(|()| rng.gen_range(-1.0..=1.0));
    (vector(), vector())
}

/// Each block, reused after a decoy operand set, equals a fresh
/// simulator of the measured set in every cell of sched × burst ×
/// sanitizer × shards × jitter, and every cell agrees with its
/// reference.
#[test]
fn reused_rig_equals_fresh_simulator_in_every_cell() {
    let jitter = Some(Jitter {
        sigma: Time::from_fs(2000),
        seed: 7,
    });
    let cells = cube(&[1, 2], &[None, jitter]);
    let (multiplier, tree, pe, dpu) = (multiplier(epoch()), tree(epoch()), pe(), dpu());
    for_all(6, |rng| {
        let pnm = pnm(rng.gen_range(0u64..32));
        let workloads = vec![
            pnm.reuse_workload((), ()),
            multiplier.reuse_workload(multiplier_operands(rng), multiplier_operands(rng)),
            tree.reuse_workload(tree_operands(rng), tree_operands(rng)),
            pe.reuse_workload(pe_operands(rng), pe_operands(rng)),
            dpu.reuse_workload(dpu_operands(rng), dpu_operands(rng)),
        ];
        check_cube(&workloads, &cells);
    });
}

/// Burst delivery of every block never spends a closed-form step on a
/// single pulse, and reaches the pulse-level answer.
#[test]
fn no_closed_form_step_absorbs_a_single_pulse() {
    let (multiplier, tree, pe, dpu) = (multiplier(epoch()), tree(epoch()), pe(), dpu());
    for_all(16, |rng| {
        pnm(rng.gen_range(0u64..32)).assert_no_one_pulse_steps(&());
        multiplier.assert_no_one_pulse_steps(&multiplier_operands(rng));
        tree.assert_no_one_pulse_steps(&tree_operands(rng));
        pe.assert_no_one_pulse_steps(&pe_operands(rng));
        dpu.assert_no_one_pulse_steps(&dpu_operands(rng));
    });
}

/// Burst delivery decides every train the same way, whichever path
/// delivers an interleaved train's head: each block's closed-form
/// steps, absorbed pulses and lazy splits (hits / pulses / splits) and
/// its queue's high-water mark are pinned for fixed operands. The PNM,
/// the multiplier and the tree run at the structural FIR's epoch, the
/// PE and the DPU at the balancer epoch.
#[test]
fn burst_decisions_are_pinned() {
    fn assert_pinned<P, O: Sync>(block: &Block<P, O>, operands: &O, want: [u64; 4]) {
        let burst = SimConfig {
            burst: true,
            ..SimConfig::reference()
        };
        let (rig, _) = block.run_fresh(&burst, operands);
        let activity = rig.sim().activity();
        let c = activity.coalesce;
        let got = [c.hits, c.pulses, c.lazy_splits, activity.peak_pending];
        assert_eq!(got, want, "{}: hits, pulses, splits, peak", block.name);
    }
    let fir = pnm_epoch();
    assert_pinned(&pnm(21), &(), [1, 32, 30, 32]);
    assert_pinned(&multiplier(fir), &(21, 13), [10, 20, 41, 57]);
    assert_pinned(&tree(fir), &[9, 17, 25, 16], [6, 12, 60, 67]);
    assert_pinned(&pe(), &[0.3, 0.6, 0.45], [3, 6, 29, 36]);
    let dot = ([0.5, -0.25, 0.75, -1.0], [0.25, 0.5, -0.5, 1.0]);
    assert_pinned(&dpu(), &dot, [0, 0, 185, 206]);
}
