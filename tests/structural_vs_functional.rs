//! Property tests pinning every structural (pulse-level) implementation
//! against its functional mirror across random operands.

use usfq::cells::catalog;
use usfq::core::accel::{DotProductUnit, ProcessingElement};
use usfq::core::blocks::{
    BalancerAdder, BipolarMultiplier, CountingNetwork, PulseNumberMultiplier, UnipolarMultiplier,
};
use usfq::encoding::{Epoch, PulseStream};
use usfq::sim::check::for_all;

// Each property runs 48 cases; the nightly workflow raises
// PROPTEST_CASES.

#[test]
fn unipolar_multiplier_agrees() {
    for_all(48, |rng| {
        let (a, b) = (rng.gen_range(0.0..=1.0), rng.gen_range(0.0..=1.0));
        let epoch = Epoch::from_bits(6).unwrap();
        let m = UnipolarMultiplier::new(epoch);
        let s = m.multiply(a, b).unwrap();
        let f = m.multiply_functional(a, b).unwrap();
        assert_eq!(s.count(), f.count(), "a={a} b={b}");
    });
}

#[test]
fn bipolar_multiplier_agrees() {
    for_all(48, |rng| {
        let (a, b) = (rng.gen_range(-1.0..=1.0), rng.gen_range(-1.0..=1.0));
        let epoch = Epoch::from_bits(6).unwrap();
        let m = BipolarMultiplier::new(epoch);
        let s = m.multiply(a, b).unwrap();
        let f = m.multiply_functional(a, b).unwrap();
        assert_eq!(s.count(), f.count(), "a={a} b={b}");
    });
}

#[test]
fn balancer_adder_agrees() {
    for_all(48, |rng| {
        let (a, b) = (rng.gen_range(0.0..=1.0), rng.gen_range(0.0..=1.0));
        let epoch = Epoch::with_slot(6, catalog::t_bff()).unwrap();
        let adder = BalancerAdder::new(epoch);
        let sa = PulseStream::from_unipolar(a, epoch).unwrap();
        let sb = PulseStream::from_unipolar(b, epoch).unwrap();
        let s = adder.add(sa, sb).unwrap();
        let f = adder.add_functional(sa, sb).unwrap();
        assert!((s.count() as i64 - f.count() as i64).abs() <= 1);
    });
}

#[test]
fn counting_network_agrees() {
    for_all(48, |rng| {
        let counts = rng.vec(0u64..=32, 8);
        let epoch = Epoch::with_slot(5, catalog::t_bff()).unwrap();
        let net = CountingNetwork::new(epoch, 8).unwrap();
        let streams: Vec<_> = counts
            .iter()
            .map(|&n| PulseStream::from_count(n, epoch).unwrap())
            .collect();
        let s = net.accumulate(&streams).unwrap();
        let f = net.accumulate_functional(&streams).unwrap();
        assert!(
            (s.count() as i64 - f.count() as i64).abs() <= 3,
            "structural {} functional {}",
            s.count(),
            f.count()
        );
    });
}

#[test]
fn pnm_emits_programmed_word() {
    for_all(48, |rng| {
        let word = rng.gen_range(0u64..32);
        let epoch = Epoch::with_slot(5, catalog::t_tff2()).unwrap();
        let pnm = PulseNumberMultiplier::new(epoch);
        assert_eq!(pnm.generate(word).unwrap().count(), word);
    });
}

#[test]
fn pe_mac_agrees() {
    for_all(48, |rng| {
        let [a, b, c] = [(); 3].map(|()| rng.gen_range(0.0..=1.0));
        let epoch = Epoch::with_slot(5, catalog::t_bff()).unwrap();
        let mut pe = ProcessingElement::new(epoch);
        let s = pe.mac(a, b, c).unwrap();
        let f = pe.mac_functional(a, b, c).unwrap();
        assert!(
            (s.slot() as i64 - f.slot() as i64).abs() <= 1,
            "a={a} b={b} c={c}: {} vs {}",
            s.slot(),
            f.slot()
        );
    });
}

/// Merger trees never create pulses: raw output + collisions equals
/// the input count, whatever the load.
#[test]
fn merger_tree_conserves() {
    for_all(48, |rng| {
        let counts = rng.vec(0u64..=16, 4);
        let epoch = Epoch::with_slot(4, catalog::t_bff()).unwrap();
        let adder = usfq::core::blocks::MergerAdder::new(epoch, 4).unwrap();
        let streams: Vec<_> = counts
            .iter()
            .map(|&n| PulseStream::from_count(n, epoch).unwrap())
            .collect();
        let out = adder.add(&streams).unwrap();
        let total: u64 = counts.iter().sum();
        assert_eq!(out.raw_count + out.collisions, total);
    });
}

/// Wire jitter preserves pulse counts through a stateless path — only
/// timing moves, never the number of pulses.
#[test]
fn jitter_preserves_counts() {
    use usfq::sim::component::Buffer;
    use usfq::sim::{Circuit, Simulator, Time};
    for_all(48, |rng| {
        let (seed, n) = (rng.gen_range(0u64..1000), rng.gen_range(1usize..=32));
        let mut c = Circuit::new();
        let input = c.input("in");
        let b = c.add(Buffer::new("b", Time::from_ps(10.0)));
        c.connect_input(input, b.input(0), Time::from_ps(20.0))
            .unwrap();
        let p = c.probe(b.output(0), "p");
        let mut sim = Simulator::new(c);
        sim.enable_wire_jitter(Time::from_ps(3.0), seed);
        for k in 0..n {
            sim.schedule_input(input, Time::from_ps(100.0 * k as f64))
                .unwrap();
        }
        sim.run().unwrap();
        assert_eq!(sim.probe_count(p), n);
    });
}

/// The binary FIR's quantization error shrinks monotonically enough
/// with resolution that 6 extra bits always help.
#[test]
fn binary_fir_resolution_helps() {
    use usfq::baseline::datapath::{fir_reference, BinaryFir};
    for_all(48, |rng| {
        let taps = rng.gen_range(2usize..=5);
        let coeffs = rng.vec(-1.0..=1.0, taps);
        if !coeffs.iter().any(|c| c.abs() > 0.1) {
            return;
        }
        let input: Vec<f64> = (0..64).map(|i| (i as f64 * 0.37).sin() * 0.9).collect();
        let want = fir_reference(&coeffs, &input);
        let rmse = |bits: u32| {
            let got = BinaryFir::new(&coeffs, bits).filter(&input);
            (got.iter()
                .zip(&want)
                .map(|(g, w)| (g - w) * (g - w))
                .sum::<f64>()
                / got.len() as f64)
                .sqrt()
        };
        assert!(rmse(14) <= rmse(8) + 1e-12);
    });
}

#[test]
fn dpu_agrees() {
    for_all(48, |rng| {
        let (a, b) = (rng.vec(-1.0..=1.0, 4), rng.vec(-1.0..=1.0, 4));
        let epoch = Epoch::with_slot(5, catalog::t_bff()).unwrap();
        let dpu = DotProductUnit::new(epoch, 4).unwrap();
        let s = dpu.dot(&a, &b).unwrap();
        let f = dpu.dot_functional(&a, &b).unwrap();
        // One pulse at the network root is worth L·2/N_max.
        let pulse = 4.0 * 2.0 * epoch.lsb();
        assert!(
            (s - f).abs() <= 2.0 * pulse,
            "structural {s} functional {f}"
        );
    });
}
