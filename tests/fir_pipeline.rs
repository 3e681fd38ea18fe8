//! The full FIR accuracy pipeline across all crates: dsp design →
//! unary/binary datapaths → SNR metrics, reproducing the paper's
//! §5.4.1 experiment as an integration test.

use usfq::baseline::datapath::BinaryFir;
use usfq::core::accel::{fir_reference, FaultModel, StructuralFir, UsfqFir};
use usfq::core::blocks::{
    BipolarMultiplier, CountingNetwork, MemoryBank, PulseNumberMultiplier, RlShiftRegister,
};
use usfq::core::Rig;
use usfq::dsp::{design, metrics, signal};
use usfq::encoding::RlValue;
use usfq::sim::CoalesceStats;

const FS: f64 = 32_000.0;
const N: usize = 1024;

fn experiment() -> (Vec<f64>, Vec<f64>) {
    (signal::paper_test_signal(FS, N), design::paper_filter(FS))
}

#[test]
fn clean_filters_recover_the_tone() {
    let (x, h) = experiment();
    let golden = fir_reference(&h, &x);
    let golden_snr = metrics::tone_snr(&golden, 1_000.0, FS);
    assert!(golden_snr > 18.0, "golden {golden_snr}");

    let unary = UsfqFir::new(&h, 16).unwrap().filter(&x).unwrap();
    let binary = BinaryFir::new(&h, 16).filter(&x);
    let u = metrics::tone_snr(&unary, 1_000.0, FS);
    let b = metrics::tone_snr(&binary, 1_000.0, FS);
    assert!(
        (u - golden_snr).abs() < 1.5,
        "unary {u} vs golden {golden_snr}"
    );
    assert!(
        (b - golden_snr).abs() < 1.5,
        "binary {b} vs golden {golden_snr}"
    );
}

#[test]
fn quantization_tracks_paper_trend() {
    // Paper §5.4.1: "for 16 bits, the calculated SNR is 24 dB and for
    // 6 bits is 15 dB" — coarse resolutions lose several dB.
    let (x, h) = experiment();
    let snr_at = |bits: u32| {
        let y = UsfqFir::new(&h, bits).unwrap().filter(&x).unwrap();
        metrics::tone_snr(&y, 1_000.0, FS)
    };
    let s6 = snr_at(6);
    let s16 = snr_at(16);
    assert!(s16 - s6 > 4.0, "6-bit {s6}, 16-bit {s16}");
}

#[test]
fn unary_headline_resilience() {
    // The paper's abstract: 30 % errors cost the binary filter ~30 dB
    // but the unary filter only ~4 dB.
    let (x, h) = experiment();
    let clean_u = metrics::tone_snr(
        &UsfqFir::new(&h, 16).unwrap().filter(&x).unwrap(),
        1_000.0,
        FS,
    );
    let noisy_u = metrics::tone_snr(
        &UsfqFir::new(&h, 16)
            .unwrap()
            .with_faults(
                FaultModel {
                    stream_loss: 0.3,
                    rl_loss: 0.0,
                    rl_delay: 0.3,
                },
                9,
            )
            .unwrap()
            .filter(&x)
            .unwrap(),
        1_000.0,
        FS,
    );
    let clean_b = metrics::tone_snr(&BinaryFir::new(&h, 16).filter(&x), 1_000.0, FS);
    let noisy_b = metrics::tone_snr(
        &BinaryFir::new(&h, 16).with_bit_flips(0.3, 9).filter(&x),
        1_000.0,
        FS,
    );
    let unary_drop = clean_u - noisy_u;
    let binary_drop = clean_b - noisy_b;
    assert!(unary_drop < 8.0, "unary drop {unary_drop}");
    assert!(binary_drop > 18.0, "binary drop {binary_drop}");
    assert!(binary_drop > 3.0 * unary_drop);
}

#[test]
fn stopband_stays_suppressed_under_faults() {
    let (x, h) = experiment();
    let y = UsfqFir::new(&h, 12)
        .unwrap()
        .with_faults(
            FaultModel {
                stream_loss: 0.2,
                rl_loss: 0.0,
                rl_delay: 0.2,
            },
            21,
        )
        .unwrap()
        .filter(&x)
        .unwrap();
    let spec = usfq::dsp::spectrum::amplitude_spectrum(&y);
    let bin = |f: f64| (f * N as f64 / FS).round() as usize;
    let tone = spec[bin(1_000.0)];
    for f in [7_000.0, 8_000.0, 9_000.0] {
        assert!(
            tone > 2.0 * spec[bin(f)],
            "{f} Hz leaked: tone {tone}, interferer {}",
            spec[bin(f)]
        );
    }
}

#[test]
fn unary_and_binary_agree_on_clean_signals() {
    let (x, h) = experiment();
    let unary = UsfqFir::new(&h, 14).unwrap().filter(&x).unwrap();
    let binary = BinaryFir::new(&h, 14).filter(&x);
    let rmse = (unary
        .iter()
        .zip(&binary)
        .map(|(u, b)| (u - b) * (u - b))
        .sum::<f64>()
        / unary.len() as f64)
        .sqrt();
    assert!(rmse < 0.01, "rmse {rmse}");
}

/// The structural FIR at the workload benchmark's shape (4 taps, 5
/// bits) reruns its rigs every sample, and after the first sample each
/// of its PNM runs is a replay. Its output must be bit-identical to the
/// same datapath assembled from fresh rigs, one per block call as the
/// one-shot methods (`PulseNumberMultiplier::generate`,
/// `BipolarMultiplier::multiply_streams`, `CountingNetwork::accumulate`)
/// build them, so nothing replays there; and its burst counters must
/// sum theirs. Rigs read the environment's engine configuration, so
/// running this under `USFQ_WIRE_JITTER` and `USFQ_BURST` checks replay
/// under jitter in either delivery mode.
#[test]
fn structural_fir_equals_fresh_block_runs() {
    const SAMPLES: usize = 64;
    let coeffs = design::lowpass(4, 2_000.0, FS);
    let x = signal::paper_test_signal(FS, SAMPLES);
    let mut fir = StructuralFir::new(&coeffs, 5).unwrap();
    let got: Vec<f64> = x.iter().map(|&v| fir.push(v).unwrap()).collect();
    // Every PNM run after the first sample replays; the shared
    // multiplier replays too when the symmetric filter's two middle taps
    // (equal coefficient words) hold the same quantized sample.
    assert!(fir.replays() >= 4 * (SAMPLES as u64 - 1));

    let epoch = fir.epoch();
    let gain = coeffs.iter().fold(0.0f64, |m, &c| m.max(c.abs()));
    let normalised: Vec<f64> = coeffs.iter().map(|&c| c / gain).collect();
    let bank = MemoryBank::from_bipolar(&normalised, epoch).unwrap();
    let mut delay = RlShiftRegister::new(epoch, coeffs.len());
    let zero = RlValue::from_slot(epoch.n_max() / 2, epoch).unwrap();
    let pnm = PulseNumberMultiplier::new(epoch);
    let mult = BipolarMultiplier::new(epoch);
    let net = CountingNetwork::new(epoch, 4).unwrap();
    let mut coalesce = CoalesceStats::default();
    for (i, &v) in x.iter().enumerate() {
        delay.shift(Some(RlValue::from_bipolar(v, epoch).unwrap()));
        let mut products = Vec::new();
        for k in 0..coeffs.len() {
            let mut rig = Rig::new(pnm.circuit(bank.word(k)).unwrap());
            let stream = pnm.generate_on(&mut rig).unwrap();
            coalesce.merge(&rig.coalesce());
            let sample = delay.tap(k).unwrap_or(zero);
            let mut rig = Rig::new(mult.circuit().unwrap());
            products.push(mult.multiply_on(&mut rig, stream, sample).unwrap());
            coalesce.merge(&rig.coalesce());
        }
        let mut rig = Rig::new(net.circuit().unwrap());
        let top = net.accumulate_on(&mut rig, &products).unwrap();
        coalesce.merge(&rig.coalesce());
        let want = top.value_bipolar() * 4.0 * gain;
        assert_eq!(got[i].to_bits(), want.to_bits(), "sample {i}");
    }
    assert_eq!(fir.coalesce(), coalesce);
}
