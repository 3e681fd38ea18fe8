//! Coalesced pulse trains: many uniformly spaced pulses as one value.
//!
//! A U-SFQ pulse-stream operand of width `b` is up to `2^b` pulses at
//! (near-)uniform spacing inside one epoch. Simulating such a train
//! pulse-by-pulse costs the engine `O(2^b)` queue operations per hop;
//! a [`Burst`] carries the whole train as one closed-form object that
//! delay elements, splitters, toggles and gating cells can transform
//! exactly, so the per-hop cost becomes `O(1)` on the closed subgraph
//! (plus `O(count)` arithmetic only where a probe's times are read).
//!
//! # Exactness
//!
//! The stream injectors place pulse `k` of an `n`-pulse train at
//!
//! ```text
//! t_k = start + floor(((2k + 1) · D) / (2n))      (femtoseconds)
//! ```
//!
//! (and the grid variant multiplies a slot width *after* the floor).
//! The integer division means consecutive gaps differ by ±1 fs — the
//! train is *not* exactly uniform — so a naive `(start, period, count)`
//! triple cannot reproduce the pulse-level times bit-for-bit. `Burst`
//! therefore stores the generating rational directly:
//!
//! ```text
//! t_k = base + scale · floor((phase + k · num) / den)
//! ```
//!
//! with `phase < den` kept canonical (whole periods are folded into
//! `base`). Every transformation the cells need is closed under this
//! form: delaying shifts `base`, taking a suffix advances `phase`,
//! decimating (a toggle flip-flop keeping every 2nd pulse) scales
//! `num`, and a perfectly uniform train is the special case `den = 1`.
//!
//! All internal arithmetic widens to `u128` (a division drops back to
//! 64 bits when its numerator fits); a result that does not fit
//! the engine's femtosecond `u64` clock panics, mirroring
//! [`Time`]'s own arithmetic. Checked variants are
//! provided where the engine needs an error instead.

use crate::time::Time;

/// A coalesced train of `count` pulses at
/// `t_k = base + scale · floor((phase + k·num) / den)` femtoseconds,
/// `k = 0 .. count`.
///
/// Kept canonical: `phase < den` (the constructor and every transform
/// fold whole quotient steps into `base`). Times are non-decreasing in
/// `k`; equal adjacent times are permitted (a zero-period train) and
/// disambiguated by the engine's sequence numbers.
///
/// # Jitter envelopes
///
/// Under bounded wire-delay jitter the rational form carries an
/// *envelope*: pulse `k` is guaranteed to lie in
/// `[t_k − env_lo, t_k + env_hi]`, where `t_k` is the nominal rational
/// time. The envelope widens by the wire's jitter bound at every
/// jittered hop ([`Burst::widened`]) and rides unchanged through the
/// index transforms (`delayed`/`suffix`/`prefix`/`decimate`), which act
/// on the nominal form only. Exact jittered times are materialized
/// lazily by the engine, which bounds them by the worst case
/// ([`Burst::env_span`], [`Burst::count_latest_at_or_before`]).
///
/// # Source provenance
///
/// `src_off`/`src_stride` record how this train's indices map back to
/// the train a cell's `step_burst` received: pulse `i` here derives
/// from input pulse `src_off + i · src_stride`. The engine normalizes
/// the map to the identity before each `step_burst` call and reads it
/// off emitted trains to relocate per-pulse jitter draws — which is
/// why `step_burst` emissions must be built from the input train via
/// the transform methods rather than constructed from scratch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Burst {
    base: Time,
    scale: u64,
    phase: u64,
    num: u64,
    den: u64,
    count: u64,
    env_lo: u64,
    env_hi: u64,
    src_off: u64,
    src_stride: u64,
}

impl Burst {
    /// A perfectly uniform train: pulse `k` at `start + k · period`.
    pub fn uniform(start: Time, period: Time, count: u64) -> Burst {
        Burst {
            base: start,
            scale: period.as_fs(),
            phase: 0,
            num: 1,
            den: 1,
            count,
            env_lo: 0,
            env_hi: 0,
            src_off: 0,
            src_stride: 1,
        }
    }

    /// The general rational train
    /// `t_k = base + scale · floor((phase + k·num) / den)` fs.
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero.
    pub fn rational(base: Time, scale: u64, phase: u64, num: u64, den: u64, count: u64) -> Burst {
        assert!(den > 0, "burst denominator must be positive");
        let mut b = Burst {
            base,
            scale,
            phase,
            num,
            den,
            count,
            env_lo: 0,
            env_hi: 0,
            src_off: 0,
            src_stride: 1,
        };
        b.canonicalize();
        b
    }

    /// Folds whole quotient steps of `phase` into `base`, restoring
    /// `phase < den`.
    fn canonicalize(&mut self) {
        if self.phase >= self.den {
            let (whole, phase) = div_rem(self.phase as u128, self.den);
            self.base = Time::from_fs(wide_to_fs(
                self.base.as_fs() as u128 + self.scale as u128 * whole,
            ));
            self.phase = phase;
        }
    }

    /// Number of pulses in the train.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether the train carries no pulses.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Absolute time of pulse `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= count` or the time overflows the femtosecond
    /// clock.
    pub fn time_at(&self, k: u64) -> Time {
        assert!(k < self.count, "pulse index {k} out of {}", self.count);
        Time::from_fs(wide_to_fs(self.raw_time_at(k)))
    }

    /// Absolute time of pulse `k`, or `None` on clock overflow
    /// (`k >= count` still panics — that is a logic error, not a data
    /// condition).
    pub fn checked_time_at(&self, k: u64) -> Option<Time> {
        assert!(k < self.count, "pulse index {k} out of {}", self.count);
        u64::try_from(self.raw_time_at(k)).ok().map(Time::from_fs)
    }

    #[inline]
    fn raw_time_at(&self, k: u64) -> u128 {
        let (q, _) = div_rem(self.phase as u128 + k as u128 * self.num as u128, self.den);
        self.base.as_fs() as u128 + self.scale as u128 * q
    }

    /// Time of the first pulse.
    ///
    /// # Panics
    ///
    /// Panics if the train is empty.
    pub fn first(&self) -> Time {
        self.time_at(0)
    }

    /// Time of the last pulse.
    ///
    /// # Panics
    ///
    /// Panics if the train is empty.
    pub fn last(&self) -> Time {
        self.time_at(self.count - 1)
    }

    /// The same train shifted later by `d` (a wire or cell delay).
    ///
    /// # Panics
    ///
    /// Panics on clock overflow.
    pub fn delayed(&self, d: Time) -> Burst {
        self.checked_delayed(d).expect("burst time overflow")
    }

    /// [`Burst::delayed`], returning `None` if any shifted pulse would
    /// overflow the clock.
    pub fn checked_delayed(&self, d: Time) -> Option<Burst> {
        let base = self.base.checked_add(d)?;
        let shifted = Burst { base, ..*self };
        if shifted.count > 0 {
            shifted.checked_time_at(shifted.count - 1)?;
        }
        Some(shifted)
    }

    /// The sub-train starting at pulse `k`: pulses `k .. count`,
    /// re-indexed from zero. `suffix(0)` is the identity;
    /// `suffix(count)` is an empty train.
    ///
    /// # Panics
    ///
    /// Panics if `k > count` or on clock overflow.
    pub fn suffix(&self, k: u64) -> Burst {
        assert!(k <= self.count, "suffix {k} out of {}", self.count);
        let (whole, phase) = div_rem(self.phase as u128 + k as u128 * self.num as u128, self.den);
        Burst {
            base: Time::from_fs(wide_to_fs(
                self.base.as_fs() as u128 + self.scale as u128 * whole,
            )),
            scale: self.scale,
            phase,
            num: self.num,
            den: self.den,
            count: self.count - k,
            env_lo: self.env_lo,
            env_hi: self.env_hi,
            src_off: self
                .src_off
                .checked_add(
                    k.checked_mul(self.src_stride)
                        .expect("burst source-map overflow"),
                )
                .expect("burst source-map overflow"),
            src_stride: self.src_stride,
        }
    }

    /// The sub-train of the first `m` pulses.
    ///
    /// # Panics
    ///
    /// Panics if `m > count`.
    pub fn prefix(&self, m: u64) -> Burst {
        assert!(m <= self.count, "prefix {m} out of {}", self.count);
        Burst { count: m, ..*self }
    }

    /// Keeps pulses `offset, offset + stride, offset + 2·stride, …` —
    /// the closed form of a toggle flip-flop (`stride = 2`) or deeper
    /// counter stages.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero or on arithmetic overflow.
    pub fn decimate(&self, offset: u64, stride: u64) -> Burst {
        assert!(stride > 0, "decimation stride must be positive");
        if offset >= self.count {
            return Burst {
                count: 0,
                ..self.suffix(self.count)
            };
        }
        let kept = (self.count - offset).div_ceil(stride);
        let start = self.suffix(offset);
        let num = start
            .num
            .checked_mul(stride)
            .expect("burst decimation overflow");
        let src_stride = start
            .src_stride
            .checked_mul(stride)
            .expect("burst source-map overflow");
        Burst {
            num,
            count: kept,
            src_stride,
            ..start
        }
    }

    /// Lower envelope bound: pulse `k` arrives no earlier than
    /// `time_at(k) − env_lo()` femtoseconds.
    pub fn env_lo(&self) -> u64 {
        self.env_lo
    }

    /// Upper envelope bound: pulse `k` arrives no later than
    /// `time_at(k) + env_hi()` femtoseconds.
    pub fn env_hi(&self) -> u64 {
        self.env_hi
    }

    /// Total envelope width `env_lo + env_hi` in femtoseconds. Zero for
    /// exact (jitter-free) trains.
    pub fn env_span(&self) -> Time {
        Time::from_fs(self.env_lo.saturating_add(self.env_hi))
    }

    /// Whether the train carries no jitter envelope (all times exact).
    pub fn is_exact(&self) -> bool {
        self.env_lo == 0 && self.env_hi == 0
    }

    /// Widens the envelope by `lo`/`hi` femtoseconds — one jittered
    /// wire hop with a bounded per-pulse perturbation in `[-lo, +hi]`.
    pub fn widened(&self, lo: u64, hi: u64) -> Burst {
        Burst {
            env_lo: self.env_lo.saturating_add(lo),
            env_hi: self.env_hi.saturating_add(hi),
            ..*self
        }
    }

    /// Number of leading pulses whose *worst-case latest* arrival
    /// (`t_k + env_hi`) is `<= deadline`. Conservative under jitter;
    /// identical to [`Burst::count_at_or_before`] for exact trains.
    pub fn count_latest_at_or_before(&self, deadline: Time) -> u64 {
        match deadline.as_fs().checked_sub(self.env_hi) {
            Some(d) => self.count_at_or_before(Time::from_fs(d)),
            None => 0,
        }
    }

    /// The source-index map `(offset, stride)`: pulse `i` of this train
    /// derives from pulse `offset + i · stride` of the train the map is
    /// relative to (the engine normalizes it to `(0, 1)` before each
    /// `step_burst` call).
    pub fn src_map(&self) -> (u64, u64) {
        (self.src_off, self.src_stride)
    }

    /// The same train with its source-index map reset to the identity.
    pub fn with_src_identity(&self) -> Burst {
        Burst {
            src_off: 0,
            src_stride: 1,
            ..*self
        }
    }

    /// A lower bound on the gap between consecutive pulses
    /// (`scale · floor(num/den)`; exact for uniform trains). Safe for
    /// "gaps are at least the hazard window" style reasoning — never an
    /// overestimate.
    pub fn min_gap(&self) -> Time {
        let g = self.scale as u128 * (self.num / self.den) as u128;
        Time::from_fs(u64::try_from(g).unwrap_or(u64::MAX))
    }

    /// Number of leading pulses with `t_k <= deadline`.
    pub fn count_at_or_before(&self, deadline: Time) -> u64 {
        // Times are non-decreasing in k: binary search the partition.
        let (mut lo, mut hi) = (0u64, self.count);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.raw_time_at(mid) <= deadline.as_fs() as u128 {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// The pulse times, expanded. Intended for scheduling fallbacks,
    /// probes, and tests — this is the `O(count)` boundary the burst
    /// representation exists to avoid on hot paths.
    pub fn iter_times(&self) -> impl Iterator<Item = Time> + '_ {
        let mut s = self.stepper(0, 1);
        (0..self.count).map(move |_| Time::from_fs(s.next_fs()))
    }

    /// Division-free sequential reader of the nominal times at a fixed
    /// index stride: the `n`-th [`BurstStepper::next_fs`] call returns
    /// `time_at(k0 + n·stride).as_fs()`. The rational floor advances by
    /// a precomputed quotient/remainder pair — one add and one compare
    /// per pulse — so expanding a train (probes, jitter trails, exact
    /// fallbacks) skips the per-pulse wide division of [`Burst::time_at`].
    ///
    /// Reads are exact for every in-range index (times are
    /// non-decreasing, so no intermediate value can overflow before an
    /// out-of-range one would); the stepper itself performs no bounds
    /// checks, callers read at most `count` times.
    pub fn stepper(&self, k0: u64, stride: u64) -> BurstStepper {
        let (q, r) = div_rem(self.phase as u128 + k0 as u128 * self.num as u128, self.den);
        let (dq, dr) = div_rem(stride as u128 * self.num as u128, self.den);
        BurstStepper {
            t: wide_to_fs(self.base.as_fs() as u128 + self.scale as u128 * q),
            // Saturating: only ever read when a further in-range index
            // exists, in which case `t + dt` fits by monotonicity.
            dt: u64::try_from(self.scale as u128 * dq).unwrap_or(u64::MAX),
            scale: self.scale,
            r,
            dr,
            den: self.den,
        }
    }
}

/// See [`Burst::stepper`].
#[derive(Debug, Clone)]
pub struct BurstStepper {
    t: u64,
    dt: u64,
    scale: u64,
    r: u64,
    dr: u64,
    den: u64,
}

impl BurstStepper {
    /// The current pulse's nominal time (femtoseconds), advancing the
    /// stepper to the next index. The advance past the final in-range
    /// index may wrap; that value is never returned to a caller
    /// respecting the train's `count`.
    #[inline]
    pub fn next_fs(&mut self) -> u64 {
        let cur = self.t;
        self.r += self.dr;
        if self.r >= self.den {
            self.r -= self.den;
            self.t = self.t.wrapping_add(self.scale);
        }
        self.t = self.t.wrapping_add(self.dt);
        cur
    }
}

#[inline]
fn wide_to_fs(v: u128) -> u64 {
    u64::try_from(v).expect("burst time overflow")
}

/// `(p / den, p % den)`, in 64-bit division whenever `p` fits a `u64`:
/// a 128-bit divide is a software routine (`__udivti3`), and the
/// numerators of real trains rarely need the width.
#[inline]
fn div_rem(p: u128, den: u64) -> (u128, u64) {
    match u64::try_from(p) {
        Ok(p) => ((p / den) as u128, p % den),
        Err(_) => (p / den as u128, (p % den as u128) as u64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::for_all;

    /// Reference model: the naive expansion of the rational form.
    fn naive_times(base: u64, scale: u64, phase: u64, num: u64, den: u64, count: u64) -> Vec<u64> {
        (0..count)
            .map(|k| {
                let q = (phase as u128 + k as u128 * num as u128) / den as u128;
                u64::try_from(base as u128 + scale as u128 * q).unwrap()
            })
            .collect()
    }

    /// The 64-bit path of `div_rem` agrees with `u128` division, for
    /// numerators on both sides of `u64::MAX`.
    #[test]
    fn div_rem_matches_wide_division() {
        for_all(256, |rng| {
            let den = match rng.gen_range(0u32..3) {
                0 => rng.gen_range(1u64..=16),
                1 => rng.gen_range(1u64..=u32::MAX as u64),
                _ => rng.gen_range(1u64..=u64::MAX),
            };
            let p = match rng.gen_range(0u32..4) {
                0 => rng.gen_range(0u64..=1_000) as u128,
                1 => rng.next_u64() as u128,
                2 => u64::MAX as u128 - 1 + rng.gen_range(0u64..4) as u128,
                _ => rng.next_u64() as u128 * rng.next_u64() as u128 + rng.next_u64() as u128,
            };
            let want = (p / den as u128, (p % den as u128) as u64);
            assert_eq!(div_rem(p, den), want, "{p} / {den}");
        });
    }

    #[test]
    fn uniform_times() {
        let b = Burst::uniform(Time::from_ps(10.0), Time::from_ps(3.0), 4);
        let times: Vec<Time> = b.iter_times().collect();
        assert_eq!(
            times,
            vec![
                Time::from_ps(10.0),
                Time::from_ps(13.0),
                Time::from_ps(16.0),
                Time::from_ps(19.0)
            ]
        );
        assert_eq!(b.first(), Time::from_ps(10.0));
        assert_eq!(b.last(), Time::from_ps(19.0));
        assert_eq!(b.min_gap(), Time::from_ps(3.0));
    }

    #[test]
    fn rational_matches_stream_formula() {
        // The schedule_from shape: pulse k at floor((2k+1)·D / (2n)).
        let d: u64 = 1_000_000; // 1 ns epoch
        let n: u64 = 7;
        let b = Burst::rational(Time::ZERO, 1, d, 2 * d, 2 * n, n);
        let want: Vec<u64> = (0..n).map(|k| (2 * k + 1) * d / (2 * n)).collect();
        let got: Vec<u64> = b
            .iter_times()
            .map(super::super::time::Time::as_fs)
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn suffix_and_prefix_partition_the_train() {
        let b = Burst::rational(Time::from_fs(5), 3, 17, 29, 10, 20);
        let all: Vec<Time> = b.iter_times().collect();
        for k in 0..=20u64 {
            let head: Vec<Time> = b.prefix(k).iter_times().collect();
            let tail: Vec<Time> = b.suffix(k).iter_times().collect();
            assert_eq!(head, all[..k as usize], "prefix {k}");
            assert_eq!(tail, all[k as usize..], "suffix {k}");
        }
    }

    #[test]
    fn decimate_keeps_every_stride_th() {
        let b = Burst::rational(Time::ZERO, 1, 999, 2_000, 14, 11);
        let all: Vec<Time> = b.iter_times().collect();
        for offset in 0..=11u64 {
            for stride in 1..=4u64 {
                let want: Vec<Time> = all
                    .iter()
                    .skip(offset as usize)
                    .step_by(stride as usize)
                    .copied()
                    .collect();
                let got: Vec<Time> = b.decimate(offset, stride).iter_times().collect();
                assert_eq!(got, want, "offset {offset} stride {stride}");
            }
        }
    }

    #[test]
    fn delayed_shifts_every_pulse() {
        let b = Burst::rational(Time::from_ps(1.0), 2, 3, 7, 5, 9);
        let d = Time::from_ps(4.5);
        let want: Vec<Time> = b.iter_times().map(|t| t + d).collect();
        let got: Vec<Time> = b.delayed(d).iter_times().collect();
        assert_eq!(got, want);
    }

    #[test]
    fn count_at_or_before_is_the_partition_point() {
        let b = Burst::rational(Time::ZERO, 1, 1, 10, 3, 12);
        let all: Vec<Time> = b.iter_times().collect();
        for fs in 0..50u64 {
            let deadline = Time::from_fs(fs);
            let naive = all.iter().filter(|&&t| t <= deadline).count() as u64;
            assert_eq!(b.count_at_or_before(deadline), naive, "deadline {fs}");
        }
        assert_eq!(b.count_at_or_before(Time::MAX), 12);
    }

    #[test]
    fn min_gap_is_a_lower_bound() {
        let b = Burst::rational(Time::ZERO, 1, 5, 17, 6, 30);
        let times: Vec<u64> = b
            .iter_times()
            .map(super::super::time::Time::as_fs)
            .collect();
        let actual_min = times.windows(2).map(|w| w[1] - w[0]).min().unwrap();
        assert!(b.min_gap().as_fs() <= actual_min);
        // And it's exact for uniform trains.
        let u = Burst::uniform(Time::ZERO, Time::from_fs(42), 5);
        assert_eq!(u.min_gap(), Time::from_fs(42));
    }

    #[test]
    fn overflow_is_checked() {
        let b = Burst::uniform(Time::from_fs(u64::MAX - 10), Time::from_fs(7), 5);
        assert_eq!(b.checked_time_at(0), Some(Time::from_fs(u64::MAX - 10)));
        assert_eq!(b.checked_time_at(4), None);
        assert!(b.checked_delayed(Time::from_fs(100)).is_none());
    }

    #[test]
    fn zero_period_trains_are_legal() {
        let b = Burst::uniform(Time::from_ps(2.0), Time::ZERO, 3);
        let times: Vec<Time> = b.iter_times().collect();
        assert_eq!(times, vec![Time::from_ps(2.0); 3]);
        assert_eq!(b.min_gap(), Time::ZERO);
        assert_eq!(b.count_at_or_before(Time::from_ps(2.0)), 3);
        assert_eq!(b.count_at_or_before(Time::from_ps(1.0)), 0);
    }

    #[test]
    fn envelopes_ride_through_transforms() {
        let b = Burst::uniform(Time::from_ps(10.0), Time::from_ps(5.0), 8).widened(300, 700);
        assert_eq!((b.env_lo(), b.env_hi()), (300, 700));
        assert!(!b.is_exact());
        assert_eq!(b.env_span(), Time::from_fs(1_000));
        for t in [
            b.delayed(Time::from_ps(2.0)),
            b.suffix(3),
            b.prefix(4),
            b.decimate(1, 2),
        ] {
            assert_eq!((t.env_lo(), t.env_hi()), (300, 700), "{t:?}");
        }
        // Widening accumulates per hop.
        let w = b.widened(100, 200);
        assert_eq!((w.env_lo(), w.env_hi()), (400, 900));
        // Conservative prefix counting backs off by env_hi.
        assert_eq!(b.count_at_or_before(Time::from_ps(20.0)), 3);
        assert_eq!(b.count_latest_at_or_before(Time::from_ps(20.0)), 2);
        let exact = Burst::uniform(Time::from_ps(10.0), Time::from_ps(5.0), 8);
        for fs in (0..60_000u64).step_by(1_250) {
            let d = Time::from_fs(fs);
            assert_eq!(
                exact.count_latest_at_or_before(d),
                exact.count_at_or_before(d)
            );
        }
    }

    #[test]
    fn source_maps_compose_like_the_index_transforms() {
        let b = Burst::rational(Time::ZERO, 7, 3, 11, 4, 40);
        assert_eq!(b.src_map(), (0, 1));
        // suffix(k): i -> k + i
        assert_eq!(b.suffix(5).src_map(), (5, 1));
        // decimate(o, s): i -> o + i·s
        assert_eq!(b.decimate(3, 2).src_map(), (3, 2));
        // Composition: suffix then decimate then suffix.
        let c = b.suffix(4).decimate(1, 3).suffix(2);
        // i -> 4 + (1 + (2 + i)·3) = 11 + 3i
        assert_eq!(c.src_map(), (11, 3));
        let all: Vec<Time> = b.iter_times().collect();
        let (off, stride) = c.src_map();
        for (i, t) in c.iter_times().enumerate() {
            assert_eq!(t, all[(off + i as u64 * stride) as usize]);
        }
        // prefix/delayed leave the map alone; the identity reset clears it.
        assert_eq!(c.prefix(2).src_map(), (11, 3));
        assert_eq!(c.delayed(Time::from_ps(1.0)).src_map(), (11, 3));
        assert_eq!(c.with_src_identity().src_map(), (0, 1));
    }

    /// Every transform agrees with the naive expansion for
    /// arbitrary (bounded) rational parameters.
    #[test]
    #[cfg_attr(miri, ignore = "hundreds of property cases are too slow under miri")]
    fn transforms_match_naive_model() {
        for_all(256, |rng| {
            let base = rng.gen_range(0u64..1_000_000_000);
            let scale = rng.gen_range(0u64..100_000);
            let phase = rng.gen_range(0u64..100_000);
            let num = rng.gen_range(0u64..100_000);
            let den = rng.gen_range(1u64..100_000);
            let count = rng.gen_range(0u64..200);
            let split = rng.gen_range(0u64..200);
            let delay = rng.gen_range(0u64..1_000_000);
            let b = Burst::rational(Time::from_fs(base), scale, phase, num, den, count);
            let want = naive_times(base, scale, phase, num, den, count);
            let got: Vec<u64> = b.iter_times().map(Time::as_fs).collect();
            assert_eq!(&got, &want);

            let k = split.min(count);
            let tail: Vec<u64> = b.suffix(k).iter_times().map(Time::as_fs).collect();
            assert_eq!(&tail, &want[k as usize..]);

            let shifted: Vec<u64> = b
                .delayed(Time::from_fs(delay))
                .iter_times()
                .map(Time::as_fs)
                .collect();
            let want_shifted: Vec<u64> = want.iter().map(|t| t + delay).collect();
            assert_eq!(shifted, want_shifted);

            let dec: Vec<u64> = b.decimate(k, 2).iter_times().map(Time::as_fs).collect();
            let want_dec: Vec<u64> = want.iter().skip(k as usize).step_by(2).copied().collect();
            assert_eq!(dec, want_dec);

            if count > 0 {
                let mid = want[(count / 2) as usize];
                let naive_cnt = want.iter().filter(|&&t| t <= mid).count() as u64;
                assert_eq!(b.count_at_or_before(Time::from_fs(mid)), naive_cnt);

                // Strided stepper reads match `time_at` exactly.
                let (k0, stride) = (split.min(count - 1), 1 + split % 3);
                let mut s = b.stepper(k0, stride);
                let mut k = k0;
                while k < count {
                    assert_eq!(s.next_fs(), b.time_at(k).as_fs());
                    k += stride;
                }
            }
        });
    }
}
