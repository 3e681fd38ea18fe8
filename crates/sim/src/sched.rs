//! Event schedulers: a binary heap fronted by a sorted run, the
//! calendar-queue time wheel, and the choice between them.
//!
//! The discrete-event kernel spends most of its cycles ordering
//! events. SFQ workloads make that ordering unusually structured:
//! timestamps are bounded-range femtosecond integers, per-cell delays
//! are a handful of picoseconds (t_INV = 9 ps … t_TFF2 = 20 ps), and a
//! U-SFQ epoch is a densely packed burst of pulses spanning
//! `2^B · B · 20 ps`.
//!
//! # The heap queue
//!
//! [`RunHeap`] is the queue [`Sched::Heap`] runs. On the small circuits
//! that [`Sched::Auto`] gives it, few events are pending (a mean of 6
//! at a push on the accelerator rigs, 18 on the catalogue netlists) and
//! a new event is often the earliest (46 % and 17 % of pushes). So it
//! keeps the earliest events, at most 64, in a run sorted descending:
//! a pop is `Vec::pop`, and a push scans back from the earliest end.
//! Every later event waits in a binary heap, and every run entry sorts
//! before every heap entry. This is the sorted bottom list of the
//! ladder queue (Tang, Goh & Thng, ACM TOMACS 2005) under a single heap
//! rung. On replayed engine traffic a pop+push costs about 16 ns on the
//! accelerator rigs and 28 ns on the catalogue, where a plain
//! `BinaryHeap` costs 25 and 51 ns (EXPERIMENTS.md, "Run-fronted heap
//! queue").
//!
//! # The calendar wheel
//!
//! A comparison queue pays `O(log n)` per operation once many events
//! are pending; a bucketed **calendar queue** (a.k.a. hanging timing
//! wheel) exploits the bounded delays for amortised `O(1)` scheduling.
//! [`CalendarWheel`] is that queue:
//!
//! * **Fixed-width buckets.** Time is divided into `2^k`-femtosecond
//!   buckets; an event at time `t` lands in bucket `(t >> k) & mask`.
//!   The bucket width is sized from the circuit's maximum cell/wire
//!   delay (see [`CalendarWheel::for_max_delay`]) so that a pulse
//!   emitted "now" almost always lands inside the wheel's window.
//! * **Lazily sorted active bucket.** Buckets are unsorted on insert.
//!   When the wheel's cursor reaches a non-empty bucket, that bucket is
//!   sorted once (descending, so pops are `Vec::pop` from the tail) and
//!   becomes *active*; inserts that race into the active bucket use a
//!   binary-search insert to keep it ordered. This turns the classic
//!   calendar queue's per-pop scan into amortised `O(1)` with one
//!   `O(b log b)` sort per bucket of size `b`.
//! * **Overflow level.** Events beyond the wheel's window (one *day*,
//!   `num_buckets × width`) wait in a min-heap ordered by `(t, seq)`
//!   and migrate into buckets in due-prefix batches as the window
//!   advances — the "far future" level of a hierarchical wheel,
//!   flattened to one level because SFQ stimuli rarely need more. The
//!   heap (rather than an unsorted vector) bounds the degenerate
//!   wide-time-range workload at `O(n log n)` instead of `O(n²)`:
//!   migration pops exactly the due prefix instead of rescanning
//!   everything once per day.
//! * **Direct-serve credit.** An overflow-resident entry already pays
//!   one heap pop to migrate into its bucket, so at low density the
//!   bucket trip only *adds* cost over serving the heap directly.
//!   When a whole-window jump migrates a sparse batch (under a
//!   quarter event per bucket), the wheel serves subsequent
//!   wheel-empty pops straight from the overflow heap — sound because
//!   an empty bucket array means the heap top *is* the global
//!   minimum. The credit is sized to a quarter of the backlog,
//!   clamped to `[64, 4096]`, so a long sparse drain runs at heap
//!   parity while returning density re-engages the buckets within a
//!   bounded number of events.
//! * **Occupancy bitmap.** One bit per bucket lets the cursor jump
//!   straight to the next non-empty bucket instead of probing empty
//!   ones — sparse circuits (few pulses in flight, wide spacing) pay
//!   a couple of word scans per pop instead of up to
//!   `num_buckets` probes.
//! * **Slab reuse.** Buckets and the overflow heap keep their
//!   allocations across [`CalendarWheel::clear`], so a
//!   [`Simulator::reset`](crate::Simulator::reset) between sweep trials
//!   schedules with zero allocation.
//!
//! # Determinism contract
//!
//! Both queues pop events in strictly ascending `(time, seq)` order —
//! byte-identical to `BinaryHeap<Reverse<(time, seq)>>` — provided
//! `seq` values are unique, which the engine guarantees with a
//! monotonic counter. Same-timestamp events therefore drain in FIFO
//! insertion order, exactly the arrival-ordered pulse semantics the
//! rest of the stack (runner determinism, sanitizer identity,
//! differential soundness) is built on.
//!
//! The heap queue is not a test fallback: [`Sched::Auto`] picks it
//! below [`AUTO_WHEEL_MIN_WIRES`] fan-out wires, which covers every
//! accelerator rig and every gated benchmark workload, and
//! [`SimConfig::reference`](crate::SimConfig::reference) runs on it.
//! [`SimConfig::sched`](crate::SimConfig::sched) or `USFQ_SCHED` forces
//! either queue.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::Time;

/// [`Sched::Auto`] picks the wheel only for netlists with at least
/// this many wires. The threshold was set between two regimes measured
/// against the plain binary heap: the catalogue netlists (tens of
/// wires, a handful of pending events, largest ~100 wires) ran
/// ~1.1–1.25× slower on the wheel, and the delay-chain kernels from
/// 129 wires up ~1.3× faster. Against the run-fronted heap
/// ([`RunHeap`]) the chains no longer favour the wheel (least `min_ns`
/// of `benchkernel` snapshots under each `USFQ_SCHED`, 2 vCPUs): the
/// 129-wire `kernel/delay_chain/128` runs 1.20× faster on the heap,
/// `kernel/delay_chain/1024` level (1.51 vs. 1.55 ms), and
/// `sched/engine_delay_chain_1024` 1.05–1.10× faster on the heap. The
/// wheel still wins on a NoC torus hotspot and long pulse-level trains
/// and loses 2.6× on the 100k-cell fabric. The value is kept until the
/// choice between the queues is settled.
pub const AUTO_WHEEL_MIN_WIRES: usize = 128;

/// Number of buckets in a default-configured wheel (must be a power of
/// two). 256 buckets × a delay-derived width keeps the whole window
/// (one "day") within an L1-resident footprint while covering dozens
/// of maximum cell delays.
pub const DEFAULT_BUCKETS: usize = 256;

/// Minimum direct-serve credit granted after a sparse whole-window
/// jump (see [`MAX_DIRECT_CREDIT`]).
const MIN_DIRECT_CREDIT: usize = 64;

/// Upper bound on the direct-serve credit. A workload whose density
/// *returns* re-engages the bucket array after at most this many
/// heap-served pops instead of degenerating into a permanent binary
/// heap.
const MAX_DIRECT_CREDIT: usize = 4_096;

/// Which event queue the [`Simulator`](crate::Simulator) uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Sched {
    /// [`RunHeap`]: a binary heap fronted by a sorted run of the
    /// earliest events, so a pop and most pushes on a small queue cost
    /// a few comparisons and the rest `O(log n)`. [`Sched::Auto`] picks
    /// it below [`AUTO_WHEEL_MIN_WIRES`] wires, so every accelerator
    /// rig and every gated benchmark workload runs on it, and so does
    /// [`SimConfig::reference`](crate::SimConfig::reference).
    Heap,
    /// Calendar-queue time wheel: amortised `O(1)` per operation.
    Wheel,
    /// Pick heap or wheel per circuit from its size and delay profile
    /// (see [`Sched::resolve`]). The default: dense workloads get the
    /// wheel's amortised `O(1)`, sparse ones avoid its fixed cursor
    /// and bucket overheads.
    #[default]
    Auto,
}

impl Sched {
    /// Resolves [`Sched::Auto`] for a circuit with `num_wires` total
    /// fan-out wires and `max_delay` largest single-hop latency;
    /// explicit choices pass through unchanged.
    ///
    /// `num_wires` bounds how many events can be in flight at once —
    /// the event-density proxy — and `max_delay` sizes the wheel's
    /// bucket window. Dense netlists (≥ [`AUTO_WHEEL_MIN_WIRES`] wires)
    /// with a real delay profile get the wheel; everything else gets
    /// the heap, whose per-op cost is lower when only a handful of
    /// events are pending. Either resolution is behaviour-preserving:
    /// both queues drain in identical `(time, seq)` order.
    pub fn resolve(self, num_wires: usize, max_delay: Time) -> Sched {
        match self {
            Sched::Auto => {
                if num_wires >= AUTO_WHEEL_MIN_WIRES && max_delay > Time::ZERO {
                    Sched::Wheel
                } else {
                    Sched::Heap
                }
            }
            explicit => explicit,
        }
    }
}

impl std::str::FromStr for Sched {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "heap" => Ok(Sched::Heap),
            "wheel" => Ok(Sched::Wheel),
            "auto" => Ok(Sched::Auto),
            other => Err(format!("unknown scheduler `{other}` (heap|wheel|auto)")),
        }
    }
}

impl std::fmt::Display for Sched {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Sched::Heap => "heap",
            Sched::Wheel => "wheel",
            Sched::Auto => "auto",
        })
    }
}

/// Operational counters of a [`CalendarWheel`], for benchmarks and
/// perf forensics. All counters are cumulative until
/// [`CalendarWheel::clear`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WheelStats {
    /// High-water mark of pending events.
    pub max_pending: usize,
    /// Batches of overflow events migrated into the wheel window.
    pub migrations: u64,
    /// Buckets sorted on first access (one per non-empty bucket the
    /// cursor visited).
    pub activations: u64,
    /// Full rebuilds caused by an out-of-order (past-time) insert —
    /// zero in any well-formed simulation.
    pub rebuilds: u64,
    /// Pops served straight from the overflow heap while the bucket
    /// array was empty and the workload sparse (see the module docs'
    /// direct-serve credit). High values mean the wheel is running in
    /// heap mode because event spacing exceeds its window.
    pub direct_serves: u64,
}

#[derive(Debug, Clone)]
struct Entry<T> {
    /// Absolute event time, femtoseconds.
    t: u64,
    /// FIFO tie-breaker; unique per entry.
    seq: u64,
    payload: T,
}

impl<T> Entry<T> {
    /// `(t, seq)` packed into one integer that orders the same way. A
    /// `BinaryHeap` sifts faster on one 128-bit compare than on a
    /// `(u64, u64)` tuple's two-step compare: draining the
    /// `sched/queue_ops` kernel's 100,000 events took 20–40 % longer
    /// with the tuple.
    #[inline]
    fn key(&self) -> u128 {
        (u128::from(self.t) << 64) | u128::from(self.seq)
    }
}

// Heap ordering: by `(t, seq)` only. `seq` is unique among live
// entries, so ignoring the payload keeps Eq consistent with Ord.
impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// A calendar-queue / time-wheel priority queue keyed by
/// `(Time, seq)`, popping in strictly ascending key order.
///
/// See the [module docs](self) for the design. `seq` values must be
/// unique across live entries; ties in `Time` then drain in `seq`
/// (insertion) order.
///
/// # Examples
///
/// ```
/// use usfq_sim::sched::CalendarWheel;
/// use usfq_sim::Time;
///
/// let mut q = CalendarWheel::new();
/// q.push(Time::from_ps(9.0), 1, "late");
/// q.push(Time::from_ps(3.0), 2, "early");
/// q.push(Time::from_ps(9.0), 0, "late-but-first");
/// assert_eq!(q.pop(), Some((Time::from_ps(3.0), 2, "early")));
/// assert_eq!(q.pop(), Some((Time::from_ps(9.0), 0, "late-but-first")));
/// assert_eq!(q.pop(), Some((Time::from_ps(9.0), 1, "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct CalendarWheel<T> {
    /// Bucket width is `1 << shift` femtoseconds.
    shift: u32,
    /// `num_buckets - 1`; `num_buckets` is a power of two.
    mask: usize,
    buckets: Vec<Vec<Entry<T>>>,
    /// Start of the wheel window (multiple of the bucket width). All
    /// bucket-resident entries have `t` in `[horizon, horizon + day)`.
    horizon: u64,
    /// Bucket index of `horizon`.
    cur: usize,
    /// Bucket of `cur` has been sorted and is being drained from its
    /// tail.
    active: bool,
    /// Entries resident in buckets.
    wheel_len: usize,
    /// One bit per bucket: set iff the bucket is non-empty. Lets the
    /// cursor jump over empty buckets in word-sized strides.
    occ: Vec<u64>,
    /// Bucket-eligibility ceiling: entries with `t < bucket_max` route
    /// to buckets, the rest to the overflow heap. Frozen between
    /// whole-window jumps (where it resets to `horizon + day`), so
    /// overflow migration happens in day-sized batches at jumps
    /// instead of continuously as the cursor advances — that keeps
    /// `bucket-resident t < bucket_max ≤ overflow t` a hard invariant
    /// and lets a sparse drain actually empty the bucket array and
    /// reach the direct-serve path.
    bucket_max: u64,
    /// Entries at or beyond `bucket_max`, min-heap by `(t, seq)`.
    overflow: BinaryHeap<Reverse<Entry<T>>>,
    /// Remaining wheel-empty pops allowed to bypass the bucket array
    /// and serve the overflow heap directly (granted after a tiny
    /// migration batch; see [`TINY_MIGRATION`]). Sound because with
    /// `wheel_len == 0` every live entry is in the overflow heap, so
    /// its top *is* the global minimum.
    direct_credit: u32,
    len: usize,
    stats: WheelStats,
}

impl<T> Default for CalendarWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CalendarWheel<T> {
    /// A wheel with a generic 2 ps bucket width — reasonable for
    /// catalog-delay SFQ circuits when no circuit is available to size
    /// from. Prefer [`CalendarWheel::for_max_delay`].
    pub fn new() -> Self {
        Self::with_params(Time::from_fs(2_048), DEFAULT_BUCKETS)
    }

    /// A wheel sized for a circuit whose largest cell or wire delay is
    /// `max_delay`: the bucket width is the power of two nearest
    /// `max_delay / 4` (clamped to `[0.5 ps, 65.5 ps]`), so one
    /// maximum-delay hop spans a handful of buckets and the whole
    /// window covers ≥ 64 such hops — pulses emitted "now" essentially
    /// never overflow.
    pub fn for_max_delay(max_delay: Time) -> Self {
        let width = (max_delay.as_fs() / 4)
            .next_power_of_two()
            .clamp(512, 65_536);
        Self::with_params(Time::from_fs(width), DEFAULT_BUCKETS)
    }

    /// A wheel with an explicit bucket width and bucket count. Both
    /// are rounded up to the next power of two (width in femtoseconds,
    /// count at least 2).
    ///
    /// # Panics
    ///
    /// Panics if `bucket_width` is [`Time::ZERO`].
    pub fn with_params(bucket_width: Time, num_buckets: usize) -> Self {
        assert!(
            bucket_width > Time::ZERO,
            "calendar wheel bucket width must be positive"
        );
        let width = bucket_width.as_fs().next_power_of_two();
        let shift = width.trailing_zeros();
        let n = num_buckets.next_power_of_two().max(2);
        let day = (n as u64) << shift;
        CalendarWheel {
            shift,
            mask: n - 1,
            bucket_max: day,
            buckets: (0..n).map(|_| Vec::new()).collect(),
            horizon: 0,
            cur: 0,
            active: false,
            wheel_len: 0,
            occ: vec![0; n.div_ceil(64)],
            overflow: BinaryHeap::new(),
            direct_credit: 0,
            len: 0,
            stats: WheelStats::default(),
        }
    }

    /// Bucket width.
    pub fn bucket_width(&self) -> Time {
        Time::from_fs(1 << self.shift)
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.mask + 1
    }

    /// Window covered by the bucket array, femtoseconds.
    #[inline]
    fn day(&self) -> u64 {
        ((self.mask as u64) + 1) << self.shift
    }

    #[inline]
    fn bucket_of(&self, t: u64) -> usize {
        ((t >> self.shift) as usize) & self.mask
    }

    /// Pending entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Operational counters since the last [`CalendarWheel::clear`].
    pub fn stats(&self) -> WheelStats {
        self.stats
    }

    /// Removes every entry, keeping all bucket and overflow
    /// allocations (the slab-reuse half of the engine's
    /// allocation-free reset). Also zeroes [`WheelStats`].
    pub fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.overflow.clear();
        self.occ.fill(0);
        self.horizon = 0;
        self.bucket_max = self.day();
        self.cur = 0;
        self.active = false;
        self.wheel_len = 0;
        self.direct_credit = 0;
        self.len = 0;
        self.stats = WheelStats::default();
    }

    #[inline]
    fn mark_occupied(&mut self, b: usize) {
        self.occ[b >> 6] |= 1u64 << (b & 63);
    }

    #[inline]
    fn mark_empty(&mut self, b: usize) {
        self.occ[b >> 6] &= !(1u64 << (b & 63));
    }

    /// Distance (in buckets, 0-based) from `from` to the nearest
    /// occupied bucket, searching forward with wrap-around. Requires
    /// at least one occupied bucket.
    fn steps_to_occupied(&self, from: usize) -> usize {
        let words = self.occ.len();
        let n = self.mask + 1;
        // First word: mask off bits below `from`.
        let mut w = self.occ[from >> 6] & (!0u64 << (from & 63));
        let mut word_idx = from >> 6;
        for probed in 0..=words {
            if w != 0 {
                let bit = (word_idx << 6) + w.trailing_zeros() as usize;
                return (bit + n - from) & self.mask;
            }
            debug_assert!(probed < words, "occupancy bitmap empty");
            word_idx = (word_idx + 1) % words;
            w = self.occ[word_idx];
            // On wrapping back into the first word, bits at/after
            // `from` were already checked; keeping them is harmless
            // (they'd map to a full-circle distance, never smaller).
        }
        unreachable!("occupancy bitmap empty")
    }

    /// Inserts an entry. `seq` must be unique among live entries; ties
    /// in `time` pop in ascending `seq` order.
    ///
    /// `push`/`peek`/`pop`/`ensure_active` carry `#[inline]` so they
    /// keep folding into the engine's event loop now that the burst
    /// paths give each of them more than one call site.
    #[inline]
    pub fn push(&mut self, time: Time, seq: u64, payload: T) {
        let t = time.as_fs();
        if t < self.horizon {
            // A past-time insert (only possible through unusual API
            // use, e.g. scheduling a stimulus behind an already-drained
            // deadline). Rebase the whole wheel — rare and O(n).
            self.rebuild_for(t);
        }
        self.insert(Entry { t, seq, payload });
        self.len += 1;
        if self.len > self.stats.max_pending {
            self.stats.max_pending = self.len;
        }
    }

    /// Whether the next peek/pop may be served straight from the
    /// overflow heap: the bucket array is empty (so the heap top is
    /// the global minimum) and a direct-serve credit is outstanding.
    #[inline]
    fn direct_mode(&self) -> bool {
        self.wheel_len == 0 && self.direct_credit > 0
    }

    /// Key of the earliest entry without removing it.
    #[inline]
    pub fn peek(&mut self) -> Option<(Time, u64, &T)> {
        if self.len == 0 {
            return None;
        }
        if self.direct_mode() {
            let e = &self.overflow.peek().expect("overflow holds the events").0;
            return Some((Time::from_fs(e.t), e.seq, &e.payload));
        }
        self.ensure_active();
        let e = self.buckets[self.cur].last().expect("active bucket filled");
        Some((Time::from_fs(e.t), e.seq, &e.payload))
    }

    /// Removes and returns the earliest entry.
    #[inline]
    pub fn pop(&mut self) -> Option<(Time, u64, T)> {
        if self.len == 0 {
            return None;
        }
        if self.direct_mode() {
            return Some(self.pop_direct());
        }
        self.ensure_active();
        let e = self.buckets[self.cur].pop().expect("active bucket filled");
        self.wheel_len -= 1;
        self.len -= 1;
        Some((Time::from_fs(e.t), e.seq, e.payload))
    }

    /// Removes and returns the earliest entry *if* its time is at or
    /// before `deadline`. Fuses the engine's peek-compare-pop sequence
    /// into one call, saving a second cursor walk per event on the
    /// hot pulse path.
    #[inline]
    pub fn pop_due(&mut self, deadline: Time) -> Option<(Time, u64, T)> {
        if self.len == 0 {
            return None;
        }
        let d = deadline.as_fs();
        if self.direct_mode() {
            if self.overflow.peek().expect("overflow holds the events").0.t > d {
                return None;
            }
            return Some(self.pop_direct());
        }
        self.ensure_active();
        if self.buckets[self.cur]
            .last()
            .expect("active bucket filled")
            .t
            > d
        {
            return None;
        }
        let e = self.buckets[self.cur].pop().expect("active bucket filled");
        self.wheel_len -= 1;
        self.len -= 1;
        Some((Time::from_fs(e.t), e.seq, e.payload))
    }

    /// Serves one entry straight from the overflow heap. Caller must
    /// hold `direct_mode()`.
    #[inline]
    fn pop_direct(&mut self) -> (Time, u64, T) {
        let Reverse(e) = self.overflow.pop().expect("overflow holds the events");
        self.direct_credit -= 1;
        self.len -= 1;
        self.stats.direct_serves += 1;
        (Time::from_fs(e.t), e.seq, e.payload)
    }

    /// Routes an entry to its bucket or the overflow level. Does not
    /// touch `len`/stats (shared by `push` and migration/rebuild).
    #[inline]
    fn insert(&mut self, e: Entry<T>) {
        debug_assert!(e.t >= self.horizon);
        if e.t < self.bucket_max {
            let b = self.bucket_of(e.t);
            let v = &mut self.buckets[b];
            if self.active && b == self.cur {
                // Keep the active bucket sorted (descending): find the
                // first element with a smaller key and insert before
                // it. New events are at or after `now`, so this lands
                // near the tail and the memmove is short.
                let key = (e.t, e.seq);
                let pos = v.partition_point(|x| (x.t, x.seq) > key);
                v.insert(pos, e);
            } else {
                v.push(e);
            }
            self.wheel_len += 1;
            self.mark_occupied(b);
        } else {
            self.overflow.push(Reverse(e));
        }
    }

    /// Advances the cursor to the earliest non-empty bucket and sorts
    /// it if freshly reached. Requires `len > 0`.
    #[inline]
    fn ensure_active(&mut self) {
        if self.active {
            if !self.buckets[self.cur].is_empty() {
                return;
            }
            self.mark_empty(self.cur);
            self.active = false;
        }
        if self.wheel_len == 0 {
            // Everything pending lives in the overflow level: jump the
            // window straight to its minimum instead of stepping
            // bucket by bucket.
            let min = self.overflow.peek().expect("overflow holds the events").0.t;
            self.horizon = min >> self.shift << self.shift;
            self.cur = self.bucket_of(self.horizon);
            self.bucket_max = self.horizon.saturating_add(self.day());
            self.migrate_due();
            if self.wheel_len == 0 {
                // Saturation corner: `horizon + day` clamped at
                // `u64::MAX` and the minimum sits exactly on the
                // clamp, so the strict `< bucket_max` migration test
                // excluded it. Move the minimum by hand; later
                // entries keep draining through here one jump at a
                // time.
                let Reverse(e) = self.overflow.pop().expect("overflow holds the events");
                let b = self.bucket_of(e.t);
                self.buckets[b].push(e);
                self.wheel_len += 1;
                self.mark_occupied(b);
            }
            // A sparse migration batch (density below a quarter event
            // per bucket) means most of the wheel machinery is wasted:
            // an overflow-resident entry already pays one heap pop to
            // migrate, so routing it through a bucket only *adds*
            // cost. Grant a bounded run of direct overflow serves
            // (taken in `peek`/`pop`/`pop_due` once these migrated
            // entries drain), sized to a quarter of the backlog so a
            // large sparse drain re-checks density only a handful of
            // times, and clamped so returning density re-engages the
            // buckets within [`MAX_DIRECT_CREDIT`] events.
            if self.wheel_len < (self.mask + 1) / 4 {
                self.direct_credit =
                    (self.overflow.len() / 4).clamp(MIN_DIRECT_CREDIT, MAX_DIRECT_CREDIT) as u32;
            }
        } else if self.buckets[self.cur].is_empty() {
            // Jump straight to the next occupied bucket. Every
            // bucket-resident entry precedes every overflow entry
            // (`t < bucket_max` vs `t ≥ bucket_max`), so no overflow
            // entry can become due strictly before it — and since
            // `bucket_max` is frozen until the array empties, nothing
            // needs to migrate here.
            let steps = self.steps_to_occupied(self.cur);
            self.cur = (self.cur + steps) & self.mask;
            self.horizon += (steps as u64) << self.shift;
        }
        // Sort descending so pops are `Vec::pop` from the tail. Keys
        // are unique (unique `seq`), so unstable sort is deterministic.
        // Single-entry buckets — the common case in sparse circuits —
        // skip the sort call entirely.
        if self.buckets[self.cur].len() > 1 {
            self.buckets[self.cur].sort_unstable_by_key(|e| Reverse((e.t, e.seq)));
        }
        self.active = true;
        self.stats.activations += 1;
    }

    /// Pulls the due prefix of the overflow heap — every entry now
    /// below `bucket_max` — into its bucket. Cheap (one peek) when
    /// nothing is due. Only called from the whole-window jump, right
    /// after `bucket_max` is re-based to `horizon + day`.
    fn migrate_due(&mut self) {
        let mut moved = false;
        while let Some(Reverse(top)) = self.overflow.peek() {
            if top.t >= self.bucket_max {
                break;
            }
            let Reverse(e) = self.overflow.pop().expect("peeked entry");
            // The active bucket is never a migration target: due
            // entries sit a full day ahead of wherever the bucket
            // was activated.
            let b = self.bucket_of(e.t);
            self.buckets[b].push(e);
            self.wheel_len += 1;
            self.mark_occupied(b);
            moved = true;
        }
        if moved {
            self.stats.migrations += 1;
        }
    }

    /// Rebase for a past-time insert: collect every entry and re-route
    /// it against a window starting at `t`'s bucket.
    fn rebuild_for(&mut self, t: u64) {
        self.stats.rebuilds += 1;
        let mut all: Vec<Entry<T>> = Vec::with_capacity(self.len);
        for b in &mut self.buckets {
            all.append(b);
        }
        all.extend(self.overflow.drain().map(|Reverse(e)| e));
        self.occ.fill(0);
        self.active = false;
        self.wheel_len = 0;
        self.direct_credit = 0;
        self.horizon = t >> self.shift << self.shift;
        self.cur = self.bucket_of(self.horizon);
        self.bucket_max = self.horizon.saturating_add(self.day());
        for e in all {
            self.insert(e);
        }
    }
}

/// Most entries [`RunHeap`]'s sorted run holds. In replayed engine
/// traffic all of the accelerator rigs' pending events fit (at most 54)
/// and nearly all of the catalogue's (at most 70); a run of 128 cost
/// over twice the plain heap per operation on fabric-shaped traffic,
/// where each push into a long run shifts more entries.
const RUN_CAP: usize = 64;

/// A binary heap fronted by a short sorted run, keyed by `(Time, seq)`
/// and popping in strictly ascending key order — the
/// [`Sched::Heap`] queue.
///
/// The earliest entries, at most 64, sit in a run sorted
/// descending, so a pop is `Vec::pop` and a push scans back from the
/// earliest end (or, later than the whole run, goes straight to its
/// front); every later entry sits in a binary heap. Each run
/// entry sorts before each heap entry, so a push that sorts after the
/// heap's top goes straight to the heap, and a full run spills its
/// later half into the heap at once. See the [module docs](self).
///
/// # Examples
///
/// ```
/// use usfq_sim::sched::RunHeap;
/// use usfq_sim::Time;
///
/// let mut q = RunHeap::new();
/// q.push(Time::from_ps(9.0), 1, "late");
/// q.push(Time::from_ps(3.0), 2, "early");
/// q.push(Time::from_ps(9.0), 0, "late-but-first");
/// assert_eq!(q.pop(), Some((Time::from_ps(3.0), 2, "early")));
/// assert_eq!(q.pop(), Some((Time::from_ps(9.0), 0, "late-but-first")));
/// assert_eq!(q.pop(), Some((Time::from_ps(9.0), 1, "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct RunHeap<T> {
    /// The earliest entries, sorted descending: the earliest is last.
    run: Vec<Entry<T>>,
    /// Every later entry, min-heap by `(t, seq)`. Allocates on the
    /// first spill.
    heap: BinaryHeap<Reverse<Entry<T>>>,
}

impl<T> Default for RunHeap<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> RunHeap<T> {
    /// An empty queue. Its one allocation is room for 16 run entries
    /// (512 bytes of engine events), grown on demand; the heap
    /// allocates on the first spill. Reserving the whole run up front
    /// (2 KB) cost 9–12 ns per operation in replay on traffic that
    /// builds a fresh simulator for every handful of events.
    pub fn new() -> Self {
        RunHeap {
            run: Vec::with_capacity(16),
            heap: BinaryHeap::new(),
        }
    }

    /// Pending entries.
    pub fn len(&self) -> usize {
        self.run.len() + self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.run.is_empty() && self.heap.is_empty()
    }

    /// Removes every entry, keeping both allocations.
    pub fn clear(&mut self) {
        self.run.clear();
        self.heap.clear();
    }

    /// Whether `e` must go to the heap: it sorts after the heap's top,
    /// so in the run it would sort after a heap entry.
    #[inline]
    fn after_heap_top(&self, e: &Entry<T>) -> bool {
        self.heap
            .peek()
            .is_some_and(|Reverse(top)| e.key() > top.key())
    }

    /// Inserts an entry. `seq` must be unique among live entries; ties
    /// in `time` pop in ascending `seq` order.
    #[inline]
    pub fn push(&mut self, time: Time, seq: u64, payload: T) {
        let e = Entry {
            t: time.as_fs(),
            seq,
            payload,
        };
        if self.run.len() == RUN_CAP && !self.after_heap_top(&e) {
            self.spill();
        }
        if self.after_heap_top(&e) {
            self.heap.push(Reverse(e));
            return;
        }
        let key = e.key();
        let at = match self.run.first() {
            // Later than the whole run, as stimuli scheduled in time
            // order are: the front, without a scan.
            Some(latest) if key > latest.key() => 0,
            _ => self
                .run
                .iter()
                .rposition(|x| x.key() > key)
                .map_or(0, |i| i + 1),
        };
        self.run.insert(at, e);
    }

    /// Moves the later half of a full run into the heap. Spilling half
    /// at once, not one entry per push, keeps a run of descending
    /// pushes from paying a spill on every push.
    #[cold]
    fn spill(&mut self) {
        self.heap.extend(self.run.drain(..RUN_CAP / 2).map(Reverse));
    }

    /// Key of the earliest entry without removing it.
    #[inline]
    pub fn peek(&self) -> Option<(Time, u64, &T)> {
        let e = match self.run.last() {
            Some(e) => e,
            None => &self.heap.peek()?.0,
        };
        Some((Time::from_fs(e.t), e.seq, &e.payload))
    }

    /// Removes and returns the earliest entry.
    #[inline]
    pub fn pop(&mut self) -> Option<(Time, u64, T)> {
        let e = match self.run.pop() {
            Some(e) => e,
            None => self.heap.pop()?.0,
        };
        Some((Time::from_fs(e.t), e.seq, e.payload))
    }

    /// Removes and returns the earliest entry *if* its time is at or
    /// before `deadline`.
    #[inline]
    pub fn pop_due(&mut self, deadline: Time) -> Option<(Time, u64, T)> {
        match self.peek() {
            Some((t, _, _)) if t <= deadline => self.pop(),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::for_all;
    use crate::rng::xorshift64;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn drain(q: &mut CalendarWheel<u32>) -> Vec<(u64, u64, u32)> {
        let mut out = Vec::new();
        while let Some((t, s, p)) = q.pop() {
            out.push((t.as_fs(), s, p));
        }
        out
    }

    #[test]
    fn fifo_within_a_timestamp() {
        let mut q = CalendarWheel::new();
        for seq in 0..10u64 {
            q.push(Time::from_ps(5.0), seq, seq as u32);
        }
        let popped = drain(&mut q);
        let seqs: Vec<u64> = popped.iter().map(|&(_, s, _)| s).collect();
        assert_eq!(seqs, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = CalendarWheel::new();
        q.push(Time::from_ps(7.0), 0, 70);
        q.push(Time::from_ps(2.0), 1, 20);
        let (t, s, &p) = q.peek().unwrap();
        assert_eq!((t, s, p), (Time::from_ps(2.0), 1, 20));
        assert_eq!(q.pop(), Some((Time::from_ps(2.0), 1, 20)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn far_future_goes_through_overflow() {
        // Window = 256 buckets × 1 ps ≈ 262 ns; schedule well past it.
        let mut q = CalendarWheel::with_params(Time::from_ps(1.0), 256);
        q.push(Time::from_ns(900.0), 0, 1);
        q.push(Time::from_ps(1.5), 1, 2);
        q.push(Time::from_ns(901.0), 2, 3);
        assert_eq!(q.pop().unwrap().2, 2);
        assert_eq!(q.pop().unwrap().2, 1);
        assert_eq!(q.pop().unwrap().2, 3);
        assert!(q.stats().migrations > 0, "{:?}", q.stats());
    }

    #[test]
    #[cfg_attr(miri, ignore = "2000 push/pop rounds are too slow under miri")]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = CalendarWheel::with_params(Time::from_ps(2.0), 8);
        let mut seq = 0u64;
        let mut last = None;
        // Sliding workload: pop one, push two slightly ahead.
        q.push(Time::ZERO, seq, 0);
        seq += 1;
        for round in 0..2_000u64 {
            let (t, s, _) = q.pop().unwrap();
            if let Some(prev) = last {
                assert!((t, s) > prev, "round {round}: {t:?} after {prev:?}");
            }
            last = Some((t, s));
            if q.len() < 64 {
                for k in 1..=2u64 {
                    q.push(t + Time::from_ps(3.0 * k as f64), seq, round as u32);
                    seq += 1;
                }
            }
        }
    }

    #[test]
    fn past_insert_rebuilds_instead_of_corrupting() {
        let mut q = CalendarWheel::with_params(Time::from_ps(1.0), 8);
        q.push(Time::from_ps(100.0), 0, 0);
        assert_eq!(q.pop().unwrap().0, Time::from_ps(100.0));
        // The window has advanced to ~100 ps; schedule behind it.
        q.push(Time::from_ps(3.0), 1, 1);
        q.push(Time::from_ps(200.0), 2, 2);
        assert_eq!(q.pop().unwrap().0, Time::from_ps(3.0));
        assert_eq!(q.pop().unwrap().0, Time::from_ps(200.0));
        assert!(q.stats().rebuilds >= 1);
    }

    #[test]
    fn clear_keeps_capacity_and_restarts() {
        let mut q = CalendarWheel::with_params(Time::from_ps(1.0), 16);
        for seq in 0..100u64 {
            q.push(Time::from_ps(seq as f64 * 7.0), seq, 0);
        }
        while q.pop().is_some() {}
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.stats(), WheelStats::default());
        q.push(Time::from_ps(1.0), 0, 9);
        assert_eq!(q.pop(), Some((Time::from_ps(1.0), 0, 9)));
    }

    #[test]
    fn extreme_times_do_not_wedge_the_wheel() {
        let mut q = CalendarWheel::with_params(Time::from_ps(1.0), 8);
        q.push(Time::MAX, 0, 0);
        q.push(Time::ZERO, 1, 1);
        q.push(Time::from_fs(u64::MAX - 1), 2, 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 0);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn sparse_drain_takes_the_direct_serve_path() {
        // Window = 1 ps × 8 buckets = 8 ps; events 100 ps apart, so
        // every whole-window jump migrates exactly one entry and the
        // wheel should fall back to serving the overflow heap.
        let mut q = CalendarWheel::with_params(Time::from_ps(1.0), 8);
        for i in 0..200u64 {
            q.push(Time::from_fs(i * 100_000), i, i as u32);
        }
        let out = drain(&mut q);
        assert_eq!(out.len(), 200);
        assert!(out.windows(2).all(|w| w[0] < w[1]), "pops stay sorted");
        assert!(
            q.stats().direct_serves > 100,
            "sparse drain should be overflow-served: {:?}",
            q.stats()
        );
    }

    #[test]
    fn density_returning_reengages_the_buckets() {
        let mut q = CalendarWheel::with_params(Time::from_ps(1.0), 8);
        // Sparse prefix drives the wheel into direct-serve mode...
        for i in 0..40u64 {
            q.push(Time::from_fs(i * 100_000), i, 0);
        }
        for _ in 0..20 {
            q.pop().unwrap();
        }
        assert!(q.stats().direct_serves > 0, "{:?}", q.stats());
        // ...then a dense burst beyond the already-popped region must
        // still drain in order, through the bucket array again.
        let base = 100 * 100_000;
        for i in 0..500u64 {
            q.push(Time::from_fs(base + i * 100), 1_000 + i, 1);
        }
        let out = drain(&mut q);
        assert_eq!(out.len(), 20 + 500);
        assert!(
            out.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)),
            "pops stay sorted across the mode switch"
        );
        let after_burst = q.stats();
        // The credit is bounded: the dense tail cannot all have been
        // heap-served.
        assert!(after_burst.direct_serves < (20 + 500), "{after_burst:?}");
    }

    #[test]
    fn pop_due_matches_peek_then_pop() {
        let mut fused = CalendarWheel::with_params(Time::from_ps(1.0), 8);
        let mut split = CalendarWheel::with_params(Time::from_ps(1.0), 8);
        let mut rng = 0x5EEDu64;
        let mut t = 0u64;
        for seq in 0..600u64 {
            t += xorshift64(&mut rng) % 30_000;
            fused.push(Time::from_fs(t), seq, seq as u32);
            split.push(Time::from_fs(t), seq, seq as u32);
        }
        // Sweep a deadline forward; at each step both queues must
        // yield the identical due prefix and then identically refuse.
        let mut deadline = 0u64;
        while !fused.is_empty() {
            deadline += 50_000;
            let d = Time::from_fs(deadline);
            loop {
                let due = matches!(split.peek(), Some((pt, _, _)) if pt <= d);
                let reference = if due { split.pop() } else { None };
                let got = fused.pop_due(d);
                assert_eq!(got, reference, "deadline {deadline}");
                if got.is_none() {
                    break;
                }
            }
        }
        assert!(split.is_empty());
        assert_eq!(fused.pop_due(Time::MAX), None);
    }

    #[test]
    fn sizing_from_max_delay_clamps() {
        let tiny = CalendarWheel::<()>::for_max_delay(Time::ZERO);
        assert_eq!(tiny.bucket_width(), Time::from_fs(512));
        let typical = CalendarWheel::<()>::for_max_delay(Time::from_ps(20.0));
        assert_eq!(typical.bucket_width(), Time::from_fs(8_192));
        let huge = CalendarWheel::<()>::for_max_delay(Time::from_ns(10_000.0));
        assert_eq!(huge.bucket_width(), Time::from_fs(65_536));
    }

    #[test]
    fn sched_parsing() {
        assert_eq!("heap".parse(), Ok(Sched::Heap));
        assert_eq!(" Wheel ".parse(), Ok(Sched::Wheel));
        assert_eq!("AUTO".parse(), Ok(Sched::Auto));
        assert!("quantum".parse::<Sched>().is_err());
        assert_eq!(Sched::default(), Sched::Auto);
        assert_eq!(Sched::Heap.to_string(), "heap");
        assert_eq!(Sched::Wheel.to_string(), "wheel");
        assert_eq!(Sched::Auto.to_string(), "auto");
    }

    #[test]
    fn auto_resolution_picks_by_density() {
        let d = Time::from_ps(10.0);
        // Sparse netlists (catalogue scale) resolve to the heap…
        assert_eq!(Sched::Auto.resolve(10, d), Sched::Heap);
        assert_eq!(
            Sched::Auto.resolve(AUTO_WHEEL_MIN_WIRES - 1, d),
            Sched::Heap
        );
        // …dense ones (long chains, wide fan-out) to the wheel…
        assert_eq!(Sched::Auto.resolve(AUTO_WHEEL_MIN_WIRES, d), Sched::Wheel);
        assert_eq!(Sched::Auto.resolve(100_000, d), Sched::Wheel);
        // …a degenerate zero-delay profile stays on the heap…
        assert_eq!(Sched::Auto.resolve(100_000, Time::ZERO), Sched::Heap);
        // …and explicit choices always pass through.
        assert_eq!(Sched::Heap.resolve(100_000, d), Sched::Heap);
        assert_eq!(Sched::Wheel.resolve(1, Time::ZERO), Sched::Wheel);
    }

    /// Reference model: the wheel pops in exactly the order a binary
    /// heap over `Reverse<(time, seq)>` does, for arbitrary interleaved
    /// push/pop scripts, bucket widths, and bucket counts.
    fn run_script(
        width_fs: u64,
        buckets: usize,
        script: &[(u64, bool)],
    ) -> (Vec<(u64, u64, u64)>, WheelStats) {
        let mut wheel = CalendarWheel::with_params(Time::from_fs(width_fs), buckets);
        let mut heap: BinaryHeap<Reverse<(u64, u64, u64)>> = BinaryHeap::new();
        let mut popped = Vec::new();
        let mut seq = 0u64;
        let mut clock = 0u64; // pushes are relative to the last pop, like the engine
        for &(dt, is_pop) in script {
            if is_pop {
                let got = wheel.pop().map(|(t, s, p)| (t.as_fs(), s, p));
                let want = heap.pop().map(|Reverse(k)| k);
                assert_eq!(got, want, "pop diverged at seq {seq}");
                if let Some((t, _, _)) = got {
                    clock = t;
                    popped.push(got.unwrap());
                }
            } else {
                let t = clock.saturating_add(dt);
                wheel.push(Time::from_fs(t), seq, seq);
                heap.push(Reverse((t, seq, seq)));
                seq += 1;
            }
        }
        // Drain both completely.
        loop {
            let got = wheel.pop().map(|(t, s, p)| (t.as_fs(), s, p));
            let want = heap.pop().map(|Reverse(k)| k);
            assert_eq!(got, want, "drain diverged");
            match got {
                Some(k) => popped.push(k),
                None => break,
            }
        }
        (popped, wheel.stats())
    }

    /// The scheduler-equivalence property the engine's determinism
    /// contract rests on: wheel == heap for any push/pop script.
    #[test]
    #[cfg_attr(miri, ignore = "hundreds of property cases are too slow under miri")]
    fn wheel_equals_heap_reference() {
        for_all(256, |rng| {
            let width_exp = rng.gen_range(0u32..16);
            let buckets = rng.gen_range(2usize..64);
            let len = rng.gen_range(0usize..300);
            // dt spans same-bucket, same-window, and overflow scales.
            let script: Vec<(u64, bool)> = (0..len)
                .map(|_| (rng.gen_range(0u64..3_000_000), rng.gen_bool(0.5)))
                .collect();
            run_script(1u64 << width_exp, buckets, &script);
        });
    }

    /// The heap queue pops exactly as a plain binary heap does, for
    /// push/pop/clear scripts with equal times, ascending and
    /// descending bulk pushes and pending counts on both sides of the
    /// run's capacity.
    #[test]
    #[cfg_attr(miri, ignore = "hundreds of property cases are too slow under miri")]
    fn run_heap_equals_binary_heap() {
        for_all(256, |rng| {
            let mut q = RunHeap::new();
            let mut reference: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
            let push_share = rng.gen_range(0.45..0.9);
            // Small spreads make equal times common.
            let spread = [3u64, 1_000, 1_000_000][rng.gen_range(0usize..3)];
            let (mut clock, mut seq) = (0u64, 0u64);
            let mut push = |q: &mut RunHeap<u64>, reference: &mut BinaryHeap<_>, t: u64| {
                q.push(Time::from_fs(t), seq, seq);
                reference.push(Reverse((t, seq)));
                seq += 1;
            };
            for _ in 0..rng.gen_range(0usize..600) {
                let r = rng.gen_range(0.0..1.0);
                if r < 0.005 {
                    q.clear();
                    reference.clear();
                } else if r < 0.02 {
                    let n = rng.gen_range(1u64..150);
                    let gap = rng.gen_range(0..spread);
                    let ascending = rng.gen_bool(0.5);
                    for i in 0..n {
                        let step = if ascending { i } else { n - 1 - i };
                        push(&mut q, &mut reference, clock + step * gap);
                    }
                } else if r < push_share {
                    push(&mut q, &mut reference, clock + rng.gen_range(0..spread));
                } else {
                    let got = q.pop().map(|(t, s, p)| {
                        assert_eq!(s, p, "payload travels with its key");
                        (t.as_fs(), s)
                    });
                    let want = reference.pop().map(|Reverse(k)| k);
                    assert_eq!(got, want, "pop diverged at {} pending", q.len());
                    if let Some((t, _)) = got {
                        clock = t;
                    }
                }
                assert_eq!(q.len(), reference.len());
                let peeked = q.peek().map(|(t, s, _)| (t.as_fs(), s));
                assert_eq!(peeked, reference.peek().map(|&Reverse(k)| k));
            }
            while let Some(Reverse(want)) = reference.pop() {
                let (t, s, _) = q.pop().expect("queue drains with the reference");
                assert_eq!((t.as_fs(), s), want, "drain diverged");
            }
            assert!(q.is_empty() && q.pop().is_none());
        });
    }

    #[test]
    fn run_heap_spills_a_descending_bulk_in_order() {
        let mut q = RunHeap::new();
        for seq in (0..200u64).rev() {
            q.push(Time::from_fs(seq / 2), seq, ());
        }
        assert_eq!(q.len(), 200);
        assert!(!q.heap.is_empty(), "the run spilled");
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, s, ())| s).collect();
        assert_eq!(popped, (0..200).collect::<Vec<_>>());
    }

    /// Monotone non-decreasing pop times, FIFO per timestamp, and
    /// conservation (everything pushed comes back out exactly once).
    #[test]
    fn pops_are_sorted_and_conserving() {
        for_all(256, |rng| {
            let len = rng.gen_range(1usize..200);
            let times = rng.vec(0u64..500_000, len);
            let mut q = CalendarWheel::with_params(Time::from_fs(1024), 32);
            for (seq, &t) in times.iter().enumerate() {
                q.push(Time::from_fs(t), seq as u64, seq);
            }
            let mut popped = Vec::new();
            while let Some((t, s, p)) = q.pop() {
                popped.push((t.as_fs(), s, p));
            }
            assert_eq!(popped.len(), times.len());
            for w in popped.windows(2) {
                assert!((w[0].0, w[0].1) < (w[1].0, w[1].1));
            }
            let mut seen: Vec<usize> = popped.iter().map(|&(_, _, p)| p).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..times.len()).collect::<Vec<_>>());
        });
    }
}
