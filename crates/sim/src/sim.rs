//! The discrete-event scheduler.
//!
//! Events execute in `(time, insertion-sequence)` order on one event
//! queue, a calendar queue (timing wheel): near-future events hash into a
//! ring of time slots (O(1) insert), far-future events wait in an overflow
//! heap and are promoted as the wheel turns. Only the currently active
//! slot is kept heap-ordered, so push/pop cost does not grow with the
//! total number of pending events the way a global binary heap's does.
//!
//! There is deliberately one queue and no backend choice. A plain global
//! `BinaryHeap` ties the wheel on sparse mixes (an echo server keeps ~17
//! events pending) but, measured on a 2-vCPU AMD EPYC host, retires
//! 25–30% fewer requests per host second on a dense one (a million-client
//! fleet keeps ~125k pending per shard), so the wheel is the queue that
//! wins or ties on every benchmark workload.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::faults::{FaultAction, FaultInjector, FaultPlan};
use crate::payload::BufferPool;
use crate::telemetry::{Telemetry, TraceEvent};
use crate::Time;

type EventFn = Box<dyn FnOnce(&mut Sim)>;

struct Entry {
    at: Time,
    seq: u64,
    f: EventFn,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    /// Reversed ordering so that `BinaryHeap` (a max-heap) pops the
    /// earliest `(time, seq)` pair first.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Log2 of the wheel's slot width: each slot covers 4096 ns (~4 µs).
///
/// Horizon-aware sizing, picked by profiling the end-to-end packet mix
/// rather than the microbench: the simulator's NIC/PCIe/stack events
/// spread over 1–80 µs horizons, so 1 µs slots put nearly every event in
/// its own slot and every pop paid a full slot activation. At 4 µs,
/// co-scheduled protocol events share slots (refills drop ~3.6× on the
/// UDP ping-pong mix) while the slot heap stays small enough that dense
/// meshes keep their O(1) insert advantage.
const SLOT_SHIFT: u32 = 12;
/// Number of slots on the wheel ring; horizon = `SLOTS << SLOT_SHIFT` ns
/// (≈1.05 ms — sub-horizon covers protocol and batching timers, overflow
/// keeps retry/watchdog/control-plane timers). Must stay a multiple of 64
/// for the occupancy bitmap.
const SLOTS: usize = 256;
const BITMAP_WORDS: usize = SLOTS / 64;

/// The simulator's event queue: a calendar queue / timing wheel.
///
/// Invariants (with `base` = absolute index of the active slot,
/// `slot(t) = t.as_nanos() >> SLOT_SHIFT`):
///
/// * `active` (a small binary heap) holds every pending event with
///   `slot(at) <= base` — its minimum is therefore the global minimum;
/// * `ring[s % SLOTS]` holds events with `base < slot(at) < base + SLOTS`,
///   unordered (they are heapified wholesale when their slot activates),
///   and the occupancy bitmap has exactly the bits of non-empty ring
///   slots set;
/// * `overflow` (a binary heap ordered by `(time, seq)`) holds events at
///   or beyond the horizon and is promoted from the top as `base`
///   advances.
///
/// The sparse-occupancy hot path is deliberately allocation-free: slot
/// `Vec`s keep their capacity across activations (drain, not take), and
/// the bitmap is scanned a word at a time with `trailing_zeros`, so an
/// idle ring costs at most `SLOTS / 64 + 1` word tests per refill rather
/// than one branch per empty slot.
struct TimingWheel {
    ring: Vec<Vec<Entry>>,
    occupied: [u64; BITMAP_WORDS],
    base: u64,
    active: BinaryHeap<Entry>,
    overflow: BinaryHeap<Entry>,
    len: usize,
}

impl TimingWheel {
    fn new() -> TimingWheel {
        TimingWheel {
            ring: (0..SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; BITMAP_WORDS],
            base: 0,
            active: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            len: 0,
        }
    }

    #[inline]
    fn slot_of(at: Time) -> u64 {
        at.as_nanos() >> SLOT_SHIFT
    }

    fn push(&mut self, entry: Entry) {
        self.len += 1;
        if Self::slot_of(entry.at) < self.base + SLOTS as u64 {
            self.place(entry);
        } else {
            self.overflow.push(entry);
        }
    }

    /// Puts an entry inside the horizon where it belongs: the active heap
    /// if its slot is the active one (or already passed), else its ring
    /// slot.
    #[inline]
    fn place(&mut self, entry: Entry) {
        let s = Self::slot_of(entry.at);
        if s <= self.base {
            self.active.push(entry);
        } else {
            let idx = (s % SLOTS as u64) as usize;
            self.ring[idx].push(entry);
            self.occupied[idx / 64] |= 1 << (idx % 64);
        }
    }

    /// Absolute slot index of the nearest occupied ring slot strictly
    /// after `base`, found by scanning the occupancy bitmap a word at a
    /// time (at most `BITMAP_WORDS + 1` word tests for a full revolution).
    fn next_occupied(&self) -> Option<u64> {
        let base_ring = (self.base % SLOTS as u64) as usize;
        let mut bit = (base_ring + 1) % SLOTS;
        let mut remaining = SLOTS - 1;
        while remaining > 0 {
            let off = bit % 64;
            let span = (64 - off).min(remaining);
            let mask = if span == 64 {
                !0u64
            } else {
                ((1u64 << span) - 1) << off
            };
            let hit = self.occupied[bit / 64] & mask;
            if hit != 0 {
                let b = (bit / 64) * 64 + hit.trailing_zeros() as usize;
                let d = (b + SLOTS - base_ring) % SLOTS;
                return Some(self.base + d as u64);
            }
            bit = (bit + span) % SLOTS;
            remaining -= span;
        }
        None
    }

    /// Advances `base` to the next non-empty slot (promoting overflow
    /// entries that come into the horizon) and heapifies it into `active`.
    /// No-op when `active` is already non-empty. Returns `false` when the
    /// queue is completely empty.
    fn refill(&mut self) -> bool {
        loop {
            if !self.active.is_empty() {
                return true;
            }
            if self.len == 0 {
                return false;
            }
            // Ring slots are strictly inside the horizon, overflow at or
            // beyond it, so an occupied ring slot is always nearer.
            let target = match self.next_occupied() {
                Some(r) => r,
                None => match self.overflow.peek() {
                    Some(e) => Self::slot_of(e.at),
                    None => return false,
                },
            };
            self.base = target;
            let idx = (target % SLOTS as u64) as usize;
            self.occupied[idx / 64] &= !(1 << (idx % 64));
            // Drain (not take) so the slot keeps its capacity: at sparse
            // occupancy every event activates a slot, and a malloc/free
            // per activation was most of the wheel's e2e regression.
            let mut slot = std::mem::take(&mut self.ring[idx]);
            self.active.extend(slot.drain(..));
            self.ring[idx] = slot;
            // Move every overflow entry now inside the horizon onto the
            // ring (or straight into `active`).
            let horizon_slot = self.base + SLOTS as u64;
            while self
                .overflow
                .peek()
                .is_some_and(|e| Self::slot_of(e.at) < horizon_slot)
            {
                let entry = self.overflow.pop().expect("peeked");
                self.place(entry);
            }
            // Loop again if the activated slot fed nothing into `active`
            // but promotion repopulated later ring slots.
        }
    }

    /// Pops the earliest `(time, seq)` entry if it is due at or before
    /// `deadline`. One refill, one heap peek, one heap pop — the run
    /// loop's single hot call.
    fn pop_at_or_before(&mut self, deadline: Time) -> Option<Entry> {
        if !self.refill() {
            return None;
        }
        if self.active.peek()?.at > deadline {
            return None;
        }
        self.len -= 1;
        self.active.pop()
    }

    /// Timestamp of the earliest pending entry without popping it. Takes
    /// `&mut self` because it may advance the wheel to the next occupied
    /// slot — exactly the structural change the next pop would make, so
    /// peeking never perturbs execution order.
    fn peek_next_at(&mut self) -> Option<Time> {
        if !self.refill() {
            return None;
        }
        self.active.peek().map(|e| e.at)
    }
}

/// A deterministic discrete-event simulator.
///
/// Events are closures executed in `(time, insertion-sequence)` order, which
/// makes runs with the same seed and same schedule calls bit-for-bit
/// reproducible. Model components hold `Rc<RefCell<_>>` state and schedule
/// follow-up events from inside their handlers.
///
/// # Example
///
/// ```
/// use lynx_sim::Sim;
/// use std::cell::Cell;
/// use std::rc::Rc;
/// use std::time::Duration;
///
/// let mut sim = Sim::new(7);
/// let hits = Rc::new(Cell::new(0));
/// for i in 0..3u64 {
///     let hits = Rc::clone(&hits);
///     sim.schedule_in(Duration::from_micros(i), move |_| {
///         hits.set(hits.get() + 1);
///     });
/// }
/// sim.run();
/// assert_eq!(hits.get(), 3);
/// ```
pub struct Sim {
    now: Time,
    seq: u64,
    queue: TimingWheel,
    rng: StdRng,
    seed: u64,
    stopped: bool,
    executed: u64,
    telemetry: Option<Telemetry>,
    faults: Option<FaultInjector>,
    pool: BufferPool,
}

impl fmt::Debug for Sim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.now)
            .field("pending", &self.queue.len)
            .field("executed", &self.executed)
            .field("seed", &self.seed)
            .field("stopped", &self.stopped)
            .field("telemetry", &self.telemetry.is_some())
            .field("faults", &self.faults.is_some())
            .finish()
    }
}

impl Sim {
    /// Creates a simulator whose random stream is derived from `seed`.
    pub fn new(seed: u64) -> Sim {
        Sim {
            now: Time::ZERO,
            seq: 0,
            queue: TimingWheel::new(),
            rng: StdRng::seed_from_u64(seed),
            seed,
            stopped: false,
            executed: 0,
            telemetry: None,
            faults: None,
            pool: BufferPool::new(),
        }
    }

    /// The simulator's scratch-buffer pool (a cheap clone of the handle).
    ///
    /// Hot-path encoders take recycled `Vec<u8>`s from here instead of
    /// allocating; see [`BufferPool`].
    #[inline]
    pub fn buffers(&self) -> BufferPool {
        self.pool.clone()
    }

    /// Attaches a [`Telemetry`] sink (idempotent) and returns a handle to
    /// it. Until this is called, every [`Sim::trace`] / [`Sim::count`] /
    /// [`Sim::gauge`] hook is a no-op costing one `Option` check.
    pub fn enable_telemetry(&mut self) -> Telemetry {
        self.telemetry.get_or_insert_with(Telemetry::new).clone()
    }

    /// The attached telemetry sink, if [`Sim::enable_telemetry`] was
    /// called. Instrumentation sites that need to build dynamic counter
    /// names guard on this so the disabled path allocates nothing.
    #[inline]
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_ref()
    }

    /// Records a trace event stamped at the current simulated time.
    ///
    /// The closure only runs when telemetry is enabled, so event
    /// construction (and its `String` allocations) costs nothing when
    /// disabled.
    #[inline]
    pub fn trace(&self, event: impl FnOnce() -> TraceEvent) {
        if let Some(t) = &self.telemetry {
            t.record(self.now, event());
        }
    }

    /// Adds `delta` to counter `name` when telemetry is enabled.
    ///
    /// Takes a `&'static str` so the disabled path never formats a name;
    /// sites with dynamic names go through [`Sim::telemetry`] instead, and
    /// per-packet sites intern a
    /// [`CounterId`](crate::telemetry::CounterId) once and use
    /// [`Telemetry::add_by_id`] thereafter.
    #[inline]
    pub fn count(&self, name: &'static str, delta: u64) {
        if let Some(t) = &self.telemetry {
            t.count(name, delta);
        }
    }

    /// Sets gauge `name` to `value` when telemetry is enabled.
    #[inline]
    pub fn gauge(&self, name: &'static str, value: f64) {
        if let Some(t) = &self.telemetry {
            t.gauge(name, value);
        }
    }

    /// Arms a [`FaultPlan`]: from now on, instrumented components that call
    /// [`Sim::fault_at`] may be struck by the plan's rules. Until this is
    /// called every fault hook is a no-op costing one `Option` check, and
    /// model timing is bit-identical to a build without fault support.
    pub fn enable_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(FaultInjector::new(plan));
    }

    /// Whether a fault plan is armed. Components use this to skip building
    /// dynamic site names — and to keep recovery watchdogs disarmed — on the
    /// fault-free fast path.
    #[inline]
    pub fn faults_enabled(&self) -> bool {
        self.faults.is_some()
    }

    /// Consults the armed fault plan for an operation at `site`.
    ///
    /// Returns the [`FaultAction`] striking this operation, if any. Counts
    /// `faults.injected.<kind>` and records a
    /// [`FaultInject`](TraceEvent::FaultInject) trace event when telemetry
    /// is enabled. Always `None` when no plan is armed.
    pub fn fault_at(&mut self, site: &str) -> Option<FaultAction> {
        let injector = self.faults.as_mut()?;
        let action = injector.decide(site, self.now)?;
        if let Some(t) = &self.telemetry {
            let kind = action.kind();
            t.count(&format!("faults.injected.{kind}"), 1);
            t.record(
                self.now,
                TraceEvent::FaultInject {
                    site: site.to_string(),
                    kind,
                },
            );
        }
        Some(action)
    }

    /// Total faults injected so far (0 when no plan is armed).
    pub fn faults_injected(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.injected())
    }

    /// The current simulated instant.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// The seed this simulator was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Mutable access to the deterministic random stream.
    #[inline]
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Derives a named random stream from this simulator's seed (see
    /// [`rng::derive_seed`](crate::rng::derive_seed)).
    ///
    /// Unlike [`Sim::rng`], draws from a named stream are insensitive to
    /// every other consumer's draw order, so components that must stay
    /// reproducible under refactoring — or that run on different shards
    /// of a partitioned run — should derive their own stream.
    pub fn rng_stream(&self, name: &str) -> crate::rng::RngStream {
        crate::rng::RngStream::derive(self.seed, name)
    }

    /// Timestamp of the earliest pending event, or `None` when the queue
    /// is empty. The partitioned engine uses this to fast-forward idle
    /// windows deterministically; it never changes execution order.
    pub fn next_event_at(&mut self) -> Option<Time> {
        self.queue.peek_next_at()
    }

    /// Number of events waiting in the queue.
    pub fn pending(&self) -> usize {
        self.queue.len
    }

    /// Number of events executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Schedules `f` to run after `delay` of simulated time.
    pub fn schedule_in(&mut self, delay: Duration, f: impl FnOnce(&mut Sim) + 'static) {
        self.schedule_at(self.now + delay, f);
    }

    /// Schedules `f` to run at the absolute instant `at`.
    ///
    /// Scheduling in the past is clamped to "now": the event runs before any
    /// later event, preserving causality.
    pub fn schedule_at(&mut self, at: Time, f: impl FnOnce(&mut Sim) + 'static) {
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Entry {
            at,
            seq,
            f: Box::new(f),
        });
    }

    /// Requests the current [`Sim::run`] loop to stop after the event in
    /// progress returns. Pending events are retained.
    pub fn stop(&mut self) {
        self.stopped = true;
    }

    /// Runs until the event queue drains or [`Sim::stop`] is called.
    pub fn run(&mut self) {
        self.run_until(Time::MAX);
    }

    /// Runs every event scheduled at or before `deadline`, then advances the
    /// clock to `deadline` (unless the queue drained earlier or the run was
    /// stopped, in which case the clock stays at the last event).
    pub fn run_until(&mut self, deadline: Time) {
        self.stopped = false;
        while let Some(entry) = self.queue.pop_at_or_before(deadline) {
            debug_assert!(entry.at >= self.now, "event queue went back in time");
            self.now = entry.at;
            self.executed += 1;
            (entry.f)(self);
            if self.stopped {
                return;
            }
        }
        if deadline != Time::MAX {
            self.now = self.now.max(deadline);
        }
    }

    /// Runs for `window` of simulated time starting from the current instant.
    pub fn run_for(&mut self, window: Duration) {
        let deadline = self.now + window;
        self.run_until(deadline);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Nanoseconds per wheel slot.
    const SLOT_NS: u64 = 1 << SLOT_SHIFT;

    #[test]
    fn events_run_in_time_order() {
        let mut sim = Sim::new(1);
        let order = Rc::new(RefCell::new(Vec::new()));
        for (i, us) in [5u64, 1, 3].into_iter().enumerate() {
            let order = Rc::clone(&order);
            sim.schedule_in(Duration::from_micros(us), move |_| {
                order.borrow_mut().push(i);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![1, 2, 0]);
        assert_eq!(sim.now(), Time::from_micros(5));
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut sim = Sim::new(1);
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..16 {
            let order = Rc::clone(&order);
            sim.schedule_at(Time::from_micros(7), move |_| {
                order.borrow_mut().push(i);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn nested_scheduling_works() {
        let mut sim = Sim::new(1);
        let hits = Rc::new(RefCell::new(0u32));
        let hits2 = Rc::clone(&hits);
        sim.schedule_in(Duration::from_micros(1), move |sim| {
            let hits3 = Rc::clone(&hits2);
            sim.schedule_in(Duration::from_micros(1), move |_| {
                *hits3.borrow_mut() += 1;
            });
        });
        sim.run();
        assert_eq!(*hits.borrow(), 1);
        assert_eq!(sim.now(), Time::from_micros(2));
    }

    #[test]
    fn run_until_advances_clock_to_deadline() {
        let mut sim = Sim::new(1);
        sim.schedule_in(Duration::from_micros(1), |_| {});
        sim.schedule_in(Duration::from_millis(10), |_| panic!("must not run"));
        sim.run_until(Time::from_micros(100));
        assert_eq!(sim.now(), Time::from_micros(100));
        assert_eq!(sim.pending(), 1);
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut sim = Sim::new(1);
        sim.schedule_in(Duration::from_micros(10), |sim| {
            // Absolute time in the past: must still execute, at `now`.
            sim.schedule_at(Time::from_micros(1), |sim| {
                assert_eq!(sim.now(), Time::from_micros(10));
            });
        });
        sim.run();
        assert_eq!(sim.executed(), 2);
    }

    #[test]
    fn stop_halts_processing() {
        let mut sim = Sim::new(1);
        sim.schedule_in(Duration::from_micros(1), |sim| sim.stop());
        sim.schedule_in(Duration::from_micros(2), |_| panic!("must not run"));
        sim.run();
        assert_eq!(sim.pending(), 1);
    }

    #[test]
    fn deterministic_rng_across_runs() {
        use rand::Rng;
        let draw = |seed| {
            let mut sim = Sim::new(seed);
            let v: u64 = sim.rng().gen();
            v
        };
        assert_eq!(draw(99), draw(99));
        assert_ne!(draw(99), draw(100));
    }

    /// Runs `spec` (absolute time, tag) through one sim and asserts the
    /// execution order is the stable sort of the schedule by time.
    fn assert_pops_in_time_seq_order(spec: &[(u64, u32)]) -> Vec<u32> {
        let mut sim = Sim::new(3);
        let order = Rc::new(RefCell::new(Vec::new()));
        for &(ns, tag) in spec {
            let order = Rc::clone(&order);
            sim.schedule_at(Time::from_nanos(ns), move |_| {
                order.borrow_mut().push(tag);
            });
        }
        sim.run();
        let got = Rc::try_unwrap(order).unwrap().into_inner();
        let mut want = spec.to_vec();
        want.sort_by_key(|&(ns, _)| ns);
        assert_eq!(got, want.iter().map(|&(_, tag)| tag).collect::<Vec<_>>());
        got
    }

    #[test]
    fn mixed_horizons_pop_in_time_seq_order() {
        // Same slot, adjacent slots, far beyond the wheel horizon, and
        // ties.
        let horizon = (SLOTS as u64) * SLOT_NS; // 1_048_576 ns
        let spec: Vec<(u64, u32)> = vec![
            (500, 0),
            (500, 1),              // tie in the same slot
            (SLOT_NS + 100, 2),    // next slot
            (horizon + 60_000, 3), // beyond the ~1 ms horizon → overflow
            (5_000_000, 4),        // deep overflow
            (5_000_000, 5),        // overflow tie
            (horizon - 1, 6),      // just inside horizon after promotion
            (0, 7),                // slot 0
            (horizon, 8),          // exactly at the initial horizon boundary
            (100_000_000, 9),      // very deep overflow
        ];
        let order = assert_pops_in_time_seq_order(&spec);
        assert_eq!(order, vec![7, 0, 1, 2, 6, 8, 3, 4, 5, 9]);
    }

    #[test]
    fn sparse_occupancy_scans_stay_exact() {
        // One event every few dozen slots, spanning several full ring
        // revolutions plus wrap-around distances just under a revolution:
        // the word-level bitmap scan must find each next slot exactly.
        let mut spec: Vec<(u64, u32)> = Vec::new();
        let mut t = 100u64;
        for i in 0..120u32 {
            spec.push((t, i));
            // Gaps cycle through: same slot, a few slots, most of a
            // revolution, and just over one revolution (overflow bound).
            t += match i % 4 {
                0 => 0,
                1 => 3 * SLOT_NS,
                2 => (SLOTS as u64 - 2) * SLOT_NS,
                _ => (SLOTS as u64 + 5) * SLOT_NS,
            };
        }
        let order = assert_pops_in_time_seq_order(&spec);
        assert_eq!(order, (0..120).collect::<Vec<_>>());
    }

    #[test]
    fn wheel_promotes_overflow_through_nested_schedules() {
        // A chain where each event schedules the next one several horizons
        // out, interleaved with same-time ties.
        let mut sim = Sim::new(5);
        let order = Rc::new(RefCell::new(Vec::new()));
        fn chain(sim: &mut Sim, order: Rc<RefCell<Vec<u64>>>, depth: u64) {
            if depth == 6 {
                return;
            }
            let o2 = Rc::clone(&order);
            sim.schedule_in(Duration::from_micros(1_500), move |sim| {
                o2.borrow_mut().push(depth);
                chain(sim, order, depth + 1);
            });
        }
        chain(&mut sim, Rc::clone(&order), 0);
        sim.run();
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(sim.now(), Time::from_micros(9_000));
    }

    #[test]
    fn pending_counts_ring_and_overflow() {
        let mut sim = Sim::new(1);
        sim.schedule_at(Time::from_nanos(10), |_| {});
        sim.schedule_at(Time::from_micros(100), |_| {});
        sim.schedule_at(Time::from_millis(50), |_| {}); // overflow
        assert_eq!(sim.pending(), 3);
        sim.run_until(Time::from_micros(200));
        assert_eq!(sim.pending(), 1);
        sim.run();
        assert_eq!(sim.pending(), 0);
        assert_eq!(sim.executed(), 3);
    }

    #[test]
    fn schedule_after_partial_run_keeps_order() {
        // After run_until advanced the clock past the wheel base, a new
        // near-now event must still run before older far events.
        let mut sim = Sim::new(1);
        let order = Rc::new(RefCell::new(Vec::new()));
        let o = Rc::clone(&order);
        sim.schedule_at(Time::from_millis(1), move |_| o.borrow_mut().push("far"));
        sim.run_until(Time::from_micros(500));
        let o = Rc::clone(&order);
        sim.schedule_in(Duration::from_micros(1), move |_| {
            o.borrow_mut().push("near")
        });
        sim.run();
        assert_eq!(*order.borrow(), vec!["near", "far"]);
    }

    #[test]
    fn next_event_at_peeks_without_reordering() {
        let mut sim = Sim::new(2);
        let order = Rc::new(RefCell::new(Vec::new()));
        for (i, ns) in [900_000u64, 10, 5_000_000, 300_000].into_iter().enumerate() {
            let order = Rc::clone(&order);
            sim.schedule_at(Time::from_nanos(ns), move |_| {
                order.borrow_mut().push(i);
            });
        }
        assert_eq!(sim.next_event_at(), Some(Time::from_nanos(10)));
        sim.run_until(Time::from_nanos(1_000_000));
        assert_eq!(sim.next_event_at(), Some(Time::from_nanos(5_000_000)));
        assert_eq!(sim.pending(), 1);
        sim.run();
        assert_eq!(sim.next_event_at(), None);
        assert_eq!(*order.borrow(), vec![1, 3, 0, 2]);
    }
}
