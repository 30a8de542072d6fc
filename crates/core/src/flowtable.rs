//! Dense per-flow protocol state, stored struct-of-arrays.
//!
//! A fleet of a million detector streams cannot afford a boxed
//! `Sensor`/`SeqTracker`/`ModeController` per flow: the boxes scatter
//! across the heap, every per-packet touch is a pointer chase, and the
//! resident cost is dominated by allocator and vtable overhead rather
//! than the ~40 bytes of state a flow actually needs. [`FlowTable`]
//! flattens that state into parallel columns keyed by a dense `u32`
//! index:
//!
//! ```text
//!              index →   0        1        2        3      ...
//! generation column  [ g0     | g1     | g2     | g3     | ... ]
//! seq cursor column  [ u64    | u64    | u64    | u64    | ... ]
//! remaining column   [ u32    | u32    | u32    | u32    | ... ]
//! retx slot column   [ u32    | u32    | u32    | u32    | ... ]
//! mode word column   [ u64    | u64    | u64    | u64    | ... ]
//! deadline column    [ u64 ns | u64 ns | u64 ns | u64 ns | ... ]
//! occupancy column   [ u32    | u32    | u32    | u32    | ... ]
//! ```
//!
//! Columns, not rows: the hot loops touch one field across many flows
//! (stamp the next sequence, decrement a remaining counter), so packing
//! each field contiguously turns a cache line into eight flows instead
//! of one. A row layout (`Vec<FlowState>`) would drag every cold field
//! through the cache on every touch.
//!
//! ## Generation tokens
//!
//! [`FlowId`] is `(index, generation)` — the same discipline as
//! `PacketArena`'s `PacketRef`. Releasing a flow bumps the slot's
//! generation, so a stale id held past release is *inert*: every
//! accessor returns `None`/`false` and never aliases the slot's next
//! tenant. Double release cannot corrupt the free list.
//!
//! ## Borrow discipline
//!
//! The table is plain data with no interior mutability; owners share it
//! behind whatever cell fits their layer (the many-flow fleet uses
//! `Rc<RefCell<FlowTable>>` per group, the pilot owns one directly).
//! Logic types — the sequence cursor users, the [`ModeWord`]-driven
//! controller — borrow a slot for the duration of one callback and
//! write results back; nothing holds a column reference across events.

/// Handle to a flow's row across every column. `Copy`, 8 bytes, safe
/// against use-after-release (see the module docs on generations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowId {
    index: u32,
    generation: u32,
}

impl FlowId {
    /// The dense column index (stable for the life of the allocation).
    pub fn index(&self) -> u32 {
        self.index
    }

    /// The generation the id was issued under.
    pub fn generation(&self) -> u32 {
        self.generation
    }
}

/// "No retransmit-buffer slot" sentinel for the `retx_slot` column.
pub const NO_RETX_SLOT: u32 = u32::MAX;

/// Per-flow mode/EWMA state packed into one 64-bit word — the storage
/// half of [`crate::ModeController`], sized to live in a [`FlowTable`]
/// column.
///
/// Layout (low to high):
/// * bits 0..24 — smoothed loss rate, ppm (saturating; ≥ 16.7M ppm all
///   read as the cap, far beyond the 1M ppm a loss *ratio* can reach)
/// * bits 24..40 — consecutive clean intervals (saturating u16)
/// * bits 40..56 — consecutive dead intervals (saturating u16)
/// * bit 56 — degraded (duplicated forwarding engaged)
/// * bit 57 — re-homed to the standby (sticky)
/// * bit 58 — shedding (backpressure engaged)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct ModeWord(u64);

const EWMA_BITS: u32 = 24;
const EWMA_MAX: u64 = (1 << EWMA_BITS) - 1;
const CLEAN_SHIFT: u32 = 24;
const DEAD_SHIFT: u32 = 40;
const COUNT_MAX: u64 = u16::MAX as u64;
const DEGRADED_BIT: u64 = 1 << 56;
const REHOMED_BIT: u64 = 1 << 57;
const SHEDDING_BIT: u64 = 1 << 58;

impl ModeWord {
    /// The clean (mode-2) state: zero EWMA, no flags, no streaks.
    pub fn new() -> ModeWord {
        ModeWord(0)
    }

    /// The raw packed bits (for column storage and digests).
    pub fn bits(&self) -> u64 {
        self.0
    }

    /// Rebuild from raw bits previously read with [`ModeWord::bits`].
    pub fn from_bits(bits: u64) -> ModeWord {
        ModeWord(bits)
    }

    /// Smoothed loss rate, parts per million.
    pub fn loss_ewma_ppm(&self) -> u64 {
        self.0 & EWMA_MAX
    }

    /// Store the loss EWMA, saturating at the 24-bit cap.
    pub fn set_loss_ewma_ppm(&mut self, ppm: u64) {
        self.0 = (self.0 & !EWMA_MAX) | ppm.min(EWMA_MAX);
    }

    /// Consecutive clean intervals seen while degraded.
    pub fn clean_intervals(&self) -> u32 {
        ((self.0 >> CLEAN_SHIFT) & COUNT_MAX) as u32
    }

    /// Store the clean-interval streak, saturating at `u16::MAX`.
    pub fn set_clean_intervals(&mut self, n: u32) {
        self.0 =
            (self.0 & !(COUNT_MAX << CLEAN_SHIFT)) | (u64::from(n).min(COUNT_MAX) << CLEAN_SHIFT);
    }

    /// Consecutive intervals the primary buffer has been dead.
    pub fn dead_intervals(&self) -> u32 {
        ((self.0 >> DEAD_SHIFT) & COUNT_MAX) as u32
    }

    /// Store the dead-interval streak, saturating at `u16::MAX`.
    pub fn set_dead_intervals(&mut self, n: u32) {
        self.0 =
            (self.0 & !(COUNT_MAX << DEAD_SHIFT)) | (u64::from(n).min(COUNT_MAX) << DEAD_SHIFT);
    }

    /// Whether the segment is in the degraded (duplicated) mode.
    pub fn degraded(&self) -> bool {
        self.0 & DEGRADED_BIT != 0
    }

    /// Set or clear the degraded flag.
    pub fn set_degraded(&mut self, on: bool) {
        if on {
            self.0 |= DEGRADED_BIT;
        } else {
            self.0 &= !DEGRADED_BIT;
        }
    }

    /// Whether the stream has been re-homed to the standby.
    pub fn rehomed(&self) -> bool {
        self.0 & REHOMED_BIT != 0
    }

    /// Set or clear the re-homed flag.
    pub fn set_rehomed(&mut self, on: bool) {
        if on {
            self.0 |= REHOMED_BIT;
        } else {
            self.0 &= !REHOMED_BIT;
        }
    }

    /// Whether backpressure shedding is engaged.
    pub fn shedding(&self) -> bool {
        self.0 & SHEDDING_BIT != 0
    }

    /// Set or clear the shedding flag.
    pub fn set_shedding(&mut self, on: bool) {
        if on {
            self.0 |= SHEDDING_BIT;
        } else {
            self.0 &= !SHEDDING_BIT;
        }
    }
}

/// Allocation counters exposed for benches and the property suite.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowTableStats {
    /// Allocations that grew the columns (fresh slot).
    pub fresh: u64,
    /// Allocations served from the free list (slot reused).
    pub reused: u64,
    /// Successful releases.
    pub released: u64,
    /// Releases rejected as stale (wrong generation, already released,
    /// or out of range). Stale *reads* are not counted: getters take
    /// `&self` and answer `None` without touching the stats.
    pub stale: u64,
    /// Allocations refused because the `u32` index space was exhausted.
    pub exhausted: u64,
    /// Most flows live at once.
    pub high_water: u64,
}

/// The struct-of-arrays flow-state table. See the module docs.
#[derive(Debug, Default)]
pub struct FlowTable {
    generation: Vec<u32>,
    live: Vec<bool>,
    seq: Vec<u64>,
    remaining: Vec<u32>,
    retx_slot: Vec<u32>,
    mode: Vec<u64>,
    deadline_ns: Vec<u64>,
    occupancy: Vec<u32>,
    free: Vec<u32>,
    live_count: usize,
    /// First index minted; columns store index − base. Nonzero only via
    /// [`FlowTable::with_base_index`], the id-space boundary test knob.
    base: u32,
    stats: FlowTableStats,
}

impl FlowTable {
    /// An empty table.
    // mmt-lint: cold
    pub fn new() -> FlowTable {
        FlowTable::default()
    }

    /// A table whose columns are pre-grown for `n` flows, so a fleet of
    /// known size never reallocates on the hot path.
    // mmt-lint: cold
    pub fn with_capacity(n: usize) -> FlowTable {
        let mut t = FlowTable::new();
        t.generation.reserve(n);
        t.live.reserve(n);
        t.seq.reserve(n);
        t.remaining.reserve(n);
        t.retx_slot.reserve(n);
        t.mode.reserve(n);
        t.deadline_ns.reserve(n);
        t.occupancy.reserve(n);
        t
    }

    /// A one-row table for a single-stream owner (the pilot), with that
    /// row's id. A fresh table's first allocation is index 0,
    /// generation 0 and cannot fail, so no `Option` reaches the caller.
    // mmt-lint: cold
    pub fn single() -> (FlowTable, FlowId) {
        let mut t = FlowTable::with_capacity(1);
        let id = t.alloc().unwrap_or(FlowId {
            index: 0,
            generation: 0,
        });
        (t, id)
    }

    /// A table whose first fresh index is `base` — the boundary-test
    /// knob: with `base` near `u32::MAX` the index space exhausts after
    /// a few allocations, which is otherwise unreachable in a test.
    // mmt-lint: cold
    #[must_use]
    pub fn with_base_index(mut self, base: u32) -> FlowTable {
        assert!(
            self.generation.is_empty(),
            "base index must be set before any allocation"
        );
        self.base = base;
        self
    }

    fn slot(&self, id: FlowId) -> Option<usize> {
        let pos = id.index.checked_sub(self.base)? as usize;
        if *self.live.get(pos)? && self.generation[pos] == id.generation {
            Some(pos)
        } else {
            None
        }
    }

    /// Allocate a flow with zeroed columns (`retx_slot` starts at
    /// [`NO_RETX_SLOT`]). Returns `None` only when the `u32` index space
    /// is exhausted — a table can hold at most `u32::MAX − base + 1`
    /// slots, live or free.
    pub fn alloc(&mut self) -> Option<FlowId> {
        let pos = match self.free.pop() {
            Some(p) => {
                self.stats.reused += 1;
                p as usize
            }
            None => {
                let pos = self.generation.len();
                if pos as u64 + u64::from(self.base) > u64::from(u32::MAX) {
                    self.stats.exhausted += 1;
                    return None;
                }
                self.stats.fresh += 1;
                self.generation.push(0);
                self.live.push(false);
                self.seq.push(0);
                self.remaining.push(0);
                self.retx_slot.push(NO_RETX_SLOT);
                self.mode.push(0);
                self.deadline_ns.push(0);
                self.occupancy.push(0);
                pos
            }
        };
        self.live[pos] = true;
        self.seq[pos] = 0;
        self.remaining[pos] = 0;
        self.retx_slot[pos] = NO_RETX_SLOT;
        self.mode[pos] = 0;
        self.deadline_ns[pos] = 0;
        self.occupancy[pos] = 0;
        self.live_count += 1;
        self.stats.high_water = self.stats.high_water.max(self.live_count as u64);
        Some(FlowId {
            index: self.base + pos as u32,
            generation: self.generation[pos],
        })
    }

    /// Release a flow back to the free list. Returns `false` (and counts
    /// a stale access) if the id was already released or superseded.
    pub fn release(&mut self, id: FlowId) -> bool {
        let Some(pos) = self.slot(id) else {
            self.stats.stale += 1;
            return false;
        };
        self.live[pos] = false;
        self.generation[pos] = self.generation[pos].wrapping_add(1);
        self.free.push(pos as u32);
        self.live_count -= 1;
        self.stats.released += 1;
        true
    }

    /// Whether `id` is still the slot's current tenant.
    pub fn contains(&self, id: FlowId) -> bool {
        self.slot(id).is_some()
    }

    /// The flow's next-sequence cursor.
    pub fn seq(&self, id: FlowId) -> Option<u64> {
        self.slot(id).map(|p| self.seq[p])
    }

    /// Store the next-sequence cursor. Returns `false` on a stale id.
    pub fn set_seq(&mut self, id: FlowId, seq: u64) -> bool {
        match self.slot(id) {
            Some(p) => {
                self.seq[p] = seq;
                true
            }
            None => false,
        }
    }

    /// Packets (or credits) the flow has left to emit.
    pub fn remaining(&self, id: FlowId) -> Option<u32> {
        self.slot(id).map(|p| self.remaining[p])
    }

    /// Store the remaining counter. Returns `false` on a stale id.
    pub fn set_remaining(&mut self, id: FlowId, remaining: u32) -> bool {
        match self.slot(id) {
            Some(p) => {
                self.remaining[p] = remaining;
                true
            }
            None => false,
        }
    }

    /// The flow's retransmit-buffer slot ([`NO_RETX_SLOT`] = none).
    pub fn retx_slot(&self, id: FlowId) -> Option<u32> {
        self.slot(id).map(|p| self.retx_slot[p])
    }

    /// Store the retransmit-buffer slot. Returns `false` on a stale id.
    pub fn set_retx_slot(&mut self, id: FlowId, slot: u32) -> bool {
        match self.slot(id) {
            Some(p) => {
                self.retx_slot[p] = slot;
                true
            }
            None => false,
        }
    }

    /// The flow's packed mode/EWMA word.
    pub fn mode_word(&self, id: FlowId) -> Option<ModeWord> {
        self.slot(id).map(|p| ModeWord::from_bits(self.mode[p]))
    }

    /// Store the mode word. Returns `false` on a stale id.
    pub fn set_mode_word(&mut self, id: FlowId, word: ModeWord) -> bool {
        match self.slot(id) {
            Some(p) => {
                self.mode[p] = word.bits();
                true
            }
            None => false,
        }
    }

    /// The flow's delivery deadline (nanoseconds of budget).
    pub fn deadline_ns(&self, id: FlowId) -> Option<u64> {
        self.slot(id).map(|p| self.deadline_ns[p])
    }

    /// Store the deadline. Returns `false` on a stale id.
    pub fn set_deadline_ns(&mut self, id: FlowId, ns: u64) -> bool {
        match self.slot(id) {
            Some(p) => {
                self.deadline_ns[p] = ns;
                true
            }
            None => false,
        }
    }

    /// The flow's occupancy counter (buffered bytes, delivered packets —
    /// the owning layer picks the unit).
    pub fn occupancy(&self, id: FlowId) -> Option<u32> {
        self.slot(id).map(|p| self.occupancy[p])
    }

    /// Store the occupancy counter. Returns `false` on a stale id.
    pub fn set_occupancy(&mut self, id: FlowId, occupancy: u32) -> bool {
        match self.slot(id) {
            Some(p) => {
                self.occupancy[p] = occupancy;
                true
            }
            None => false,
        }
    }

    /// Add to the occupancy counter (saturating). Returns `false` on a
    /// stale id.
    pub fn add_occupancy(&mut self, id: FlowId, delta: u32) -> bool {
        match self.slot(id) {
            Some(p) => {
                self.occupancy[p] = self.occupancy[p].saturating_add(delta);
                true
            }
            None => false,
        }
    }

    /// Sum of every live flow's occupancy counter.
    pub fn occupancy_total(&self) -> u64 {
        self.live
            .iter()
            .zip(&self.occupancy)
            .filter(|(live, _)| **live)
            .map(|(_, occ)| u64::from(*occ))
            .sum()
    }

    /// Live flows.
    pub fn live(&self) -> usize {
        self.live_count
    }

    /// Total slots ever created (live + free).
    pub fn capacity(&self) -> usize {
        self.generation.len()
    }

    /// Allocation counters.
    pub fn stats(&self) -> FlowTableStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_is_one_live_allocated_row() {
        let (t, id) = FlowTable::single();
        assert!(t.contains(id));
        assert_eq!((id.index(), id.generation()), (0, 0));
        assert_eq!(t.live(), 1);
        assert_eq!(t.stats().fresh, 1);
        assert_eq!(t.retx_slot(id), Some(NO_RETX_SLOT));
    }

    #[test]
    fn alloc_release_reuse_bumps_generation() {
        let mut t = FlowTable::new();
        let a = t.alloc().unwrap();
        assert_eq!(a.index(), 0);
        assert!(t.set_seq(a, 41));
        assert!(t.release(a));
        let b = t.alloc().unwrap();
        assert_eq!(b.index(), a.index(), "free list must hand back slot 0");
        assert_ne!(b.generation(), a.generation());
        assert_eq!(t.seq(b), Some(0), "reused slot starts zeroed");
        assert_eq!(t.capacity(), 1);
        assert_eq!(t.stats().reused, 1);
    }

    #[test]
    fn stale_id_is_inert() {
        let mut t = FlowTable::new();
        let a = t.alloc().unwrap();
        assert!(t.release(a));
        let b = t.alloc().unwrap();
        assert!(t.set_seq(b, 7));
        assert!(!t.contains(a));
        assert_eq!(t.seq(a), None);
        assert!(!t.set_seq(a, 999), "stale write rejected");
        assert!(!t.release(a), "double release rejected");
        assert_eq!(t.seq(b), Some(7), "tenant untouched by stale ops");
        assert_eq!(t.live(), 1);
        assert_eq!(t.stats().stale, 1, "only the stale release is counted");
    }

    #[test]
    fn columns_round_trip() {
        let mut t = FlowTable::new();
        let id = t.alloc().unwrap();
        assert!(t.set_seq(id, 1));
        assert!(t.set_remaining(id, 2));
        assert!(t.set_retx_slot(id, 3));
        assert!(t.set_deadline_ns(id, 4));
        assert!(t.set_occupancy(id, 5));
        let mut w = ModeWord::new();
        w.set_loss_ewma_ppm(6);
        assert!(t.set_mode_word(id, w));
        assert_eq!(t.seq(id), Some(1));
        assert_eq!(t.remaining(id), Some(2));
        assert_eq!(t.retx_slot(id), Some(3));
        assert_eq!(t.deadline_ns(id), Some(4));
        assert_eq!(t.occupancy(id), Some(5));
        assert_eq!(t.mode_word(id).map(|w| w.loss_ewma_ppm()), Some(6));
        assert!(t.add_occupancy(id, 10));
        assert_eq!(t.occupancy(id), Some(15));
        assert_eq!(t.occupancy_total(), 15);
    }

    #[test]
    fn exhaustion_near_u32_max() {
        let mut t = FlowTable::new().with_base_index(u32::MAX - 2);
        let a = t.alloc().unwrap();
        let b = t.alloc().unwrap();
        let c = t.alloc().unwrap();
        assert_eq!(c.index(), u32::MAX);
        assert_eq!(t.alloc(), None, "index space exhausted");
        assert_eq!(t.stats().exhausted, 1);
        // Release makes room again via the free list, not fresh growth.
        assert!(t.release(b));
        let d = t.alloc().unwrap();
        assert_eq!(d.index(), b.index());
        assert!(t.contains(a) && t.contains(c) && t.contains(d));
    }

    #[test]
    fn mode_word_fields_are_independent_and_saturate() {
        let mut w = ModeWord::new();
        w.set_loss_ewma_ppm(123_456);
        w.set_clean_intervals(3);
        w.set_dead_intervals(5);
        w.set_degraded(true);
        w.set_rehomed(true);
        w.set_shedding(true);
        assert_eq!(w.loss_ewma_ppm(), 123_456);
        assert_eq!(w.clean_intervals(), 3);
        assert_eq!(w.dead_intervals(), 5);
        assert!(w.degraded() && w.rehomed() && w.shedding());
        w.set_loss_ewma_ppm(u64::MAX);
        assert_eq!(w.loss_ewma_ppm(), (1 << 24) - 1, "ewma saturates");
        assert_eq!(w.clean_intervals(), 3, "neighbours untouched");
        w.set_clean_intervals(u32::MAX);
        assert_eq!(w.clean_intervals(), u32::from(u16::MAX));
        w.set_degraded(false);
        assert!(!w.degraded() && w.rehomed() && w.shedding());
        let copy = ModeWord::from_bits(w.bits());
        assert_eq!(copy, w);
    }
}
