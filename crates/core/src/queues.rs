//! Read/write request queues with batched write draining, indexed by bank.
//!
//! The paper's controller (Table 1, §4.2.2): 64-entry read and 64-entry
//! write queues; writes are buffered and drained in batches — *writeback
//! mode* — entered when the write queue fills past a high watermark and left
//! at the low watermark (32 in the paper). While a channel drains, it serves
//! no reads. Write-refresh parallelization (DARP's second component) rides
//! on exactly this mode.
//!
//! # The per-bank index
//!
//! The scheduler and the refresh policies interrogate these queues every
//! DRAM cycle (`demand_count`, `bank_has_demand`, `rank_has_demand`,
//! `another_row_hit_queued`, `forwards_read`), and FR-FCFS needs each
//! bank's oldest request and oldest row hit. A flat `Vec` makes every one
//! of those an O(queue) scan — the dominant cost on memory-intensive
//! workloads where skip-ahead cannot skip. Instead, requests live in
//! slot-stable storage (no `Vec::remove` compaction) threaded onto three
//! intrusive FIFO chains, all maintained incrementally on push/take:
//!
//! * a **global chain** in arrival order (iteration, oracle tests);
//! * a **per-(rank, bank) chain** in arrival order — FR-FCFS pass 2
//!   ("oldest request per bank") reads chain heads;
//! * a **per-(rank, bank, row) chain** in arrival order — FR-FCFS pass 1
//!   ("oldest hit on the open row") and the closed-row auto-precharge
//!   test read row-chain heads and counts.
//!
//! Per-bank and per-rank occupancy counters make the policy queries O(1),
//! and read-after-write forwarding walks the write side's row chain for the
//! read's (rank, bank, row) comparing columns — a handful of entries, no
//! hashing. Arrival order is captured in a monotonically increasing per-side
//! sequence number, so FR-FCFS tie-breaking is *identical* to scanning a
//! flat queue front-to-back: every query answers exactly what the scan would
//! have answered.

use crate::request::Request;
use dsarp_dram::Location;

/// Default read-queue capacity (paper Table 1).
pub(crate) const READ_QUEUE_CAP: usize = 64;
/// Default write-queue capacity (paper Table 1).
pub(crate) const WRITE_QUEUE_CAP: usize = 64;
/// Default drain-entry (high) watermark. The paper fixes only the low
/// watermark; 48 (75% full) follows the cited write-batching works.
pub(crate) const DRAIN_HIGH_WATERMARK: usize = 48;
/// Default drain-exit (low) watermark (paper Table 1: 32).
pub(crate) const DRAIN_LOW_WATERMARK: usize = 32;

/// Sentinel for "no slot" in the intrusive chains.
const NIL: u32 = u32::MAX;

/// Opaque handle to a queued request's storage slot. Stable from push
/// until the request is taken; reused afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotId(u32);

/// One scheduling candidate: a queued request, its storage slot, and its
/// arrival sequence number — the FR-FCFS tie-breaker (lower = older).
#[derive(Debug, Clone, Copy)]
pub struct Candidate {
    /// Storage slot, for [`RequestQueues::take_read`]/[`RequestQueues::take_write`].
    pub slot: SlotId,
    /// Arrival order within the side; strictly increasing across pushes.
    pub seq: u64,
    /// The queued request.
    pub req: Request,
}

/// A queued request's scheduling coordinates without its payload — what the
/// FR-FCFS passes order and probe on. The [`Request`] itself is read from
/// `slot` only when its command issues.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Probe {
    pub(crate) seq: u64,
    pub(crate) slot: SlotId,
    pub(crate) rank: usize,
    pub(crate) bank: usize,
    pub(crate) row: u32,
    pub(crate) col: u32,
}

/// Slot payload plus its links on the three chains.
#[derive(Debug, Clone, Copy)]
struct Entry {
    req: Request,
    seq: u64,
    all_prev: u32,
    all_next: u32,
    bank_prev: u32,
    bank_next: u32,
    row_prev: u32,
    row_next: u32,
}

/// Per-(rank, bank, row) FIFO sub-chain.
#[derive(Debug, Clone, Copy)]
struct RowChain {
    row: u32,
    count: u32,
    head: u32,
    tail: u32,
}

/// Per-(rank, bank) index: arrival-order chain, occupancy, row sub-chains.
#[derive(Debug, Clone)]
struct BankIndex {
    head: u32,
    tail: u32,
    count: u32,
    /// Row sub-chains for rows currently queued to this bank; unordered
    /// (looked up by row value), at most one entry per distinct row.
    rows: Vec<RowChain>,
}

impl Default for BankIndex {
    fn default() -> Self {
        Self {
            head: NIL,
            tail: NIL,
            count: 0,
            rows: Vec::new(),
        }
    }
}

/// One queue direction (reads or writes): slot-stable storage + indexes.
#[derive(Debug, Clone)]
struct Side {
    slots: Vec<Option<Entry>>,
    /// Free slot stack (LIFO reuse — deterministic).
    free: Vec<u32>,
    next_seq: u64,
    len: usize,
    all_head: u32,
    all_tail: u32,
    /// `rank * stride + bank`, grown on demand — the queues are
    /// geometry-agnostic.
    banks: Vec<BankIndex>,
    /// Banks per rank in the flat table (0 until the first push).
    stride: usize,
    /// Per-rank occupancy, grown on demand.
    rank_counts: Vec<u32>,
}

impl Side {
    fn new(cap: usize) -> Self {
        Self {
            slots: vec![None; cap],
            free: (0..cap as u32).rev().collect(),
            next_seq: 0,
            len: 0,
            all_head: NIL,
            all_tail: NIL,
            banks: Vec::new(),
            stride: 0,
            rank_counts: Vec::new(),
        }
    }

    fn cap(&self) -> usize {
        self.slots.len()
    }

    fn bank(&self, rank: usize, bank: usize) -> Option<&BankIndex> {
        (bank < self.stride)
            .then(|| self.banks.get(rank * self.stride + bank))
            .flatten()
    }

    /// Grows the lazily-sized tables to cover `(rank, bank)` and returns the
    /// bank's flat index. A wider bank than any seen so far re-lays the
    /// table out with the new stride (a handful of times per run at most).
    fn grow(&mut self, rank: usize, bank: usize) -> usize {
        if bank >= self.stride {
            let stride = bank + 1;
            let mut wider = Vec::new();
            wider.resize_with(self.rank_counts.len() * stride, BankIndex::default);
            for (i, bi) in std::mem::take(&mut self.banks).into_iter().enumerate() {
                wider[i / self.stride * stride + i % self.stride] = bi;
            }
            self.banks = wider;
            self.stride = stride;
        }
        if rank >= self.rank_counts.len() {
            self.rank_counts.resize(rank + 1, 0);
            self.banks
                .resize_with((rank + 1) * self.stride, BankIndex::default);
        }
        rank * self.stride + bank
    }

    fn entry(&self, slot: u32) -> &Entry {
        self.slots[slot as usize].as_ref().expect("live slot")
    }

    fn entry_mut(&mut self, slot: u32) -> &mut Entry {
        self.slots[slot as usize].as_mut().expect("live slot")
    }

    fn candidate(&self, slot: u32) -> Candidate {
        let e = self.entry(slot);
        Candidate {
            slot: SlotId(slot),
            seq: e.seq,
            req: e.req,
        }
    }

    fn probe(&self, slot: u32) -> Probe {
        let e = self.entry(slot);
        Probe {
            seq: e.seq,
            slot: SlotId(slot),
            rank: e.req.loc.rank,
            bank: e.req.loc.bank,
            row: e.req.loc.row,
            col: e.req.loc.col,
        }
    }

    fn push(&mut self, req: Request) -> bool {
        let Some(slot) = self.free.pop() else {
            return false;
        };
        let (rank, bank, row) = (req.loc.rank, req.loc.bank, req.loc.row);
        let flat = self.grow(rank, bank);
        let seq = self.next_seq;
        self.next_seq += 1;

        let all_tail = self.all_tail;
        let bank_tail = self.banks[flat].tail;
        let row_pos = self.banks[flat].rows.iter().position(|rc| rc.row == row);
        let row_tail = row_pos.map_or(NIL, |i| self.banks[flat].rows[i].tail);

        self.slots[slot as usize] = Some(Entry {
            req,
            seq,
            all_prev: all_tail,
            all_next: NIL,
            bank_prev: bank_tail,
            bank_next: NIL,
            row_prev: row_tail,
            row_next: NIL,
        });
        if all_tail == NIL {
            self.all_head = slot;
        } else {
            self.entry_mut(all_tail).all_next = slot;
        }
        self.all_tail = slot;
        if bank_tail != NIL {
            self.entry_mut(bank_tail).bank_next = slot;
        }
        if row_tail != NIL {
            self.entry_mut(row_tail).row_next = slot;
        }

        let bi = &mut self.banks[flat];
        if bi.head == NIL {
            bi.head = slot;
        }
        bi.tail = slot;
        bi.count += 1;
        match row_pos {
            Some(i) => {
                let rc = &mut bi.rows[i];
                rc.count += 1;
                rc.tail = slot;
            }
            None => bi.rows.push(RowChain {
                row,
                count: 1,
                head: slot,
                tail: slot,
            }),
        }
        self.rank_counts[rank] += 1;
        self.len += 1;
        true
    }

    fn take(&mut self, slot: SlotId) -> Request {
        let idx = slot.0;
        let e = self.slots[idx as usize].take().expect("live slot");
        let (rank, bank, row) = (e.req.loc.rank, e.req.loc.bank, e.req.loc.row);

        if e.all_prev == NIL {
            self.all_head = e.all_next;
        } else {
            self.entry_mut(e.all_prev).all_next = e.all_next;
        }
        if e.all_next == NIL {
            self.all_tail = e.all_prev;
        } else {
            self.entry_mut(e.all_next).all_prev = e.all_prev;
        }
        if e.bank_prev != NIL {
            self.entry_mut(e.bank_prev).bank_next = e.bank_next;
        }
        if e.bank_next != NIL {
            self.entry_mut(e.bank_next).bank_prev = e.bank_prev;
        }
        if e.row_prev != NIL {
            self.entry_mut(e.row_prev).row_next = e.row_next;
        }
        if e.row_next != NIL {
            self.entry_mut(e.row_next).row_prev = e.row_prev;
        }

        let bi = &mut self.banks[rank * self.stride + bank];
        if bi.head == idx {
            bi.head = e.bank_next;
        }
        if bi.tail == idx {
            bi.tail = e.bank_prev;
        }
        bi.count -= 1;
        let i = bi
            .rows
            .iter()
            .position(|rc| rc.row == row)
            .expect("row chain of a live entry");
        let rc = &mut bi.rows[i];
        rc.count -= 1;
        if rc.count == 0 {
            bi.rows.swap_remove(i);
        } else {
            if rc.head == idx {
                rc.head = e.row_next;
            }
            if rc.tail == idx {
                rc.tail = e.row_prev;
            }
        }
        self.rank_counts[rank] -= 1;
        self.len -= 1;
        self.free.push(idx);
        e.req
    }

    fn bank_len(&self, rank: usize, bank: usize) -> usize {
        self.bank(rank, bank).map_or(0, |b| b.count as usize)
    }

    fn rank_len(&self, rank: usize) -> usize {
        self.rank_counts.get(rank).copied().unwrap_or(0) as usize
    }

    fn row_chain(&self, rank: usize, bank: usize, row: u32) -> Option<&RowChain> {
        self.bank(rank, bank)?.rows.iter().find(|rc| rc.row == row)
    }

    fn row_len(&self, rank: usize, bank: usize, row: u32) -> usize {
        self.row_chain(rank, bank, row)
            .map_or(0, |rc| rc.count as usize)
    }

    /// Slot of the oldest request hitting `row` in the bank.
    fn first_row_hit(&self, rank: usize, bank: usize, row: u32) -> Option<u32> {
        self.row_chain(rank, bank, row).map(|rc| rc.head)
    }

    /// Slot of the bank's oldest request.
    fn bank_head(&self, rank: usize, bank: usize) -> Option<u32> {
        link(self.bank(rank, bank)?.head)
    }

    /// Slot of `slot`'s successor on its bank chain.
    fn next_in_bank(&self, slot: SlotId) -> Option<u32> {
        link(self.entry(slot.0).bank_next)
    }

    /// Whether a request to exactly `loc` is queued: walks the (rank, bank,
    /// row) chain comparing the rest of the location.
    fn holds(&self, loc: &Location) -> bool {
        let head = self.first_row_hit(loc.rank, loc.bank, loc.row);
        std::iter::successors(head, |&s| link(self.entry(s).row_next))
            .any(|s| self.entry(s).req.loc == *loc)
    }

    /// The side's requests in arrival order.
    fn iter(&self) -> impl Iterator<Item = Candidate> + '_ {
        std::iter::successors(link(self.all_head), |&s| link(self.entry(s).all_next))
            .map(|s| self.candidate(s))
    }
}

/// A chain link as an `Option`: `None` at the end of the chain.
fn link(slot: u32) -> Option<u32> {
    (slot != NIL).then_some(slot)
}

/// The controller's demand-request queues.
#[derive(Debug, Clone)]
pub struct RequestQueues {
    reads: Side,
    writes: Side,
    high: usize,
    low: usize,
    draining: bool,
    drain_cycles: u64,
    drain_entries: u64,
}

impl RequestQueues {
    /// Queues with the paper's capacities and watermarks.
    pub fn paper_default() -> Self {
        Self::new(
            READ_QUEUE_CAP,
            WRITE_QUEUE_CAP,
            DRAIN_HIGH_WATERMARK,
            DRAIN_LOW_WATERMARK,
        )
    }

    /// Queues with explicit capacities and watermarks.
    ///
    /// # Panics
    ///
    /// Panics unless `low < high <= write_cap`.
    pub fn new(read_cap: usize, write_cap: usize, high: usize, low: usize) -> Self {
        assert!(
            low < high && high <= write_cap,
            "watermarks must satisfy low < high <= cap"
        );
        Self {
            reads: Side::new(read_cap),
            writes: Side::new(write_cap),
            high,
            low,
            draining: false,
            drain_cycles: 0,
            drain_entries: 0,
        }
    }

    fn side(&self, writes: bool) -> &Side {
        if writes {
            &self.writes
        } else {
            &self.reads
        }
    }

    /// Appends a read; `false` when the queue is full.
    pub fn try_push_read(&mut self, req: Request) -> bool {
        debug_assert!(!req.is_write);
        self.reads.push(req)
    }

    /// Appends a writeback; `false` when the queue is full.
    pub fn try_push_write(&mut self, req: Request) -> bool {
        debug_assert!(req.is_write);
        self.writes.push(req)
    }

    /// Updates writeback mode from the current occupancy. Call once per
    /// DRAM cycle before scheduling.
    pub fn update_drain_mode(&mut self) {
        if self.draining {
            self.drain_cycles += 1;
            if self.writes.len <= self.low {
                self.draining = false;
            }
        } else if self.writes.len >= self.high {
            self.draining = true;
            self.drain_entries += 1;
            self.drain_cycles += 1;
        }
    }

    /// Whether the channel is in writeback (drain) mode.
    pub fn in_drain_mode(&self) -> bool {
        self.draining
    }

    /// Whether the next [`Self::update_drain_mode`] call would *enter*
    /// writeback mode. While neither draining nor imminent, `update_drain_mode`
    /// is a no-op, which is what lets the skip-ahead loop elide it.
    pub fn drain_imminent(&self) -> bool {
        !self.draining && self.writes.len >= self.high
    }

    /// Pending reads in arrival order (oldest first).
    pub fn iter_reads(&self) -> impl Iterator<Item = Candidate> + '_ {
        self.reads.iter()
    }

    /// Pending writes in arrival order (oldest first).
    pub fn iter_writes(&self) -> impl Iterator<Item = Candidate> + '_ {
        self.writes.iter()
    }

    /// Removes and returns the read in `slot` (after its column command
    /// issued).
    pub fn take_read(&mut self, slot: SlotId) -> Request {
        self.reads.take(slot)
    }

    /// Removes and returns the write in `slot`.
    pub fn take_write(&mut self, slot: SlotId) -> Request {
        self.writes.take(slot)
    }

    /// Pending demand requests (reads + writes) for one bank — the occupancy
    /// DARP's bank-selection logic monitors. O(1).
    pub fn demand_count(&self, rank: usize, bank: usize) -> usize {
        self.reads.bank_len(rank, bank) + self.writes.bank_len(rank, bank)
    }

    /// Whether any demand request targets the bank. O(1).
    pub fn bank_has_demand(&self, rank: usize, bank: usize) -> bool {
        self.demand_count(rank, bank) > 0
    }

    /// Whether any demand request targets the rank. O(1).
    pub fn rank_has_demand(&self, rank: usize) -> bool {
        self.reads.rank_len(rank) + self.writes.rank_len(rank) > 0
    }

    /// Whether any *other* queued request in the currently *servable* queue
    /// targets the same open row — the closed-row policy's auto-precharge
    /// test. Only the servable queue counts: outside writeback mode a
    /// queued write cannot be serviced, so letting it hold a row open would
    /// starve conflicting reads until the next drain. A request being
    /// scheduled (which itself hits `loc`'s row by construction) excludes
    /// itself with `exclude_self`. O(1).
    pub fn another_row_hit_queued(
        &self,
        loc: &Location,
        in_drain: bool,
        exclude_self: bool,
    ) -> bool {
        let hits = self.side(in_drain).row_len(loc.rank, loc.bank, loc.row);
        hits > usize::from(exclude_self)
    }

    /// Searches the write queue for a pending write to the same line
    /// (read-after-write forwarding). O(writes queued to `loc`'s row).
    pub fn forwards_read(&self, loc: &Location) -> bool {
        self.writes.holds(loc)
    }

    /// Queued requests for one bank on one side (`writes` selects the
    /// direction). O(1).
    pub fn bank_len(&self, rank: usize, bank: usize, writes: bool) -> usize {
        self.side(writes).bank_len(rank, bank)
    }

    /// Queued requests hitting `row` in one bank on one side. O(1).
    pub fn row_hits(&self, rank: usize, bank: usize, row: u32, writes: bool) -> usize {
        self.side(writes).row_len(rank, bank, row)
    }

    /// The oldest queued request hitting `row` in one bank on one side.
    pub fn first_row_hit(
        &self,
        rank: usize,
        bank: usize,
        row: u32,
        writes: bool,
    ) -> Option<Candidate> {
        let side = self.side(writes);
        side.first_row_hit(rank, bank, row)
            .map(|s| side.candidate(s))
    }

    /// The oldest queued request for one bank on one side.
    pub fn bank_head(&self, rank: usize, bank: usize, writes: bool) -> Option<Candidate> {
        let side = self.side(writes);
        side.bank_head(rank, bank).map(|s| side.candidate(s))
    }

    /// The next-older-to-younger successor of `slot` within its bank chain.
    pub fn next_in_bank(&self, slot: SlotId, writes: bool) -> Option<Candidate> {
        let side = self.side(writes);
        side.next_in_bank(slot).map(|s| side.candidate(s))
    }

    /// [`Self::first_row_hit`] without the payload copy (scheduler hot path).
    pub(crate) fn hit_probe(
        &self,
        rank: usize,
        bank: usize,
        row: u32,
        writes: bool,
    ) -> Option<Probe> {
        let side = self.side(writes);
        side.first_row_hit(rank, bank, row).map(|s| side.probe(s))
    }

    /// [`Self::bank_head`] without the payload copy.
    pub(crate) fn head_probe(&self, rank: usize, bank: usize, writes: bool) -> Option<Probe> {
        let side = self.side(writes);
        side.bank_head(rank, bank).map(|s| side.probe(s))
    }

    /// [`Self::next_in_bank`] without the payload copy.
    pub(crate) fn next_probe(&self, slot: SlotId, writes: bool) -> Option<Probe> {
        let side = self.side(writes);
        side.next_in_bank(slot).map(|s| side.probe(s))
    }

    /// Read-queue occupancy.
    pub fn read_len(&self) -> usize {
        self.reads.len
    }

    /// Write-queue occupancy.
    pub fn write_len(&self) -> usize {
        self.writes.len
    }

    /// Read-queue capacity.
    pub fn read_cap(&self) -> usize {
        self.reads.cap()
    }

    /// Cycles spent in writeback mode (stat).
    pub fn drain_cycles(&self) -> u64 {
        self.drain_cycles
    }

    /// Number of writeback-mode episodes (stat).
    pub fn drain_entries(&self) -> u64 {
        self.drain_entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loc(rank: usize, bank: usize, row: u32) -> Location {
        Location {
            channel: 0,
            rank,
            bank,
            row,
            col: 0,
        }
    }

    fn wreq(id: u64, rank: usize, bank: usize) -> Request {
        Request::write(id, loc(rank, bank, 0), 0, 0)
    }

    /// Oldest write's slot (tests drain by age like the scheduler would).
    fn oldest_write(q: &RequestQueues) -> SlotId {
        q.iter_writes().next().expect("non-empty").slot
    }

    #[test]
    fn capacity_enforced() {
        let mut q = RequestQueues::new(2, 2, 2, 1);
        assert!(q.try_push_read(Request::read(1, loc(0, 0, 0), 0, 0)));
        assert!(q.try_push_read(Request::read(2, loc(0, 0, 0), 0, 0)));
        assert!(!q.try_push_read(Request::read(3, loc(0, 0, 0), 0, 0)));
        assert_eq!(q.read_len(), 2);
        assert_eq!(q.read_cap(), 2);
    }

    #[test]
    fn drain_mode_hysteresis() {
        let mut q = RequestQueues::new(64, 64, 4, 2);
        for i in 0..3 {
            q.try_push_write(wreq(i, 0, 0));
        }
        q.update_drain_mode();
        assert!(!q.in_drain_mode(), "below high watermark");
        q.try_push_write(wreq(9, 0, 0));
        q.update_drain_mode();
        assert!(q.in_drain_mode(), "reached high watermark");
        // Drain down to low watermark.
        let s = oldest_write(&q);
        q.take_write(s);
        q.update_drain_mode();
        assert!(q.in_drain_mode(), "still above low");
        let s = oldest_write(&q);
        q.take_write(s);
        q.update_drain_mode();
        assert!(!q.in_drain_mode(), "reached low watermark");
        assert_eq!(q.drain_entries(), 1);
        assert!(q.drain_cycles() >= 2);
    }

    #[test]
    fn demand_count_spans_both_queues() {
        let mut q = RequestQueues::paper_default();
        q.try_push_read(Request::read(1, loc(0, 3, 5), 0, 0));
        q.try_push_read(Request::read(2, loc(0, 3, 6), 0, 0));
        q.try_push_write(wreq(3, 0, 3));
        q.try_push_write(wreq(4, 1, 3));
        assert_eq!(q.demand_count(0, 3), 3);
        assert_eq!(q.demand_count(1, 3), 1);
        assert!(q.bank_has_demand(0, 3));
        assert!(!q.bank_has_demand(0, 4));
        assert!(q.rank_has_demand(1));
        assert!(!q.rank_has_demand(2));
    }

    #[test]
    fn row_hit_detection_for_auto_precharge() {
        let mut q = RequestQueues::paper_default();
        let l = loc(0, 1, 42);
        q.try_push_read(Request::read(1, l, 0, 0));
        q.try_push_write(Request::write(2, loc(0, 1, 42), 0, 0));
        // Outside drain mode only reads count; the queued read matches.
        assert!(q.another_row_hit_queued(&l, false, false));
        // A write to the same row is invisible outside drain mode...
        let slot = q.first_row_hit(0, 1, 42, false).expect("read queued").slot;
        q.take_read(slot);
        assert!(!q.another_row_hit_queued(&l, false, false));
        // ...but visible inside drain mode, where it must not match itself.
        assert!(q.another_row_hit_queued(&l, true, false));
        assert!(!q.another_row_hit_queued(&l, true, true));
    }

    #[test]
    fn read_after_write_forwarding_detects_same_line() {
        let mut q = RequestQueues::paper_default();
        let l = loc(1, 2, 3);
        q.try_push_write(Request::write(1, l, 0, 0));
        assert!(q.forwards_read(&l));
        assert!(!q.forwards_read(&loc(1, 2, 4)));
    }

    #[test]
    fn forwarding_count_survives_duplicate_lines() {
        // Two writes to the same line: taking one must keep forwarding.
        let mut q = RequestQueues::paper_default();
        let l = loc(0, 0, 7);
        q.try_push_write(Request::write(1, l, 0, 0));
        q.try_push_write(Request::write(2, l, 0, 1));
        assert!(q.forwards_read(&l));
        let s = oldest_write(&q);
        q.take_write(s);
        assert!(q.forwards_read(&l), "second write still queued");
        let s = oldest_write(&q);
        q.take_write(s);
        assert!(!q.forwards_read(&l));
    }

    #[test]
    fn fifo_chains_preserve_arrival_order_across_takes() {
        let mut q = RequestQueues::paper_default();
        // Interleave two banks; take from the middle; order must hold.
        q.try_push_read(Request::read(1, loc(0, 0, 1), 0, 0));
        q.try_push_read(Request::read(2, loc(0, 1, 1), 0, 1));
        q.try_push_read(Request::read(3, loc(0, 0, 2), 0, 2));
        q.try_push_read(Request::read(4, loc(0, 0, 1), 0, 3));
        let ids: Vec<u64> = q.iter_reads().map(|c| c.req.id).collect();
        assert_eq!(ids, [1, 2, 3, 4]);
        assert_eq!(q.bank_head(0, 0, false).unwrap().req.id, 1);
        assert_eq!(q.first_row_hit(0, 0, 1, false).unwrap().req.id, 1);
        assert_eq!(q.row_hits(0, 0, 1, false), 2);

        // Take the oldest; id 3 becomes the bank head, id 4 the row hit.
        let head = q.bank_head(0, 0, false).unwrap().slot;
        q.take_read(head);
        assert_eq!(q.bank_head(0, 0, false).unwrap().req.id, 3);
        assert_eq!(q.first_row_hit(0, 0, 1, false).unwrap().req.id, 4);
        let next = q.next_in_bank(q.bank_head(0, 0, false).unwrap().slot, false);
        assert_eq!(next.unwrap().req.id, 4);
        assert_eq!(q.bank_len(0, 0, false), 2);

        // Slot reuse keeps seq strictly increasing (arrival order intact).
        q.try_push_read(Request::read(5, loc(0, 0, 1), 0, 4));
        let ids: Vec<u64> = q.iter_reads().map(|c| c.req.id).collect();
        assert_eq!(ids, [2, 3, 4, 5]);
        let seqs: Vec<u64> = q.iter_reads().map(|c| c.seq).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    #[should_panic(expected = "watermarks")]
    fn invalid_watermarks_panic() {
        let _ = RequestQueues::new(64, 64, 2, 2);
    }
}
