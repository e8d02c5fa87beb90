//! Read/write request queues with batched write draining, indexed by bank.
//!
//! The paper's controller (Table 1, §4.2.2): 64-entry read and 64-entry
//! write queues; writes are buffered and drained in batches — *writeback
//! mode* — entered when the write queue fills past a high watermark and left
//! at the low watermark (32 in the paper). While a channel drains, it serves
//! no reads. Write-refresh parallelization (DARP's second component) rides
//! on exactly this mode.
//!
//! # One FIFO per bank
//!
//! Requests live in slot-stable storage (no `Vec::remove` compaction), each
//! linked onto one intrusive FIFO chain per (rank, bank) in arrival order.
//! Per-bank, per-rank and per-side occupancy counters, maintained on
//! push/take, answer the refresh policies' queries (`demand_count`,
//! `bank_has_demand`, `rank_has_demand`) in O(1). Every other query walks
//! one bank's FIFO: FR-FCFS pass 2 reads its head and successors, pass 1
//! and the readiness check look for its first entry on the open row, the
//! closed-row auto-precharge test ([`RequestQueues::lone_hit`]) looks for a
//! later one, and read-after-write forwarding compares full locations along
//! the write side's FIFO — a handful of entries, no hashing.
//!
//! The walks are enough because the controller's readiness table asks the
//! queues about a bank only when an event has marked that bank stale or its
//! command can issue this cycle, not about every bank on every cycle. Each
//! request also carries a per-side sequence number, strictly increasing in
//! arrival order, so FR-FCFS tie-breaking is *identical* to scanning a flat
//! queue front-to-back: every query answers exactly what the scan would
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

/// A queued request's scheduling coordinates without its payload — what
/// every query returns and the FR-FCFS passes order and probe on. The
/// [`Request`] itself comes out of `slot` only when its command issues
/// ([`RequestQueues::take_read`]/[`RequestQueues::take_write`]).
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// Arrival order within the side (lower = older): the FR-FCFS
    /// tie-breaker, strictly increasing across pushes.
    pub seq: u64,
    /// Storage slot of the request.
    pub slot: SlotId,
    /// Target rank.
    pub rank: usize,
    /// Target bank within the rank.
    pub bank: usize,
    /// Target row.
    pub row: u32,
    /// Target column.
    pub col: u32,
}

/// Slot payload plus its links on its bank's chain.
#[derive(Debug, Clone, Copy)]
struct Entry {
    req: Request,
    seq: u64,
    prev: u32,
    next: u32,
}

/// Per-(rank, bank) FIFO chain and occupancy.
#[derive(Debug, Clone, Copy)]
struct BankIndex {
    head: u32,
    tail: u32,
    count: u32,
}

impl Default for BankIndex {
    fn default() -> Self {
        Self {
            head: NIL,
            tail: NIL,
            count: 0,
        }
    }
}

/// One queue direction (reads or writes): slot-stable storage + bank FIFOs.
#[derive(Debug, Clone)]
struct Side {
    slots: Vec<Option<Entry>>,
    /// Free slot stack (LIFO reuse — deterministic).
    free: Vec<u32>,
    next_seq: u64,
    len: usize,
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
            let mut wider = vec![BankIndex::default(); self.rank_counts.len() * stride];
            for (i, bi) in self.banks.iter().enumerate() {
                wider[i / self.stride * stride + i % self.stride] = *bi;
            }
            self.banks = wider;
            self.stride = stride;
        }
        if rank >= self.rank_counts.len() {
            self.rank_counts.resize(rank + 1, 0);
            self.banks
                .resize((rank + 1) * self.stride, BankIndex::default());
        }
        rank * self.stride + bank
    }

    fn entry(&self, slot: u32) -> &Entry {
        self.slots[slot as usize].as_ref().expect("live slot")
    }

    fn entry_mut(&mut self, slot: u32) -> &mut Entry {
        self.slots[slot as usize].as_mut().expect("live slot")
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
        let rank = req.loc.rank;
        let flat = self.grow(rank, req.loc.bank);
        let tail = self.banks[flat].tail;
        self.slots[slot as usize] = Some(Entry {
            req,
            seq: self.next_seq,
            prev: tail,
            next: NIL,
        });
        self.next_seq += 1;
        if tail != NIL {
            self.entry_mut(tail).next = slot;
        }
        let bi = &mut self.banks[flat];
        if bi.head == NIL {
            bi.head = slot;
        }
        bi.tail = slot;
        bi.count += 1;
        self.rank_counts[rank] += 1;
        self.len += 1;
        true
    }

    fn take(&mut self, slot: SlotId) -> Request {
        let idx = slot.0;
        let e = self.slots[idx as usize].take().expect("live slot");
        let (rank, bank) = (e.req.loc.rank, e.req.loc.bank);
        if e.prev != NIL {
            self.entry_mut(e.prev).next = e.next;
        }
        if e.next != NIL {
            self.entry_mut(e.next).prev = e.prev;
        }
        let bi = &mut self.banks[rank * self.stride + bank];
        if bi.head == idx {
            bi.head = e.next;
        }
        if bi.tail == idx {
            bi.tail = e.prev;
        }
        bi.count -= 1;
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

    /// The chain from `slot` (inclusive) to its bank's tail.
    fn chain_from(&self, slot: Option<u32>) -> impl Iterator<Item = u32> + '_ {
        std::iter::successors(slot, |&s| link(self.entry(s).next))
    }

    /// The bank's chain, oldest first.
    fn bank_chain(&self, rank: usize, bank: usize) -> impl Iterator<Item = u32> + '_ {
        self.chain_from(self.bank(rank, bank).and_then(|b| link(b.head)))
    }

    /// The side's requests in arrival order.
    fn iter(&self) -> impl Iterator<Item = Probe> + '_ {
        let slots = self.slots.iter().zip(0..);
        let mut live: Vec<(u64, u32)> = slots
            .filter_map(|(e, s)| e.as_ref().map(|e| (e.seq, s)))
            .collect();
        live.sort_unstable();
        live.into_iter().map(|(_, s)| self.probe(s))
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

    /// Pending reads in arrival order (oldest first). Sorts the live slots:
    /// for tests and tools, not the scheduler.
    pub fn iter_reads(&self) -> impl Iterator<Item = Probe> + '_ {
        self.reads.iter()
    }

    /// Pending writes in arrival order (oldest first). Sorts the live slots.
    pub fn iter_writes(&self) -> impl Iterator<Item = Probe> + '_ {
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

    /// Searches the write queue for a pending write to the same line
    /// (read-after-write forwarding): a walk of `loc`'s bank FIFO on the
    /// write side.
    pub fn forwards_read(&self, loc: &Location) -> bool {
        let writes = &self.writes;
        writes
            .bank_chain(loc.rank, loc.bank)
            .any(|s| writes.entry(s).req.loc == *loc)
    }

    /// Queued requests for one bank on one side (`writes` selects the
    /// direction). O(1).
    pub fn bank_len(&self, rank: usize, bank: usize, writes: bool) -> usize {
        self.side(writes).bank_len(rank, bank)
    }

    /// The oldest queued request hitting `row` in one bank on one side.
    pub fn first_row_hit(&self, rank: usize, bank: usize, row: u32, writes: bool) -> Option<Probe> {
        let side = self.side(writes);
        let mut chain = side.bank_chain(rank, bank);
        chain
            .find(|&s| side.entry(s).req.loc.row == row)
            .map(|s| side.probe(s))
    }

    /// Whether no request queued after `hit` on its side targets `hit`'s
    /// row in its bank — for the oldest hit ([`Self::first_row_hit`]), that
    /// it is the row's only queued request. The closed-row policy's
    /// auto-precharge test: only the servable side counts, because outside
    /// writeback mode a queued write cannot be serviced, and letting it hold
    /// a row open would starve conflicting reads until the next drain.
    pub fn lone_hit(&self, hit: &Probe, writes: bool) -> bool {
        let side = self.side(writes);
        let mut later = side.chain_from(link(side.entry(hit.slot.0).next));
        later.all(|s| side.entry(s).req.loc.row != hit.row)
    }

    /// The oldest queued request for one bank on one side.
    pub fn bank_head(&self, rank: usize, bank: usize, writes: bool) -> Option<Probe> {
        let side = self.side(writes);
        side.bank_chain(rank, bank).next().map(|s| side.probe(s))
    }

    /// The next-older-to-younger successor of `slot` within its bank chain.
    pub fn next_in_bank(&self, slot: SlotId, writes: bool) -> Option<Probe> {
        let side = self.side(writes);
        link(side.entry(slot.0).next).map(|s| side.probe(s))
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
    fn lone_hit_counts_only_later_same_row_entries_on_its_side() {
        let mut q = RequestQueues::paper_default();
        q.try_push_read(Request::read(1, loc(0, 1, 42), 0, 0));
        q.try_push_read(Request::read(2, loc(0, 1, 7), 0, 0));
        // A write to the same row sits on the other side: it cannot hold
        // the row open for a read.
        q.try_push_write(Request::write(3, loc(0, 1, 42), 0, 0));
        let read = q.first_row_hit(0, 1, 42, false).expect("read queued");
        assert!(q.lone_hit(&read, false), "the write is on the other side");
        let write = q.first_row_hit(0, 1, 42, true).expect("write queued");
        assert!(q.lone_hit(&write, true), "the read is on the other side");

        // A younger read to the row, behind a conflicting one: no longer lone.
        q.try_push_read(Request::read(4, loc(0, 1, 42), 0, 0));
        assert!(!q.lone_hit(&read, false));
        // The younger hit has nothing after it.
        let younger = q.next_in_bank(q.next_in_bank(read.slot, false).unwrap().slot, false);
        assert!(q.lone_hit(&younger.expect("id 4 queued"), false));
        // Taking the older hit leaves the younger one lone.
        assert_eq!(q.take_read(read.slot).id, 1);
        let read = q.first_row_hit(0, 1, 42, false).expect("id 4 queued");
        assert!(q.lone_hit(&read, false));
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
        // Each request's column is its id, so probes identify it.
        let push = |q: &mut RequestQueues, id: u32, bank: usize, row: u32| {
            let l = Location {
                col: id,
                ..loc(0, bank, row)
            };
            assert!(q.try_push_read(Request::read(u64::from(id), l, 0, 0)));
        };
        let ids = |q: &RequestQueues| q.iter_reads().map(|p| p.col).collect::<Vec<_>>();
        push(&mut q, 1, 0, 1);
        push(&mut q, 2, 1, 1);
        push(&mut q, 3, 0, 2);
        push(&mut q, 4, 0, 1);
        assert_eq!(ids(&q), [1, 2, 3, 4]);
        assert_eq!(q.bank_head(0, 0, false).unwrap().col, 1);
        assert_eq!(q.first_row_hit(0, 0, 1, false).unwrap().col, 1);

        // Take the oldest; id 3 becomes the bank head, id 4 the row hit.
        let head = q.bank_head(0, 0, false).unwrap().slot;
        assert_eq!(q.take_read(head).id, 1);
        assert_eq!(q.bank_head(0, 0, false).unwrap().col, 3);
        assert_eq!(q.first_row_hit(0, 0, 1, false).unwrap().col, 4);
        let next = q.next_in_bank(q.bank_head(0, 0, false).unwrap().slot, false);
        assert_eq!(next.unwrap().col, 4);
        assert_eq!(q.bank_len(0, 0, false), 2);

        // Slot reuse keeps seq strictly increasing (arrival order intact).
        push(&mut q, 5, 0, 1);
        assert_eq!(ids(&q), [2, 3, 4, 5]);
        let seqs: Vec<u64> = q.iter_reads().map(|p| p.seq).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    #[should_panic(expected = "watermarks")]
    fn invalid_watermarks_panic() {
        let _ = RequestQueues::new(64, 64, 2, 2);
    }
}
