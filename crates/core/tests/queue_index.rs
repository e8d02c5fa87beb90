//! Oracle test for the per-bank request FIFOs: random push/take/drain
//! sequences driven against [`RequestQueues`] and a naive flat-`Vec` model
//! in lockstep. After every operation, every query — occupancy counters,
//! row-hit and lone-hit probes, forwarding probes, bank heads, FIFO walks,
//! arrival-order iteration — must answer exactly what a front-to-back scan
//! of the flat model answers. This is what licenses the O(1)/O(banks)
//! scheduler rewrite: any divergence here would change FR-FCFS behavior.

use dsarp_core::{Probe, Request, RequestQueues};
use dsarp_dram::Location;
use proptest::prelude::*;

/// Small location space so pushes collide on banks and rows constantly.
const RANKS: usize = 2;
const BANKS: usize = 3;
const ROWS: u32 = 3;
const COLS: u32 = 2;

/// Small capacities/watermarks so full-queue rejection and drain-mode
/// hysteresis both trigger within short random sequences.
const CAP: usize = 8;
const HIGH: usize = 6;
const LOW: usize = 2;

/// Naive reference model: flat vectors in arrival order + the drain bit.
#[derive(Default)]
struct Model {
    reads: Vec<Request>,
    writes: Vec<Request>,
    draining: bool,
}

impl Model {
    fn side(&self, writes: bool) -> &Vec<Request> {
        if writes {
            &self.writes
        } else {
            &self.reads
        }
    }

    /// What `update_drain_mode` must do, per the paper's hysteresis.
    fn drain_tick(&mut self) {
        if self.draining {
            if self.writes.len() <= LOW {
                self.draining = false;
            }
        } else if self.writes.len() >= HIGH {
            self.draining = true;
        }
    }
}

fn loc(rank: usize, bank: usize, row: u32, col: u32) -> Location {
    Location {
        channel: 0,
        rank,
        bank,
        row,
        col,
    }
}

/// Every query the scheduler and refresh policies use, checked against a
/// front-to-back scan of the flat model.
fn check(q: &RequestQueues, m: &Model) {
    assert_eq!(q.read_len(), m.reads.len());
    assert_eq!(q.write_len(), m.writes.len());
    assert_eq!(q.in_drain_mode(), m.draining);
    assert_eq!(
        q.drain_imminent(),
        !m.draining && m.writes.len() >= HIGH,
        "drain_imminent must predict the next update_drain_mode"
    );

    // Arrival-order iteration, with strictly increasing sequence numbers.
    for (side, model) in [(false, &m.reads), (true, &m.writes)] {
        let cands: Vec<_> = if side {
            q.iter_writes().collect()
        } else {
            q.iter_reads().collect()
        };
        assert_eq!(cands.len(), model.len());
        for (c, r) in cands.iter().zip(model) {
            assert!(probes(c, r), "iteration order diverged from arrival order");
        }
        for w in cands.windows(2) {
            assert!(w[0].seq < w[1].seq, "seq must increase in arrival order");
        }
    }

    for rank in 0..RANKS {
        for bank in 0..BANKS {
            check_bank(q, m, rank, bank);
        }
    }
}

/// The per-bank half of [`check`], for any (rank, bank) coordinate.
fn check_bank(q: &RequestQueues, m: &Model, rank: usize, bank: usize) {
    let model_rank = m
        .reads
        .iter()
        .chain(&m.writes)
        .filter(|r| r.loc.rank == rank);
    assert_eq!(q.rank_has_demand(rank), model_rank.count() > 0);

    let in_bank = |r: &&Request| r.targets_bank(rank, bank);
    let demand = m.reads.iter().filter(in_bank).count() + m.writes.iter().filter(in_bank).count();
    assert_eq!(q.demand_count(rank, bank), demand);
    assert_eq!(q.bank_has_demand(rank, bank), demand > 0);

    for writes in [false, true] {
        let flat: Vec<&Request> = m.side(writes).iter().filter(in_bank).collect();
        assert_eq!(q.bank_len(rank, bank, writes), flat.len());

        // Oldest-in-bank head, then the whole per-bank chain walk:
        // FR-FCFS pass 2 consumes exactly this sequence.
        let mut chain = Vec::new();
        let mut cur = q.bank_head(rank, bank, writes);
        while let Some(c) = cur {
            chain.push(c);
            cur = q.next_in_bank(c.slot, writes);
        }
        assert!(
            chain.len() == flat.len() && chain.iter().zip(&flat).all(|(c, r)| probes(c, r)),
            "per-bank chain must be the bank's requests in arrival order"
        );
        // The auto-precharge test: no younger request on the same row.
        for (k, c) in chain.iter().enumerate() {
            let later = flat[k + 1..].iter().any(|r| r.loc.row == c.row);
            assert_eq!(q.lone_hit(c, writes), !later, "lone_hit diverged");
        }

        // Row-hit probes: FR-FCFS pass 1 and auto-precharge.
        for row in 0..ROWS {
            let hits: Vec<&&Request> = flat.iter().filter(|r| r.loc.row == row).collect();
            let first = q.first_row_hit(rank, bank, row, writes);
            assert_eq!(first.is_some(), !hits.is_empty());
            if let (Some(p), Some(r)) = (first, hits.first()) {
                assert!(probes(&p, r), "first_row_hit must be the oldest match");
                assert_eq!(q.lone_hit(&p, writes), hits.len() == 1, "lone hit");
            }
        }
    }

    // Read-after-write forwarding over the bank's whole location space.
    for row in 0..ROWS {
        for col in 0..COLS {
            let l = loc(rank, bank, row, col);
            assert_eq!(
                q.forwards_read(&l),
                m.writes.iter().any(|r| r.loc == l),
                "forwarding probe diverged at {l:?}"
            );
        }
    }
}

/// Whether `p` probes exactly `r`'s coordinates.
fn probes(p: &Probe, r: &Request) -> bool {
    (p.rank, p.bank, p.row, p.col) == (r.loc.rank, r.loc.bank, r.loc.row, r.loc.col)
}

/// One scripted operation, decoded from raw bytes so proptest shrinking
/// stays effective.
fn apply(op: (u8, u8, u8, u8, u8), q: &mut RequestQueues, m: &mut Model, next_id: &mut u64) {
    let (kind, a, b, c, d) = op;
    let l = loc(
        a as usize % RANKS,
        b as usize % BANKS,
        c as u32 % ROWS,
        d as u32 % COLS,
    );
    match kind % 8 {
        // Pushes are weighted 2:1 over takes so queues actually fill.
        0..=2 => {
            let req = Request::read(*next_id, l, 0, 0);
            *next_id += 1;
            let accepted = q.try_push_read(req);
            assert_eq!(accepted, m.reads.len() < CAP, "full-queue rejection");
            if accepted {
                m.reads.push(req);
            }
        }
        3 | 4 => {
            let req = Request::write(*next_id, l, 0, 0);
            *next_id += 1;
            let accepted = q.try_push_write(req);
            assert_eq!(accepted, m.writes.len() < CAP);
            if accepted {
                m.writes.push(req);
            }
        }
        5 if !m.reads.is_empty() => {
            let i = d as usize % m.reads.len();
            let cand = q.iter_reads().nth(i).expect("model says present");
            let taken = q.take_read(cand.slot);
            assert_eq!(taken, m.reads.remove(i));
        }
        6 if !m.writes.is_empty() => {
            let i = d as usize % m.writes.len();
            let cand = q.iter_writes().nth(i).expect("model says present");
            let taken = q.take_write(cand.slot);
            assert_eq!(taken, m.writes.remove(i));
        }
        7 => {
            q.update_drain_mode();
            m.drain_tick();
        }
        _ => {} // take from an empty side: no-op
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole purity argument in miniature: under arbitrary
    /// interleavings of pushes, out-of-order takes (FR-FCFS takes from the
    /// middle, not the front) and drain-mode ticks, the index answers every
    /// query identically to the flat scan it replaced.
    #[test]
    fn index_matches_flat_scan_oracle(
        ops in prop::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
            10..140,
        )
    ) {
        let mut q = RequestQueues::new(CAP, CAP, HIGH, LOW);
        let mut m = Model::default();
        let mut next_id = 1u64;
        check(&q, &m);
        for op in ops {
            apply(op, &mut q, &mut m, &mut next_id);
            check(&q, &m);
        }
        // Drain the remainder through the front to exercise slot reuse.
        loop {
            let Some(c) = q.iter_reads().next() else { break };
            assert_eq!(q.take_read(c.slot), m.reads.remove(0));
            check(&q, &m);
        }
        loop {
            let Some(c) = q.iter_writes().next() else { break };
            assert_eq!(q.take_write(c.slot), m.writes.remove(0));
            check(&q, &m);
        }
        prop_assert_eq!(q.read_len() + q.write_len(), 0);
    }
}

/// Read-after-write forwarding without the location hash: the probe walks
/// the write side's (rank, bank) FIFO comparing whole locations, so it must
/// count duplicates correctly and must not confuse neighbours on the row.
#[test]
fn hash_free_forwarding_matches_the_flat_scan() {
    let mut q = RequestQueues::new(CAP, CAP, HIGH, LOW);
    let mut m = Model::default();
    let line = loc(1, 2, 1, 1);
    for (id, l) in [(1, line), (2, loc(1, 2, 1, 0)), (3, line)] {
        let req = Request::write(id, l, 0, 0);
        assert!(q.try_push_write(req));
        m.writes.push(req);
    }
    check(&q, &m);
    assert!(q.forwards_read(&line), "two writes to the line are queued");
    assert!(q.forwards_read(&loc(1, 2, 1, 0)));
    assert!(!q.forwards_read(&loc(1, 2, 2, 1)), "same column, other row");
    assert!(!q.forwards_read(&loc(0, 2, 1, 1)), "same line, other rank");

    // Take the older duplicate: the younger one still forwards.
    let oldest = q.iter_writes().next().expect("non-empty");
    assert_eq!(q.take_write(oldest.slot), m.writes.remove(0));
    check(&q, &m);
    assert!(q.forwards_read(&line), "the second write is still queued");

    // Take the younger duplicate too: only the row neighbour is left.
    let younger = q.iter_writes().nth(1).expect("two writes left");
    assert_eq!(q.take_write(younger.slot), m.writes.remove(1));
    check(&q, &m);
    assert!(!q.forwards_read(&line), "same row, different column");
    assert!(q.forwards_read(&loc(1, 2, 1, 0)));
}

/// The flat bank table is sized by the requests it has seen: a request to a
/// wider bank or a higher rank than any before re-lays it out, and every
/// chain, counter and probe built under the old layout must survive.
#[test]
fn bank_index_survives_growth_past_the_initial_geometry() {
    /// `check` plus the same queries at coordinates beyond its fixed space.
    fn check_wide(q: &RequestQueues, m: &Model, wide: &[(usize, usize)]) {
        check(q, m);
        for &(rank, bank) in wide {
            check_bank(q, m, rank, bank);
        }
    }

    let mut q = RequestQueues::new(CAP, CAP, HIGH, LOW);
    let mut m = Model::default();
    let mut wide = Vec::new();
    // Start inside `check`'s space, then widen the bank stride twice and
    // add ranks in between, interleaving pushes to the old coordinates.
    let pushes = [
        (0, 0, 0, false),
        (1, 2, 1, true),
        (0, 7, 2, false), // wider bank: stride 3 -> 8
        (1, 2, 1, false),
        (4, 1, 0, true), // higher rank
        (0, 0, 0, true),
        (2, 15, 1, false), // wider again: stride 8 -> 16
        (4, 1, 0, false),
        (0, 7, 2, true),
    ];
    for (id, (rank, bank, row, is_write)) in pushes.into_iter().enumerate() {
        let l = loc(rank, bank, row, 0);
        let req = if is_write {
            Request::write(id as u64, l, 0, 0)
        } else {
            Request::read(id as u64, l, 0, 0)
        };
        let accepted = if is_write {
            q.try_push_write(req)
        } else {
            q.try_push_read(req)
        };
        assert!(accepted);
        if is_write {
            m.writes.push(req);
        } else {
            m.reads.push(req);
        }
        wide.push((rank, bank));
        check_wide(&q, &m, &wide);
        assert!(
            !q.forwards_read(&loc(rank, bank + 1, row, 0)),
            "unseen bank"
        );
    }
    // Unwind from the middle outwards so takes cross both layouts.
    while !m.reads.is_empty() {
        let mid = m.reads.len() / 2;
        let slot = q.iter_reads().nth(mid).expect("model says present").slot;
        assert_eq!(q.take_read(slot), m.reads.remove(mid));
        check_wide(&q, &m, &wide);
    }
    while !m.writes.is_empty() {
        let mid = m.writes.len() / 2;
        let slot = q.iter_writes().nth(mid).expect("model says present").slot;
        assert_eq!(q.take_write(slot), m.writes.remove(mid));
        check_wide(&q, &m, &wide);
    }
    assert_eq!(q.read_len() + q.write_len(), 0);
}
