//! The instruction-trace abstraction feeding each core.
//!
//! A trace is an infinite stream of [`TraceOp`]s — the standard
//! `(bubble count, memory operation)` format used by trace-driven CPU
//! front ends. The `dsarp-workloads` crate provides statistical generators
//! that realize SPEC/STREAM/TPC/RandomAccess-like behaviour.

use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Kind of memory operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemKind {
    /// A load: holds its window slot until data returns.
    Load,
    /// A store: retires immediately (write buffers), but still exercises the
    /// cache (allocation + dirtying) and MSHRs.
    Store,
}

/// One trace entry: `bubbles` non-memory instructions followed by one memory
/// operation at `addr`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceOp {
    /// Non-memory instructions preceding the memory operation. Use a huge
    /// value for compute-only phases.
    pub bubbles: u32,
    /// Load or store.
    pub kind: MemKind,
    /// Byte address touched (the core accesses the containing line).
    pub addr: u64,
    /// If `true`, this operation cannot issue until the previous load has
    /// completed (models pointer-chasing dependence, limiting MLP).
    pub dependent: bool,
}

/// An infinite instruction stream.
pub trait TraceSource {
    /// Produces the next trace entry. Must never end; wrap around or keep
    /// generating statistically.
    fn next_op(&mut self) -> TraceOp;
}

/// A fixed cyclic trace. The ops are shared, so many sources (the alone
/// run and the grid cells of one captured file) replay one parsed snapshot
/// without copying it per job.
#[derive(Debug, Clone)]
pub struct CyclicTrace {
    ops: Arc<[TraceOp]>,
    pos: usize,
}

impl CyclicTrace {
    /// Creates a trace repeating `ops` forever.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is empty.
    pub fn new(ops: impl Into<Arc<[TraceOp]>>) -> Self {
        let ops = ops.into();
        assert!(!ops.is_empty(), "cyclic trace needs at least one op");
        Self { ops, pos: 0 }
    }
}

impl TraceSource for CyclicTrace {
    fn next_op(&mut self) -> TraceOp {
        let op = self.ops[self.pos];
        self.pos = (self.pos + 1) % self.ops.len();
        op
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cyclic_trace_wraps() {
        let a = TraceOp {
            bubbles: 1,
            kind: MemKind::Load,
            addr: 0,
            dependent: false,
        };
        let b = TraceOp {
            bubbles: 2,
            kind: MemKind::Store,
            addr: 64,
            dependent: false,
        };
        let mut t = CyclicTrace::new(vec![a, b]);
        assert_eq!(t.next_op(), a);
        assert_eq!(t.next_op(), b);
        assert_eq!(t.next_op(), a);
    }

    #[test]
    #[should_panic(expected = "at least one op")]
    fn empty_cyclic_trace_panics() {
        let _ = CyclicTrace::new(vec![]);
    }
}
