//! Miss-status holding registers (MSHRs): per-core outstanding-miss tracking
//! with same-line merging.

/// Identifies one in-flight DRAM request; allocated by the system glue,
/// returned to the core via [`crate::AccessResult::Miss`].
pub(crate) type ReqToken = u64;

#[derive(Debug, Clone)]
struct Entry {
    line: u64,
    token: ReqToken,
    /// Window sequence numbers waiting on this line.
    waiters: Vec<u64>,
}

/// A per-core MSHR table with a fixed number of entries (8 in the paper).
#[derive(Debug, Clone)]
pub(crate) struct MshrTable {
    entries: Vec<Option<Entry>>,
}

impl MshrTable {
    /// Creates a table with `n` registers.
    pub(crate) fn new(n: usize) -> Self {
        Self {
            entries: vec![None; n],
        }
    }

    /// Whether every register is allocated.
    pub(crate) fn is_full(&self) -> bool {
        self.entries.iter().all(Option::is_some)
    }

    /// Whether an in-flight entry for `line` exists (a [`Self::merge`] for
    /// it would succeed). Non-mutating probe for the idle detector.
    pub(crate) fn contains_line(&self, line: u64) -> bool {
        self.entries.iter().flatten().any(|e| e.line == line)
    }

    /// Finds the in-flight entry for `line`, if any, and attaches `waiter`.
    /// Returns `true` when the miss was merged.
    pub(crate) fn merge(&mut self, line: u64, waiter: Option<u64>) -> bool {
        for e in self.entries.iter_mut().flatten() {
            if e.line == line {
                if let Some(w) = waiter {
                    e.waiters.push(w);
                }
                return true;
            }
        }
        false
    }

    /// Allocates a register for `line` with request `token`.
    /// Returns `false` when the table is full (nothing is changed).
    pub(crate) fn allocate(&mut self, line: u64, token: ReqToken, waiter: Option<u64>) -> bool {
        debug_assert!(
            !self.entries.iter().flatten().any(|e| e.line == line),
            "allocate called for a line already in flight; use merge"
        );
        for slot in &mut self.entries {
            if slot.is_none() {
                *slot = Some(Entry {
                    line,
                    token,
                    waiters: waiter.into_iter().collect(),
                });
                return true;
            }
        }
        false
    }

    /// Completes the request `token`: frees the register and returns the
    /// waiting window sequence numbers. Returns `None` if the token is
    /// unknown (e.g. a store-only fill with no waiters was already freed).
    pub(crate) fn complete(&mut self, token: ReqToken) -> Option<Vec<u64>> {
        for slot in &mut self.entries {
            if slot.as_ref().is_some_and(|e| e.token == token) {
                let e = slot.take().expect("checked above");
                return Some(e.waiters);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_until_full() {
        let mut m = MshrTable::new(2);
        assert!(m.allocate(0x100, 1, Some(10)));
        assert!(m.allocate(0x200, 2, None));
        assert!(m.is_full());
        assert!(!m.allocate(0x300, 3, None));
        assert_eq!(m.entries.iter().flatten().count(), 2);
    }

    #[test]
    fn merge_attaches_waiters() {
        let mut m = MshrTable::new(2);
        m.allocate(0x100, 1, Some(10));
        assert!(m.merge(0x100, Some(11)));
        assert!(!m.merge(0x999, None));
        let waiters = m.complete(1).unwrap();
        assert_eq!(waiters, vec![10, 11]);
        assert_eq!(m.entries.iter().flatten().count(), 0);
    }

    #[test]
    fn complete_unknown_token_is_none() {
        let mut m = MshrTable::new(1);
        m.allocate(0x100, 7, None);
        assert!(m.complete(8).is_none());
        assert_eq!(m.complete(7).unwrap(), Vec::<u64>::new());
    }
}
