//! Content fingerprints for campaign jobs.
//!
//! A job's fingerprint is a 128-bit FNV-1a hash of the *canonical* JSON
//! rendering of its key — object keys sorted recursively, floats in
//! shortest round-trip form — so any change to a [`dsarp_sim::SimConfig`]
//! knob, a benchmark parameter, or the run length changes the fingerprint,
//! while re-serializing an identical key always reproduces it.

use dsarp_cpu::Fnv128;
use serde::{Serialize, Writer};
use serde_json::Value;
use std::fmt::{self, Write};

/// A 128-bit content hash identifying one simulation job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u128);

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl Fingerprint {
    /// Parses the 32-hex-digit form produced by `Display`.
    pub fn parse(text: &str) -> Option<Self> {
        (text.len() == 32)
            .then(|| u128::from_str_radix(text, 16).ok())
            .flatten()
            .map(Fingerprint)
    }
}

/// A running FNV-1a-128 ([`Fnv128`]'s byte-wise fold). Text written to it
/// is hashed as it arrives, so a key can be fingerprinted without ever
/// being assembled — and a copy of its state resumes from a shared prefix
/// without rehashing it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Hasher(Fnv128);

impl Hasher {
    pub(crate) fn new() -> Self {
        Hasher(Fnv128::new())
    }

    pub(crate) fn finish(self) -> Fingerprint {
        Fingerprint(self.0.finish())
    }
}

impl Write for Hasher {
    fn write_str(&mut self, text: &str) -> fmt::Result {
        self.0.update(text.as_bytes());
        Ok(())
    }
}

/// Fingerprints a value tree via its canonical rendering.
pub fn fingerprint_value(v: &Value) -> Fingerprint {
    let mut h = Hasher::new();
    v.serialize(&mut Writer::canonical(&mut h))
        .expect("hashing cannot fail");
    h.finish()
}

/// Fingerprints raw bytes (same FNV-1a-128 as [`fingerprint_value`]).
///
/// This is the content hash of trace files: a `TraceDir` workload folds
/// each trace's byte hash into its job fingerprints, so editing a trace
/// on disk invalidates exactly the cells that replay it.
pub fn fingerprint_bytes(bytes: &[u8]) -> Fingerprint {
    let mut h = Fnv128::new();
    h.update(bytes);
    Fingerprint(h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Map;

    fn obj(pairs: &[(&str, Value)]) -> Value {
        let mut m = Map::new();
        for (k, v) in pairs {
            m.insert((*k).to_string(), v.clone());
        }
        Value::Object(m)
    }

    #[test]
    fn key_order_does_not_matter() {
        let a = obj(&[("x", Value::Bool(true)), ("y", Value::Null)]);
        let b = obj(&[("y", Value::Null), ("x", Value::Bool(true))]);
        assert_eq!(fingerprint_value(&a), fingerprint_value(&b));
    }

    #[test]
    fn content_does_matter() {
        let a = obj(&[("x", Value::Bool(true))]);
        let b = obj(&[("x", Value::Bool(false))]);
        let c = obj(&[("z", Value::Bool(true))]);
        assert_ne!(fingerprint_value(&a), fingerprint_value(&b));
        assert_ne!(fingerprint_value(&a), fingerprint_value(&c));
    }

    #[test]
    fn byte_and_value_hashes_agree_on_the_rendering() {
        // `fingerprint_value` is definitionally the byte hash of the
        // canonical rendering; pin that so the two cannot drift.
        let v = obj(&[("x", Value::Bool(true))]);
        assert_eq!(fingerprint_value(&v), fingerprint_bytes(b"{\"x\":true}"),);
        assert_ne!(fingerprint_bytes(b"a"), fingerprint_bytes(b"b"));
        assert_ne!(fingerprint_bytes(b""), fingerprint_bytes(b"\0"));
    }

    #[test]
    fn display_parse_roundtrip() {
        let fp = fingerprint_value(&Value::Null);
        assert_eq!(Fingerprint::parse(&fp.to_string()), Some(fp));
        assert_eq!(Fingerprint::parse("xyz"), None);
    }
}
