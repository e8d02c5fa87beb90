//! Trace file I/O in the Ramulator CPU-trace text format.
//!
//! Each line is `<bubbles> <read-addr> [<write-addr>]`:
//! `bubbles` non-memory instructions, then a load of `read-addr`; if a
//! third column is present, a store to `write-addr` follows the load.
//! Comment lines start with `#`. This lets the simulator consume traces
//! captured elsewhere (or exchange its synthetic streams with Ramulator-
//! based setups), instead of only statistical generators.

use crate::trace::{MemKind, TraceOp, TraceSource};
use std::io::Write;

/// Errors from trace parsing.
#[derive(Debug)]
pub enum TraceFileError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line (1-based line number and content).
    Parse {
        /// 1-based line number.
        line: usize,
        /// Offending text.
        text: String,
    },
    /// The file contained no trace entries.
    Empty,
    /// The file ends mid-record: a text file without a trailing newline,
    /// or a `.dtrace` file shorter than its header's record count — it
    /// was torn by a crashed or still-running writer. Rejected by the
    /// strict parser because the cut can leave a *shorter but still
    /// parseable* final line — silently replaying it would be a wrong
    /// simulation, not an error.
    Truncated,
    /// A malformed `.dtrace` structure (bad magic, invalid record flags,
    /// or bytes beyond the declared record count).
    Binary {
        /// Byte offset of the fault.
        offset: u64,
        /// What was wrong there.
        what: String,
    },
}

impl std::fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceFileError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceFileError::Parse { line, text } => {
                write!(f, "malformed trace line {line}: `{text}`")
            }
            TraceFileError::Empty => write!(f, "trace file has no entries"),
            TraceFileError::Truncated => {
                write!(f, "trace file is truncated (torn mid-record tail)")
            }
            TraceFileError::Binary { offset, what } => {
                write!(f, "malformed binary trace at byte {offset}: {what}")
            }
        }
    }
}

impl std::error::Error for TraceFileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceFileError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceFileError {
    fn from(e: std::io::Error) -> Self {
        TraceFileError::Io(e)
    }
}

/// Writes `n` entries of any [`TraceSource`] in the Ramulator text format.
///
/// A zero-bubble store directly following a load is attached to that
/// load's line as the third column (the format's two-address convention),
/// so streams parsed from the format round-trip to an identical op
/// stream. A store that cannot be attached (leading, repeated, or
/// carrying bubbles) has no exact representation and is written as a
/// self-addressed load+store line, which parses back as a zero-bubble
/// load/store pair at its address.
///
/// # Errors
///
/// Propagates I/O errors.
pub(crate) fn export(
    source: &mut dyn TraceSource,
    n: usize,
    mut out: impl Write,
) -> std::io::Result<()> {
    writeln!(
        out,
        "# dsarp trace export, Ramulator CPU format: bubbles rd_addr [wr_addr]"
    )?;
    let mut pending: Option<TraceOp> = None;
    for _ in 0..n {
        let op = source.next_op();
        match op.kind {
            MemKind::Load => {
                if let Some(ld) = pending.take() {
                    writeln!(out, "{} 0x{:x}", ld.bubbles, ld.addr)?;
                }
                pending = Some(op);
            }
            MemKind::Store => {
                if op.bubbles == 0 {
                    if let Some(ld) = pending.take() {
                        writeln!(out, "{} 0x{:x} 0x{:x}", ld.bubbles, ld.addr, op.addr)?;
                        continue;
                    }
                }
                if let Some(ld) = pending.take() {
                    writeln!(out, "{} 0x{:x}", ld.bubbles, ld.addr)?;
                }
                writeln!(out, "{} 0x{:x} 0x{:x}", op.bubbles, op.addr, op.addr)?;
            }
        }
    }
    if let Some(ld) = pending.take() {
        writeln!(out, "{} 0x{:x}", ld.bubbles, ld.addr)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace_v1::{read_trace_path, scan_trace_bytes, Materialize};

    /// The ops of a plain-text trace, through the parser every reader uses.
    fn parse(text: &[u8]) -> Result<Vec<TraceOp>, TraceFileError> {
        scan_trace_bytes(text, Materialize::All).map(|s| s.ops.expect("materialized"))
    }

    #[test]
    fn parses_loads_and_stores() {
        let ops = parse(b"# comment\n3 0x1000\n0 4096 0x2000\n\n7 0x40\n").unwrap();
        assert_eq!(
            ops,
            vec![ld(3, 0x1000), ld(0, 4096), st(0, 0x2000), ld(7, 0x40)]
        );
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in ["xyz 0x10\n", "3\n", "1 0x10 0x20 0x30\n", "1 zz\n"] {
            let e = parse(bad.as_bytes()).unwrap_err();
            assert!(
                matches!(e, TraceFileError::Parse { line: 1, .. }),
                "{bad}: {e}"
            );
        }
    }

    #[test]
    fn rejects_empty() {
        let e = parse(b"# only comments\n").unwrap_err();
        assert!(matches!(e, TraceFileError::Empty));
    }

    fn ld(bubbles: u32, addr: u64) -> TraceOp {
        TraceOp {
            bubbles,
            kind: MemKind::Load,
            addr,
            dependent: false,
        }
    }

    fn st(bubbles: u32, addr: u64) -> TraceOp {
        TraceOp {
            bubbles,
            kind: MemKind::Store,
            addr,
            dependent: false,
        }
    }

    fn roundtrip(ops: &[TraceOp]) -> Vec<TraceOp> {
        let mut src = crate::trace::CyclicTrace::new(ops.to_vec());
        let mut buf = Vec::new();
        export(&mut src, ops.len(), &mut buf).unwrap();
        parse(&buf).unwrap()
    }

    #[test]
    fn export_import_roundtrip_is_identity_for_conforming_streams() {
        // Zero-bubble stores following loads are exactly the streams the
        // Ramulator format can express; write -> read must be identical.
        let ops = vec![
            ld(5, 0x100),
            st(0, 0x200),
            ld(0, 0x40),
            ld(9, 0x1000),
            st(0, 0x1040),
            ld(2, 0x80),
        ];
        assert_eq!(roundtrip(&ops), ops);
    }

    #[test]
    fn export_import_roundtrip_long_synthetic_stream() {
        // A deterministic pseudo-random format-conforming stream.
        let mut state = 0x2014_5EEDu64;
        let mut ops = Vec::new();
        for _ in 0..500 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = (state >> 20) & !63;
            let bubbles = (state >> 7) as u32 % 50;
            ops.push(ld(bubbles, addr));
            if state.is_multiple_of(3) {
                ops.push(st(0, addr ^ 0x40));
            }
        }
        assert_eq!(roundtrip(&ops), ops);
    }

    #[test]
    fn parse_export_parse_is_idempotent() {
        // Arbitrary parsed streams re-export to the same stream even when
        // the original text used mixed radix and comments.
        let text = b"# header\n3 0x1000 4096\n0 512\n7 0x40 0x80\n1 0x99\n";
        let ops = parse(text).unwrap();
        assert_eq!(roundtrip(&ops), ops);
    }

    #[test]
    fn unattachable_stores_fall_back_to_paired_lines() {
        // A leading store and a store with bubbles cannot be represented
        // exactly; they become zero-bubble load+store pairs at their
        // address.
        let ops = vec![st(0, 0x200), ld(1, 0x40), st(3, 0x300)];
        let got = roundtrip(&ops);
        assert_eq!(
            got,
            vec![
                ld(0, 0x200),
                st(0, 0x200),
                ld(1, 0x40),
                ld(3, 0x300),
                st(0, 0x300)
            ]
        );
    }

    #[test]
    fn strict_parse_rejects_torn_tails_lenient_parse_does_not() {
        // Cutting `1 0x4000\n...` anywhere mid-line can leave `1 0x4`,
        // which is itself a well-formed record — of a different address,
        // as the same bytes newline-terminated show. Only the missing
        // newline gives the cut away, so the parser refuses the whole
        // file rather than replay a silently wrong trace.
        assert!(matches!(
            parse(b"3 0x1000\n1 0x4"),
            Err(TraceFileError::Truncated)
        ));
        assert_eq!(parse(b"3 0x1000\n1 0x4\n").unwrap()[1].addr, 0x4);
        assert_eq!(parse(b"3 0x1000\n1 0x4000\n").unwrap().len(), 2);
        assert!(matches!(parse(b""), Err(TraceFileError::Empty)));
    }

    #[test]
    fn rejects_zero_byte_file() {
        let e = parse(b"").unwrap_err();
        assert!(matches!(e, TraceFileError::Empty));
        assert!(e.to_string().contains("no entries"));
    }

    #[test]
    fn load_from_disk() {
        let dir = std::env::temp_dir().join("dsarp_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.trace");
        std::fs::write(&path, "1 0x40\n2 0x80 0xc0\n").unwrap();
        let t = read_trace_path(&path, Materialize::All).unwrap();
        assert_eq!(t.entries, 3);
        assert!(matches!(
            read_trace_path(&dir.join("missing.trace"), Materialize::All),
            Err(TraceFileError::Io(_))
        ));
    }
}
