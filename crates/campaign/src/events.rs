//! Structured campaign progress events.
//!
//! Every notable step of a campaign run — planning, per-job simulation,
//! append failures, lease lifecycle, transport retries — is an [`Event`].
//! The [`EventLog`] renders each event twice:
//!
//! * as one flat JSON object per line into an optional JSONL sink
//!   (`experiments ... --events PATH`), for machines; and
//! * as the human console line the runner has always printed, for people —
//!   progress lines to stdout when verbose, failure lines to stderr
//!   always.
//!
//! Events are diagnostics only: they never feed fingerprints, shard
//! records or grids, so enabling the log cannot perturb campaign results.

use crate::lease::now_ms;
use std::fs::OpenOptions;
use std::io::Write;
use std::path::Path;
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// One campaign progress event. Its JSONL line is this declaration:
/// `event` is the variant's snake_case name, then `ts_ms`, then the
/// variant's fields in declaration order.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
#[serde(tag = "event", rename_all = "snake_case")]
pub enum Event {
    /// A campaign run finished planning: expansion, dedup and cache
    /// partition are known, simulation is about to start.
    CampaignPlanned {
        /// Campaign name.
        campaign: String,
        /// Expanded cells across all sweeps.
        cells: usize,
        /// Distinct fingerprints after in-flight dedup.
        unique_jobs: usize,
        /// Cells collapsed onto another cell's simulation.
        deduped: usize,
        /// Unique jobs answered from the store.
        cached: usize,
        /// Unique jobs to simulate this run.
        to_simulate: usize,
        /// Worker threads simulating them.
        threads: usize,
    },
    /// A campaign run finished simulating its misses.
    CampaignSimulated {
        /// Campaign name.
        campaign: String,
        /// Jobs simulated this run.
        simulated: usize,
        /// Functional warm-ups they took (shared across mechanisms and
        /// densities, so at most `simulated`).
        warmups: usize,
        /// Wall time since the run started (ms).
        wall_ms: u64,
    },
    /// One cell was simulated (by the single-process executor or a
    /// leased worker).
    JobSimulated {
        /// Worker id, when run under a lease.
        #[serde(skip_serializing_if = "Option::is_none")]
        owner: Option<String>,
        /// The shard the result routes to.
        shard: usize,
        /// Job label.
        label: String,
        /// Simulation wall time (ms).
        wall_ms: u64,
    },
    /// A freshly simulated result could not be appended to its shard.
    AppendFailed {
        /// Worker id, when run under a lease.
        #[serde(skip_serializing_if = "Option::is_none")]
        owner: Option<String>,
        /// The shard the append targeted.
        shard: usize,
        /// Job label.
        label: String,
        /// The I/O error.
        error: String,
    },
    /// End-of-run persist-failure summary (the failed results stay usable
    /// in memory this run and re-simulate next time).
    PersistFailures {
        /// Campaign name.
        campaign: String,
        /// Failed appends.
        count: usize,
    },
    /// A worker leased a shard.
    LeaseAcquired {
        /// Worker id.
        owner: String,
        /// Shard number.
        shard: usize,
        /// Jobs missing from the shard at lease time.
        missing_jobs: usize,
        /// A dead owner's stale lease was evicted to take it.
        reclaimed: bool,
    },
    /// A worker found a shard held by a live peer.
    LeaseHeld {
        /// Worker id.
        owner: String,
        /// Shard number.
        shard: usize,
        /// The holder's worker id.
        holder: String,
        /// This worker evicted a stale lease but lost the follow-up race.
        evicted_stale: bool,
    },
    /// A worker is re-trying a lease acquire after an eviction race.
    LeaseRetry {
        /// Worker id.
        owner: String,
        /// Shard number.
        shard: usize,
        /// 0-based failed attempt number.
        attempt: u32,
        /// Back-off before the next attempt (ms).
        delay_ms: u64,
    },
    /// A heartbeat renewal of a held lease.
    LeaseRenewed {
        /// Worker id.
        owner: String,
        /// Shard number.
        shard: usize,
        /// Whether the renewal succeeded (a failure means the lease was
        /// reclaimed after a stall; the protocol tolerates it).
        ok: bool,
    },
    /// A worker released a shard lease.
    LeaseReleased {
        /// Worker id.
        owner: String,
        /// Shard number.
        shard: usize,
    },
    /// A worker found every remaining shard held by live peers and slept.
    WaitRound {
        /// Worker id.
        owner: String,
        /// Cumulative wait rounds this drain.
        rounds: usize,
    },
    /// A transient transport failure is being retried (remote store).
    RetryAttempt {
        /// What was being attempted.
        what: String,
        /// 0-based failed attempt number.
        attempt: u32,
        /// Back-off before the next attempt (ms).
        delay_ms: u64,
        /// The transient error.
        error: String,
    },
}

impl Event {
    /// The JSONL line: the derived object with `ts_ms` spliced in after
    /// the `event` tag. The tag is a snake_case name, so the first comma
    /// ends it, and every variant writes at least one field after it.
    fn line(&self, ts_ms: u64) -> String {
        let json = serde_json::to_string(self).expect("events serialize");
        let (tag, fields) = json.split_once(',').expect("every event has fields");
        format!("{tag},\"ts_ms\":{ts_ms},{fields}")
    }

    /// The human console line, if this event has one: `(to_stderr,
    /// needs_verbose, line)`. Failure lines go to stderr unconditionally;
    /// progress lines go to stdout only when verbose. The texts are the
    /// runner's historical lines, which tooling greps.
    fn console(&self) -> Option<(bool, bool, String)> {
        let progress = |line: String| Some((false, true, line));
        let failure = |line: String| Some((true, false, line));
        match self {
            Event::CampaignPlanned {
                campaign,
                cells,
                unique_jobs,
                deduped,
                cached,
                to_simulate,
                threads,
            } => progress(format!(
                "campaign `{campaign}`: {cells} cells -> {unique_jobs} unique jobs \
                 ({deduped} deduped in flight), {cached} cached, {to_simulate} to \
                 simulate on {threads} threads"
            )),
            Event::CampaignSimulated {
                campaign,
                simulated,
                wall_ms,
                ..
            } => progress(format!(
                "campaign `{campaign}`: simulated {simulated} jobs in {:.1?}",
                Duration::from_millis(*wall_ms)
            )),
            Event::AppendFailed {
                shard,
                label,
                error,
                ..
            } => failure(format!(
                "campaign store: append failed for {label} (shard {shard}): {error}"
            )),
            Event::PersistFailures { campaign, count } => failure(format!(
                "campaign `{campaign}`: {count} results could not be persisted and \
                 will re-simulate on the next run"
            )),
            Event::LeaseAcquired {
                owner,
                shard,
                missing_jobs,
                reclaimed,
            } => progress(format!(
                "worker `{owner}`: leased shard {shard} ({missing_jobs} missing jobs{})",
                if *reclaimed {
                    ", reclaimed from dead owner"
                } else {
                    ""
                }
            )),
            Event::LeaseHeld {
                owner,
                shard,
                holder,
                evicted_stale,
            } => progress(format!(
                "worker `{owner}`: shard {shard} held by `{holder}`{}",
                if *evicted_stale {
                    " (after this worker evicted a stale lease)"
                } else {
                    ""
                }
            )),
            Event::JobSimulated { .. }
            | Event::LeaseRetry { .. }
            | Event::LeaseRenewed { .. }
            | Event::LeaseReleased { .. }
            | Event::WaitRound { .. }
            | Event::RetryAttempt { .. } => None,
        }
    }
}

/// A campaign event sink: an optional JSONL file plus the console.
///
/// Cloneable via `Arc`; `emit` takes `&self` and is safe from executor
/// worker threads.
#[derive(Debug, Default)]
pub struct EventLog {
    sink: Option<Mutex<std::fs::File>>,
}

impl EventLog {
    /// A log with no JSONL sink: events only render their console lines.
    pub fn disabled() -> Self {
        EventLog::default()
    }

    /// Opens (appending) a JSONL sink at `path`, creating parent
    /// directories as needed.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn to_path(path: &Path) -> std::io::Result<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(EventLog {
            sink: Some(Mutex::new(file)),
        })
    }

    /// Whether a JSONL sink is attached.
    pub fn is_recording(&self) -> bool {
        self.sink.is_some()
    }

    /// Emits one event: appends its JSON line to the sink (if any) and
    /// prints its console line (progress lines only when `verbose`).
    /// Sink write failures are swallowed — diagnostics must never fail a
    /// campaign — and so is a sink poisoned by a thread that panicked while
    /// holding it: an append-only handle has no state a panic can tear.
    pub fn emit(&self, verbose: bool, event: &Event) {
        if let Some(sink) = &self.sink {
            let line = event.line(now_ms());
            let mut f = sink.lock().unwrap_or_else(PoisonError::into_inner);
            let _ = writeln!(f, "{line}");
            let _ = f.flush();
        }
        if let Some((to_stderr, needs_verbose, line)) = event.console() {
            if to_stderr {
                eprintln!("{line}");
            } else if verbose && needs_verbose {
                println!("{line}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    #[test]
    fn events_render_flat_json_with_name_and_timestamp() {
        let e = Event::LeaseAcquired {
            owner: "w-1".into(),
            shard: 3,
            missing_jobs: 7,
            reclaimed: true,
        };
        let v: Value = serde_json::from_str(&e.line(42)).unwrap();
        let obj = v.as_object().unwrap();
        assert_eq!(obj.get("event").unwrap().as_str(), Some("lease_acquired"));
        assert_eq!(obj.get("ts_ms").unwrap().as_u64(), Some(42));
        assert_eq!(obj.get("owner").unwrap().as_str(), Some("w-1"));
        assert_eq!(obj.get("shard").unwrap().as_u64(), Some(3));
        assert_eq!(obj.get("reclaimed"), Some(&Value::Bool(true)));
    }

    #[test]
    fn append_failures_name_shard_and_label() {
        let e = Event::AppendFailed {
            owner: Some("w-9".into()),
            shard: 5,
            label: "mix00/DSARP@32Gb".into(),
            error: "disk full".into(),
        };
        let (to_stderr, _, line) = e.console().unwrap();
        assert!(to_stderr);
        assert!(line.contains("mix00/DSARP@32Gb"), "{line}");
        assert!(line.contains("shard 5"), "{line}");
        let obj: Value = serde_json::from_str(&e.line(1)).unwrap();
        assert_eq!(
            obj.as_object().unwrap().get("label").unwrap().as_str(),
            Some("mix00/DSARP@32Gb")
        );
    }

    #[test]
    fn sink_collects_one_json_line_per_event() {
        let dir = std::env::temp_dir()
            .join("dsarp-events-tests")
            .join(format!("sink-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("events.jsonl");
        let log = EventLog::to_path(&path).unwrap();
        assert!(log.is_recording());
        log.emit(
            false,
            &Event::WaitRound {
                owner: "w".into(),
                rounds: 1,
            },
        );
        log.emit(
            false,
            &Event::LeaseReleased {
                owner: "w".into(),
                shard: 2,
            },
        );
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first: Value = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(
            first.as_object().unwrap().get("event").unwrap().as_str(),
            Some("wait_round")
        );
        let second: Value = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(
            second.as_object().unwrap().get("event").unwrap().as_str(),
            Some("lease_released")
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_poisoned_sink_still_records() {
        let dir = std::env::temp_dir()
            .join("dsarp-events-tests")
            .join(format!("poison-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("events.jsonl");
        let log = EventLog::to_path(&path).unwrap();
        // A worker panics while holding the sink, as one does when its job
        // panics mid-`emit`; the scope joins it before anyone else emits.
        std::thread::scope(|s| {
            let worker = s.spawn(|| {
                let _held = log.sink.as_ref().unwrap().lock().unwrap();
                panic!("worker dies holding the event sink");
            });
            assert!(worker.join().is_err());
        });
        assert!(log.sink.as_ref().unwrap().is_poisoned());
        log.emit(
            false,
            &Event::WaitRound {
                owner: "w".into(),
                rounds: 1,
            },
        );
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1, "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_event_renders_its_documented_keys() {
        let w = || String::from("w");
        // One value per variant (both `owner` cases where it is optional)
        // and the README's field list for it: `event` and `ts_ms` come
        // first, then exactly these keys in this order.
        let cases: [(Event, &str, &[&str]); 14] = [
            (
                Event::CampaignPlanned {
                    campaign: w(),
                    cells: 4,
                    unique_jobs: 3,
                    deduped: 1,
                    cached: 1,
                    to_simulate: 2,
                    threads: 2,
                },
                "campaign_planned",
                &[
                    "campaign",
                    "cells",
                    "unique_jobs",
                    "deduped",
                    "cached",
                    "to_simulate",
                    "threads",
                ],
            ),
            (
                Event::CampaignSimulated {
                    campaign: w(),
                    simulated: 2,
                    warmups: 1,
                    wall_ms: 7,
                },
                "campaign_simulated",
                &["campaign", "simulated", "warmups", "wall_ms"],
            ),
            (
                Event::JobSimulated {
                    owner: None,
                    shard: 1,
                    label: w(),
                    wall_ms: 7,
                },
                "job_simulated",
                &["shard", "label", "wall_ms"],
            ),
            (
                Event::JobSimulated {
                    owner: Some(w()),
                    shard: 1,
                    label: w(),
                    wall_ms: 7,
                },
                "job_simulated",
                &["owner", "shard", "label", "wall_ms"],
            ),
            (
                Event::AppendFailed {
                    owner: None,
                    shard: 1,
                    label: w(),
                    error: w(),
                },
                "append_failed",
                &["shard", "label", "error"],
            ),
            (
                Event::AppendFailed {
                    owner: Some(w()),
                    shard: 1,
                    label: w(),
                    error: w(),
                },
                "append_failed",
                &["owner", "shard", "label", "error"],
            ),
            (
                Event::PersistFailures {
                    campaign: w(),
                    count: 1,
                },
                "persist_failures",
                &["campaign", "count"],
            ),
            (
                Event::LeaseAcquired {
                    owner: w(),
                    shard: 1,
                    missing_jobs: 2,
                    reclaimed: false,
                },
                "lease_acquired",
                &["owner", "shard", "missing_jobs", "reclaimed"],
            ),
            (
                Event::LeaseHeld {
                    owner: w(),
                    shard: 1,
                    holder: w(),
                    evicted_stale: true,
                },
                "lease_held",
                &["owner", "shard", "holder", "evicted_stale"],
            ),
            (
                Event::LeaseRetry {
                    owner: w(),
                    shard: 1,
                    attempt: 0,
                    delay_ms: 7,
                },
                "lease_retry",
                &["owner", "shard", "attempt", "delay_ms"],
            ),
            (
                Event::LeaseRenewed {
                    owner: w(),
                    shard: 1,
                    ok: true,
                },
                "lease_renewed",
                &["owner", "shard", "ok"],
            ),
            (
                Event::LeaseReleased {
                    owner: w(),
                    shard: 1,
                },
                "lease_released",
                &["owner", "shard"],
            ),
            (
                Event::WaitRound {
                    owner: w(),
                    rounds: 1,
                },
                "wait_round",
                &["owner", "rounds"],
            ),
            (
                Event::RetryAttempt {
                    what: w(),
                    attempt: 1,
                    delay_ms: 7,
                    error: w(),
                },
                "retry_attempt",
                &["what", "attempt", "delay_ms", "error"],
            ),
        ];
        let dir = std::env::temp_dir()
            .join("dsarp-events-tests")
            .join(format!("keys-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("events.jsonl");
        let log = EventLog::to_path(&path).unwrap();
        for (event, _, _) in &cases {
            log.emit(false, event);
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), cases.len(), "{text}");
        for ((_, name, fields), line) in cases.iter().zip(text.lines()) {
            let doc: Value = serde_json::from_str(line).unwrap();
            let doc = doc.as_object().unwrap();
            let keys: Vec<&str> = doc.iter().map(|(k, _)| k.as_str()).collect();
            let want: Vec<&str> = ["event", "ts_ms"].iter().chain(*fields).copied().collect();
            assert_eq!(keys, want, "{line}");
            assert_eq!(doc.get("event").unwrap().as_str(), Some(*name), "{line}");
            assert!(doc.get("ts_ms").unwrap().as_u64().unwrap() > 0, "{line}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn progress_lines_match_legacy_console_format() {
        let planned = Event::CampaignPlanned {
            campaign: "paper".into(),
            cells: 10,
            unique_jobs: 8,
            deduped: 2,
            cached: 8,
            to_simulate: 0,
            threads: 4,
        };
        let (_, _, line) = planned.console().unwrap();
        assert_eq!(
            line,
            "campaign `paper`: 10 cells -> 8 unique jobs (2 deduped in flight), \
             8 cached, 0 to simulate on 4 threads"
        );
        let held = Event::LeaseHeld {
            owner: "a".into(),
            shard: 1,
            holder: "b".into(),
            evicted_stale: false,
        };
        let (_, _, line) = held.console().unwrap();
        assert_eq!(line, "worker `a`: shard 1 held by `b`");
    }
}
