//! Drain progress of a campaign store against its spec: the one
//! computation behind `experiments status` (rendered as a table) and the
//! campaign server's `GET /status` (serialized as is).

use crate::lease;
use crate::plan::CampaignPlan;
use crate::spec::CampaignSpec;
use crate::store::{ShardViews, Store, FORMAT_VERSION, SHARDS};
use serde::Serialize;
use std::path::Path;

/// A store's progress against its spec. This declaration is the
/// `GET /status` document.
#[derive(Debug, Serialize)]
pub struct CampaignStatus {
    /// Campaign name.
    pub campaign: String,
    /// Store format version.
    pub format_version: u32,
    /// Sweeps in the spec.
    pub sweeps: usize,
    /// Distinct records on disk, whether or not the spec reaches them.
    pub records: usize,
    /// Distinct cells the spec expands to.
    pub cells: usize,
    /// Those of `cells` with a record on disk.
    pub done: usize,
    /// Every shard, in order.
    pub shards: Vec<ShardStatus>,
}

/// One shard of a [`CampaignStatus`].
#[derive(Debug, Serialize)]
pub struct ShardStatus {
    /// Shard number.
    pub shard: usize,
    /// Distinct records in the shard file.
    pub records: usize,
    /// Shard file size (0 if never written).
    pub bytes: u64,
    /// The spec's cells routed here that have a record.
    pub done: usize,
    /// The spec's cells routed here that have none yet.
    pub missing: usize,
    /// The shard's lease file, if there is one.
    pub lease: Option<LeaseStatus>,
}

/// The lease on a [`ShardStatus`].
#[derive(Debug, Serialize)]
pub struct LeaseStatus {
    /// Holder's worker id.
    pub owner: String,
    /// Holder's process id.
    pub pid: u32,
    /// Heartbeat within the holder's own TTL (else the lease is stale).
    pub live: bool,
    /// Milliseconds since the last heartbeat.
    pub heartbeat_ms_ago: u64,
    /// The holder's TTL.
    pub ttl_ms: u64,
}

impl CampaignStatus {
    /// Reads the progress of the store at `campaign_dir` against `spec`,
    /// taking no lease and writing nothing. Cells are counted after
    /// cross-sweep dedup, exactly as runs simulate them.
    ///
    /// # Errors
    ///
    /// Propagates plan errors (an unreadable trace set) and filesystem
    /// errors.
    pub fn read(spec: &CampaignSpec, campaign_dir: &Path) -> std::io::Result<Self> {
        let plan = CampaignPlan::build(spec)?;
        let leases = lease::list(campaign_dir, SHARDS);
        let now = lease::now_ms();
        let views = ShardViews::default();
        let mut shards = Vec::new();
        for shard in 0..SHARDS {
            let view = views.refresh(shard, campaign_dir)?;
            let routed = plan
                .unique()
                .iter()
                .filter(|(fp, _)| Store::shard_of(*fp) == shard);
            let (done, missing): (Vec<_>, Vec<_>) =
                routed.partition(|(fp, _)| view.fingerprints().contains(&fp.0));
            let held = leases.iter().find(|(s, _, _)| *s == shard);
            shards.push(ShardStatus {
                shard,
                records: view.records().len(),
                bytes: std::fs::metadata(Store::shard_file(campaign_dir, shard))
                    .map_or(0, |m| m.len()),
                done: done.len(),
                missing: missing.len(),
                lease: held.map(|(_, info, live)| LeaseStatus {
                    owner: info.owner.clone(),
                    pid: info.pid,
                    live: *live,
                    heartbeat_ms_ago: info.age_ms(now),
                    ttl_ms: info.ttl_ms,
                }),
            });
        }
        Ok(CampaignStatus {
            campaign: spec.name.clone(),
            format_version: FORMAT_VERSION,
            sweeps: spec.sweeps.len(),
            records: shards.iter().map(|s| s.records).sum(),
            cells: plan.unique().len(),
            done: shards.iter().map(|s| s.done).sum(),
            shards,
        })
    }
}
