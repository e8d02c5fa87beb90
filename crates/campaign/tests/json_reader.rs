//! The one-pass JSON reader and writer on the documents this workspace
//! keys and stores: configurations, benchmark mixes, shard records,
//! campaign specs and telemetry sidecars. Generated documents read back
//! equal, a derived type reads a damaged document only where the `Value`
//! parser accepts it as JSON too, and the canonical rendering a
//! fingerprint hashes is the plain rendering read back and key-sorted, as
//! the tree-building encoder rendered it.

use dsarp_campaign::fingerprint::{fingerprint_bytes, fingerprint_value};
use dsarp_campaign::{CampaignSpec, Fingerprint, Record, RunSummary};
use dsarp_core::Mechanism;
use dsarp_cpu::CoreParams;
use dsarp_dram::{Density, Retention};
use dsarp_sim::experiments::Scale;
use dsarp_sim::{SimConfig, SimTelemetry};
use dsarp_workloads::{BenchmarkSpec, MemClass};
use proptest::prelude::*;
use serde::{Deserialize, Serialize, Writer};
use serde_json::Value;
use std::fmt::Write;

/// A finite float from raw bits (non-finite bit patterns become their
/// integer value).
fn finite(bits: u64) -> f64 {
    let f = f64::from_bits(bits);
    if f.is_finite() {
        f
    } else {
        bits as f64
    }
}

/// A string of random characters, quotes, backslashes, control
/// characters and astral ones included.
fn text(picks: &[u64]) -> String {
    picks
        .iter()
        .map(|&x| {
            let code = if x & 1 == 0 { x % 0x80 } else { x % 0x11_0000 };
            char::from_u32(code as u32).unwrap_or('\u{fffd}')
        })
        .collect()
}

fn record(seed: &[u64]) -> Record {
    let fp = Fingerprint(u128::from(seed[0]) << 64 | u128::from(seed[1]));
    let label = text(&seed[2..seed.len().min(12)]);
    if seed[0] & 1 == 0 {
        return Record::alone(fp, label, finite(seed[1]));
    }
    let summary = RunSummary {
        ipc: seed.iter().skip(3).map(|&b| finite(b)).collect(),
        energy_per_access_nj: finite(seed[2]),
        total_ipc: finite(seed[1] ^ seed[2]),
    };
    Record::grid(fp, label, summary)
}

fn spec(seed: &[u64]) -> CampaignSpec {
    let scale = Scale {
        dram_cycles: seed[0],
        alone_cycles: seed[1],
        per_category: seed[2] as usize,
        threads: seed[3] as usize % 9,
        warmup_ops: seed[0] ^ seed[3],
    };
    let mut spec = CampaignSpec::paper(scale);
    spec.name = text(&seed[4..]);
    spec.workload_seed = seed[1].rotate_left(7);
    for (sweep, &s) in spec.sweeps.iter_mut().zip(seed) {
        sweep.name = text(&[s, s >> 7, s >> 21]);
        sweep.sim_seed = (s & 1 == 1).then_some(s);
    }
    spec
}

fn telemetry(seed: &[u64]) -> SimTelemetry {
    let mut t = SimTelemetry {
        dram_cycles: seed[0],
        row_hits: seed[1],
        row_misses: seed[2],
        row_conflicts: seed[3],
        ..SimTelemetry::default()
    };
    t.banks = seed
        .iter()
        .map(|&x| {
            let mut bank = t.banks.first().cloned().unwrap_or_default();
            (bank.channel, bank.rank, bank.bank) =
                (x as usize % 4, x as usize % 2, x as usize % 16);
            (bank.busy_cycles, bank.refresh_blocked_cycles) = (x >> 3, x >> 40);
            bank
        })
        .collect();
    t.refreshes.refpb = seed[4];
    t.refreshes.sarp_parallel_acts = seed[5];
    t.read_queue_depth.buckets = seed.iter().map(|x| x >> 20).collect();
    (t.read_queue_depth.sum, t.read_queue_depth.count) = (seed[6], seed[7]);
    t
}

/// A configuration with every knob drawn from `seed`.
fn sim_config(seed: &[u64]) -> SimConfig {
    let pick = |i: usize| seed[i % seed.len()];
    let mut cfg = SimConfig::paper(
        Mechanism::ALL[pick(0) as usize % Mechanism::ALL.len()],
        [Density::G8, Density::G16, Density::G32, Density::G64][pick(1) as usize % 4],
    );
    cfg.cores = pick(2) as usize;
    cfg.retention = [Retention::Ms32, Retention::Ms64][pick(3) as usize % 2];
    cfg.subarrays_per_bank = pick(4) as usize;
    cfg.faw_rrd = (pick(5) & 1 == 1).then(|| (pick(5), pick(6)));
    cfg.core_params = CoreParams {
        issue_width: pick(7) as usize,
        window_size: pick(8) as usize,
        mshrs: pick(9) as usize,
        llc_hit_latency: pick(10),
    };
    cfg.llc_capacity = (pick(11) & 1 == 1).then(|| pick(11) as usize);
    cfg.seed = pick(12);
    cfg.warmup_ops = pick(13);
    cfg.drain_watermarks = (pick(14) & 1 == 1).then(|| (pick(14) as usize, pick(15) as usize));
    cfg.ablate_sarp_throttle = pick(16) & 1 == 1;
    cfg
}

/// A mix of benchmarks with random labels and parameters.
fn mix(seed: &[u64]) -> Vec<BenchmarkSpec> {
    seed.windows(4)
        .map(|w| BenchmarkSpec {
            name: Box::leak(text(w).into_boxed_str()),
            mem_interval: w[0] as u32,
            store_frac: finite(w[1]),
            stream_frac: finite(w[2]),
            num_streams: w[3] as usize,
            stream_stride: w[0] ^ w[1],
            working_set: w[1] ^ w[2],
            hot_frac: finite(w[3]),
            hot_bytes: w[2] ^ w[3],
            dep_frac: finite(w[0] ^ w[3]),
            class: [MemClass::Intensive, MemClass::NonIntensive][w[0] as usize % 2],
        })
        .collect()
}

/// The canonical rendering as the tree-building encoder wrote it: object
/// keys sorted recursively, every scalar as `Value` displays it.
fn render_canonical(v: &Value, out: &mut String) {
    match v {
        Value::Object(m) => {
            let mut entries: Vec<(&String, &Value)> = m.iter().collect();
            entries.sort_by_key(|(k, _)| k.as_str());
            out.push('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write!(out, "{}:", Value::String((*k).clone())).unwrap();
                render_canonical(val, out);
            }
            out.push('}');
        }
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_canonical(item, out);
            }
            out.push(']');
        }
        scalar => write!(out, "{scalar}").unwrap(),
    }
}

/// Asserts `doc`'s canonical rendering is its plain one, read back and
/// key-sorted, and that both fingerprint paths hash it alike.
fn canonical_is_sorted_plain<T: Serialize>(doc: &T) {
    let mut canonical = String::new();
    doc.serialize(&mut Writer::canonical(&mut canonical))
        .unwrap();
    let plain = serde_json::to_string(doc).unwrap();
    let mut sorted = String::new();
    render_canonical(&serde_json::parse_value(&plain).unwrap(), &mut sorted);
    assert_eq!(canonical, sorted);
    let value = serde_json::to_value(doc).unwrap();
    assert_eq!(value.to_string(), plain);
    assert_eq!(
        fingerprint_value(&value),
        fingerprint_bytes(canonical.as_bytes())
    );
}

/// Document `kind` (record, spec, telemetry) for `seed`, rendered.
fn document(kind: u8, seed: &[u64]) -> String {
    match kind % 3 {
        0 => serde_json::to_string(&record(seed)),
        1 => serde_json::to_string(&spec(seed)),
        _ => serde_json::to_string(&telemetry(seed)),
    }
    .expect("documents serialize")
}

/// `T` reads `text` only if the `Value` parser accepts it.
fn reads_only_json<T: Deserialize>(text: &str) {
    if serde_json::from_str::<T>(text).is_ok() {
        assert!(serde_json::parse_value(text).is_ok(), "accepted: {text}");
    }
}

/// Every document type reads `text` only if it is JSON.
fn every_type_reads_only_json(text: &str) {
    reads_only_json::<Record>(text);
    reads_only_json::<CampaignSpec>(text);
    reads_only_json::<SimTelemetry>(text);
}

/// The bytes a mutation puts in: JSON's structural and literal bytes.
const TOKENS: &[u8] = b"[]{}\",:\\/-+.eE0159aflnrstu \n\x01\xc3\xa9";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn generated_documents_read_back_equal(seed in prop::collection::vec(any::<u64>(), 8..24)) {
        let record = record(&seed);
        let text = serde_json::to_string(&record).unwrap();
        prop_assert_eq!(serde_json::from_str::<Record>(&text).unwrap(), record);
        let spec = spec(&seed);
        prop_assert_eq!(CampaignSpec::from_json(&spec.to_json()).unwrap(), spec);
        let telemetry = telemetry(&seed);
        let text = serde_json::to_string(&telemetry).unwrap();
        prop_assert_eq!(serde_json::from_str::<SimTelemetry>(&text).unwrap(), telemetry);
    }

    #[test]
    fn canonical_rendering_is_the_sorted_plain_rendering(
        seed in prop::collection::vec(any::<u64>(), 8..24),
    ) {
        canonical_is_sorted_plain(&sim_config(&seed));
        canonical_is_sorted_plain(&mix(&seed));
        canonical_is_sorted_plain(&record(&seed));
        canonical_is_sorted_plain(&spec(&seed));
    }

    #[test]
    fn damaged_documents_read_only_where_they_are_json(
        kind in 0u8..3,
        seed in prop::collection::vec(any::<u64>(), 8..16),
        edits in prop::collection::vec((0u8..3, any::<usize>(), prop::sample::select(TOKENS.to_vec())), 1..4),
        cut in any::<usize>(),
    ) {
        let mut bytes = document(kind, &seed).into_bytes();
        every_type_reads_only_json(&String::from_utf8_lossy(&bytes));
        for (op, at, token) in edits {
            let at = at % (bytes.len() + 1);
            match op {
                0 if at < bytes.len() => bytes[at] = token,
                1 if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => bytes.insert(at, token),
            }
            every_type_reads_only_json(&String::from_utf8_lossy(&bytes));
        }
        bytes.truncate(cut % (bytes.len() + 1));
        every_type_reads_only_json(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn arbitrary_bytes_read_only_where_they_are_json(
        bytes in prop::collection::vec(any::<u8>(), 0..96),
        tokens in prop::collection::vec(prop::sample::select(TOKENS.to_vec()), 0..48),
    ) {
        every_type_reads_only_json(&String::from_utf8_lossy(&bytes));
        every_type_reads_only_json(&String::from_utf8_lossy(&tokens));
    }
}
