//! Campaign-server acceptance tests: the HTTP shard/lease protocol, torn
//! line freedom under concurrent read-while-append, ETag/304 caching, CLI
//! mode hardening, and the flagship scenario — two `--store-url` workers
//! with no shared campaign directory, one SIGKILLed mid-run, whose merged
//! grids are byte-identical to a fresh single-process local run.

use dsarp_campaign::store::{Record, SHARDS};
use dsarp_campaign::{
    export, lease, AcquireOutcome, Campaign, CampaignSpec, Fingerprint, RemoteStore, Store,
    StoreBackend, SweepSpec, WorkloadSet,
};
use dsarp_core::Mechanism;
use dsarp_dram::Density;
use dsarp_serve::CampaignServer;
use dsarp_sim::experiments::harness::Scale;
use dsarp_sim::experiments::report;
use minihttp::{Client, Request, Server, ServerHandle};
use std::collections::HashSet;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_experiments");

fn tiny_scale() -> Scale {
    Scale {
        dram_cycles: 2_000,
        alone_cycles: 1_000,
        per_category: 1,
        threads: 2,
        warmup_ops: 500,
    }
}

fn small_spec(name: &str) -> CampaignSpec {
    CampaignSpec::new(name, tiny_scale())
        .with_sweep(SweepSpec::new(
            "alpha",
            WorkloadSet::Intensive { cores: 2 },
            &[Mechanism::RefAb, Mechanism::Dsarp],
            &[Density::G8],
        ))
        .with_sweep(SweepSpec::new(
            "beta",
            WorkloadSet::Intensive { cores: 2 },
            &[Mechanism::RefAb, Mechanism::RefPb],
            &[Density::G8],
        ))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("dsarp-serve-tests")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Starts an in-process campaign server on a free port, returning its
/// URL, host:port, and a shutdown handle.
fn start_server(root: &Path, spec: CampaignSpec) -> (String, String, ServerHandle) {
    let http = Server::bind("127.0.0.1:0").unwrap();
    let addr = http.local_addr().unwrap();
    let handle = http.handle().unwrap();
    let server = CampaignServer::new(root, spec).unwrap();
    std::thread::spawn(move || server.serve(http).unwrap());
    (format!("http://{addr}"), addr.to_string(), handle)
}

fn get(path: &str, query: &[(&str, &str)], headers: &[(&str, &str)]) -> Request {
    Request {
        method: "GET".into(),
        path: path.into(),
        query: query
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
        headers: headers
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
        body: Vec::new(),
    }
}

/// What only a real process can show of a refusal: exit code 2, an
/// `error:` line naming the offending token, and no panic. (Which flag
/// applies where is walked row by row in the binary's own tests.)
#[test]
fn cli_refuses_invalid_modes_naming_the_token() {
    // A store to compact, its root spelled another way, and a `--to` root
    // that already holds the campaign.
    let dir = tmpdir("cli-compact");
    let (store, taken) = (dir.join("store"), dir.join("taken"));
    std::fs::create_dir_all(taken.join("paper")).unwrap();
    let store = store.to_str().unwrap();
    let (same, taken) = (format!("{store}/."), taken.to_str().unwrap());
    let cases: &[(&[&str], &str)] = &[
        (&["frobnicate"], "unknown subcommand `frobnicate`"),
        (
            &[
                "worker",
                "--store-url",
                "http://localhost:9",
                "--campaign",
                "d",
            ],
            "--campaign conflicts with --store-url",
        ),
        (&["worker", "--fresh"], "--fresh does not apply to `worker`"),
        // Accepted and silently ignored before the flag table.
        (
            &["status", "--out", "x"],
            "--out does not apply to `status`",
        ),
        (&["run", "--owner", "me"], "--owner does not apply to `run`"),
        (
            &["serve", "--poll-ms", "5"],
            "--poll-ms does not apply to `serve`",
        ),
        (
            &["status", "--ttl-ms", "9"],
            "--ttl-ms does not apply to `status`",
        ),
        // Environmental failures are refusals too, not panics.
        (
            &["worker", "--store-url", "http://127.0.0.1:1"],
            "cannot connect to campaign server http://127.0.0.1:1",
        ),
        (
            &[
                "--emit-spec",
                concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml/x.json"),
            ],
            "cannot write --emit-spec",
        ),
        (&["compact", "--scale", "quick"], "compact needs --to"),
        (
            &[
                "compact",
                "--scale",
                "quick",
                "--campaign",
                store,
                "--to",
                &same,
            ],
            "is the --campaign root",
        ),
        (
            &[
                "compact",
                "--scale",
                "quick",
                "--campaign",
                store,
                "--to",
                taken,
            ],
            "already exists",
        ),
        (
            &["compact", "--ttl-ms", "9"],
            "--ttl-ms does not apply to `compact`",
        ),
    ];
    for (args, needle) in cases {
        let out = Command::new(BIN).args(*args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "`{}` must exit 2, got {:?}:\n{stderr}",
            args.join(" "),
            out.status.code()
        );
        assert!(
            stderr.contains(needle),
            "`{}` must name `{needle}`:\n{stderr}",
            args.join(" ")
        );
        assert!(
            stderr.lines().any(|l| l.starts_with("error:")) && !stderr.contains("panicked"),
            "`{}` must refuse with an `error:` line, not a panic:\n{stderr}",
            args.join(" ")
        );
    }
    // `--help` is answered on stdout with exit 0, whatever else is passed.
    let help = Command::new(BIN)
        .args(["worker", "--bogus", "--help"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&help.stdout);
    assert_eq!(help.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("--store-url URL") && !stdout.contains("--listen"));
    assert!(
        !dir.join("store").exists(),
        "a refused compact created its source"
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// A spec whose sweep the simulator cannot build — 3 cores (the LLC needs
/// a power-of-two set count) or 3 subarrays per bank — is refused with
/// exit 2 naming the sweep and the field, by `run` and `worker` alike,
/// before any store, output directory or worker thread exists.
#[test]
fn unsimulatable_specs_are_refused_before_any_store_exists() {
    let dir = tmpdir("cli-bad-spec");
    for (field, value) in [("cores", 3), ("subarrays", 3)] {
        let mut spec = small_spec("bad");
        match field {
            "cores" => spec.sweeps[1].cores = value,
            _ => spec.sweeps[1].subarrays = value,
        }
        let path = dir.join(format!("{field}.json"));
        std::fs::write(&path, spec.to_json()).unwrap();
        let store = dir.join(format!("store-{field}"));
        let out = dir.join(format!("out-{field}"));
        for cmd in ["run", "worker"] {
            let mut args = vec![cmd, "--spec", path.to_str().unwrap()];
            args.extend(["--campaign", store.to_str().unwrap()]);
            if cmd == "run" {
                args.extend(["--out", out.to_str().unwrap()]);
            }
            let run = Command::new(BIN).args(&args).output().unwrap();
            let stderr = String::from_utf8_lossy(&run.stderr);
            assert_eq!(run.status.code(), Some(2), "{cmd} {field}: {stderr}");
            assert!(
                stderr.starts_with("error: sweep `beta` cannot be simulated: ")
                    && stderr.contains(&format!("`{field}` = 3")),
                "{cmd} {field}: {stderr}"
            );
            assert!(!stderr.contains("panicked"), "{stderr}");
            assert!(
                !store.exists() && !out.exists(),
                "{cmd} {field} created a directory"
            );
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// A spec emitted while the footnote-5 mechanisms existed, and `--exp
/// overlap`, are refused with exit 2 naming what is gone, before any store
/// exists.
#[test]
fn deleted_mechanisms_and_artifacts_are_refused() {
    let dir = tmpdir("cli-deleted");
    let emitted = dir.join("paper.json");
    let emit = Command::new(BIN)
        .args(["--emit-spec", emitted.to_str().unwrap(), "--scale", "quick"])
        .output()
        .unwrap();
    assert!(emit.status.success());
    let text = std::fs::read_to_string(&emitted).unwrap();
    let old = text.replacen(r#"["RefAb","Dsarp"]"#, r#"["RefAb","RefPbOverlapped"]"#, 1);
    assert_ne!(old, text, "no REFab + DSARP sweep to edit");
    let path = dir.join("old.json");
    std::fs::write(&path, old).unwrap();
    let store = dir.join("store");
    let refuse = |flag: &str, value: &str| {
        let args = [flag, value, "--campaign", store.to_str().unwrap()];
        let out = Command::new(BIN).args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked") && !store.exists(), "{stderr}");
        stderr
    };
    let stderr = refuse("--spec", path.to_str().unwrap());
    assert!(stderr.contains("`RefPbOverlapped`"), "{stderr}");
    let stderr = refuse("--exp", "overlap");
    let names: Vec<&str> = dsarp_campaign::paper::names().collect();
    assert_eq!(names.len(), 14);
    let listed = format!("unknown experiment `overlap`; expected one of {names:?}");
    assert!(stderr.contains(&listed), "{stderr}");
    let _ = std::fs::remove_dir_all(dir);
}

/// The full lease lifecycle over HTTP: acquire, contention with holder
/// identity, renew-by-owner, permanent refusal of a non-owner renew,
/// release, and stale reclaim after a dead owner's TTL lapses.
#[test]
fn http_leases_contend_renew_release_and_reclaim() {
    let dir = tmpdir("http-lease");
    let (url, _, handle) = start_server(&dir, small_spec("lease"));
    let a = RemoteStore::connect(&url, "lease").unwrap();
    let b = RemoteStore::connect(&url, "lease").unwrap();

    match a.acquire(3, "owner-a", 60_000).unwrap() {
        AcquireOutcome::Acquired { reclaimed } => assert!(!reclaimed),
        AcquireOutcome::Held { holder, .. } => panic!("vacant shard held by {holder:?}"),
    }
    match b.acquire(3, "owner-b", 60_000).unwrap() {
        AcquireOutcome::Held {
            holder,
            evicted_stale,
        } => {
            assert_eq!(holder.owner, "owner-a");
            assert!(!evicted_stale, "a live lease must not be evicted");
        }
        AcquireOutcome::Acquired { .. } => panic!("live lease double-acquired over HTTP"),
    }
    a.renew(3, "owner-a", 60_000).unwrap();
    let err = b.renew(3, "owner-b", 60_000).unwrap_err();
    assert_eq!(
        err.kind(),
        std::io::ErrorKind::PermissionDenied,
        "a non-owner renew must map to a permanent (409) error, got {err}"
    );
    a.release(3, "owner-a").unwrap();

    // owner-b takes the shard with a 50 ms TTL and "dies" (no renew, no
    // release): after the TTL lapses, owner-a reclaims the stale lease —
    // the exact path a SIGKILLed remote worker leaves behind.
    match b.acquire(3, "owner-b", 50).unwrap() {
        AcquireOutcome::Acquired { .. } => {}
        AcquireOutcome::Held { holder, .. } => panic!("released shard held by {holder:?}"),
    }
    std::thread::sleep(Duration::from_millis(200));
    let mut reclaimed = false;
    for _ in 0..5 {
        match a.acquire(3, "owner-a", 60_000).unwrap() {
            AcquireOutcome::Acquired { reclaimed: r } => {
                reclaimed = r;
                break;
            }
            AcquireOutcome::Held { evicted_stale, .. } => {
                assert!(evicted_stale, "the 50 ms lease must look stale by now");
            }
        }
    }
    assert!(
        reclaimed,
        "the dead owner's lease must be reclaimed over HTTP"
    );
    a.release(3, "owner-a").unwrap();

    handle.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

/// A reader polling the incremental shard endpoint during a concurrent
/// append stream never observes a torn JSON line: every chunk ends at a
/// newline boundary and every line decodes, until all records are seen.
#[test]
fn concurrent_reader_never_observes_torn_lines() {
    let dir = tmpdir("torn");
    let (_, host, handle) = start_server(&dir, small_spec("torn"));
    let n: usize = 200;

    let writer_host = host.clone();
    let writer = std::thread::spawn(move || {
        let mut client = Client::new(writer_host);
        for i in 0..n {
            // i * SHARDS routes every record to shard 0; a long label
            // makes lines span write-buffer boundaries.
            let fp = Fingerprint((i * SHARDS) as u128);
            let rec = Record::alone(fp, format!("w{i}-{}", "x".repeat(257)), i as f64);
            let resp = client
                .request(
                    "POST",
                    "/shards/00/append",
                    &[],
                    Store::encode_line(&rec).as_bytes(),
                )
                .unwrap();
            assert_eq!(resp.status, 200, "append {i}: {}", resp.text_body());
        }
    });

    let mut client = Client::new(host);
    let mut offset = 0u64;
    let mut seen = HashSet::new();
    let deadline = Instant::now() + Duration::from_secs(60);
    while seen.len() < n {
        assert!(Instant::now() < deadline, "saw {}/{n} records", seen.len());
        let resp = client
            .request("GET", &format!("/shards/00?offset={offset}"), &[], &[])
            .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text_body());
        assert!(
            resp.body.is_empty() || resp.body.ends_with(b"\n"),
            "chunk must end at a line boundary, got {:?}...",
            &resp.body[resp.body.len().saturating_sub(40)..]
        );
        for line in std::str::from_utf8(&resp.body).unwrap().lines() {
            let (fp, _) = Store::decode_line(line)
                .unwrap_or_else(|| panic!("torn/unparseable line: {line:?}"));
            assert!(seen.insert(fp.0), "record {fp} delivered twice");
        }
        offset = resp
            .header_value("x-next-offset")
            .expect("x-next-offset header")
            .parse()
            .unwrap();
    }
    writer.join().unwrap();

    // Server-side dedup: re-appending an existing line reports deduped=1
    // and appends nothing (first record wins).
    let rec = Record::alone(Fingerprint(0), "dup".into(), 9.9);
    let resp = client
        .request(
            "POST",
            "/shards/00/append",
            &[],
            Store::encode_line(&rec).as_bytes(),
        )
        .unwrap();
    assert_eq!(resp.status, 200);
    assert!(
        resp.text_body().contains("\"appended\":0") && resp.text_body().contains("\"deduped\":1"),
        "duplicate append must dedup: {}",
        resp.text_body()
    );
    let records = Store::read_all(&dir.join("torn")).unwrap();
    assert_eq!(records.len(), n, "dedup must not append a second copy");
    assert_ne!(records[&0].label, "dup", "first record must win");

    handle.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

/// A deeply nested body is a bad request on both endpoints that parse
/// JSON, not a stack overflow that takes the whole server down.
#[test]
fn deeply_nested_bodies_are_refused_and_the_server_keeps_serving() {
    let dir = tmpdir("nested");
    let (_, host, handle) = start_server(&dir, small_spec("nested"));
    let mut client = Client::new(host);
    let body = "[".repeat(50_000);
    for path in ["/shards/00/append", "/leases/00"] {
        let resp = client.request("POST", path, &[], body.as_bytes()).unwrap();
        assert_eq!(resp.status, 400, "{path}: {}", resp.text_body());
    }
    let resp = client.request("GET", "/status", &[], &[]).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text_body());
    handle.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

/// Cells are content-addressed, so the fingerprint doubles as a strong
/// ETag (304 without a store read); grid exports hash their CSV bytes.
#[test]
fn cells_and_exports_honor_etags() {
    let dir = tmpdir("etag");
    let spec = small_spec("etag");

    // An undrained campaign cannot be exported: 409, not a bogus grid.
    let empty = dir.join("empty");
    let undrained = CampaignServer::new(&empty, spec.clone()).unwrap();
    let resp = undrained.handle(&get("/export/grid_alpha.csv", &[], &[]));
    assert_eq!(resp.status, 409, "{}", resp.text_body());
    assert!(resp.text_body().contains("not drained"));

    // Drain locally, then serve the same store directory.
    let report = Campaign::open(&dir, spec.clone()).unwrap().run().unwrap();
    assert!(report.stats.simulated > 0);
    let server = CampaignServer::new(&dir, spec).unwrap();

    let records = Store::read_all(&dir.join("etag")).unwrap();
    let fp = Fingerprint(*records.keys().next().unwrap());
    let path = format!("/cells/{fp}");
    let resp = server.handle(&get(&path, &[], &[]));
    assert_eq!(resp.status, 200, "{}", resp.text_body());
    let etag = resp.header_value("etag").expect("cell etag").to_string();
    assert_eq!(etag, format!("\"{fp}\""), "the fingerprint IS the ETag");
    let resp = server.handle(&get(&path, &[], &[("if-none-match", &etag)]));
    assert_eq!(resp.status, 304);
    assert!(resp.body.is_empty(), "a 304 carries no body");

    let missing = format!("/cells/{}", Fingerprint(u128::MAX));
    assert_eq!(server.handle(&get(&missing, &[], &[])).status, 404);

    let resp = server.handle(&get("/export/grid_alpha.csv", &[], &[]));
    assert_eq!(resp.status, 200, "{}", resp.text_body());
    let expected = report::to_csv(report.grids["alpha"].rows());
    assert_eq!(
        resp.body,
        expected.as_bytes(),
        "the export must be byte-identical to the local CSV writer"
    );
    let etag = resp.header_value("etag").expect("export etag").to_string();
    let resp = server.handle(&get(
        "/export/grid_alpha.csv",
        &[],
        &[("if-none-match", &etag)],
    ));
    assert_eq!(resp.status, 304);
    assert_eq!(
        server
            .handle(&get("/export/grid_nope.csv", &[], &[]))
            .status,
        404
    );

    let _ = std::fs::remove_dir_all(dir);
}

/// The server answers cell reads from an in-memory view it refreshes only
/// when a shard's length moved. A record a local worker appends straight
/// into the served directory (mixed topology) is served on the very next
/// read, and a compaction into a new store changes nothing the server
/// serves or where its appends land.
#[test]
fn cell_reads_see_direct_appends_and_compaction() {
    let dir = tmpdir("stat-gate");
    let spec = small_spec("gate");
    let server = CampaignServer::new(&dir, spec.clone()).unwrap();
    let local = Store::open(&dir, &spec.name, &serde_json::to_value(&spec).unwrap()).unwrap();
    // All route to shard 0.
    let (a, b, c) = (Fingerprint(8), Fingerprint(16), Fingerprint(24));
    let cell = |fp: Fingerprint| server.handle(&get(&format!("/cells/{fp}"), &[], &[]));
    let append = |fp: Fingerprint| Request {
        method: "POST".into(),
        path: "/shards/00/append".into(),
        body: Store::encode_line(&Record::alone(fp, "served".into(), 1.0)).into_bytes(),
        ..get("", &[], &[])
    };

    assert_eq!(server.handle(&append(a)).status, 200);
    assert_eq!(cell(a).status, 200);
    assert_eq!(cell(b).status, 404);

    local.append(b, &Record::alone(b, "b".into(), 2.0)).unwrap();
    let resp = cell(b);
    assert_eq!(resp.status, 200, "a direct append must be served at once");
    assert!(
        resp.text_body().contains("\"label\":\"b\""),
        "{}",
        resp.text_body()
    );

    let keep: HashSet<u128> = [b.0].into_iter().collect();
    let stats = Store::compact_to(&dir, &spec.name, &keep, &dir.join("new"), &spec).unwrap();
    assert_eq!((stats.kept, stats.dropped_orphans), (1, 1));
    assert_eq!(server.handle(&append(c)).status, 200);
    for fp in [a, b, c] {
        assert_eq!(cell(fp).status, 200, "{fp} after compaction");
    }
    let on_disk = Store::read_all(&dir.join(&spec.name)).unwrap();
    assert_eq!(on_disk.len(), 3, "the server appends to the source shard");
    let _ = std::fs::remove_dir_all(dir);
}

/// `GET /shards/{nn}?offset=` one byte past the shard's end is a 400
/// naming the cause: shards only grow, so the store was replaced.
#[test]
fn a_shard_offset_past_the_end_is_a_bad_request() {
    let dir = tmpdir("past-end");
    let spec = small_spec("past");
    let server = CampaignServer::new(&dir, spec.clone()).unwrap();
    let fp = Fingerprint(8);
    let local = Store::attach(&dir, &spec.name).unwrap();
    local
        .append(fp, &Record::alone(fp, "a".into(), 1.0))
        .unwrap();
    let size = local.shard_size(0);
    let tail =
        |offset: u64| server.handle(&get("/shards/00", &[("offset", &offset.to_string())], &[]));
    assert_eq!(tail(size).status, 200);
    let resp = tail(size + 1);
    assert_eq!(resp.status, 400, "{}", resp.text_body());
    assert!(
        resp.text_body()
            .contains("store replaced under a running reader"),
        "{}",
        resp.text_body()
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// Compaction only reads its source: a live local `Store` and a live
/// campaign server keep appending to shard 0 while `Store::compact_to`
/// runs. Afterwards every source shard still begins with its bytes from
/// before, every concurrent append is on disk and served by `/cells`, and
/// each new store holds every record present before the compaction and
/// nothing the source does not hold and the spec does not reach.
#[test]
fn compaction_beside_live_appenders_only_reads_the_source() {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    let dir = tmpdir("compact-live");
    let spec = small_spec("live");
    let server = CampaignServer::new(&dir, spec.clone()).unwrap();
    let local = Store::attach(&dir, &spec.name).unwrap();
    let campaign_dir = dir.join(&spec.name);
    let record = |fp: Fingerprint, label: &str| Record::alone(fp, label.into(), 1.0);
    // Records across every shard, one the spec no longer reaches.
    let seeded: Vec<Fingerprint> = (1..=64u128).map(|i| Fingerprint(i * 0x9E37_79B9)).collect();
    for &fp in &seeded {
        local.append(fp, &record(fp, "seed")).unwrap();
    }
    let orphan = seeded[0];
    let shard_bytes = |s| std::fs::read(Store::shard_file(&campaign_dir, s)).unwrap_or_default();
    let before: Vec<Vec<u8>> = (0..SHARDS).map(shard_bytes).collect();
    let present = Store::read_all(&campaign_dir).unwrap();

    // Shard 0 fingerprints: even for the local writer, odd for the
    // server. Both append until every compaction is done.
    let cap = 4_096u128;
    let concurrent = |i: u128| Fingerprint((1_000 + i) * SHARDS as u128);
    let keep: HashSet<u128> = seeded[1..]
        .iter()
        .map(|fp| fp.0)
        .chain((0..cap).map(|i| concurrent(i).0))
        .collect();
    let (started, done) = (AtomicUsize::new(0), AtomicBool::new(false));
    let append_until_done = |first: u128, append: &dyn Fn(Fingerprint)| {
        let mut appended = Vec::new();
        for i in (first..cap).step_by(2) {
            if done.load(Ordering::SeqCst) {
                break;
            }
            append(concurrent(i));
            appended.push(concurrent(i));
            started.fetch_add(1, Ordering::SeqCst);
        }
        appended
    };
    let targets: Vec<PathBuf> = (0..4).map(|i| dir.join(format!("new-{i}"))).collect();
    let appended: Vec<Fingerprint> = std::thread::scope(|s| {
        let by_store =
            s.spawn(|| append_until_done(0, &|fp| local.append(fp, &record(fp, "local")).unwrap()));
        let by_server = s.spawn(|| {
            append_until_done(1, &|fp| {
                let req = Request {
                    method: "POST".into(),
                    path: "/shards/00/append".into(),
                    body: Store::encode_line(&record(fp, "server")).into_bytes(),
                    ..get("", &[], &[])
                };
                assert_eq!(server.handle(&req).status, 200);
            })
        });
        while started.load(Ordering::SeqCst) < 8 {
            std::thread::yield_now();
        }
        for target in &targets {
            Store::compact_to(&dir, &spec.name, &keep, target, &spec).unwrap();
        }
        done.store(true, Ordering::SeqCst);
        [by_store, by_server]
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });

    for (shard, old) in before.iter().enumerate() {
        assert!(
            shard_bytes(shard).starts_with(old),
            "shard {shard} lost bytes"
        );
    }
    let source = Store::read_all(&campaign_dir).unwrap();
    assert!(appended.len() >= 8, "{} appends", appended.len());
    for fp in appended {
        assert!(source.contains_key(&fp.0), "append of {fp} is missing");
        let resp = server.handle(&get(&format!("/cells/{fp}"), &[], &[]));
        assert_eq!(resp.status, 200, "{fp}");
    }
    for target in &targets {
        let compacted = Store::read_all(&target.join(&spec.name)).unwrap();
        for (fp, rec) in &compacted {
            assert!(keep.contains(fp) && source.get(fp) == Some(rec), "{fp:x}");
        }
        for (fp, rec) in present.iter().filter(|(fp, _)| keep.contains(fp)) {
            assert_eq!(compacted.get(fp), Some(rec), "{fp:x} present before");
        }
        assert!(!compacted.contains_key(&orphan.0));
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// Requests with made-up methods share one `method="other"` series: the
/// label set is bounded by the route table, whatever the traffic.
#[test]
fn unknown_methods_share_one_metric_series() {
    let dir = tmpdir("methods");
    let server = CampaignServer::new(&dir, small_spec("methods")).unwrap();
    for i in 0..200 {
        let req = Request {
            method: format!("FOO{i}"),
            ..get("/healthz", &[], &[])
        };
        assert_eq!(server.handle(&req).status, 404);
    }
    let text = server.handle(&get("/metrics", &[], &[])).text_body();
    let other: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("dsarp_http_requests_total{method=\"other\""))
        .collect();
    assert_eq!(
        other,
        ["dsarp_http_requests_total{method=\"other\",route=\"other\",code=\"4xx\"} 200"],
        "{text}"
    );
    assert!(!text.contains("FOO"), "{text}");
    let _ = std::fs::remove_dir_all(dir);
}

/// Sums every series of one Prometheus counter family in an exposition
/// text (histogram series have `_bucket`/`_sum`/`_count` suffixes and are
/// excluded by the `{`-or-space check right after the name).
fn counter_total(text: &str, name: &str) -> u64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter(|l| {
            l.strip_prefix(name)
                .is_some_and(|rest| rest.starts_with('{') || rest.starts_with(' '))
        })
        .map(|l| {
            l.rsplit(' ')
                .next()
                .and_then(|w| w.parse::<u64>().ok())
                .unwrap_or_else(|| panic!("unparseable sample line: {l:?}"))
        })
        .sum()
}

/// Asserts one Prometheus exposition text is well-formed: every line is a
/// comment or a `name[{labels}] value` sample with balanced braces, and
/// every sample's metric was announced by a `# TYPE` header.
fn assert_well_formed_exposition(text: &str) {
    let mut typed = HashSet::new();
    for line in text.lines().filter(|l| !l.is_empty()) {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            typed.insert(rest.split(' ').next().unwrap().to_string());
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("sample line without a value: {line:?}");
        });
        assert!(
            value.parse::<f64>().is_ok(),
            "unparseable sample value in {line:?}"
        );
        let name = series.split('{').next().unwrap();
        assert_eq!(
            series.contains('{'),
            series.ends_with('}'),
            "unbalanced label block in {line:?}"
        );
        let base = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|b| typed.contains(*b))
            .unwrap_or(name);
        assert!(
            typed.contains(base),
            "sample `{name}` has no preceding # TYPE header"
        );
    }
}

/// `GET /metrics` scraped concurrently with append traffic: every scrape
/// is well-formed exposition text, counters are monotonic across scrapes,
/// and the final view accounts for every append; `GET /status` then
/// reports the records those appends landed.
#[test]
fn metrics_scrape_is_well_formed_and_monotonic_under_append_load() {
    let dir = tmpdir("metrics");
    let (_, host, handle) = start_server(&dir, small_spec("metrics"));
    let n: usize = 100;

    let writer_host = host.clone();
    let writer = std::thread::spawn(move || {
        let mut client = Client::new(writer_host);
        for i in 0..n {
            // i * SHARDS routes every record to shard 0.
            let fp = Fingerprint((i * SHARDS) as u128);
            let rec = Record::alone(fp, format!("m{i}"), i as f64);
            let resp = client
                .request(
                    "POST",
                    "/shards/00/append",
                    &[],
                    Store::encode_line(&rec).as_bytes(),
                )
                .unwrap();
            assert_eq!(resp.status, 200, "append {i}: {}", resp.text_body());
        }
    });

    let mut client = Client::new(host);
    let (mut last_requests, mut last_bytes) = (0u64, 0u64);
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut final_pass = false;
    loop {
        assert!(Instant::now() < deadline, "writer never finished");
        let resp = client.request("GET", "/metrics", &[], &[]).unwrap();
        assert_eq!(resp.status, 200);
        assert!(
            resp.header_value("content-type")
                .is_some_and(|ct| ct.starts_with("text/plain")),
            "metrics must be text exposition, got {:?}",
            resp.header_value("content-type")
        );
        let text = resp.text_body();
        assert_well_formed_exposition(&text);
        let requests = counter_total(&text, "dsarp_http_requests_total");
        let bytes = counter_total(&text, "dsarp_http_response_bytes_total");
        assert!(
            requests >= last_requests && bytes >= last_bytes,
            "counters went backwards: {last_requests}->{requests}, {last_bytes}->{bytes}"
        );
        (last_requests, last_bytes) = (requests, bytes);
        if final_pass {
            // All appends were counted before their responses were sent,
            // so the post-join scrape must account for every one of them.
            let needle =
                "dsarp_http_requests_total{method=\"POST\",route=\"/shards/{..}/append\",code=\"2xx\"}";
            let appends = text
                .lines()
                .find(|l| l.starts_with(needle))
                .and_then(|l| l.rsplit(' ').next())
                .and_then(|w| w.parse::<usize>().ok())
                .unwrap_or_else(|| panic!("no append series in:\n{text}"));
            assert_eq!(appends, n, "every append must be counted");
            assert!(
                text.contains(
                    "dsarp_http_request_duration_us_bucket{route=\"/metrics\",le=\"+Inf\"}"
                ),
                "the latency histogram must cover the /metrics route itself:\n{text}"
            );
            break;
        }
        if writer.is_finished() {
            final_pass = true;
        }
    }
    writer.join().unwrap();

    // /status: the appends above are visible as shard-0 records, and no
    // lease is held.
    let resp = client.request("GET", "/status", &[], &[]).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text_body());
    let doc: serde_json::Value = serde_json::from_str(&resp.text_body()).unwrap();
    assert_eq!(
        doc.get("campaign").and_then(|v| v.as_str()),
        Some("metrics")
    );
    assert_eq!(doc.get("records").and_then(|v| v.as_u64()), Some(n as u64));
    let shards = doc.get("shards").and_then(|v| v.as_array()).unwrap();
    assert_eq!(shards.len(), SHARDS);
    assert_eq!(
        shards[0].get("records").and_then(|v| v.as_u64()),
        Some(n as u64)
    );
    assert!(
        shards
            .iter()
            .all(|s| matches!(s.get("lease"), Some(serde_json::Value::Null))),
        "no lease should be held: {}",
        resp.text_body()
    );

    handle.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

/// `experiments status` renders the drain progress table read-only: 0%
/// against an empty store, 100% after a local drain, naming stale leases.
#[test]
fn status_subcommand_reports_progress_table() {
    let dir = tmpdir("status-cli");
    let spec = small_spec("statuscli");
    let spec_path = dir.join("spec.json");
    std::fs::write(&spec_path, spec.to_json()).unwrap();
    let status_cmd = || {
        let out = Command::new(BIN)
            .args([
                "status",
                "--campaign",
                dir.to_str().unwrap(),
                "--spec",
                spec_path.to_str().unwrap(),
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "status failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };

    let before = status_cmd();
    assert!(
        before.contains("cells done (0.0%)"),
        "empty store must read 0%:\n{before}"
    );

    let report = Campaign::open(&dir, spec.clone()).unwrap().run().unwrap();
    assert!(report.stats.simulated > 0);
    let after = status_cmd();
    assert!(
        after.contains(&format!(
            "total: {}/{} cells done (100.0%)",
            report.stats.unique_jobs, report.stats.unique_jobs
        )),
        "drained store must read 100%:\n{after}"
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// `GET /status` carries what `experiments status` shows: on a store that
/// holds one sweep of a two-sweep spec, each shard's done/missing and the
/// totals read the same from the JSON as from the table.
#[test]
fn status_endpoint_matches_status_subcommand() {
    let dir = tmpdir("status-both");
    let spec = small_spec("statusboth");
    let spec_path = dir.join("spec.json");
    std::fs::write(&spec_path, spec.to_json()).unwrap();
    Campaign::open(&dir, spec.clone().filtered(&["alpha"]))
        .unwrap()
        .run()
        .unwrap();

    let out = Command::new(BIN)
        .args(["status", "--campaign", dir.to_str().unwrap()])
        .args(["--spec", spec_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let table = String::from_utf8_lossy(&out.stdout).into_owned();
    let rows: Vec<[u64; 3]> = table
        .lines()
        .filter(|line| line.starts_with("  "))
        .map(|line| {
            let mut cols = line.split_whitespace().map(|c| c.parse().unwrap());
            [(); 3].map(|()| cols.next().unwrap())
        })
        .collect();
    let total = table.lines().last().unwrap();
    let (done, cells) = total["total: ".len()..]
        .split_once(" cells")
        .unwrap()
        .0
        .split_once('/')
        .unwrap();

    let server = CampaignServer::new(&dir, spec).unwrap();
    let resp = server.handle(&get("/status", &[], &[]));
    assert_eq!(resp.status, 200, "{}", resp.text_body());
    let doc: serde_json::Value = serde_json::from_str(&resp.text_body()).unwrap();
    let field = |v: &serde_json::Value, key| v.get(key).and_then(|n| n.as_u64()).unwrap();
    let shards: Vec<[u64; 3]> = doc
        .get("shards")
        .and_then(|s| s.as_array())
        .unwrap()
        .iter()
        .map(|s| [field(s, "shard"), field(s, "done"), field(s, "missing")])
        .collect();
    assert_eq!(shards, rows, "{table}");
    assert_eq!(field(&doc, "done").to_string(), done, "{table}");
    assert_eq!(field(&doc, "cells").to_string(), cells, "{table}");
    assert!(
        field(&doc, "done") > 0 && field(&doc, "done") < field(&doc, "cells"),
        "one of two sweeps drained must read partly done: {table}"
    );
    let _ = std::fs::remove_dir_all(dir);
}

fn lock_files(campaign_dir: &Path) -> Vec<PathBuf> {
    std::fs::read_dir(lease::lease_dir(campaign_dir))
        .map(|rd| {
            rd.filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "lock"))
                .collect()
        })
        .unwrap_or_default()
}

fn wait_success(mut child: Child, what: &str, timeout: Duration) -> String {
    let deadline = Instant::now() + timeout;
    loop {
        match child.try_wait().unwrap() {
            Some(status) => {
                let out = child.wait_with_output().unwrap();
                let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
                assert!(
                    status.success(),
                    "{what} failed ({status}):\n--- stdout\n{stdout}\n--- stderr\n{}",
                    String::from_utf8_lossy(&out.stderr)
                );
                return stdout;
            }
            None if Instant::now() > deadline => {
                let _ = child.kill();
                panic!("{what} did not exit within {timeout:?}");
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

fn parse_summary_count(out: &str, suffix: &str) -> usize {
    let idx = out
        .find(suffix)
        .unwrap_or_else(|| panic!("no `{suffix}` in output:\n{out}"));
    out[..idx]
        .split_whitespace()
        .last()
        .and_then(|w| w.trim_start_matches('(').parse().ok())
        .unwrap_or_else(|| panic!("unparseable count before `{suffix}`:\n{out}"))
}

fn remote_worker_cmd(url: &str, spec: &Path, owner: &str) -> Command {
    let mut cmd = Command::new(BIN);
    cmd.args([
        "worker",
        "--store-url",
        url,
        "--spec",
        spec.to_str().unwrap(),
        "--owner",
        owner,
        "--ttl-ms",
        "5000",
        "--poll-ms",
        "50",
    ])
    .stdout(Stdio::piped())
    .stderr(Stdio::piped());
    cmd
}

/// The flagship acceptance scenario: an `experiments serve` subprocess
/// owns the store; two `--store-url` workers (no shared campaign
/// directory) drain it after a third is SIGKILLed mid-run; the HTTP-held
/// stale lease is reclaimed; and `merge --store-url` produces grids
/// byte-identical to a fresh single-process local run of the same spec.
#[test]
fn remote_workers_survive_sigkill_and_merge_matches_local() {
    let dir = tmpdir("remote-kill");
    let server_store = dir.join("server-store");
    let spec = small_spec("remote");
    let spec_path = dir.join("spec.json");
    std::fs::write(&spec_path, spec.to_json()).unwrap();
    let campaign_dir = server_store.join(&spec.name);

    // 1. The server subprocess; its first stdout line carries the URL.
    let mut server = Command::new(BIN)
        .args([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--campaign",
            server_store.to_str().unwrap(),
            "--spec",
            spec_path.to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut first_line = String::new();
    BufReader::new(server.stdout.as_mut().unwrap())
        .read_line(&mut first_line)
        .unwrap();
    let url = first_line
        .split_whitespace()
        .find(|w| w.starts_with("http://"))
        .unwrap_or_else(|| panic!("no URL in server banner: {first_line:?}"))
        .to_string();

    // 2. A slow victim worker over HTTP, SIGKILLed as soon as its lease
    //    lands (the lock file appears in the server's store).
    let mut victim_cmd = remote_worker_cmd(&url, &spec_path, "victim");
    victim_cmd.env("DSARP_JOB_DELAY_MS", "150");
    let mut victim = victim_cmd.spawn().unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    while lock_files(&campaign_dir).is_empty() {
        assert!(
            Instant::now() < deadline,
            "victim never acquired a lease over HTTP"
        );
        assert!(
            victim.try_wait().unwrap().is_none(),
            "victim exited before it could be killed mid-run"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    victim.kill().unwrap(); // SIGKILL: no release, HTTP-held lock left behind
    victim.wait().unwrap();
    assert!(
        !lock_files(&campaign_dir).is_empty(),
        "the killed remote worker must leave its lock in the server's store"
    );

    // 3. Two surviving remote workers drain the campaign, reclaiming the
    //    stale lease through the server after its 5 s TTL.
    let a = remote_worker_cmd(&url, &spec_path, "w-a").spawn().unwrap();
    let b = remote_worker_cmd(&url, &spec_path, "w-b").spawn().unwrap();
    let out_a = wait_success(a, "remote worker w-a", Duration::from_secs(120));
    let out_b = wait_success(b, "remote worker w-b", Duration::from_secs(120));
    let reclaimed: usize = [&out_a, &out_b]
        .iter()
        .map(|out| parse_summary_count(out, " reclaimed from dead owners"))
        .sum();
    assert!(
        reclaimed >= 1,
        "a survivor must reclaim the victim's stale HTTP lease:\n--- w-a\n{out_a}\n--- w-b\n{out_b}"
    );
    assert!(
        lock_files(&campaign_dir).is_empty(),
        "all remote leases must be released after the drain"
    );

    // 4. Remote merge: drains (already done), snapshots over HTTP, and
    //    reduces — no local campaign directory involved.
    let merge_out = dir.join("merged");
    let merge = Command::new(BIN)
        .args([
            "merge",
            "--store-url",
            &url,
            "--spec",
            spec_path.to_str().unwrap(),
            "--owner",
            "merge",
            "--ttl-ms",
            "5000",
            "--poll-ms",
            "50",
            "--out",
            merge_out.to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    wait_success(merge, "remote merge", Duration::from_secs(120));

    // 5. Reference: a fresh single-process run of the same spec, exported
    //    through the identical writer — byte-for-byte equality.
    let ref_out = dir.join("ref-out");
    let report = Campaign::open(&dir.join("ref-store"), small_spec("remote"))
        .unwrap()
        .run()
        .unwrap();
    assert!(report.stats.simulated > 0);
    for (name, grid) in &report.grids {
        let file = format!("grid_{}", name.replace(['/', ' '], "-"));
        export::write_grid(&ref_out, &file, grid).unwrap();
        let merged = std::fs::read(merge_out.join(format!("{file}.csv")))
            .unwrap_or_else(|e| panic!("remote merge must write {file}.csv: {e}"));
        let reference = std::fs::read(ref_out.join(format!("{file}.csv"))).unwrap();
        assert_eq!(
            merged, reference,
            "remote-merged grid `{name}` must be byte-identical to a local single-process run"
        );
    }

    server.kill().unwrap();
    server.wait().unwrap();
    let _ = std::fs::remove_dir_all(dir);
}
