//! Campaign-as-a-service: the HTTP shard/lease server behind
//! `experiments serve`.
//!
//! The server owns one campaign store directory and exposes the whole
//! distributed-drain protocol over HTTP/1.1, so workers on hosts with no
//! shared filesystem participate through
//! [`dsarp_campaign::RemoteStore`] exactly as local workers do through
//! the directory:
//!
//! | Endpoint | Semantics |
//! |---|---|
//! | `GET /healthz` | liveness probe |
//! | `GET /campaign` | identity handshake: name, shard count, format |
//! | `GET /shards` | byte size of every shard |
//! | `GET /shards/{nn}?offset=K` | shard bytes from `K`, clamped to whole lines |
//! | `POST /shards/{nn}/append` | append JSON lines, deduplicating server-side |
//! | `POST /leases/{nn}` | acquire / renew / release a shard lease |
//! | `GET /cells/{fingerprint}` | one record; fingerprint doubles as ETag |
//! | `GET /export/grid_{sweep}.csv` | assembled grid CSV with content ETag |
//! | `GET /metrics` | server metrics, Prometheus text exposition |
//! | `GET /status` | drain progress against the spec + lease table as JSON |
//!
//! Leases taken over HTTP are the same `shard-NN.lock` files local
//! workers use — acquire runs [`Lease::acquire`] with the caller's owner
//! id, renew/release run the stateless by-owner paths — so a SIGKILLed
//! remote worker's lease goes stale and is reclaimed by any surviving
//! worker, local or remote, with no extra machinery.
//!
//! Reads are incremental and tear-free: `GET /shards/{nn}` resumes from
//! the client's offset and [`Store::read_tail`] withholds bytes past the
//! last newline, so a reader polling during a concurrent append never
//! observes a torn JSON line. Records are content-addressed, which makes
//! `GET /cells/{fp}` trivially cacheable: the fingerprint IS the ETag,
//! and a matching `If-None-Match` short-circuits to `304 Not Modified`
//! without touching the store. Cells, exports and append dedup read the
//! store's [`dsarp_campaign::store::ShardViews`]: a shard costs one `stat`,
//! and is reopened only when it grew (another process appended); the
//! server's own appends join the view.
//!
//! Every request is also counted into one fixed metric table:
//! `dsarp_http_requests_total{method,route,code}`,
//! `dsarp_http_request_duration_us{route}` and the request/response byte
//! counters, scraped at `GET /metrics`. Routes are normalized (the shard
//! number or fingerprint collapses to a `{..}` placeholder) and methods
//! other than `GET`/`POST` are labelled `other`, so the table is sized by
//! the route table above and every label is a constant, whatever the
//! traffic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dsarp_campaign::fingerprint::fingerprint_bytes;
use dsarp_campaign::lease::{self, Acquire, Lease};
use dsarp_campaign::remote::{AppendReply, CampaignInfo, LeaseReply, LeaseRequest, SizesReply};
use dsarp_campaign::store::{FORMAT_VERSION, SHARDS};
use dsarp_campaign::{CampaignPlan, CampaignSpec, CampaignStatus, Fingerprint, Store};
use dsarp_obs::{write_header, Counter, Histogram};
use dsarp_sim::experiments::report;
use minihttp::{Request, Response, Server};
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Request-level server metrics: one fixed table, indexed by the label
/// constants below, so recording a request takes no lock and allocates
/// nothing.
#[derive(Debug)]
struct ServerMetrics {
    /// `dsarp_http_requests_total`, by [`series_index`].
    requests: [Counter; METHODS.len() * Route::COUNT * CLASSES.len()],
    /// `dsarp_http_request_duration_us`, by [`Route`].
    latency: [Histogram; Route::COUNT],
    request_bytes: Counter,
    response_bytes: Counter,
}

/// Each metric family's `(name, HELP text)`, in exposition order.
const REQUESTS: (&str, &str) = (
    "dsarp_http_requests_total",
    "HTTP requests served, by method, normalized route and status class",
);
const LATENCY: (&str, &str) = (
    "dsarp_http_request_duration_us",
    "Request handling latency in microseconds, by normalized route",
);
const REQUEST_BYTES: (&str, &str) = (
    "dsarp_http_request_bytes_total",
    "Request body bytes received",
);
const RESPONSE_BYTES: (&str, &str) = (
    "dsarp_http_response_bytes_total",
    "Response body bytes sent",
);

impl ServerMetrics {
    fn new() -> Self {
        ServerMetrics {
            requests: std::array::from_fn(|_| Counter::default()),
            latency: std::array::from_fn(|_| Histogram::default()),
            request_bytes: Counter::default(),
            response_bytes: Counter::default(),
        }
    }

    /// Counts one handled request.
    fn record(&self, req: &Request, route: Route, resp: &Response, us: u64) {
        let (method, class) = (method_index(&req.method), class_index(resp.status));
        self.requests[series_index(method, route, class)].inc();
        self.latency[route as usize].observe(us);
        self.request_bytes.add(req.body.len() as u64);
        self.response_bytes.add(resp.body.len() as u64);
    }

    /// The Prometheus text exposition: each family's header, then every
    /// labelled series that has counted a request: a series appears with
    /// its first request. Labels come from the constants, `method`,
    /// `route`, `code` in that order.
    fn render(&self) -> String {
        let mut out = String::new();
        write_header(&mut out, REQUESTS.0, REQUESTS.1, "counter");
        for (method, method_label) in METHODS.iter().enumerate() {
            for route in Route::ALL {
                for (class, class_label) in CLASSES.iter().enumerate() {
                    let series = &self.requests[series_index(method, route, class)];
                    if series.get() > 0 {
                        let labels = format!(
                            "method=\"{method_label}\",route=\"{}\",code=\"{class_label}\"",
                            route.label()
                        );
                        series.write(&mut out, REQUESTS.0, &labels);
                    }
                }
            }
        }
        write_header(&mut out, LATENCY.0, LATENCY.1, "histogram");
        for route in Route::ALL {
            let series = &self.latency[route as usize];
            if series.count() > 0 {
                series.write(&mut out, LATENCY.0, &format!("route=\"{}\"", route.label()));
            }
        }
        for (counter, (name, help)) in [
            (&self.request_bytes, REQUEST_BYTES),
            (&self.response_bytes, RESPONSE_BYTES),
        ] {
            write_header(&mut out, name, help, "counter");
            counter.write(&mut out, name, "");
        }
        out
    }
}

/// The `method` label values. Every method but `GET` and `POST` is
/// `other`: no route takes one, and labelling it verbatim would let
/// traffic mint series.
const METHODS: [&str; 3] = ["GET", "POST", "other"];

/// The `code` label values, by status class.
const CLASSES: [&str; 5] = ["2xx", "3xx", "4xx", "5xx", "other"];

/// A request's normalized route, the `route` label: path parameters
/// (shard number, fingerprint, export file) collapse to `{..}` so metric
/// label cardinality is bounded by the route table, not by traffic.
#[derive(Debug, Clone, Copy)]
enum Route {
    Healthz,
    Campaign,
    Shards,
    ShardTail,
    ShardAppend,
    Lease,
    Cell,
    Export,
    Metrics,
    Status,
    Other,
}

impl Route {
    /// How many routes there are, `Other` included.
    const COUNT: usize = Route::Other as usize + 1;

    /// Every route, in declaration (and exposition) order.
    const ALL: [Route; Route::COUNT] = [
        Route::Healthz,
        Route::Campaign,
        Route::Shards,
        Route::ShardTail,
        Route::ShardAppend,
        Route::Lease,
        Route::Cell,
        Route::Export,
        Route::Metrics,
        Route::Status,
        Route::Other,
    ];

    fn of(method: &str, segments: &[&str]) -> Route {
        match (method, segments) {
            ("GET", ["healthz"]) => Route::Healthz,
            ("GET", ["campaign"]) => Route::Campaign,
            ("GET", ["shards"]) => Route::Shards,
            ("GET", ["shards", _]) => Route::ShardTail,
            ("POST", ["shards", _, "append"]) => Route::ShardAppend,
            ("POST", ["leases", _]) => Route::Lease,
            ("GET", ["cells", _]) => Route::Cell,
            ("GET", ["export", _]) => Route::Export,
            ("GET", ["metrics"]) => Route::Metrics,
            ("GET", ["status"]) => Route::Status,
            _ => Route::Other,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Route::Healthz => "/healthz",
            Route::Campaign => "/campaign",
            Route::Shards => "/shards",
            Route::ShardTail => "/shards/{..}",
            Route::ShardAppend => "/shards/{..}/append",
            Route::Lease => "/leases/{..}",
            Route::Cell => "/cells/{..}",
            Route::Export => "/export/{..}",
            Route::Metrics => "/metrics",
            Route::Status => "/status",
            Route::Other => "other",
        }
    }
}

/// A request method's index into [`METHODS`].
fn method_index(method: &str) -> usize {
    match method {
        "GET" => 0,
        "POST" => 1,
        _ => 2,
    }
}

/// `NNN` → the index of its `"2xx"`-style class in [`CLASSES`].
fn class_index(status: u16) -> usize {
    match status / 100 {
        class @ 2..=5 => usize::from(class - 2),
        _ => 4,
    }
}

/// Where one `(method, route, code)` series sits in
/// `ServerMetrics::requests`.
fn series_index(method: usize, route: Route, class: usize) -> usize {
    (method * Route::COUNT + route as usize) * CLASSES.len() + class
}

/// A 200 response carrying `doc` as JSON.
fn json(doc: &impl serde::Serialize) -> Response {
    Response::json(
        200,
        serde_json::to_string(doc).expect("documents serialize"),
    )
}

/// One campaign store served over HTTP.
#[derive(Debug)]
pub struct CampaignServer {
    spec: CampaignSpec,
    store: Store,
    metrics: ServerMetrics,
}

impl CampaignServer {
    /// Attaches to (or creates) the campaign's store under `root`, writes
    /// its manifest, and prepares to serve it. No record is read here:
    /// cells, exports and append dedup read each shard through the
    /// store's views when they first need it.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn new(root: &Path, spec: CampaignSpec) -> io::Result<Self> {
        let store = Store::attach(root, &spec.name)?;
        Store::write_manifest(root, &spec.name, &spec)?;
        Ok(CampaignServer {
            spec,
            store,
            metrics: ServerMetrics::new(),
        })
    }

    /// The campaign this server hosts.
    pub fn campaign_name(&self) -> &str {
        &self.spec.name
    }

    /// The campaign store directory being served.
    pub fn campaign_dir(&self) -> &Path {
        self.store.dir()
    }

    /// Serves requests on `server` until its handle is shut down.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop errors.
    pub fn serve(self, server: Server) -> io::Result<()> {
        let this = Arc::new(self);
        server.serve(move |req| this.handle(req))
    }

    /// Routes one request and records it into the server metrics. Public
    /// so tests can drive the server without sockets.
    pub fn handle(&self, req: &Request) -> Response {
        let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
        let route = Route::of(&req.method, &segments);
        let start = Instant::now();
        let resp = self.route(req, route, &segments);
        let us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.metrics.record(req, route, &resp, us);
        resp
    }

    /// The uninstrumented dispatch behind [`CampaignServer::handle`]:
    /// [`Route::of`] is the route table, so a handler and its metric
    /// label cannot drift apart. A parameterized route's argument is
    /// `segments[1]`.
    fn route(&self, req: &Request, route: Route, segments: &[&str]) -> Response {
        let out = match route {
            Route::Healthz => Ok(Response::text(200, "ok")),
            Route::Campaign => Ok(self.campaign_info()),
            Route::Shards => Ok(self.shard_sizes()),
            Route::ShardTail => self.shard_tail(segments[1], req),
            Route::ShardAppend => self.shard_append(segments[1], req),
            Route::Lease => self.lease_op(segments[1], req),
            Route::Cell => self.cell(segments[1], req),
            Route::Export => self.export(segments[1], req),
            Route::Metrics => Ok(self.metrics_text()),
            Route::Status => self.status_json(),
            Route::Other => Ok(Response::text(
                404,
                format!("no route for {} {}", req.method, req.path),
            )),
        };
        out.unwrap_or_else(|e| {
            let status = match e.kind() {
                io::ErrorKind::InvalidData | io::ErrorKind::InvalidInput => 400,
                // An undrained campaign is a conflict with the request,
                // not an absent resource: the URL is right, the store
                // isn't ready for it yet.
                io::ErrorKind::NotFound => 409,
                _ => 500,
            };
            Response::text(status, e.to_string())
        })
    }

    /// `GET /metrics`: the metric table in Prometheus text exposition format.
    /// The scrape itself is counted, but into the NEXT scrape's view (a
    /// response cannot include its own accounting).
    fn metrics_text(&self) -> Response {
        Response::with_body(200, "text/plain; version=0.0.4", self.metrics.render())
    }

    /// `GET /status`: the [`CampaignStatus`] `experiments status` renders,
    /// as JSON. Planned per request, as exports are.
    fn status_json(&self) -> io::Result<Response> {
        Ok(json(&CampaignStatus::read(&self.spec, self.store.dir())?))
    }

    fn campaign_info(&self) -> Response {
        json(&CampaignInfo {
            name: self.spec.name.clone(),
            shards: SHARDS,
            format_version: FORMAT_VERSION,
        })
    }

    fn shard_sizes(&self) -> Response {
        let sizes = (0..SHARDS).map(|s| self.store.shard_size(s)).collect();
        json(&SizesReply { sizes })
    }

    fn parse_shard(nn: &str) -> io::Result<usize> {
        match nn.parse::<usize>() {
            Ok(shard) if shard < SHARDS => Ok(shard),
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("bad shard `{nn}` (00..{:02})", SHARDS - 1),
            )),
        }
    }

    fn shard_tail(&self, nn: &str, req: &Request) -> io::Result<Response> {
        let shard = Self::parse_shard(nn)?;
        let offset: u64 = match req.query_param("offset") {
            Some(text) => text.parse().map_err(|_| {
                io::Error::new(io::ErrorKind::InvalidInput, format!("bad offset `{text}`"))
            })?,
            None => 0,
        };
        // An offset past the shard's end is `InvalidData`: a 400.
        let tail = Store::read_tail(self.store.dir(), shard, offset)?;
        Ok(Response::with_body(200, "application/x-ndjson", tail.bytes)
            .header("x-next-offset", &tail.next_offset.to_string()))
    }

    fn shard_append(&self, nn: &str, req: &Request) -> io::Result<Response> {
        let shard = Self::parse_shard(nn)?;
        let body = String::from_utf8_lossy(&req.body);
        // Decode every line before appending any: a half-applied body
        // would make the client's retry semantics murky.
        let mut incoming = Vec::new();
        for line in body.lines().filter(|l| !l.trim().is_empty()) {
            let (fp, record) = Store::decode_line(line).ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, "undecodable record line")
            })?;
            if Store::shard_of(fp) != shard {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "record {fp} routes to shard {}, not {shard}",
                        Store::shard_of(fp)
                    ),
                ));
            }
            incoming.push((fp, record));
        }
        // The refresh also reads what other processes appended straight
        // to the directory (mixed local/remote topologies).
        let mut view = self.store.refresh(shard)?;
        let (mut appended, mut deduped) = (0, 0);
        for (fp, record) in incoming {
            // First record wins: a fingerprint already in the shard keeps
            // its original line, and the duplicate is dropped here rather
            // than appended and skipped at every future load.
            if view.fingerprints().contains(&fp.0) {
                deduped += 1;
                continue;
            }
            self.store.append_locked(fp, &record, Some(&mut view))?;
            appended += 1;
        }
        let reply = AppendReply { appended, deduped };
        Ok(json(&reply))
    }

    fn lease_op(&self, nn: &str, req: &Request) -> io::Result<Response> {
        let (shard, dir) = (Self::parse_shard(nn)?, self.store.dir());
        let body: LeaseRequest = serde_json::from_str(&String::from_utf8_lossy(&req.body))
            .map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad lease request: {e}"),
                )
            })?;
        if body.owner.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "lease request without owner",
            ));
        }
        match body.op.as_str() {
            "acquire" => {
                let reply = match Lease::acquire(dir, shard, &body.owner, body.ttl_ms)? {
                    // Drop (not release) the Lease value: the lock file on
                    // disk IS the lease. The remote owner renews it through
                    // the stateless by-owner path below, and if it dies,
                    // the lock goes stale and is reclaimed like any other.
                    Acquire::Acquired(lock) => LeaseReply {
                        acquired: true,
                        reclaimed: lock.reclaimed(),
                        evicted_stale: false,
                        holder: None,
                    },
                    Acquire::Held {
                        holder,
                        evicted_stale,
                    } => LeaseReply {
                        acquired: false,
                        reclaimed: false,
                        evicted_stale,
                        holder: Some(holder),
                    },
                };
                Ok(json(&reply))
            }
            "renew" => match lease::renew_as(dir, shard, &body.owner, body.ttl_ms) {
                Ok(()) => Ok(Response::text(200, "renewed")),
                // Ownership loss is a conflict the client must not retry,
                // not a server fault.
                Err(e) if e.kind() == io::ErrorKind::Other => {
                    Ok(Response::text(409, e.to_string()))
                }
                Err(e) => Err(e),
            },
            "release" => {
                lease::release_as(dir, shard, &body.owner)?;
                Ok(Response::text(200, "released"))
            }
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown lease op `{other}` (acquire|renew|release)"),
            )),
        }
    }

    fn cell(&self, fp_text: &str, req: &Request) -> io::Result<Response> {
        let fp = Fingerprint::parse(fp_text).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("bad fingerprint `{fp_text}`"),
            )
        })?;
        let etag = format!("\"{fp}\"");
        // Records are content-addressed and immutable: a client holding
        // this fingerprint's ETag cannot hold a stale body, so the 304
        // path never touches the store.
        if req.header("if-none-match") == Some(etag.as_str()) {
            return Ok(Response::new(304).header("etag", &etag));
        }
        let view = self.store.refresh(Store::shard_of(fp))?;
        match view.records().get(&fp.0) {
            Some(record) => Ok(json(record).header("etag", &etag)),
            None => Ok(Response::text(404, format!("no record {fp}"))),
        }
    }

    /// `GET /export/grid_{sweep}.csv`, where `{sweep}` is the sweep name
    /// with `/` and spaces replaced by `-` — the same file names
    /// `experiments run` writes under `--out`. The ETag is a content hash
    /// of the CSV, so pollers pay for assembly only when records changed
    /// the output.
    fn export(&self, file: &str, req: &Request) -> io::Result<Response> {
        let Some(sanitized) = file
            .strip_prefix("grid_")
            .and_then(|f| f.strip_suffix(".csv"))
        else {
            return Ok(Response::text(
                404,
                format!("unknown export `{file}` (want grid_<sweep>.csv)"),
            ));
        };
        let Some(sweep) = self
            .spec
            .sweeps
            .iter()
            .map(|s| s.name.as_str())
            .find(|name| name.replace(['/', ' '], "-") == sanitized)
        else {
            let known: Vec<String> = self
                .spec
                .sweeps
                .iter()
                .map(|s| format!("grid_{}.csv", s.name.replace(['/', ' '], "-")))
                .collect();
            return Ok(Response::text(
                404,
                format!("no sweep matches `{file}`; exports: {}", known.join(", ")),
            ));
        };
        // Planned per request, before any shard is locked: resolving a
        // trace set re-hashes its files, so an edited trace invalidates
        // the export.
        let plan = CampaignPlan::build(&self.spec)?;
        let grids = {
            let views = self.store.refresh_all()?;
            plan.assemble(|fp| views[Store::shard_of(fp)].records().get(&fp.0))?
        };
        let grid = grids.get(sweep).expect("assembled spec sweep");
        let csv = report::to_csv(grid.rows());
        let etag = format!("\"{}\"", fingerprint_bytes(csv.as_bytes()));
        if req.header("if-none-match") == Some(etag.as_str()) {
            return Ok(Response::new(304).header("etag", &etag));
        }
        Ok(Response::with_body(200, "text/csv", csv.into_bytes()).header("etag", &etag))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsarp_sim::experiments::harness::Scale;

    fn request(method: &str, path: &str) -> Request {
        Request {
            method: method.into(),
            path: path.into(),
            query: Vec::new(),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// A scrape after `GET /healthz` twice and one `FOO /x` shows exactly
    /// the series those requests hit, each family under its header.
    #[test]
    fn metrics_text_lists_exactly_the_series_hit() {
        let root = std::env::temp_dir()
            .join("dsarp-serve-unit-tests")
            .join(format!("exposition-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let server = CampaignServer::new(&root, CampaignSpec::new("m", Scale::quick())).unwrap();
        for req in [
            request("GET", "/healthz"),
            request("GET", "/healthz"),
            request("FOO", "/x"),
        ] {
            server.handle(&req);
        }
        let text = server.handle(&request("GET", "/metrics")).text_body();
        let _ = std::fs::remove_dir_all(&root);

        let (latency, rest): (Vec<&str>, Vec<&str>) = text
            .lines()
            .partition(|l| l.starts_with("dsarp_http_request_duration_us_"));
        assert_eq!(
            rest,
            [
                "# HELP dsarp_http_requests_total HTTP requests served, by method, normalized route and status class",
                "# TYPE dsarp_http_requests_total counter",
                "dsarp_http_requests_total{method=\"GET\",route=\"/healthz\",code=\"2xx\"} 2",
                "dsarp_http_requests_total{method=\"other\",route=\"other\",code=\"4xx\"} 1",
                "# HELP dsarp_http_request_duration_us Request handling latency in microseconds, by normalized route",
                "# TYPE dsarp_http_request_duration_us histogram",
                "# HELP dsarp_http_request_bytes_total Request body bytes received",
                "# TYPE dsarp_http_request_bytes_total counter",
                "dsarp_http_request_bytes_total 0",
                "# HELP dsarp_http_response_bytes_total Response body bytes sent",
                "# TYPE dsarp_http_response_bytes_total counter",
                // "ok" twice, then "no route for FOO /x".
                "dsarp_http_response_bytes_total 23",
            ],
            "{text}"
        );
        assert!(
            text.contains(
                "# TYPE dsarp_http_request_duration_us histogram\n\
                 dsarp_http_request_duration_us_bucket{route=\"/healthz\",le=\"0\"} "
            ),
            "{text}"
        );
        // Latencies are timed, so their values are checked for shape: one
        // complete block per route hit, cumulative up to `+Inf`.
        let hit = [("/healthz", 2), ("other", 1)];
        assert_eq!(latency.len(), hit.len() * 34, "{text}");
        for (block, (route, hits)) in latency.chunks(34).zip(hit) {
            let value = |line: &str, series: &str| -> u64 {
                let (name, value) = line.rsplit_once(' ').unwrap();
                assert_eq!(name, series);
                value.parse().unwrap()
            };
            let mut last = 0;
            for (i, line) in block[..32].iter().enumerate() {
                let le = match i {
                    0 => "0".to_string(),
                    31 => "+Inf".to_string(),
                    i => ((1u64 << i) - 1).to_string(),
                };
                let series = format!(
                    "dsarp_http_request_duration_us_bucket{{route=\"{route}\",le=\"{le}\"}}"
                );
                let cumulative = value(line, &series);
                assert!(cumulative >= last, "{line}");
                last = cumulative;
            }
            assert_eq!(last, hits);
            value(
                block[32],
                &format!("dsarp_http_request_duration_us_sum{{route=\"{route}\"}}"),
            );
            let count = format!("dsarp_http_request_duration_us_count{{route=\"{route}\"}}");
            assert_eq!(value(block[33], &count), hits);
        }
    }

    /// Names, HELP texts and labels are written verbatim, which is valid
    /// exposition text only while none of them needs escaping.
    #[test]
    fn help_texts_and_labels_need_no_escaping() {
        let families = [REQUESTS, LATENCY, REQUEST_BYTES, RESPONSE_BYTES];
        let constants = families
            .iter()
            .flat_map(|&(name, help)| [name, help])
            .chain(METHODS)
            .chain(CLASSES)
            .chain(Route::ALL.map(Route::label));
        for text in constants {
            assert!(!text.contains(['\\', '"', '\n']), "{text:?}");
        }
    }
}
