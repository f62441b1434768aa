//! End-to-end tests over real sockets: a server fronting a live
//! [`DpmgService`], driven by plain `TcpStream` clients speaking
//! HTTP/1.1 — including hostile framing the typed client half would
//! never produce.

use dpmg_core::mechanism::GshmMechanism;
use dpmg_noise::accounting::PrivacyParams;
use dpmg_server::api_types::decode_topk;
use dpmg_server::{AppState, Server, ServerConfig, ServiceBackend};
use dpmg_service::{DpmgService, ServiceConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

const PER_EPOCH: (f64, f64) = (0.5, 1e-9);

/// A server over a fresh in-memory service. `tenant_releases` sizes each
/// tenant's budget to that many explicit epoch releases.
fn start_server(threads: usize, tenant_releases: u32) -> Server {
    let per_epoch = PrivacyParams::new(PER_EPOCH.0, PER_EPOCH.1).unwrap();
    let service = DpmgService::<u64>::new(
        ServiceConfig::new(2, 64),
        Box::new(GshmMechanism::new(per_epoch).unwrap()),
        PrivacyParams::new(100.0, 1e-4).unwrap(),
        42,
    )
    .unwrap();
    let tenant_budget = PrivacyParams::new(
        PER_EPOCH.0 * f64::from(tenant_releases) + 1e-9,
        PER_EPOCH.1 * f64::from(tenant_releases) + 1e-15,
    )
    .unwrap();
    let state = AppState::new(ServiceBackend::InMemory(service), per_epoch, tenant_budget);
    let config = ServerConfig::default()
        .with_threads(threads)
        .with_max_body_bytes(64 * 1024);
    Server::start(config, state).unwrap()
}

/// A keep-alive client connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).unwrap();
        // A server-side bug should fail the test, not wedge the harness.
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(30)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Self {
            reader,
            writer: stream,
        }
    }

    /// Sends raw bytes and reads one framed response.
    fn raw(&mut self, bytes: &[u8]) -> (u16, String) {
        self.writer.write_all(bytes).unwrap();
        self.read_response()
    }

    fn get(&mut self, path: &str) -> (u16, String) {
        self.raw(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
    }

    fn post(&mut self, path: &str, body: &str) -> (u16, String) {
        self.raw(
            format!(
                "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
    }

    /// Reads one `Content-Length`-framed response.
    fn read_response(&mut self) -> (u16, String) {
        let mut status_line = String::new();
        self.reader.read_line(&mut status_line).unwrap();
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .unwrap_or_else(|| panic!("bad status line: {status_line:?}"))
            .parse()
            .unwrap();
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            self.reader.read_line(&mut line).unwrap();
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                content_length = v.trim().parse().unwrap();
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body).unwrap();
        (status, String::from_utf8(body).unwrap())
    }
}

fn ingest_body_of(items: &[u64]) -> String {
    let items: Vec<String> = items.iter().map(u64::to_string).collect();
    format!("{{\"items\":[{}]}}", items.join(","))
}

#[test]
fn full_flow_ingest_release_query() {
    let server = start_server(2, 10);
    let mut client = Client::connect(server.addr());

    // A skewed batch: key 7 dominates.
    let items: Vec<u64> = (0..2_000u64)
        .map(|i| if i % 2 == 0 { 7 } else { i })
        .collect();
    let (status, body) = client.post("/ingest", &ingest_body_of(&items));
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"accepted\":2000"), "{body}");

    let (status, body) = client.post("/epoch/end", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"epoch\":1"), "{body}");
    assert!(body.contains("\"items\":2000"), "{body}");

    let (status, body) = client.get("/epoch");
    assert_eq!(status, 200);
    assert!(body.contains("\"epoch\":1"), "{body}");

    let (status, body) = client.get("/topk?n=3");
    assert_eq!(status, 200);
    let top = decode_topk(body.as_bytes()).unwrap();
    assert!(top.contains_key(&7), "heavy hitter missing: {body}");
    assert!(top[&7] > 500.0, "{body}");

    let (status, body) = client.get("/point/7");
    assert_eq!(status, 200);
    assert!(body.contains("\"key\":7"), "{body}");

    // Unknown keys answer 200 with an estimate — a 404 would leak
    // membership through the status code.
    let (status, body) = client.get("/point/999999");
    assert_eq!(status, 200, "{body}");

    server.shutdown();
}

#[test]
fn plus_in_the_path_is_a_literal_key_character() {
    // Regression: percent-decoding used to apply the form-urlencoded
    // `+`-is-space rule to the *path* too, so `GET /point/+7` reached the
    // route table as `/point/ 7` and bounced with 400 even though `+7` is
    // a perfectly valid (explicitly signed) u64 key. The path must keep
    // its `+`; only query pairs use the form convention.
    let server = start_server(2, 10);
    let mut client = Client::connect(server.addr());

    let items: Vec<u64> = (0..1_000u64)
        .map(|i| if i % 2 == 0 { 7 } else { i })
        .collect();
    let (status, _) = client.post("/ingest", &ingest_body_of(&items));
    assert_eq!(status, 200);
    let (status, _) = client.post("/epoch/end", "");
    assert_eq!(status, 200);

    let (status, plain) = client.get("/point/7");
    assert_eq!(status, 200, "{plain}");
    let (status, signed) = client.get("/point/+7");
    assert_eq!(status, 200, "`+7` no longer parses as a path key: {signed}");
    assert_eq!(
        signed, plain,
        "`/point/+7` must answer exactly like `/point/7`"
    );

    // The query side keeps the form-urlencoded rule.
    let (status, _) = client.get("/topk?n=3&tenant=acme+corp");
    assert_eq!(status, 200);
    server.shutdown();
}

#[test]
fn error_mapping_is_exhaustive() {
    let server = start_server(2, 10);
    let addr = server.addr();

    // 400: hostile framing (fresh connection each — the server closes).
    for raw in [
        &b"NONSENSE\r\n\r\n"[..],
        b"GET /epoch HTTP/9.9\r\n\r\n",
        b"GET /epoch HTTP/1.1\r\nbroken header line\r\n\r\n",
        b"POST /ingest HTTP/1.1\r\nContent-Length: oops\r\n\r\n",
    ] {
        let (status, _) = Client::connect(addr).raw(raw);
        assert_eq!(status, 400, "{:?}", String::from_utf8_lossy(raw));
    }

    // 400: valid framing, malformed JSON / parameters.
    let mut client = Client::connect(addr);
    assert_eq!(client.post("/ingest", "{\"items\": [1, 2").0, 400);
    assert_eq!(client.post("/ingest", "{\"items\": \"x\"}").0, 400);
    assert_eq!(client.post("/ingest", "{}").0, 400);
    assert_eq!(client.get("/topk?n=banana").0, 400);
    assert_eq!(client.get("/point/not-a-number").0, 400);

    // 404 / 405.
    assert_eq!(client.get("/no/such/route").0, 404);
    assert_eq!(client.get("/").0, 404);
    assert_eq!(client.post("/topk", "").0, 405);
    assert_eq!(client.get("/ingest").0, 405);

    // 413: declared body over the 64 KiB test cap.
    let mut big = Client::connect(addr);
    let (status, body) = big.raw(b"POST /ingest HTTP/1.1\r\nContent-Length: 10000000\r\n\r\n");
    assert_eq!(status, 413, "{body}");
    assert!(body.contains("exceeds"), "{body}");

    // The server survives all of the above.
    let mut probe = Client::connect(addr);
    assert_eq!(probe.get("/healthz").0, 200);
    server.shutdown();
}

/// A request hidden in the body of another must never run: with
/// `Transfer-Encoding: chunked` the body is the chunk (TE.CL), with two
/// `Content-Length` values it is whatever the larger one covers (CL.CL).
/// Either way the server answers the outer request once and closes.
#[test]
fn smuggled_request_behind_transfer_encoding_or_second_content_length_never_runs() {
    let server = start_server(1, 10);
    let addr = server.addr();
    let hidden = "POST /epoch/end HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n";
    let chunk_size = format!("{:x}\r\n", hidden.len());
    let cases = [
        (
            501,
            format!(
                "POST /ingest HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\
                 Content-Length: {}\r\n\r\n{chunk_size}{hidden}\r\n0\r\n\r\n",
                chunk_size.len()
            ),
        ),
        (
            400,
            format!(
                "POST /ingest HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\
                 Content-Length: {}\r\n\r\n{hidden}",
                hidden.len()
            ),
        ),
    ];
    for (status, raw) in cases {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(30)))
            .unwrap();
        stream.write_all(raw.as_bytes()).unwrap();
        let mut all = Vec::new();
        stream.read_to_end(&mut all).unwrap();
        let text = String::from_utf8_lossy(&all);
        assert_eq!(text.matches("HTTP/1.1 ").count(), 1, "one response: {text}");
        assert!(
            text.starts_with(&format!("HTTP/1.1 {status} ")),
            "{status}: {text}"
        );
        assert!(text.contains("Connection: close\r\n"), "{text}");
        let (_, epoch) = Client::connect(addr).get("/epoch");
        assert!(
            epoch.contains("\"epoch\":0"),
            "hidden /epoch/end ran: {epoch}"
        );
    }
    server.shutdown();
}

#[test]
fn truncated_request_does_not_wedge_the_server() {
    let server = start_server(1, 10);
    let addr = server.addr();
    {
        // Send half a request head and slam the connection shut.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"GET /epoch HT").unwrap();
        drop(stream);
    }
    {
        // And half a body.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"POST /ingest HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"items\"")
            .unwrap();
        drop(stream);
    }
    // With a single worker, a wedged connection handler would block this.
    let mut probe = Client::connect(addr);
    assert_eq!(probe.get("/healthz").0, 200);
    server.shutdown();
}

#[test]
fn request_paused_mid_line_and_mid_body_is_served() {
    // Each pause outlasts the server's 100 ms read poll but not its
    // per-request deadline.
    let server = start_server(1, 10);
    let mut client = Client::connect(server.addr());
    let body = ingest_body_of(&[1, 2, 3, 4]);
    let head = format!(
        "POST /ingest HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    let pause = std::time::Duration::from_millis(300);
    let (line_start, line_rest) = head.split_at(10);
    let (body_start, body_rest) = body.split_at(body.len() / 2);
    for part in [line_start, line_rest, body_start] {
        client
            .writer
            .write_all(part.as_bytes())
            .expect("the server keeps a paused request open");
        std::thread::sleep(pause);
    }
    let (status, reply) = client.raw(body_rest.as_bytes());
    assert_eq!(status, 200, "{reply}");
    // The connection stays in step for the next request.
    assert_eq!(client.get("/healthz").0, 200);
    server.shutdown();
}

#[test]
fn request_stalled_past_the_deadline_gets_400_and_close() {
    let server = start_server(2, 10);
    let started = std::time::Instant::now();
    let mut stalled: Vec<Client> = [
        &b"GET /epoch HT"[..],
        b"POST /ingest HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"items\"",
    ]
    .into_iter()
    .map(|part| {
        let mut client = Client::connect(server.addr());
        client.writer.write_all(part).unwrap();
        client
    })
    .collect();
    for client in &mut stalled {
        let (status, reply) = client.read_response();
        assert_eq!(status, 400, "{reply}");
        assert!(reply.contains("stalled"), "{reply}");
        let mut rest = Vec::new();
        client.reader.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "connection closed after the 400");
    }
    // Both were waited on well past the 100 ms read poll.
    let waited = started.elapsed();
    assert!(
        waited >= std::time::Duration::from_secs(1),
        "refused after {waited:?}"
    );
    server.shutdown();
}

#[test]
fn concurrent_keepalive_clients_see_monotone_epochs() {
    let server = start_server(4, 100);
    let addr = server.addr();
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));

    // Readers poll /epoch over keep-alive connections, asserting the
    // released-epoch clock never goes backwards.
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let stop = std::sync::Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                let mut last = 0u64;
                let mut polls = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let (status, body) = client.get("/epoch");
                    assert_eq!(status, 200);
                    let epoch: u64 = body
                        .split("\"epoch\":")
                        .nth(1)
                        .and_then(|t| t.split([',', '}']).next())
                        .unwrap()
                        .parse()
                        .unwrap();
                    assert!(
                        epoch >= last,
                        "epoch clock went backwards: {last} → {epoch}"
                    );
                    last = epoch;
                    polls += 1;
                }
                polls
            })
        })
        .collect();

    // One writer drives 5 epochs through the socket.
    let mut writer = Client::connect(addr);
    for epoch in 1..=5u64 {
        let items: Vec<u64> = (0..500).collect();
        assert_eq!(writer.post("/ingest", &ingest_body_of(&items)).0, 200);
        let (status, body) = writer.post("/epoch/end", "");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains(&format!("\"epoch\":{epoch}")), "{body}");
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let total_polls: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(total_polls > 0);

    let mut probe = Client::connect(addr);
    let (_, body) = probe.get("/epoch");
    assert!(body.contains("\"epoch\":5"), "{body}");
    server.shutdown();
}

#[test]
fn tenant_budget_isolation_429() {
    // Each tenant affords exactly 2 explicit releases.
    let server = start_server(2, 2);
    let addr = server.addr();
    let mut client = Client::connect(addr);

    for expect_epoch in 1..=2u64 {
        let items: Vec<u64> = (0..100).collect();
        assert_eq!(
            client
                .post("/ingest?tenant=alpha", &ingest_body_of(&items))
                .0,
            200
        );
        let (status, body) = client.post("/epoch/end?tenant=alpha", "");
        assert_eq!(status, 200, "{body}");
        assert!(
            body.contains(&format!("\"epoch\":{expect_epoch}")),
            "{body}"
        );
    }

    // Third release: tenant alpha is spent → 429, nothing charged
    // globally (epoch clock unchanged).
    let (status, body) = client.post("/epoch/end?tenant=alpha", "");
    assert_eq!(status, 429, "{body}");
    assert!(body.contains("alpha"), "{body}");
    let (_, body) = client.get("/epoch");
    assert!(body.contains("\"epoch\":2"), "{body}");

    // Tenant beta is untouched: full budget, releases fine — alpha's
    // exhaustion cannot starve it. The tenant can also ride the header.
    let (status, body) = client.get("/budget?tenant=beta");
    assert_eq!(status, 200);
    assert!(body.contains("\"charges\":0"), "{body}");
    let (status, body) = client.raw(
        b"POST /epoch/end HTTP/1.1\r\nHost: t\r\nx-dpmg-tenant: beta\r\nContent-Length: 0\r\n\r\n",
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"epoch\":3"), "{body}");

    // Budgets: alpha exhausted, beta one charge in, global tracks all 3.
    let (_, body) = client.get("/budget?tenant=alpha");
    assert!(body.contains("\"charges\":2"), "{body}");
    let (_, body) = client.get("/budget?tenant=beta");
    assert!(body.contains("\"charges\":1"), "{body}");
    let (_, body) = client.get("/budget");
    assert!(body.contains("\"scope\":\"global\""), "{body}");
    assert!(body.contains("\"charges\":3"), "{body}");
    server.shutdown();
}

#[test]
fn health_and_metrics_expose_traffic() {
    let server = start_server(2, 10);
    let mut client = Client::connect(server.addr());

    let (status, body) = client.get("/healthz");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"ok\""), "{body}");

    let items: Vec<u64> = (0..250).collect();
    client.post("/ingest", &ingest_body_of(&items));
    client.post("/epoch/end", "");
    client.get("/no/such/route");

    let (status, metrics) = client.get("/metrics");
    assert_eq!(status, 200);
    for needle in [
        "dpmg_requests_total",
        "dpmg_requests{status=\"200\"}",
        "dpmg_requests{status=\"404\"} 1",
        "dpmg_items_ingested_total 250",
        "dpmg_epochs_completed 1",
        "dpmg_request_latency_p50_us",
        "dpmg_request_latency_p99_us",
        "dpmg_ingest_rate_items_per_s",
        "dpmg_budget_remaining_epsilon",
    ] {
        assert!(metrics.contains(needle), "missing {needle} in:\n{metrics}");
    }
    server.shutdown();
}

#[test]
fn keepalive_and_connection_close_semantics() {
    let server = start_server(1, 10);
    let addr = server.addr();

    // Keep-alive: many requests over one connection.
    let mut client = Client::connect(addr);
    for _ in 0..50 {
        assert_eq!(client.get("/epoch").0, 200);
    }
    // A worker serves one connection until it closes; with a single worker
    // the next connection only gets served once this one is released.
    drop(client);

    // Connection: close → server answers, then EOF.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut all = Vec::new();
    stream.read_to_end(&mut all).unwrap();
    let text = String::from_utf8_lossy(&all);
    assert!(text.starts_with("HTTP/1.1 200"), "{text}");
    assert!(text.contains("Connection: close"), "{text}");
    server.shutdown();
}

/// A windowed-mode server (W = `window_epochs`, merged-laplace — windowed
/// releases are Corollary 18 merges, so the MergedOneSided guard applies).
fn start_windowed_server(window_epochs: u64) -> Server {
    use dpmg_core::mechanism::MergedLaplaceMechanism;
    use dpmg_service::ServiceMode;
    let per_epoch = PrivacyParams::new(PER_EPOCH.0, PER_EPOCH.1).unwrap();
    let service = DpmgService::<u64>::new(
        ServiceConfig::new(2, 64).with_mode(ServiceMode::Windowed { window_epochs }),
        Box::new(MergedLaplaceMechanism::new(per_epoch).unwrap()),
        PrivacyParams::new(100.0, 1e-4).unwrap(),
        42,
    )
    .unwrap();
    let tenant_budget = PrivacyParams::new(50.0, 1e-5).unwrap();
    let state = AppState::new(ServiceBackend::InMemory(service), per_epoch, tenant_budget);
    let config = ServerConfig::default()
        .with_threads(2)
        .with_max_body_bytes(64 * 1024);
    Server::start(config, state).unwrap()
}

#[test]
fn windowed_endpoints_serve_window_scoped_answers() {
    let server = start_windowed_server(2);
    let mut client = Client::connect(server.addr());

    // /window reports the mode before any epoch has been released.
    let (status, body) = client.get("/window");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"mode\":\"windowed\""), "{body}");
    assert!(body.contains("\"window_epochs\":2"), "{body}");
    assert!(body.contains("\"epoch\":0"), "{body}");

    // Invalid window parameters are client errors, never reinterpreted.
    assert_eq!(client.get("/topk?window=0").0, 400);
    assert_eq!(client.get("/topk?window=banana").0, 400);
    assert_eq!(client.get("/topk?window=-1").0, 400);
    let (status, body) = client.get("/topk?window=3");
    assert_eq!(status, 400, "{body}");
    assert!(
        body.contains("window is 2 epochs"),
        "mismatch must name the configured window: {body}"
    );
    assert_eq!(client.post("/window", "").0, 405);

    // Epoch 1: key 1 hot; epochs 2–3: key 2 hot. 6000 ≫ threshold ≈ 2800.
    for (epoch, key) in [(1u64, 1u64), (2, 2), (3, 2)] {
        let items: Vec<u64> = std::iter::repeat_n(key, 6_000).collect();
        let (status, _) = client.post("/ingest", &ingest_body_of(&items));
        assert_eq!(status, 200, "epoch {epoch} ingest");
        let (status, _) = client.post("/epoch/end", "");
        assert_eq!(status, 200, "epoch {epoch} release");
    }

    // Window = epochs {2, 3}: key 1 slid out, key 2 counts both epochs.
    let (status, body) = client.get("/topk?window=2&n=5");
    assert_eq!(status, 200, "{body}");
    let top = decode_topk(body.as_bytes()).unwrap();
    assert!(!top.contains_key(&1), "key 1 left the window: {top:?}");
    assert!(
        top.get(&2).copied().unwrap_or(0.0) > 9_000.0,
        "key 2 must span both window epochs: {top:?}"
    );
    // The bare /topk serves the same window-scoped answers.
    let (status, bare) = client.get("/topk?n=5");
    assert_eq!(status, 200);
    assert_eq!(decode_topk(bare.as_bytes()).unwrap(), top);
    // /point answers over the window too (0 for the slid-out key).
    let (status, body) = client.get("/point/1");
    assert_eq!(status, 200);
    assert!(body.contains("\"estimate\":0.0"), "{body}");

    let (status, body) = client.get("/window");
    assert_eq!(status, 200);
    assert!(body.contains("\"epoch\":3"), "{body}");
}

#[test]
fn window_param_is_rejected_outside_windowed_mode() {
    let server = start_server(1, 10);
    let mut client = Client::connect(server.addr());
    let (status, body) = client.get("/window");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"mode\":\"independent\""), "{body}");
    assert!(body.contains("\"window_epochs\":null"), "{body}");
    let (status, body) = client.get("/topk?window=2");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("not in windowed mode"), "{body}");
    // A plain /topk still works.
    assert_eq!(client.get("/topk?n=3").0, 200);
}

/// Released snapshots are freed once superseded: neither the idle handler
/// thread nor the serving connection's handle may keep epoch 1's snapshot
/// alive after later releases (each snapshot is a full copy of the
/// cumulative estimates).
#[test]
fn idle_handlers_do_not_pin_released_snapshots() {
    let server = start_server(2, 10);
    let mut client = Client::connect(server.addr());
    let body = ingest_body_of(&[1, 1, 2, 3, 5, 8]);
    let release = |client: &mut Client| {
        assert_eq!(client.post("/ingest", &body).0, 200);
        assert_eq!(client.post("/epoch/end", "").0, 200);
    };
    release(&mut client);
    let epoch_1 = {
        let snapshot = server.state().query_handle().unwrap().snapshot();
        assert_eq!(snapshot.epoch, 1);
        std::sync::Arc::downgrade(&snapshot)
    };
    for _ in 0..50 {
        release(&mut client);
    }
    assert!(
        epoch_1.upgrade().is_none(),
        "epoch 1's snapshot is still alive after 50 later releases"
    );
    let (status, body) = client.get("/epoch");
    assert_eq!(status, 200);
    assert!(body.contains("\"epoch\":51"), "{body}");
    assert!(epoch_1.upgrade().is_none());
}

/// A keep-alive connection that sends nothing moves its handle forward on
/// its idle polls, so releases served on another connection are freed.
#[test]
fn a_quiet_connection_does_not_pin_released_snapshots() {
    let server = start_server(2, 10);
    let mut quiet = Client::connect(server.addr());
    assert_eq!(quiet.get("/epoch").0, 200);
    let mut busy = Client::connect(server.addr());
    let body = ingest_body_of(&[7, 7, 9]);
    assert_eq!(busy.post("/ingest", &body).0, 200);
    assert_eq!(busy.post("/epoch/end", "").0, 200);
    let epoch_1 = std::sync::Arc::downgrade(&server.state().query_handle().unwrap().snapshot());
    for _ in 0..10 {
        assert_eq!(busy.post("/ingest", &body).0, 200);
        assert_eq!(busy.post("/epoch/end", "").0, 200);
    }
    // The quiet connection polls every `poll_interval` (100 ms).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while epoch_1.upgrade().is_some() {
        assert!(
            std::time::Instant::now() < deadline,
            "a connection idle through 10 releases still pins epoch 1's snapshot"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert_eq!(quiet.get("/epoch").0, 200);
}

/// A handler that panics holding the service lock poisons it: mutations
/// then get 503, while reads, on new connections too, are still answered
/// from the immutable released snapshots.
#[test]
fn reads_are_served_on_new_connections_after_the_state_is_poisoned() {
    let server = start_server(2, 10);
    let mut client = Client::connect(server.addr());
    assert_eq!(client.post("/ingest", &ingest_body_of(&[4, 4, 4])).0, 200);
    assert_eq!(client.post("/epoch/end", "").0, 200);
    drop(client);
    let state = std::sync::Arc::clone(server.state());
    let panicked = std::thread::spawn(move || {
        let _backend = state.backend().unwrap();
        panic!("handler dies mid-mutation");
    })
    .join();
    assert!(panicked.is_err());

    let mut client = Client::connect(server.addr());
    let (status, body) = client.get("/epoch");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"epoch\":1"), "{body}");
    assert_eq!(client.get("/topk?n=3").0, 200);
    assert_eq!(client.post("/ingest", &ingest_body_of(&[1])).0, 503);
}
