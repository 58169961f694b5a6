//! The serving path's timing and ordering contract, over real sockets:
//! a connection is accepted the moment it arrives (never on a poll
//! tick), shutdown wakes an idle accept loop without inventing a
//! session, and requests pipelined on one connection are all answered
//! even when the session may hold only one at a time.

use daenerysd::client::Client;
use daenerysd::protocol::{read_frame, write_frame, Request, Response};
use daenerysd::server::{MetricsSnapshot, Server, ServerConfig};
use std::collections::BTreeSet;
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const GOOD: &str = "field val: Int
method set(c: Ref) requires acc(c.val) ensures acc(c.val) && c.val == 1 { c.val := 1 }";

fn start(
    config: ServerConfig,
) -> (
    SocketAddr,
    Arc<AtomicBool>,
    std::thread::JoinHandle<MetricsSnapshot>,
) {
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let flag = server.shutdown_flag();
    (addr, flag, std::thread::spawn(move || server.run()))
}

fn stop(
    flag: &Arc<AtomicBool>,
    handle: std::thread::JoinHandle<MetricsSnapshot>,
) -> MetricsSnapshot {
    flag.store(true, Ordering::SeqCst);
    handle.join().expect("server thread")
}

/// With a one-second poll, a daemon that accepted on poll ticks would
/// take about 20 s for 20 back-to-back connections; one that blocks in
/// `accept()` serves them in well under a second. The 5 s bound leaves
/// room for a loaded debug build and still fails the tick by far.
#[test]
fn sequential_connections_do_not_wait_for_the_poll_tick() {
    let (addr, flag, handle) = start(ServerConfig {
        read_poll_ms: 1_000,
        ..ServerConfig::default()
    });
    let client = Client::new(addr);
    let started = Instant::now();
    for id in 1..=20u64 {
        match client.request_once(&Request::new(id, "tenant", GOOD), 0) {
            Ok(Response::Ok { id: got, .. }) => assert_eq!(got, id),
            other => panic!("request {} not served: {:?}", id, other),
        }
    }
    let elapsed = started.elapsed();
    let snap = stop(&flag, handle);
    assert!(
        elapsed < Duration::from_secs(5),
        "20 sequential requests took {:?}",
        elapsed
    );
    assert_eq!(snap.responses_ok, 20, "{:?}", snap);
    assert_eq!(snap.sessions_opened, 20, "{:?}", snap);
    assert_eq!(snap.leaked_sessions, 0, "{:?}", snap);
}

/// Shutdown wakes an accept loop that no client will ever wake, and
/// the wake connection is not a session.
#[test]
fn shutdown_wakes_an_idle_daemon_without_a_session() {
    let (_addr, flag, handle) = start(ServerConfig {
        read_poll_ms: 50,
        ..ServerConfig::default()
    });
    // Let `run` reach its blocking accept.
    std::thread::sleep(Duration::from_millis(100));
    let started = Instant::now();
    let snap = stop(&flag, handle);
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "idle shutdown took {:?}",
        elapsed
    );
    assert_eq!(snap.sessions_opened, 0, "the wake was counted: {:?}", snap);
    assert_eq!(snap.sessions_closed, 0, "{:?}", snap);
}

/// Three frames pipelined on one connection at `queue_cap: 1`: the
/// reader takes the next frame only once the previous request is
/// answered, and every request gets exactly one response carrying its
/// own id.
#[test]
fn pipelined_requests_at_queue_cap_one_are_all_answered() {
    let (addr, flag, handle) = start(ServerConfig {
        read_poll_ms: 5,
        queue_cap: 1,
        ..ServerConfig::default()
    });
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .expect("read timeout");
    for id in 1..=3u64 {
        let req = Request::new(id, "pipelined", GOOD);
        write_frame(&mut &stream, req.encode().as_bytes()).expect("send");
    }
    let mut reader = BufReader::new(&stream);
    let mut ids = BTreeSet::new();
    // Fail, not hang, when a request is never answered.
    let deadline = Instant::now() + Duration::from_secs(10);
    for _ in 0..3 {
        let payload =
            read_frame(&mut reader, |_| Instant::now() < deadline).expect("response frame");
        match Response::decode(&payload).expect("decode") {
            Response::Ok { id, verdicts, .. } => {
                assert_eq!(verdicts["set"].kind, "verified");
                assert!(ids.insert(id), "request {} answered twice", id);
            }
            other => panic!("expected an ok response, got {:?}", other),
        }
    }
    assert_eq!(ids, BTreeSet::from([1, 2, 3]));
    drop(reader);
    drop(stream);
    let snap = stop(&flag, handle);
    assert_eq!(snap.responses_ok, 3, "{:?}", snap);
    assert_eq!(snap.leaked_sessions, 0, "{:?}", snap);
}
