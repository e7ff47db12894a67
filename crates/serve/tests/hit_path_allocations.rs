//! The `/scan` cache-hit path's heap-allocation budget.
//!
//! A real daemon on loopback serves a small GCN artifact with the
//! default tracing settings (so every request records a trace and one
//! in sixteen keeps it). After a warm-up, one keep-alive client sends
//! [`HITS`] scans of a contract the verdict cache already holds, and a
//! counting global allocator tallies every allocation made on any
//! thread but the client's: the transport, the handler, the scan, the
//! response encoder and the tracing around them. The mean per request
//! must stay under [`BUDGET_PER_HIT`].
//!
//! The test is the only one in its binary, so no other test's threads
//! allocate during the window. The transport follows
//! `SCAMDETECT_TRANSPORT`, so CI runs it on both backends.

use scamdetect::{GnnKind, ModelKind, ScannerBuilder, TrainOptions};
use scamdetect_dataset::{Corpus, CorpusConfig};
use scamdetect_serve::client::HttpClient;
use scamdetect_serve::daemon::{spawn, ServeConfig};
use scamdetect_serve::wire::encode_hex;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Cache hits sent inside the counted window.
const HITS: u64 = 2_000;

/// Most allocations a cache hit may make on average, daemon side. On a
/// 2-vCPU Linux container a hit measured 15.56 (threaded) and 15.60
/// (epoll), most of them the request's own strings and buffers; before
/// tracing and report rendering stopped allocating it measured 52.06
/// and 54.09.
const BUDGET_PER_HIT: f64 = 17.0;

/// Allocations (and reallocations) made off the client thread.
static DAEMON_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the thread that drives the client; its allocations are
    /// the client's, not the daemon's.
    static IS_CLIENT: Cell<bool> = const { Cell::new(false) };
}

struct CountingAllocator;

impl CountingAllocator {
    fn count(&self) {
        // `try_with`: a thread tearing down its locals still allocates.
        if !IS_CLIENT.try_with(Cell::get).unwrap_or(false) {
            DAEMON_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds `GlobalAlloc`'s contract; counting touches only an
// atomic and a const-initialized thread-local, neither of which
// allocates or unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn scan_cache_hits_stay_within_their_allocation_budget() {
    let dir = std::env::temp_dir().join(format!("scamdetect-hit-allocs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("models dir");
    let corpus = Corpus::generate(&CorpusConfig {
        size: 24,
        seed: 0xA110C,
        ..CorpusConfig::default()
    });
    let mut options = TrainOptions::default();
    options.gnn.epochs = 2;
    ScannerBuilder::new()
        .model(ModelKind::Gnn(GnnKind::Gcn))
        .train_options(options)
        .train(&corpus)
        .expect("a small GCN trains")
        .save(dir.join("gcn-v1.scam"))
        .expect("artifact saves");

    let mut config = ServeConfig::default();
    config.http.addr = "127.0.0.1:0".to_string();
    config.registry.models_dir = dir.clone();
    let daemon = spawn(config).expect("daemon spawns");

    IS_CLIENT.with(|client| client.set(true));
    let body = format!(
        r#"{{"bytecode": "{}"}}"#,
        encode_hex(&corpus.contracts()[0].bytes)
    );
    let mut client = HttpClient::connect(daemon.addr).expect("client connects");
    let mut scan = |expect_hit: bool| {
        let reply = client
            .request("POST", "/scan", Some(&body))
            .expect("scan answers");
        assert_eq!(reply.status, 200, "{}", reply.body);
        if expect_hit {
            assert!(reply.body.contains(r#""cache":"hit""#), "{}", reply.body);
        }
    };
    // The first scan fills the verdict cache; the rest warm the
    // daemon's buffers and caches.
    scan(false);
    for _ in 0..200 {
        scan(true);
    }
    // Let the last warm-up response's trace finish before counting.
    std::thread::sleep(Duration::from_millis(50));

    let before = DAEMON_ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..HITS {
        scan(true);
    }
    // The daemon seals a trace after the response leaves; wait for the
    // last one.
    std::thread::sleep(Duration::from_millis(50));
    let per_hit = (DAEMON_ALLOCATIONS.load(Ordering::Relaxed) - before) as f64 / HITS as f64;

    drop(client);
    IS_CLIENT.with(|client| client.set(false));
    daemon.stop().expect("clean shutdown");
    std::fs::remove_dir_all(&dir).ok();
    eprintln!("daemon allocations per /scan cache hit: {per_hit:.2}");
    assert!(
        per_hit < BUDGET_PER_HIT,
        "a /scan cache hit made {per_hit:.2} allocations on average; the budget is {BUDGET_PER_HIT}"
    );
}
