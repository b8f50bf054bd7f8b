//! An idle server runs nothing: with one connection open and no request
//! in flight, none of its threads is woken — no acceptor poll, no timer —
//! and a shutdown with that connection still open returns at once.
//!
//! A test binary of its own, so no other test's server shares the
//! process whose threads are counted.
#![cfg(target_os = "linux")]

use ckks::{CkksContext, CkksParams};
use fhe_serve::{Client, ServeConfig, Server};
use std::time::{Duration, Instant};

/// Context switches so far of every thread of this process whose name
/// starts with `serve-` (the acceptor and the connection threads).
fn server_context_switches() -> u64 {
    let mut total = 0;
    for task in std::fs::read_dir("/proc/self/task").expect("procfs") {
        let dir = task.expect("a task entry").path();
        let (Ok(comm), Ok(status)) = (
            std::fs::read_to_string(dir.join("comm")),
            std::fs::read_to_string(dir.join("status")),
        ) else {
            // The thread exited between the listing and the read.
            continue;
        };
        if !comm.starts_with("serve-") {
            continue;
        }
        for line in status.lines() {
            let switches = line
                .strip_prefix("voluntary_ctxt_switches:")
                .or_else(|| line.strip_prefix("nonvoluntary_ctxt_switches:"));
            if let Some(n) = switches {
                total += n.trim().parse::<u64>().expect("a count");
            }
        }
    }
    total
}

#[test]
fn an_idle_server_wakes_no_thread() {
    let ctx = CkksContext::new(
        CkksParams::builder()
            .log_degree(5)
            .levels(3)
            .scale_bits(30)
            .first_modulus_bits(36)
            .dnum(2)
            .build()
            .unwrap(),
    );
    let config = ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    };
    let server = Server::start(ctx.clone(), config).unwrap();
    let mut client = Client::connect(server.local_addr(), ctx).unwrap();
    client.hello().unwrap();
    std::thread::sleep(Duration::from_millis(50));

    let before = server_context_switches();
    std::thread::sleep(Duration::from_millis(200));
    let woken = server_context_switches() - before;
    assert!(
        woken <= 2,
        "an idle server's threads switched {woken} times in 200 ms"
    );

    // The connection is still open: shutdown ends its blocked read.
    let t0 = Instant::now();
    server.shutdown();
    let took = t0.elapsed();
    assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
    drop(client);
}
