//! Serving quickstart: start the multi-tenant evaluation server on a
//! loopback socket, connect two tenants that upload seeded-compressed
//! switching keys, evaluate remotely, and verify the results decrypt to
//! the expected values. Ends with the server's metrics dump, including
//! the key-cache counters that show the memory-aware trade in action,
//! and writes the request timelines to `serve-trace.json` (open it at
//! <https://ui.perfetto.dev>) plus the slow-request log to
//! `serve-slow.log`.
//!
//! Run with: `cargo run --example serve_quickstart`

use mad::math::cfft::Complex;
use mad::scheme::serialize::serialize_switching_key;
use mad::scheme::{
    CkksContext, CkksParams, Decryptor, Encoder, Encryptor, KeyGenerator, SecretKey,
};
use mad::serve::{Client, EvictionPolicy, ServeConfig, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let ctx = CkksContext::new(
        CkksParams::builder()
            .log_degree(6)
            .levels(6)
            .scale_bits(30)
            .first_modulus_bits(40)
            .dnum(3)
            .build()
            .expect("valid parameters"),
    );

    // A deliberately small key cache: enough for roughly three expanded
    // keys, while the two tenants below upload four between them. The
    // server evicts under pressure and regenerates evicted keys from
    // their 32-byte seeds on the next use — compute traded for memory.
    let probe = {
        let mut rng = StdRng::seed_from_u64(7);
        let kg = KeyGenerator::new(ctx.clone());
        let sk = kg.secret_key(&mut rng);
        let rlk = kg.relin_key(&mut rng, &sk);
        let wire = serialize_switching_key(rlk.switching_key());
        mad::scheme::serialize::deserialize_switching_key(&ctx, &wire)
            .unwrap()
            .size_bytes()
    };
    let server = Server::start(
        ctx.clone(),
        ServeConfig {
            workers: 2,
            key_cache_budget: 3 * probe,
            eviction: EvictionPolicy::Lru,
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    println!("server listening on {}", server.local_addr());

    let mut open_sessions = Vec::new();
    for tenant in 0u64..2 {
        let mut rng = StdRng::seed_from_u64(100 + tenant);
        let kg = KeyGenerator::new(ctx.clone());
        let sk = kg.secret_key(&mut rng);
        let rlk = kg.relin_key(&mut rng, &sk);
        let gk = kg.galois_keys(&mut rng, &sk, &[1], false);

        let mut client = Client::connect(server.local_addr(), ctx.clone()).expect("connects");
        let sid = client.hello().expect("session");
        client
            .upload_relin(sid, rlk.switching_key())
            .expect("relin upload");
        client.upload_galois(sid, &gk).expect("galois upload");

        let (ct, sk_ref) = encrypt_ramp(&ctx, &sk, &mut rng);
        // (x + x)² rotated left by one, evaluated entirely server-side.
        let doubled = client.add(sid, &ct, &ct).expect("add");
        let squared = client.mult(sid, &doubled, &doubled).expect("mult");
        let rotated = client.rotate(sid, &squared, 1).expect("rotate");

        let decryptor = Decryptor::new(ctx.clone());
        let encoder = Encoder::new(ctx.clone());
        let out = encoder.decode(&decryptor.decrypt(&rotated, sk_ref));
        for (i, slot) in out.iter().enumerate().take(4) {
            let expect = (2.0 * (i + 1) as f64 * 0.1).powi(2);
            assert!(
                (slot.re - expect).abs() < 1e-3,
                "tenant {tenant} slot {i}: {} vs {expect}",
                slot.re
            );
        }
        println!("tenant {tenant}: remote (2x)^2 <<1 verified ✓");
        // Keep the session open so both tenants' keys compete for the
        // shared cache budget; closed sessions purge their keys.
        open_sessions.push((client, sid));
    }

    let stats = server.cache_stats();
    println!(
        "key cache: {} hits, {} misses, {} evictions, {} resident bytes",
        stats.hits, stats.misses, stats.evictions, stats.resident_bytes
    );
    for (mut client, sid) in open_sessions {
        client.close_session(sid).expect("close");
    }

    let mut client = Client::connect(server.local_addr(), ctx.clone()).expect("connects");
    let dump = client.metrics().expect("metrics");
    println!("\n--- server metrics ---\n{dump}");

    // Every request above was traced: export the timelines as Chrome
    // trace-event JSON (drop the file on https://ui.perfetto.dev) and
    // the structured slow-request log.
    let trace = client.trace_dump().expect("trace dump");
    std::fs::write("serve-trace.json", &trace).expect("write serve-trace.json");
    let slow = client.slow_log().expect("slow log");
    std::fs::write("serve-slow.log", &slow).expect("write serve-slow.log");
    println!(
        "wrote serve-trace.json ({} events) and serve-slow.log ({} slow requests)",
        trace.lines().filter(|l| l.contains("\"ph\"")).count(),
        slow.lines().count()
    );
    server.shutdown();
}

fn encrypt_ramp<'a>(
    ctx: &std::sync::Arc<CkksContext>,
    sk: &'a SecretKey,
    rng: &mut StdRng,
) -> (mad::scheme::Ciphertext, &'a SecretKey) {
    let encoder = Encoder::new(ctx.clone());
    let encryptor = Encryptor::new(ctx.clone());
    let values: Vec<Complex> = (0..ctx.params().slots())
        .map(|i| Complex::new(i as f64 * 0.1, 0.0))
        .collect();
    let pt = encoder
        .encode(&values, ctx.params().levels(), ctx.params().scale())
        .expect("encodes");
    (encryptor.encrypt_symmetric(rng, &pt, sk), sk)
}
