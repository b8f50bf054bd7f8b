//! Program-IR quickstart: define the dot-product similarity workload
//! once as a `Program`, price it with the SimFHE cost model at the
//! paper's full scale, execute it with the functional library at demo
//! scale, then upload it to the serving runtime and run it as a single
//! `RunProgram` opcode — asserting the served outputs are byte-identical
//! to the local execution.
//!
//! Run with: `cargo run --release --example program_quickstart`

use std::collections::BTreeMap;

use mad::math::cfft::Complex;
use mad::program::{execute, workloads, ExecInputs, ExecKeys};
use mad::scheme::hoisting::LinearTransform;
use mad::scheme::serialize::serialize_ciphertext;
use mad::scheme::{
    CkksContext, CkksParams, Decryptor, Encoder, Encryptor, Evaluator, KeyGenerator,
};
use mad::serve::{Client, ServeConfig, Server};
use mad::sim::program::ProgramEnv;
use mad::sim::{CostModel, MadConfig, SchemeParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // --- Price the workload at the paper's scale ---------------------
    // One program definition serves three consumers; the first is the
    // analytical model. Price a 64-diagonal similarity search at the
    // paper's N = 2^17 MAD-practical parameters, entering at 20 limbs.
    let model = CostModel::new(SchemeParams::mad_practical(), MadConfig::all());
    let slots_full = model.params.slots() as usize;
    let priced = workloads::dot_product_program(slots_full, 20, 64);
    let info = priced
        .validate(&ProgramEnv {
            levels: model.params.limbs,
            slots: slots_full,
        })
        .expect("program validates at paper scale");
    let cost = model.program_cost(&priced, &info);
    println!(
        "dot_product at N = 2^17 ({} instructions, relin={}, {} Galois steps):",
        priced.instrs.len(),
        info.manifest.relin,
        info.manifest.galois_steps.len()
    );
    println!("  {:?}", cost.cost);

    // --- Execute the same workload at demo scale ---------------------
    let ctx = CkksContext::new(
        CkksParams::builder()
            .log_degree(6)
            .levels(4)
            .scale_bits(30)
            .first_modulus_bits(40)
            .dnum(2)
            .build()
            .expect("valid parameters"),
    );
    let slots = ctx.params().slots();
    let diagonals = 8;
    let prog = workloads::dot_product_program(slots, 4, diagonals);
    let info = prog
        .validate(&ProgramEnv {
            levels: ctx.params().levels(),
            slots,
        })
        .expect("program validates at demo scale");

    let mut rng = StdRng::seed_from_u64(7);
    let kg = KeyGenerator::new(ctx.clone());
    let sk = kg.secret_key(&mut rng);
    let gk = kg.galois_keys(&mut rng, &sk, &info.manifest.galois_steps, false);
    let encoder = Encoder::new(ctx.clone());
    let encryptor = Encryptor::new(ctx.clone());
    let decryptor = Decryptor::new(ctx.clone());
    let ev = Evaluator::new(ctx.clone());

    // Database rows packed as diagonals; the encrypted query scores
    // against all of them in one BSGS product.
    let mut diags = BTreeMap::new();
    for d in 0..diagonals {
        let diag: Vec<Complex> = (0..slots)
            .map(|j| Complex::new(((j * 3 + d * 5) % 7) as f64 * 0.1 - 0.2, 0.0))
            .collect();
        diags.insert(d, diag);
    }
    let query: Vec<f64> = (0..slots)
        .map(|b| ((b * 2 + 1) % 5) as f64 * 0.15)
        .collect();
    let cv: Vec<Complex> = query.iter().map(|&x| Complex::new(x, 0.0)).collect();
    let pt = encoder
        .encode(&cv, ctx.params().levels(), ctx.params().scale())
        .expect("encodes");
    let query_ct = encryptor.encrypt_symmetric(&mut rng, &pt, &sk);

    let mut inputs = ExecInputs::default();
    inputs.cts.insert("query".into(), query_ct);
    inputs.mats.insert(
        "db".into(),
        LinearTransform::from_diagonals(diags.clone(), slots),
    );
    let keys = ExecKeys {
        relin: None,
        galois: Some(&gk),
    };
    let local = execute(&ev, &encoder, &prog, &inputs, keys).expect("program executes");
    let scores: Vec<f64> = encoder
        .decode(&decryptor.decrypt(&local[0].1, &sk))
        .iter()
        .map(|c| c.re)
        .collect();
    for j in 0..slots {
        let want: f64 = (0..diagonals)
            .map(|d| diags[&d][j].re * query[(j + d) % slots])
            .sum::<f64>()
            * 0.125;
        assert!(
            (scores[j] - want).abs() < 2e-2,
            "score slot {j}: {} vs {want}",
            scores[j]
        );
    }
    println!("\nlibrary execute(): scores verified against plaintext ✓");

    // --- Serve it: upload once, run as one opcode --------------------
    let server = Server::start(ctx.clone(), ServeConfig::default()).expect("server starts");
    let mut client = Client::connect(server.local_addr(), ctx.clone()).expect("connects");
    let sid = client.hello().expect("session");
    client.upload_galois(sid, &gk).expect("galois upload");
    let pid = client.upload_program(sid, &prog).expect("program upload");
    let served = client
        .run_program(sid, pid, &prog, &inputs)
        .expect("RunProgram");
    assert_eq!(
        serialize_ciphertext(&served[0]),
        serialize_ciphertext(&local[0].1),
        "served result must be byte-identical to the local executor"
    );
    println!("RunProgram over loopback: byte-identical to execute() ✓");
    client.close_session(sid).expect("close");
    server.shutdown();
}
