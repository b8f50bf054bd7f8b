//! `RunProgram` loopback identity: each of the three shipped program-IR
//! workloads, uploaded once and executed through the server, must return
//! ciphertexts byte-identical to `fhe_program::execute` run locally with
//! the same inputs and keys.

use ckks::hoisting::LinearTransform;
use ckks::serialize::serialize_ciphertext;
use ckks::{Ciphertext, CkksContext, CkksParams, Encoder, Encryptor, Evaluator, KeyGenerator};
use fhe_math::cfft::Complex;
use fhe_program::{execute, workloads, ExecInputs, ExecKeys};
use fhe_serve::{Client, ServeConfig, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::Arc;

const LEVELS: usize = 10;

fn ctx() -> Arc<CkksContext> {
    CkksContext::new(
        CkksParams::builder()
            .log_degree(5)
            .levels(LEVELS)
            .scale_bits(30)
            .first_modulus_bits(40)
            .special_modulus_bits(34)
            .dnum(5)
            .build()
            .unwrap(),
    )
}

fn encrypt_vec(
    ctx: &Arc<CkksContext>,
    encoder: &Encoder,
    encryptor: &Encryptor,
    sk: &ckks::SecretKey,
    rng: &mut StdRng,
    v: &[f64],
) -> Ciphertext {
    let cv: Vec<Complex> = v.iter().map(|&x| Complex::new(x, 0.0)).collect();
    let pt = encoder.encode(&cv, LEVELS, ctx.params().scale()).unwrap();
    encryptor.encrypt_symmetric(rng, &pt, sk)
}

/// Uploads all three workloads over one session and checks every remote
/// output against the local executor, byte for byte.
#[test]
fn run_program_matches_library_unrolled() {
    let ctx = ctx();
    let slots = ctx.params().slots();

    let server = Server::start(
        ctx.clone(),
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    )
    .unwrap();

    let mut rng = StdRng::seed_from_u64(4242);
    let kg = KeyGenerator::new(ctx.clone());
    let sk = kg.secret_key(&mut rng);
    let rlk = kg.relin_key_compressed(&mut rng, &sk);
    // One Galois key set covering the union of the three manifests:
    // aggregate's power-of-two fold with its combined steps 3 and 12,
    // dot-product's BSGS steps, sha's {1, 4}.
    let gk = kg.galois_keys_compressed(&mut rng, &sk, &[1, 2, 3, 4, 8, 12], false);
    let encoder = Encoder::new(ctx.clone());
    let encryptor = Encryptor::new(ctx.clone());
    let ev = Evaluator::new(ctx.clone());
    let keys = ExecKeys {
        relin: Some(rlk.switching_key()),
        galois: Some(&gk),
    };

    let mut client = Client::connect(server.local_addr(), ctx.clone()).unwrap();
    let sid = client.hello().unwrap();
    client.upload_relin(sid, rlk.switching_key()).unwrap();
    client.upload_galois(sid, &gk).unwrap();

    let check = |label: &str,
                 prog: &fhe_program::program::Program,
                 inputs: &ExecInputs,
                 client: &mut Client| {
        let pid = client.upload_program(sid, prog).unwrap();
        let remote = client.run_program(sid, pid, prog, inputs).unwrap();
        let local = execute(&ev, &encoder, prog, inputs, keys).unwrap();
        assert_eq!(remote.len(), local.len(), "{label}: output count");
        for ((name, want), got) in local.iter().zip(&remote) {
            assert_eq!(
                serialize_ciphertext(got),
                serialize_ciphertext(want),
                "{label}/{name}: RunProgram diverged from the library executor"
            );
        }
    };

    // Aggregate: three batched vectors in [0, 1].
    let agg = workloads::aggregate_program(slots, LEVELS);
    let mut inputs = ExecInputs::default();
    for d in 0..3 {
        let v: Vec<f64> = (0..slots)
            .map(|b| ((b * 5 + d) % 9) as f64 / 10.0)
            .collect();
        let ct = encrypt_vec(&ctx, &encoder, &encryptor, &sk, &mut rng, &v);
        inputs.cts.insert(format!("v{d}"), ct);
    }
    check("aggregate", &agg, &inputs, &mut client);

    // Dot-product: 8-diagonal plaintext database against one query.
    let diagonals = 8;
    let dot = workloads::dot_product_program(slots, LEVELS, diagonals);
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
    let mut inputs = ExecInputs::default();
    let q_ct = encrypt_vec(&ctx, &encoder, &encryptor, &sk, &mut rng, &query);
    inputs.cts.insert("query".into(), q_ct);
    inputs
        .mats
        .insert("db".into(), LinearTransform::from_diagonals(diags, slots));
    check("dot_product", &dot, &inputs, &mut client);

    // SHA stress round over 0/1 slot vectors.
    let sha = workloads::sha256_stress_program(LEVELS, 1, 4);
    let bits = |seed: usize| -> Vec<f64> {
        (0..slots)
            .map(|b| f64::from((b * 31 + seed * 17).is_multiple_of(3)))
            .collect()
    };
    let mut inputs = ExecInputs::default();
    for (seed, name) in ["x", "y", "z", "w"].iter().enumerate() {
        let ct = encrypt_vec(&ctx, &encoder, &encryptor, &sk, &mut rng, &bits(seed));
        inputs.cts.insert((*name).into(), ct);
    }
    check("sha256_stress", &sha, &inputs, &mut client);

    client.close_session(sid).unwrap();
    server.shutdown();
}
