//! The request plan: which tenant, op and operand every connection sends in
//! every slot, as a pure function of the seed.
//!
//! Op and tenant *counts* are apportioned exactly from the weights and only
//! their *order* is drawn from the seed, so every seed does the same amount
//! of each kind of work and seeds differ only in interleaving.

/// One request kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    Add,
    PtMult,
    Rescale,
    Rotate,
    Mult,
    Bsgs,
    RunProgram,
    /// CloseSession + Hello + UploadGalois of the same key: the only way to
    /// make the server drop a cached expansion, and its upload (write) path.
    Reprovision,
}

impl Op {
    pub const ALL: [Op; 8] = [
        Op::Add,
        Op::PtMult,
        Op::Rescale,
        Op::Rotate,
        Op::Mult,
        Op::Bsgs,
        Op::RunProgram,
        Op::Reprovision,
    ];

    /// The suffix of this op's `loadgen.op_p50_ms.*` metric.
    pub fn name(self) -> &'static str {
        match self {
            Op::Add => "add",
            Op::PtMult => "pt_mult",
            Op::Rescale => "rescale",
            Op::Rotate => "rotate",
            Op::Mult => "mult",
            Op::Bsgs => "bsgs",
            Op::RunProgram => "run_program",
            Op::Reprovision => "reprovision",
        }
    }
}

/// One request of the plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Slot {
    pub tenant: usize,
    pub op: Op,
    /// Which of the tenant's input ciphertexts the op consumes.
    pub operand: usize,
}

/// The traffic shape of a workload — everything about the plan that is not
/// the seed or the length.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub connections: usize,
    /// Connection `c` owns tenants `c·k .. (c+1)·k`; no tenant is shared.
    pub tenants_per_conn: usize,
    /// Draw weights over a connection's tenants; the seed decides which
    /// tenant gets which weight.
    pub tenant_weights: &'static [u32],
    /// Consecutive slots spent on one tenant before the next draw.
    pub burst: usize,
    pub mix: &'static [(Op, u32)],
    /// Every `n`th slot of a connection becomes a `Reprovision` of the
    /// tenant it falls on; 0 means never.
    pub reprovision_every: usize,
    /// Input ciphertexts per tenant an operand index selects among.
    pub operands: usize,
}

impl Shape {
    pub fn tenants(&self) -> usize {
        self.connections * self.tenants_per_conn
    }
}

/// The plan of one repetition: `conns[c]` is connection `c`'s slot sequence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Plan {
    pub conns: Vec<Vec<Slot>>,
}

/// SplitMix64. The plan keeps its own generator so that no change to the
/// code under test (including the vendored `rand`) can change the plan a
/// seed produces.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Splits `total` into parts proportional to `weights` (largest remainder,
/// ties to the earlier index); the parts sum to `total` exactly.
pub fn apportion(total: usize, weights: &[u32]) -> Vec<usize> {
    let sum: u64 = weights.iter().map(|&w| u64::from(w)).sum();
    assert!(sum > 0, "weights draw nothing");
    let mut parts: Vec<usize> = weights
        .iter()
        .map(|&w| (total as u64 * u64::from(w) / sum) as usize)
        .collect();
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(total as u64 * u64::from(weights[i]) % sum));
    let short = total - parts.iter().sum::<usize>();
    for &i in order.iter().take(short) {
        parts[i] += 1;
    }
    parts
}

/// `counts[i]` copies of `items[i]`, in a seeded order.
fn shuffled<T: Copy>(items: &[T], counts: &[usize], rng: &mut SplitMix64) -> Vec<T> {
    let mut out: Vec<T> = items
        .iter()
        .zip(counts)
        .flat_map(|(&item, &n)| std::iter::repeat_n(item, n))
        .collect();
    rng.shuffle(&mut out);
    out
}

impl Plan {
    /// The plan for `requests_per_conn` slots on every connection.
    pub fn generate(shape: &Shape, requests_per_conn: usize, seed: u64) -> Plan {
        assert_eq!(shape.tenant_weights.len(), shape.tenants_per_conn);
        assert!(shape.burst >= 1 && shape.operands >= 1);
        let ops: Vec<Op> = shape.mix.iter().map(|&(op, _)| op).collect();
        let op_weights: Vec<u32> = shape.mix.iter().map(|&(_, w)| w).collect();
        let conns = (0..shape.connections)
            .map(|c| {
                let mut rng = SplitMix64(seed ^ (c as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f));
                let mut tenants: Vec<usize> = (0..shape.tenants_per_conn)
                    .map(|t| c * shape.tenants_per_conn + t)
                    .collect();
                rng.shuffle(&mut tenants);
                let bursts = requests_per_conn.div_ceil(shape.burst);
                let burst_tenants =
                    shuffled(&tenants, &apportion(bursts, shape.tenant_weights), &mut rng);
                let op_seq = shuffled(&ops, &apportion(requests_per_conn, &op_weights), &mut rng);
                (0..requests_per_conn)
                    .map(|i| {
                        // Mid-period, so a run never ends on a purged cache.
                        let reprovision = shape.reprovision_every > 0
                            && i % shape.reprovision_every == shape.reprovision_every / 2;
                        Slot {
                            tenant: burst_tenants[i / shape.burst],
                            op: if reprovision {
                                Op::Reprovision
                            } else {
                                op_seq[i]
                            },
                            operand: rng.below(shape.operands),
                        }
                    })
                    .collect()
            })
            .collect();
        Plan { conns }
    }

    pub fn total(&self) -> usize {
        self.conns.iter().map(Vec::len).sum()
    }

    /// The order the single client thread issues the plan in: slot `i` of
    /// every connection in turn, then slot `i + 1`. One request is
    /// outstanding at a time, so a tenant's next op follows its previous
    /// reply and each connection still sees its own slots in order.
    pub fn interleaved(&self) -> Vec<(usize, Slot)> {
        let longest = self.conns.iter().map(Vec::len).max().unwrap_or(0);
        (0..longest)
            .flat_map(|i| {
                self.conns
                    .iter()
                    .enumerate()
                    .filter_map(move |(c, slots)| slots.get(i).map(|&s| (c, s)))
            })
            .collect()
    }

    /// FNV-1a over every slot: the fingerprint printed in the run header.
    pub fn hash(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for (c, slots) in self.conns.iter().enumerate() {
            eat(c as u64);
            for s in slots {
                eat(s.tenant as u64);
                eat(s.op as u64);
                eat(s.operand as u64);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::SERVE_WORKLOADS;

    #[test]
    fn apportion_by_hand() {
        assert_eq!(apportion(10, &[6, 3, 1]), vec![6, 3, 1]);
        // 7 · (4,2,1)/7 exactly.
        assert_eq!(apportion(7, &[4, 2, 1]), vec![4, 2, 1]);
        // 10 · (5,3,1,1)/10; 11 → quotas 5.5, 3.3, 1.1, 1.1: the extra one
        // goes to the largest remainder (index 0).
        assert_eq!(apportion(11, &[5, 3, 1, 1]), vec![6, 3, 1, 1]);
        assert_eq!(apportion(0, &[1, 1]), vec![0, 0]);
    }

    #[test]
    fn same_seed_same_plan_and_different_seed_differs() {
        for w in SERVE_WORKLOADS {
            let a = Plan::generate(&w.shape, 200, 7);
            let b = Plan::generate(&w.shape, 200, 7);
            assert_eq!(a, b, "{}: plan is not a pure function of the seed", w.name);
            assert_eq!(a.hash(), b.hash());
            let c = Plan::generate(&w.shape, 200, 8);
            assert_ne!(a, c, "{}: seeds 7 and 8 collide", w.name);
            assert_ne!(a.hash(), c.hash());
            assert_eq!(a.total(), 200 * w.shape.connections);
        }
    }

    #[test]
    fn tenant_ownership_never_crosses_connections() {
        for w in SERVE_WORKLOADS {
            for seed in 0..20 {
                let plan = Plan::generate(&w.shape, 256, seed);
                for (c, slots) in plan.conns.iter().enumerate() {
                    for s in slots {
                        assert_eq!(s.tenant / w.shape.tenants_per_conn, c);
                        assert!(s.operand < w.shape.operands);
                    }
                }
            }
        }
    }

    #[test]
    fn interleaving_alternates_connections_and_keeps_each_in_order() {
        for w in SERVE_WORKLOADS {
            let plan = Plan::generate(&w.shape, 64, 5);
            let order = plan.interleaved();
            assert_eq!(order.len(), plan.total());
            for (i, &(c, _)) in order.iter().enumerate() {
                assert_eq!(c, i % w.shape.connections);
            }
            for (c, slots) in plan.conns.iter().enumerate() {
                let seen: Vec<Slot> = order
                    .iter()
                    .filter(|&&(conn, _)| conn == c)
                    .map(|&(_, s)| s)
                    .collect();
                assert_eq!(&seen, slots);
            }
        }
    }

    #[test]
    fn every_seed_does_the_same_amount_of_each_op() {
        for w in SERVE_WORKLOADS {
            let count = |seed: u64| {
                let plan = Plan::generate(&w.shape, 320, seed);
                Op::ALL.map(|op| plan.conns.iter().flatten().filter(|s| s.op == op).count())
            };
            let first = count(0);
            for seed in 1..10 {
                // Reprovision overlays a fixed set of positions, so it may
                // displace a different op per seed — by at most its count.
                let now = count(seed);
                let moved: usize = first.iter().zip(&now).map(|(a, b)| a.abs_diff(*b)).sum();
                assert!(moved <= 2 * first[Op::Reprovision as usize], "{}", w.name);
            }
        }
    }

    #[test]
    fn bursts_and_reprovision_positions() {
        let thrash = SERVE_WORKLOADS
            .iter()
            .find(|w| w.name == "serve_thrash")
            .expect("thrash workload");
        let plan = Plan::generate(&thrash.shape, 256, 3);
        for slots in &plan.conns {
            for burst in slots.chunks(thrash.shape.burst) {
                assert!(burst.iter().all(|s| s.tenant == burst[0].tenant));
            }
            for (i, s) in slots.iter().enumerate() {
                let due = i % thrash.shape.reprovision_every == thrash.shape.reprovision_every / 2;
                assert_eq!(s.op == Op::Reprovision, due);
            }
        }
    }
}
