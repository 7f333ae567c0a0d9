//! Workloads and their seeded input generation.
//!
//! Each workload pins its topology (generator, size and topology seed)
//! and its reference traffic matrix. A run optimizes a list of traffic
//! instances: instance 0 is the reference matrix itself, and every
//! further instance is drawn from it with the benchmark's `--seed`
//! through the paper's Gaussian fluctuation model (§V-F,
//! `r + N(0, ε·r)` per demand). So every instance is the same operating
//! point under a different traffic measurement, and the optimizer
//! receives only the generated inputs.

use dtr_net::Network;
use dtr_topogen::{community, rand_topo, SynthConfig};
use dtr_traffic::fluctuation::{perturb, perturb_matrix};
use dtr_traffic::gravity::{self, GravityConfig};
use dtr_traffic::{ClassMatrices, TrafficMatrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's operating point: 50 nodes, single-link failures.
    Dtr50Link,
    /// The three-class MTR engine under geographic shared-risk groups.
    Mtr3Srlg40,
    /// A 200-node community topology with a binding cache budget and
    /// per-sweep checkpoints.
    Sparse200Budget,
}

/// Relative standard deviation ε of the per-demand traffic fluctuation.
pub const FLUCTUATION: f64 = 0.05;

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Dtr50Link,
        Workload::Mtr3Srlg40,
        Workload::Sparse200Budget,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Dtr50Link => "dtr50-link",
            Workload::Mtr3Srlg40 => "mtr3-srlg40",
            Workload::Sparse200Budget => "sparse200-budget",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Generated inputs of one workload.
pub struct Inputs {
    pub net: Network,
    pub traffic: Traffic,
}

pub enum Traffic {
    /// Two-class DTR matrices (delay, throughput).
    Dtr(ClassMatrices),
    /// One matrix per MTR class (voice, video, bulk).
    Mtr(Vec<TrafficMatrix>),
}

/// Traffic instances one untraced run measures: the reference matrix
/// and this many minus one seeded draws.
pub const INSTANCES: u64 = 3;

/// A run's traffic instances for `seed` (see the module docs).
pub fn run_inputs(w: Workload, seed: u64) -> Vec<Inputs> {
    (0..INSTANCES)
        .map(|i| generate(w, (i > 0).then(|| instance_seed(seed, i))))
        .collect()
}

/// Seed of a run's `i`-th traffic instance (SplitMix64 of the pair), so
/// nearby run seeds share no instance.
pub fn instance_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i.wrapping_add(1).wrapping_mul(0xd1b5_4a32_d192_ed03));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Total offered volume of the MTR workload's three classes (b/s).
const MTR_VOLUME: f64 = 2e9;

/// Generate a workload's inputs: the reference traffic for `None`, a
/// fluctuation draw seeded by `draw` otherwise.
pub fn generate(w: Workload, draw: Option<u64>) -> Inputs {
    let fluctuate = |base: &ClassMatrices| match draw {
        Some(seed) => perturb(base, FLUCTUATION, seed),
        None => base.clone(),
    };
    match w {
        Workload::Dtr50Link => {
            let net = rand_topo::generate(&SynthConfig {
                nodes: 50,
                duplex_links: 150,
                seed: 7,
            })
            .expect("valid generator config")
            .scaled_to_diameter(25e-3)
            .build(500e6)
            .expect("connected blueprint");
            // The dense gravity matrix at 2e9: normal conditions meet the
            // SLA, failures cause recoverable violations.
            let mut base = gravity::generate(&GravityConfig {
                total_volume: 1.0,
                ..GravityConfig::paper_default(50, 3)
            });
            base.scale(2e9);
            Inputs {
                net,
                traffic: Traffic::Dtr(fluctuate(&base)),
            }
        }
        Workload::Mtr3Srlg40 => {
            let net = rand_topo::generate(&SynthConfig {
                nodes: 40,
                duplex_links: 100,
                seed: 11,
            })
            .expect("valid generator config")
            .scaled_to_diameter(25e-3)
            .build(500e6)
            .expect("connected blueprint");
            // Built as in examples/mtr_three_classes.rs: two gravity draws
            // give voice and video; their throughput halves make bulk.
            let n = net.num_nodes();
            let a = gravity::generate(&GravityConfig {
                total_volume: MTR_VOLUME * 0.5,
                ..GravityConfig::paper_default(n, 7)
            });
            let b = gravity::generate(&GravityConfig {
                total_volume: MTR_VOLUME * 0.5,
                ..GravityConfig::paper_default(n, 8)
            });
            let mut bulk = a.throughput;
            for (s, t, v) in b.throughput.pairs().collect::<Vec<_>>() {
                bulk.set(s, t, bulk.demand(s, t) + v);
            }
            let matrices = [a.delay, b.delay, bulk];
            let matrices = match draw {
                Some(seed) => {
                    let mut rng = StdRng::seed_from_u64(seed);
                    matrices
                        .iter()
                        .map(|m| perturb_matrix(m, FLUCTUATION, &mut rng))
                        .collect()
                }
                None => matrices.to_vec(),
            };
            Inputs {
                net,
                traffic: Traffic::Mtr(matrices),
            }
        }
        Workload::Sparse200Budget => {
            let nodes = 200;
            let net = community::generate(&SynthConfig {
                nodes,
                duplex_links: 400,
                seed: 97,
            })
            .expect("valid generator config")
            .scaled_to_diameter(25e-3)
            .build(500e6)
            .expect("connected blueprint");
            // 32 evenly spaced hubs exchange all traffic.
            let hubs = 32;
            let stride = nodes / hubs;
            let mut base = ClassMatrices::zeros(nodes);
            for i in 0..hubs {
                for j in 0..hubs {
                    if i != j {
                        base.delay.set(i * stride, j * stride, 0.8e6);
                        base.throughput.set(i * stride, j * stride, 1.2e6);
                    }
                }
            }
            Inputs {
                net,
                traffic: Traffic::Dtr(fluctuate(&base)),
            }
        }
    }
}

impl Inputs {
    /// Canonical byte encoding of the inputs: every link's endpoints,
    /// capacity and delay, then every matrix entry, floats as raw bits.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let net = &self.net;
        out.extend((net.num_nodes() as u64).to_le_bytes());
        for l in net.links() {
            let link = net.link(l);
            out.extend((link.src.index() as u64).to_le_bytes());
            out.extend((link.dst.index() as u64).to_le_bytes());
            out.extend(link.capacity.to_bits().to_le_bytes());
            out.extend(link.prop_delay.to_bits().to_le_bytes());
        }
        let matrices: Vec<&TrafficMatrix> = match &self.traffic {
            Traffic::Dtr(tm) => vec![&tm.delay, &tm.throughput],
            Traffic::Mtr(ms) => ms.iter().collect(),
        };
        for m in matrices {
            let n = m.num_nodes();
            for s in 0..n {
                for t in 0..n {
                    out.extend(m.demand(s, t).to_bits().to_le_bytes());
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_inputs_and_another_seed_differs() {
        let bytes = |w, seed| -> Vec<Vec<u8>> {
            run_inputs(w, seed).iter().map(Inputs::to_bytes).collect()
        };
        for w in Workload::ALL {
            let (a, b, c) = (bytes(w, 1), bytes(w, 1), bytes(w, 2));
            assert_eq!(a, b, "{}: same seed, different inputs", w.name());
            assert_ne!(a, c, "{}: different seeds, same inputs", w.name());
            // Instance 0 is the reference traffic; every draw differs from it.
            assert_eq!(a[0], c[0], "{}: the reference instance moved", w.name());
            for i in 1..a.len() {
                assert_ne!(a[i], c[i], "{}: draw {i} ignores the seed", w.name());
                assert_ne!(a[i], a[0], "{}: draw {i} is the reference", w.name());
                assert_eq!(
                    a[i].len(),
                    a[0].len(),
                    "{}: a draw changes the size",
                    w.name()
                );
            }
        }
    }

    #[test]
    fn workload_sizes_match_their_definitions() {
        let sizes = [
            (Workload::Dtr50Link, 50, 300),
            (Workload::Mtr3Srlg40, 40, 200),
            (Workload::Sparse200Budget, 200, 800),
        ];
        for (w, nodes, links) in sizes {
            let inp = generate(w, Some(5));
            assert_eq!(inp.net.num_nodes(), nodes, "{}", w.name());
            assert_eq!(inp.net.num_links(), links, "{}", w.name());
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
