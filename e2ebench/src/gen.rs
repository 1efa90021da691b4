//! Seeded input generation. Everything the daemon receives is made
//! here from `--seed`; the same seed always yields the same requests,
//! and [`Digest`] fingerprints them so two runs can be shown to have
//! sent identical inputs.

use indaas_core::{AuditSpec, CandidateDeployment, RankingMetric, RgAlgorithm};
use indaas_deps::format::serialize_records;
use indaas_deps::{shard_index, DependencyRecord, HardwareDep, SoftwareDep};
use indaas_topology::{FatTree, FatTreeConfig};

/// SplitMix64: tiny, seedable, and stable across platforms.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// FNV-1a over every generated request, in send order.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn add(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Separator, so ["ab", "c"] and ["a", "bc"] differ.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn add_spec(&mut self, spec: &AuditSpec) {
        self.add(
            serde_json::to_string(spec)
                .expect("audit specs serialize")
                .as_bytes(),
        );
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Topology A of Table 3: a 16-port fat tree, 1,024 servers.
pub fn topology_a() -> FatTree {
    FatTree::new(FatTreeConfig::topology_a())
}

/// Every network, hardware and software record of topology A (68,608),
/// as Table-1 text batches of at most `batch` records each.
pub fn topology_a_batches(tree: &FatTree, batch: usize) -> (Vec<DependencyRecord>, Vec<String>) {
    let half = tree.config().ports / 2;
    let mut coords = Vec::with_capacity(tree.num_servers());
    for p in 0..tree.config().ports {
        for e in 0..half {
            for s in 0..half {
                coords.push((p, e, s));
            }
        }
    }
    let records = tree.deployment_records(&coords);
    let batches = records.chunks(batch).map(serialize_records).collect();
    (records, batches)
}

/// `count` servers of `tree`, each in a different pod.
fn servers_in_distinct_pods(tree: &FatTree, rng: &mut Rng, count: usize) -> Vec<String> {
    let ports = tree.config().ports;
    let half = ports / 2;
    let mut pods: Vec<usize> = Vec::with_capacity(count);
    while pods.len() < count {
        let p = rng.below(ports);
        if !pods.contains(&p) {
            pods.push(p);
        }
    }
    pods.into_iter()
        .map(|p| tree.server_name(p, rng.below(half), rng.below(half)))
        .collect()
}

/// Which engine a miss-phase request runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MissKind {
    Minimal,
    Sampling,
}

/// Cut-set order cap of every minimal-RG request.
pub const MINIMAL_MAX_ORDER: usize = 3;
/// Failure-sampling rounds of every sampling request.
pub const SAMPLING_ROUNDS: u64 = 1_000;

fn spec_with(candidates: Vec<CandidateDeployment>, algorithm: RgAlgorithm) -> AuditSpec {
    AuditSpec {
        candidates,
        network: true,
        hardware: true,
        software: true,
        algorithm,
        metric: RankingMetric::Size,
        top_n: None,
        prob_model: None,
    }
}

/// Miss-phase spec `index` of a run: two candidates of 2–3 servers in
/// distinct pods; one request in four uses failure sampling. The
/// candidate sizes cycle through (2,2), (2,3), (3,2), (3,3) once per
/// four requests, so every run sends the same mix of audit shapes and
/// the seed only picks the servers. The index is part of the candidate
/// names, so no two specs of a run share a cache key.
pub fn miss_spec(tree: &FatTree, rng: &mut Rng, index: usize) -> (MissKind, AuditSpec) {
    let kind = if index % 4 == 3 {
        MissKind::Sampling
    } else {
        MissKind::Minimal
    };
    let shape = (index / 4) % 4;
    let candidates = [("a", 2 + shape / 2), ("b", 2 + shape % 2)]
        .iter()
        .map(|&(tag, n)| {
            CandidateDeployment::replicated(
                format!("r{index}{tag}"),
                servers_in_distinct_pods(tree, rng, n),
            )
        })
        .collect();
    let algorithm = match kind {
        MissKind::Minimal => RgAlgorithm::Minimal {
            max_order: Some(MINIMAL_MAX_ORDER),
        },
        MissKind::Sampling => RgAlgorithm::Sampling {
            rounds: SAMPLING_ROUNDS,
            fail_prob: 0.5,
            seed: 7,
            threads: 1,
        },
    };
    (kind, spec_with(candidates, algorithm))
}

/// A seeded server whose records route to `shard` of `shards`, in a
/// pod not listed in `avoid_pods`.
fn server_in_shard(
    tree: &FatTree,
    rng: &mut Rng,
    shard: usize,
    shards: usize,
    avoid_pods: &[usize],
) -> (usize, String) {
    let ports = tree.config().ports;
    let half = ports / 2;
    loop {
        let p = rng.below(ports);
        let name = tree.server_name(p, rng.below(half), rng.below(half));
        if !avoid_pods.contains(&p) && shard_index(&name, shards) == shard {
            return (p, name);
        }
    }
}

/// Subscription `index` of the ingest-push workload: one 2-server
/// deployment across two pods, audited with minimal RGs. Its servers
/// route to shards `index % shards` and a second, distinct shard chosen
/// so that, over `4 · shards` subscriptions, every shard is read by
/// exactly eight of them: every wave then owes the same number of
/// pushes, whatever the seed.
pub fn subscription_spec(tree: &FatTree, rng: &mut Rng, index: usize, shards: usize) -> AuditSpec {
    let first = index % shards;
    let second = (first + 1 + (index / shards) % (shards - 1)) % shards;
    let (pod, a) = server_in_shard(tree, rng, first, shards, &[]);
    let (_, b) = server_in_shard(tree, rng, second, shards, &[pod]);
    spec_with(
        vec![CandidateDeployment::replicated(
            format!("sub{index}"),
            [a, b],
        )],
        RgAlgorithm::Minimal {
            max_order: Some(MINIMAL_MAX_ORDER),
        },
    )
}

/// The hardware record wave pair `pair` ingests and then retracts: an
/// extra NIC on a seeded server of shard `pair % shards`, so the waves
/// visit every shard equally and the store's size is the same after
/// every second wave.
pub fn wave_record(tree: &FatTree, rng: &mut Rng, pair: usize, shards: usize) -> DependencyRecord {
    let (_, host) = server_in_shard(tree, rng, pair % shards, shards, &[]);
    DependencyRecord::Hardware(HardwareDep {
        dep: format!("{host}-nic{pair}"),
        hw: host,
        hw_type: "Nic".into(),
    })
}

/// Components per provider of the psop-ring workload.
pub const PSOP_COMPONENTS: usize = 32;
/// Components every provider shares (about 30% of each set).
pub const PSOP_SHARED: usize = 10;
/// Components per provider host.
const PSOP_PER_HOST: usize = 8;

/// One provider's records for the psop-ring workload, plus the raw
/// component names they mention. Components are software packages
/// spread over four hosts; the first [`PSOP_SHARED`] come from a pool
/// every provider draws alike.
pub fn provider_records(rng_seed: u64, provider: usize) -> (Vec<DependencyRecord>, Vec<String>) {
    let mut shared_rng = Rng::new(rng_seed, 0x5ead);
    let shared: Vec<String> = (0..PSOP_SHARED)
        .map(|i| {
            format!(
                "Shared Lib{} {}.{}",
                i,
                shared_rng.below(9),
                shared_rng.below(99)
            )
        })
        .collect();
    let mut rng = Rng::new(rng_seed, 0x9a47 + provider as u64);
    let mut components = shared;
    while components.len() < PSOP_COMPONENTS {
        let c = format!(
            "p{provider}-pkg{}-{}.{}",
            components.len(),
            rng.below(9),
            rng.below(99)
        );
        components.push(c);
    }
    let records = components
        .chunks(PSOP_PER_HOST)
        .enumerate()
        .map(|(h, chunk)| {
            DependencyRecord::Software(SoftwareDep {
                pgm: format!("svc{h}"),
                hw: format!("prov{provider}-host{h}"),
                deps: chunk.to_vec(),
            })
        })
        .collect();
    (records, components)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let tree = topology_a();
        let mut a = Rng::new(42, 1);
        let mut b = Rng::new(42, 1);
        for i in 0..20 {
            let (ka, sa) = miss_spec(&tree, &mut a, i);
            let (kb, sb) = miss_spec(&tree, &mut b, i);
            assert_eq!(ka, kb);
            let mut da = Digest::new();
            da.add_spec(&sa);
            let mut db = Digest::new();
            db.add_spec(&sb);
            assert_eq!(da.hex(), db.hex());
        }
    }

    #[test]
    fn candidates_span_distinct_pods() {
        let tree = topology_a();
        let mut rng = Rng::new(3, 1);
        for i in 0..50 {
            let (_, spec) = miss_spec(&tree, &mut rng, i);
            for cand in &spec.candidates {
                let mut pods: Vec<&str> = cand
                    .servers
                    .iter()
                    .map(|s| s.split('-').nth(1).unwrap())
                    .collect();
                let n = pods.len();
                pods.sort_unstable();
                pods.dedup();
                assert_eq!(pods.len(), n);
                assert!((2..=3).contains(&n));
            }
        }
    }

    #[test]
    fn every_shard_is_read_by_eight_subscriptions() {
        let tree = topology_a();
        let mut rng = Rng::new(5, 3);
        let mut readers = [0usize; 8];
        for i in 0..32 {
            let spec = subscription_spec(&tree, &mut rng, i, 8);
            let mut shards: Vec<usize> = spec.candidates[0]
                .servers
                .iter()
                .map(|h| shard_index(h, 8))
                .collect();
            shards.dedup();
            assert_eq!(shards.len(), 2, "two distinct shards");
            for s in shards {
                readers[s] += 1;
            }
        }
        assert_eq!(readers, [8; 8]);
    }

    #[test]
    fn topology_a_has_every_record() {
        let (records, batches) = topology_a_batches(&topology_a(), 4096);
        assert_eq!(records.len(), 68_608);
        assert_eq!(batches.len(), 68_608usize.div_ceil(4096));
    }

    #[test]
    fn providers_share_about_thirty_percent() {
        let (_, a) = provider_records(9, 0);
        let (_, b) = provider_records(9, 1);
        let a = indaas_pia::normalize::normalize_set(a.iter().map(String::as_str));
        let b = indaas_pia::normalize::normalize_set(b.iter().map(String::as_str));
        let shared = a.iter().filter(|c| b.contains(c)).count();
        assert_eq!(a.len(), PSOP_COMPONENTS);
        assert_eq!(shared, PSOP_SHARED);
    }
}
