//! End-to-end private independence auditing: provider component sets →
//! normalization → (MinHash) → P-SOP → Jaccard ranking, across crates.

use std::collections::BTreeSet;

use indaas::bigint::BigUint;
use indaas::crypto::{sha256, MODP_1024_HEX};
use indaas::deps::DepDb;
use indaas::pia::jaccard::jaccard_exact;
use indaas::pia::normalize::normalize_set;
use indaas::pia::{minhash_signature, rank_deployments, run_psop, PsopConfig, PsopParty};
use indaas::simnet::SimNetwork;
use indaas::topology::clouds::{cloud_software_records, cloud_stacks};

/// P-SOP over the four case-study clouds yields exactly the plaintext
/// Jaccard similarities — privacy costs no accuracy at this level.
#[test]
fn psop_matches_plaintext_jaccard_on_cloud_stacks() {
    let stacks = cloud_stacks();
    for pair in [(0usize, 1usize), (1, 2), (0, 3)] {
        let a = normalize_set(stacks[pair.0].packages.iter().map(String::as_str));
        let b = normalize_set(stacks[pair.1].packages.iter().map(String::as_str));
        let exact = {
            let sa: BTreeSet<String> = a.iter().cloned().collect();
            let sb: BTreeSet<String> = b.iter().cloned().collect();
            jaccard_exact(&[sa, sb])
        };
        let mut net = SimNetwork::new(3);
        let out = run_psop(&[a, b], &PsopConfig::default(), &mut net);
        assert!(
            (out.jaccard - exact).abs() < 1e-12,
            "pair {pair:?}: psop={} exact={exact}",
            out.jaccard
        );
    }
}

/// The full Table 2 pipeline: all 2-way and 3-way rankings are complete,
/// ascending, and identify the Erlang-sharing pair as least independent.
#[test]
fn table2_rankings_complete_and_ordered() {
    let providers: Vec<(String, Vec<String>)> = cloud_stacks()
        .into_iter()
        .map(|s| (s.name, normalize_set(s.packages.iter().map(String::as_str))))
        .collect();
    let two = rank_deployments(&providers, 2, None, &PsopConfig::default());
    let three = rank_deployments(&providers, 3, None, &PsopConfig::default());
    assert_eq!(two.len(), 6);
    assert_eq!(three.len(), 4);
    for w in two.windows(2) {
        assert!(w[0].jaccard <= w[1].jaccard);
    }
    assert_eq!(two[5].providers, vec!["Cloud1", "Cloud4"]); // Riak + CouchDB.
    assert_eq!(three[0].providers, vec!["Cloud2", "Cloud3", "Cloud4"]);
}

/// MinHash-compressed PIA approximates the exact ranking within the
/// O(1/sqrt(m)) error bound and keeps the worst pair last.
#[test]
fn minhash_pia_tracks_exact() {
    let providers: Vec<(String, Vec<String>)> = cloud_stacks()
        .into_iter()
        .map(|s| (s.name, normalize_set(s.packages.iter().map(String::as_str))))
        .collect();
    let exact = rank_deployments(&providers, 2, None, &PsopConfig::default());
    let approx = rank_deployments(&providers, 2, Some(512), &PsopConfig::default());
    assert_eq!(
        approx.last().unwrap().providers,
        exact.last().unwrap().providers
    );
    // Values within the estimator's error budget.
    for r in &approx {
        let e = exact.iter().find(|x| x.providers == r.providers).unwrap();
        assert!(
            (r.jaccard - e.jaccard).abs() < 0.15,
            "{:?}: approx {} vs exact {}",
            r.providers,
            r.jaccard,
            e.jaccard
        );
    }
}

/// The DepDB component-set extraction feeds PIA directly: records in,
/// similarity out.
#[test]
fn depdb_component_sets_feed_psop() {
    let db = DepDb::from_records(cloud_software_records());
    let hosts: Vec<String> = db.hosts().into_iter().collect();
    assert_eq!(hosts.len(), 4);
    let sets: Vec<Vec<String>> = hosts
        .iter()
        .map(|h| db.component_set_of(h).into_iter().collect())
        .collect();
    let mut net = SimNetwork::new(3);
    let out = run_psop(
        &[sets[0].clone(), sets[1].clone()],
        &PsopConfig::default(),
        &mut net,
    );
    assert!(out.union > 0);
    assert!(out.intersection > 0, "all stacks share base packages");
}

/// Signatures are deterministic: two providers computing MinHash
/// independently over equal sets produce identical signatures (the
/// protocol depends on this).
#[test]
fn minhash_deterministic_across_parties() {
    let set = normalize_set(["libc6-2.19", "openssl-1.0.1f", "zlib1g-1.2.8"]);
    assert_eq!(minhash_signature(&set, 64), minhash_signature(&set, 64));
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// P-SOP ciphertexts are pinned byte for byte: for a fixed seed and
/// dataset, the round-0 payload and the successor's relay of it hash to
/// digests recorded from an earlier implementation of the modular
/// arithmetic. Any change to the exponentiation that alters a ciphertext,
/// and so a wire byte, fails here.
#[test]
fn psop_ciphertexts_are_pinned() {
    let config = PsopConfig {
        seed: 0x1dea_5eed,
        multiset: true,
    };
    let own: Vec<String> = ["libc6", "openssl", "zlib1g", "nginx", "libc6"]
        .map(String::from)
        .to_vec();
    let mut first = PsopParty::new(0, 2, &config);
    let mut second = PsopParty::new(1, 2, &config);
    assert_eq!(first.successor(), second.index());
    let initial = first.initial_payload(&own, config.multiset);
    let relayed = second.relay(&initial);
    assert_eq!(initial.len(), 5 * 128);
    assert_eq!(
        hex(&sha256(&initial)),
        "471ff512cb20a543fc0e336a4bd38d485e45910821658990c15b563e743d4556"
    );
    assert_eq!(
        hex(&sha256(&relayed)),
        "573943672de644ac102cec0a90a96a5a22fd562c3de2c6b7abd868df23955c84"
    );
}

/// Known answers in the RFC 3526 1024-bit group `p`: Fermat
/// (`a^(p-1) = 1`) and Euler's criterion (`a^((p-1)/2)` is `1` or `p-1`)
/// for pseudo-random full-width bases `a` (SHA-256 output, reduced mod p).
#[test]
fn rfc3526_fermat_and_euler_known_answers() {
    let p = BigUint::from_hex(MODP_1024_HEX).unwrap();
    let one = BigUint::one();
    let p_minus_1 = &p - &one;
    let half = &p_minus_1 >> 1;
    let mut residues = 0;
    for i in 0u8..16 {
        let bytes: Vec<u8> = (0u8..4).flat_map(|j| sha256(&[i, j])).collect();
        let a = BigUint::from_bytes_be(&bytes).rem(&p);
        assert!(!a.is_zero());
        assert_eq!(a.modpow(&p_minus_1, &p), one, "Fermat fails for {a:?}");
        let euler = a.modpow(&half, &p);
        assert!(euler == one || euler == p_minus_1, "Euler fails for {a:?}");
        residues += usize::from(euler == one);
    }
    // Both quadratic residues and non-residues occur among 16 draws.
    assert!(residues > 0 && residues < 16, "{residues} residues of 16");
}
