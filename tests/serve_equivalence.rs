//! The serve layer's contract: every reply — warm or cold, solo or
//! concurrent, before or after eviction, micro-batched or not — is
//! bit-identical to a cold single-shot `hh_cpu` run on a fresh
//! `HeteroContext`. If serving ever changes a bit of the product, the
//! simulated profile, the thresholds, or the merge counters, these tests
//! fail.

use std::sync::Arc;

use hetero_spmm::prelude::*;
use hetero_spmm::serve::{replay::diff_outputs, MultiplyRequest, ServiceConfig, SpmmService};

fn small_service() -> SpmmService {
    SpmmService::new(ServiceConfig {
        host_threads: Some(2),
        ..ServiceConfig::default()
    })
}

fn gen(service: &SpmmService, alias: &str, nnz: usize, seed: u64) {
    service.load_generated(Some(alias), 300, nnz, 2.4, seed, 1);
}

/// Cold single-shot reference: fresh context, fresh Phase I, nothing
/// shared.
fn cold_reference(service: &SpmmService, a: &str, b: &str, scale: usize) -> SpmmOutput<f64> {
    let a_key = service.registry().resolve(a).expect("operand A registered");
    let b_key = service.registry().resolve(b).expect("operand B registered");
    let (a, _) = service.registry().get(a_key).unwrap();
    let (b, _) = service.registry().get(b_key).unwrap();
    let mut ctx = HeteroContext::new(Platform::scaled(scale));
    hh_cpu(&mut ctx, &a, &b, &HhCpuConfig::default())
}

#[test]
fn warm_replies_are_bit_identical_to_cold_single_shot_runs() {
    let service = small_service();
    gen(&service, "g1", 1_400, 5);
    gen(&service, "g2", 1_700, 6);

    // A = B and A != B, each served cold then warm
    for (a, b) in [("g1", "g1"), ("g1", "g2"), ("g2", "g2")] {
        let req = MultiplyRequest::new(a, b);
        let cold = service.multiply(&req).unwrap();
        let warm = service.multiply(&req).unwrap();
        assert!(!cold.warm, "{a}x{b}: first request must build artifacts");
        assert!(warm.warm, "{a}x{b}: second request must hit the cache");
        diff_outputs(&cold.output, &warm.output)
            .unwrap_or_else(|d| panic!("{a}x{b} warm vs cold: {d}"));
        let reference = cold_reference(&service, a, b, cold.scale);
        diff_outputs(&warm.output, &reference)
            .unwrap_or_else(|d| panic!("{a}x{b} warm vs single-shot: {d}"));
    }
    let stats = service.stats();
    assert_eq!(stats.artifacts.entries, 3);
    assert_eq!(stats.artifacts.hits, 3);
}

#[test]
fn registry_dedups_content_and_serves_spec_reloads_warm() {
    let service = small_service();
    let first = service.load_generated(Some("g"), 300, 1_200, 2.4, 9, 1);
    // same spec → warm, no regeneration; same content under a new alias →
    // dedup to the same key
    let respec = service.load_generated(Some("g"), 300, 1_200, 2.4, 9, 1);
    let realias = service.load_generated(Some("g-alias"), 300, 1_200, 2.4, 9, 1);
    assert!(!first.warm);
    assert!(respec.warm);
    assert!(realias.warm);
    assert_eq!(first.key, respec.key);
    assert_eq!(first.key, realias.key);
    let stats = service.stats();
    assert_eq!(stats.registry.entries, 1);
    assert!(stats.registry.spec_hits >= 2);

    // both tokens multiply to the same bits
    let via_alias = service.multiply(&MultiplyRequest::new("g", "g")).unwrap();
    let via_new = service
        .multiply(&MultiplyRequest::new("g-alias", "g-alias"))
        .unwrap();
    assert!(via_new.warm, "same product under another alias is warm");
    diff_outputs(&via_alias.output, &via_new.output).unwrap();
}

#[test]
fn concurrent_sessions_stay_bit_identical() {
    let service = Arc::new(SpmmService::new(ServiceConfig {
        host_threads: Some(2),
        max_inflight: 4,
        queue_depth: 64,
        ..ServiceConfig::default()
    }));
    gen(&service, "c1", 1_200, 11);
    gen(&service, "c2", 1_500, 12);
    let products = [("c1", "c1"), ("c1", "c2"), ("c2", "c2")];
    let references: Vec<SpmmOutput<f64>> = products
        .iter()
        .map(|(a, b)| cold_reference(&service, a, b, 1))
        .collect();

    for sessions in [1usize, 2, 8] {
        let handles: Vec<_> = (0..sessions)
            .map(|s| {
                let service = service.clone();
                std::thread::spawn(move || {
                    // sessions walk the products in different orders to
                    // interleave cache builds and hits
                    (0..products.len())
                        .map(|i| {
                            let (a, b) = products[(i + s) % products.len()];
                            let out = service.multiply(&MultiplyRequest::new(a, b)).unwrap();
                            ((i + s) % products.len(), out)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (slot, reply) in handle.join().expect("session thread") {
                diff_outputs(&reply.output, &references[slot])
                    .unwrap_or_else(|d| panic!("{sessions} sessions, product {slot}: {d}"));
            }
        }
    }
}

#[test]
fn eviction_purges_artifacts_and_reloads_stay_bit_identical() {
    let probe = scale_free_matrix::<f64>(&GeneratorConfig::square_power_law(300, 1_400, 2.4, 21));
    let cap = probe.byte_size() + probe.byte_size() / 2; // holds one, not two
    let service = SpmmService::new(ServiceConfig {
        host_threads: Some(2),
        registry_cap_bytes: cap,
        ..ServiceConfig::default()
    });

    gen(&service, "e1", 1_400, 21);
    let before = service.multiply(&MultiplyRequest::new("e1", "e1")).unwrap();
    let reference = cold_reference(&service, "e1", "e1", 1);
    diff_outputs(&before.output, &reference).unwrap();

    // loading e2 evicts e1 (LRU) and must purge e1's cached artifacts
    gen(&service, "e2", 1_500, 22);
    assert!(service.registry().resolve("e1").is_none(), "e1 evicted");
    let stats = service.stats();
    assert_eq!(stats.registry.evictions, 1);
    assert!(
        stats.artifacts.purged >= 1,
        "artifacts must die with operands"
    );
    assert!(
        service.multiply(&MultiplyRequest::new("e1", "e1")).is_err(),
        "evicted operand is unknown"
    );

    // reloading e1 (same spec regenerates the same bits) serves again,
    // rebuilding artifacts from scratch, still bit-identical
    gen(&service, "e1", 1_400, 21);
    let after = service.multiply(&MultiplyRequest::new("e1", "e1")).unwrap();
    assert!(!after.warm, "purged artifacts cannot be hit");
    diff_outputs(&after.output, &reference).unwrap();
}

#[test]
fn micro_batched_replies_match_individual_requests() {
    let service = small_service();
    let individual = small_service();
    for svc in [&service, &individual] {
        gen(svc, "b1", 1_100, 31);
        gen(svc, "b2", 1_300, 32);
        // big enough to miss the micro-batch small-product cutoff
        svc.load_generated(Some("big"), 4_000, 60_000, 2.2, 33, 1);
    }
    let requests: Vec<MultiplyRequest> = [
        ("b1", "b1"),
        ("b1", "b2"),
        ("big", "big"),
        ("b2", "b2"),
        ("b2", "b1"),
    ]
    .into_iter()
    .map(|(a, b)| MultiplyRequest::new(a, b))
    .collect();

    let batched = service.multiply_batch(&requests).unwrap();
    assert_eq!(batched.len(), requests.len());
    for (req, reply) in requests.iter().zip(batched) {
        let reply = reply.unwrap();
        let solo = individual.multiply(req).unwrap();
        diff_outputs(&reply.output, &solo.output)
            .unwrap_or_else(|d| panic!("{} x {}: batch vs solo: {d}", req.a, req.b));
    }

    // a batch with an unknown operand reports per-item errors, not failure
    let mixed = service
        .multiply_batch(&[
            MultiplyRequest::new("b1", "b1"),
            MultiplyRequest::new("ghost", "b1"),
        ])
        .unwrap();
    assert!(mixed[0].is_ok());
    assert!(mixed[1].is_err());
}
