//! Decision-process and damping micro-benchmarks: the per-update cost
//! inside a speaker.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use peering_bgp::{
    compare_routes, damping::DampingConfig, damping::DampingState, decision::best_route, AsPath,
    DecisionConfig, PathAttributes, PeerId, Prefix, Route, RouteSource,
};
use peering_netsim::{Asn, SimDuration, SimTime};
use std::sync::Arc;

fn candidates(n: usize) -> Vec<Route> {
    (0..n)
        .map(|i| Route {
            prefix: Prefix::v4(10, 0, 0, 0, 8),
            attrs: Arc::new(PathAttributes {
                as_path: AsPath::from_asns(
                    &(0..(2 + i % 5))
                        .map(|k| Asn(100 + k as u32))
                        .collect::<Vec<_>>(),
                ),
                local_pref: Some(100 + (i % 3) as u32),
                med: Some((i % 7) as u32),
                ..Default::default()
            }),
            peer: PeerId(i as u32),
            path_id: 0,
            source: RouteSource::Ebgp,
            igp_cost: (i % 11) as u32,
            learned_at: SimTime::ZERO,
            trace: None,
        })
        .collect()
}

fn bench_decision(c: &mut Criterion) {
    let cfg = DecisionConfig::default();
    let mut group = c.benchmark_group("decision");
    for n in [2usize, 16, 128, 669] {
        let cands = candidates(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_function(format!("best_of_{n}"), |b| {
            b.iter(|| best_route(cands.iter(), &cfg).cloned())
        });
    }
    // One comparison per iteration; without its own throughput the
    // pair would report the last `best_of_{n}` candidate count.
    let two = candidates(2);
    group.throughput(Throughput::Elements(1));
    group.bench_function("compare_pair", |b| {
        b.iter(|| compare_routes(&two[0], &two[1], &cfg))
    });
    group.finish();
}

fn bench_damping(c: &mut Criterion) {
    let cfg = DampingConfig::default();
    c.bench_function("damping_flap_cycle", |b| {
        b.iter(|| {
            let mut d = DampingState::new();
            let p = Prefix::v4(184, 164, 224, 0, 24);
            let mut now = SimTime::ZERO;
            for _ in 0..16 {
                now += SimDuration::from_secs(30);
                d.on_announce(p, now, &cfg);
                now += SimDuration::from_secs(30);
                d.on_withdraw(p, now, &cfg);
            }
            d.is_suppressed(&p, now, &cfg)
        })
    });
}

criterion_group!(benches, bench_decision, bench_damping);
criterion_main!(benches);
