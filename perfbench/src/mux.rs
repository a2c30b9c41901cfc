//! `mux-tenants`: a `PerPeerSessions` mux with 12 upstreams and 64
//! tenants on `peering-emulation`. Each upstream announces 24
//! routes, the tenants (in a seeded order, four rounds) each announce
//! and then withdraw a seeded pool prefix, and the upstreams withdraw
//! their routes: 576 upstream operations and 512 tenant operations per
//! pass, each run to quiescence.
//!
//! A tenant operation's cost grows with the square of the tenant count
//! (every mux instance re-exports to every other tenant, and each of
//! them decides). At 256 tenants one operation takes 25-60 ms and its
//! time swings 2-3x with contention on the host between runs minutes
//! apart; at 64 it takes ~4 ms and a pass ~3.5 s, so a run holds several
//! passes on fresh deployments.
//!
//! A pass's convergence time is the sum of its operations' times.

use crate::report::{median, peak_rss_mb, quantile, Report, Rng};
use crate::trace::{Layer, Tracer};
use peering_core::{MuxDesign, MuxHarness, MuxScaleConfig, RouteChange};
use peering_netsim::Prefix;
use peering_telemetry::Telemetry;
use peering_workloads::mux_scale::{no_transit_export, upstream_prefix};
use std::time::{Duration, Instant};

const UPSTREAMS: usize = 12;
const TENANTS: usize = 64;
/// Announce-and-withdraw rounds every tenant makes per pass.
const TENANT_ROUNDS: usize = 4;
const ROUTES_PER_UPSTREAM: usize = 24;
/// Set-ups timed per run; the median is reported.
const SETUP_REPS: usize = 15;
/// /24s in the PEERING pool 184.164.224.0/19.
const POOL_24S: u64 = 32;

/// One operation of the workload, in order.
#[derive(Clone, Copy)]
enum Op {
    UpstreamAnnounce(usize, Prefix),
    UpstreamWithdraw(usize, Prefix),
    Tenant(usize, RouteChange),
}

/// The operation sequence for `seed`: upstream announcements, then
/// [`TENANT_ROUNDS`] rounds of each tenant (in a seeded order)
/// announcing and withdrawing a seeded pool prefix, then upstream
/// withdrawals.
fn ops(seed: u64) -> Vec<Op> {
    let mut rng = Rng::new(seed, "mux-tenants/ops");
    let upstream: Vec<(usize, Prefix)> = (0..ROUTES_PER_UPSTREAM)
        .flat_map(|r| (0..UPSTREAMS).map(move |u| (u, upstream_prefix(u, r))))
        .collect();
    let mut out: Vec<Op> = upstream
        .iter()
        .map(|&(u, p)| Op::UpstreamAnnounce(u, p))
        .collect();
    let mut tenants: Vec<usize> = (0..TENANTS).collect();
    for _ in 0..TENANT_ROUNDS {
        for i in (1..tenants.len()).rev() {
            tenants.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for &c in &tenants {
            let p = Prefix::v4(184, 164, 224 + rng.below(POOL_24S) as u8, 0, 24);
            out.push(Op::Tenant(c, RouteChange::Announce(p)));
            out.push(Op::Tenant(c, RouteChange::Withdraw(p)));
        }
    }
    out.extend(upstream.iter().map(|&(u, p)| Op::UpstreamWithdraw(u, p)));
    out
}

fn config(seed: u64) -> MuxScaleConfig {
    MuxScaleConfig::new(MuxDesign::PerPeerSessions)
        .upstreams(UPSTREAMS)
        .clients(TENANTS)
        .seed(seed)
        .client_export(no_transit_export())
}

/// Build the deployment; `fully_established` is part of set-up.
fn set_up(cfg: MuxScaleConfig, report: &mut Report) -> (MuxHarness, f64) {
    let start = Instant::now();
    let h = cfg.build();
    let up = h.fully_established();
    let secs = start.elapsed().as_secs_f64();
    report.require(up, || "mux deployment did not establish".into());
    (h, secs)
}

/// The route an operation leaves at the mux when it has converged.
fn expected(op: Op) -> (Prefix, bool) {
    match op {
        Op::UpstreamAnnounce(_, p) => (p, true),
        Op::UpstreamWithdraw(_, p) => (p, false),
        Op::Tenant(_, RouteChange::Announce(p)) => (p, true),
        Op::Tenant(_, RouteChange::Withdraw(p)) => (p, false),
    }
}

/// Check one converged operation; `forwarded` is `submit`'s verdict for
/// a tenant operation.
fn check_op(h: &MuxHarness, op: Op, forwarded: bool, report: &mut Report) {
    let (p, present) = expected(op);
    let ok = forwarded && h.mux_has_route(&p) == present;
    report.check(ok, || {
        format!("{p:?}: forwarded={forwarded}, mux route present should be {present}")
    });
}

/// A passive tenant (one that announces nothing at the moment) must see
/// every upstream route.
fn check_passive_view(h: &MuxHarness, report: &mut Report) {
    let passive = TENANTS - 1;
    for r in 0..ROUTES_PER_UPSTREAM {
        for u in 0..UPSTREAMS {
            let p = upstream_prefix(u, r);
            report.require(h.client_paths(passive, &p) > 0, || {
                format!("passive tenant {passive} has no path to {p:?}")
            });
        }
    }
}

/// Operation kinds, for per-kind timing.
const KINDS: [&str; 4] = [
    "upstream_announce",
    "upstream_withdraw",
    "tenant_announce",
    "tenant_withdraw",
];

fn kind(op: Op) -> usize {
    match op {
        Op::UpstreamAnnounce(..) => 0,
        Op::UpstreamWithdraw(..) => 1,
        Op::Tenant(_, RouteChange::Announce(_)) => 2,
        Op::Tenant(_, RouteChange::Withdraw(_)) => 3,
    }
}

/// Host seconds per operation, by kind (index into [`KINDS`]).
#[derive(Default)]
struct Samples([Vec<f64>; 4]);

/// Run every operation through the harness API, checking each; returns
/// the seconds the operations took.
fn pass(h: &mut MuxHarness, ops: &[Op], report: &mut Report, samples: &mut Samples) -> f64 {
    let mut total = 0.0;
    for (i, &op) in ops.iter().enumerate() {
        let start = Instant::now();
        let forwarded = match op {
            Op::UpstreamAnnounce(u, p) => {
                h.announce_from_upstream(u, p);
                true
            }
            Op::UpstreamWithdraw(u, p) => {
                h.withdraw_from_upstream(u, p);
                true
            }
            Op::Tenant(c, change) => h.submit(c, change).admitted(),
        };
        let secs = start.elapsed().as_secs_f64();
        samples.0[kind(op)].push(secs);
        total += secs;
        check_op(h, op, forwarded, report);
        if i + 1 == UPSTREAMS * ROUTES_PER_UPSTREAM {
            check_passive_view(h, report);
        }
    }
    total
}

/// Run every operation by hand through `emulation_mut()`, timing each
/// `Emulation::step`. This is what the harness calls do when no
/// containment engine is armed: originate or withdraw at the node, then
/// step to quiescence.
fn traced_pass(h: &mut MuxHarness, ops: &[Op], report: &mut Report, tr: &Tracer) -> f64 {
    let phase = Instant::now();
    for (i, &op) in ops.iter().enumerate() {
        let start = Instant::now();
        let (node, prefix, announce) = match op {
            Op::UpstreamAnnounce(u, p) => (h.upstream_node(u), p, true),
            Op::UpstreamWithdraw(u, p) => (h.upstream_node(u), p, false),
            Op::Tenant(c, RouteChange::Announce(p)) => (h.client_node(c), p, true),
            Op::Tenant(c, RouteChange::Withdraw(p)) => (h.client_node(c), p, false),
        };
        let emu = h.emulation_mut();
        if announce {
            emu.originate(node, prefix);
        } else {
            emu.withdraw(node, prefix);
        }
        loop {
            let step = Instant::now();
            let stepped = emu.step();
            tr.close(Layer::Step, step, 1);
            if !stepped {
                break;
            }
        }
        tr.close(Layer::Call, start, 1);
        let start = Instant::now();
        check_op(h, op, true, report);
        if i + 1 == UPSTREAMS * ROUTES_PER_UPSTREAM {
            check_passive_view(h, report);
        }
        tr.close(Layer::Check, start, 1);
    }
    phase.elapsed().as_secs_f64()
}

/// End-to-end run: set up several times, then passes over the operations
/// on fresh deployments until the time budget is spent (at least one).
pub fn untraced(seed: u64, budget: Duration) -> Report {
    let mut report = Report::default();
    let ops = ops(seed);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for _ in 1..SETUP_REPS {
        let (h, secs) = set_up(config(seed), &mut report);
        setups.push(secs);
        drop(h);
    }
    let mut samples = Samples::default();
    let mut converges = Vec::new();
    let measuring = Instant::now();
    while converges.is_empty() || measuring.elapsed() < budget {
        let (mut h, secs) = set_up(config(seed), &mut report);
        setups.push(secs);
        converges.push(pass(&mut h, &ops, &mut report, &mut samples));
    }
    report.set("setup_s", median(&setups));
    report.set("converge_s", median(&converges));
    report.set("peak_rss_mb", peak_rss_mb());
    for (name, secs) in KINDS.iter().zip(&samples.0) {
        report.info(&format!("{name}_p50_ms"), quantile(secs, 0.5) * 1e3, "ms");
        report.info(&format!("{name}_p90_ms"), quantile(secs, 0.9) * 1e3, "ms");
    }
    report.note(format!(
        "samples setup={} passes={} ops_per_pass={}",
        setups.len(),
        converges.len(),
        ops.len()
    ));
    report
}

/// Traced run: an untraced pass for reference, then a deployment built
/// with telemetry attached and driven step by step.
pub fn traced(seed: u64) -> Report {
    let mut report = Report::default();
    let ops = ops(seed);
    let (mut h, _) = set_up(config(seed), &mut report);
    let untraced_ops = pass(&mut h, &ops, &mut report, &mut Samples::default());
    drop(h);

    let telemetry = Telemetry::new();
    let (mut h, _) = set_up(config(seed).telemetry(telemetry.clone()), &mut report);
    let tracer = Tracer::default();
    let wall = traced_pass(&mut h, &ops, &mut report, &tracer);
    h.export_net_stats();

    let snap = telemetry.snapshot();
    let counter = |name: &str| snap.counter(name) as f64;
    let gauge = |name: &str| snap.gauge(name).unwrap_or(0) as f64;
    let emu = h.emulation();
    let daemons: Vec<_> = (0..emu.container_count())
        .filter_map(|i| emu.daemon(i))
        .collect();
    let table_bytes: usize = daemons.iter().map(|d| d.table_memory()).sum();
    let distinct: usize = daemons.iter().map(|d| d.interner_stats().0).sum();
    let steps = tracer.count(Layer::Step) as f64;
    report.set_bgp_counters(&snap);
    report.set("bgp.speaker.updates", counter("bgp.speaker.updates_in"));
    report.set_table_memory(table_bytes, distinct, peak_rss_mb());
    report.set("emulation.steps", steps);
    report.set("emulation.step_s", tracer.secs(Layer::Step));
    report.set(
        "emulation.ns_per_delivery",
        tracer.secs(Layer::Step) * 1e9 / steps.max(1.0),
    );
    report.set(
        "netsim.transport.delivered",
        gauge("netsim.transport.delivered"),
    );
    report.set(
        "netsim.transport.timers_fired",
        gauge("netsim.transport.timers_fired"),
    );
    report.set(
        "core.mux.harness_s",
        tracer.secs(Layer::Call) - tracer.secs(Layer::Step),
    );
    report.set(
        "trace.unattributed_ratio",
        (wall - tracer.attributed_secs()).max(0.0) / wall,
    );
    report.set(
        "trace.overhead_ratio",
        tracer.secs(Layer::Call) / untraced_ops,
    );
    report.notes.extend(tracer.table());
    report
}
