//! `table-ingest`: one `Speaker` (the mux router) takes the whole table
//! of the `eval` preset (65,536 prefixes, the 1:8-scaled 2014 table) from
//! each of four upstream sessions, in 200-prefix UPDATEs, and exports to
//! eight identical-view client sessions; then the preferred upstream
//! withdraws its whole table.
//!
//! The `full` preset's 522,836-prefix table makes one pass take ~50 s
//! untraced and 80–110 s traced, which the benchmark's run budget cannot
//! hold next to internet-full; the eval table runs the same code per
//! route with a working set that still overflows the caches.
//!
//! There is no engine, no timer and no digest here: the work is the
//! Adj-RIB-In, the attribute interner, the decision process and export
//! staging. An operation is one UPDATE handed to `Speaker::on_message`,
//! timed with the handling of the outputs it returns; a pass's
//! convergence time is the sum over its UPDATEs.

use crate::report::{median, peak_rss_mb, quantile, Report, Rng};
use crate::trace::{Layer, Tracer};
use peering_bgp::message::OpenMessage;
use peering_bgp::{
    Action, AsPath, Asn, BgpMessage, Match, Nlri, Output, PathAttributes, PeerConfig, PeerId,
    Policy, Prefix, Speaker, SpeakerConfig, UpdateMessage,
};
use peering_netsim::SimTime;
use peering_telemetry::Telemetry;
use peering_topology::{Internet, InternetConfig};
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Upstream sessions, each sending the whole table. Upstream 0 is the
/// preferred (primary transit) one.
const UPSTREAMS: usize = 4;
/// Identical-view client sessions the router exports to.
const CLIENTS: usize = 8;
/// Prefixes per UPDATE.
const BATCH: usize = 200;
/// Set-ups timed per run; the median is reported.
const SETUP_REPS: usize = 5;
/// LOCAL_PREF the router gives routes from the preferred upstream.
const PRIMARY_PREF: u32 = 200;
/// Share of the batches whose announce rounds the traced run also
/// replays untraced, to measure the tracing overhead.
const HEAD_SHARE: usize = 4;

/// The generated input: the table, and one attribute set per
/// (upstream, batch).
struct Inputs {
    table: Vec<Prefix>,
    attrs: Vec<Vec<Arc<PathAttributes>>>,
}

impl Inputs {
    /// The table of the `eval` preset for `seed`, with per-upstream
    /// AS paths: the upstream, zero to two transit hops drawn from the
    /// seed, and the origin AS of the batch.
    fn generate(seed: u64) -> Inputs {
        let net = Internet::build(InternetConfig::eval(seed));
        let mut table = Vec::with_capacity(net.graph.total_prefixes());
        let mut origins = Vec::with_capacity(table.capacity());
        for (_, info) in net.graph.infos() {
            for p in &info.prefixes {
                table.push(*p);
                origins.push(info.asn);
            }
        }
        let mut rng = Rng::new(seed, "table-ingest/paths");
        let attrs = (0..UPSTREAMS)
            .map(|u| {
                (0..table.len().div_ceil(BATCH))
                    .map(|b| {
                        let mut path = vec![upstream_asn(u)];
                        for _ in 0..rng.below(3) {
                            path.push(Asn(3000 + rng.below(700) as u32));
                        }
                        path.push(origins[b * BATCH]);
                        Arc::new(PathAttributes {
                            as_path: AsPath::from_asns(&path),
                            next_hop: Ipv4Addr::new(10, 1, 0, u as u8),
                            ..Default::default()
                        })
                    })
                    .collect()
            })
            .collect();
        Inputs { table, attrs }
    }

    fn batches(&self) -> usize {
        self.attrs[0].len()
    }

    fn nlri(&self, b: usize) -> Vec<Nlri> {
        let end = ((b + 1) * BATCH).min(self.table.len());
        self.table[b * BATCH..end]
            .iter()
            .map(|p| Nlri::plain(*p))
            .collect()
    }
}

fn upstream_asn(u: usize) -> Asn {
    Asn(1000 + u as u32)
}

fn client_peer(c: usize) -> PeerId {
    PeerId((UPSTREAMS + c) as u32)
}

/// The mux router with every session established.
fn router(telemetry: Option<&Telemetry>, tracer: Option<&Tracer>) -> Speaker {
    let mut s = Speaker::new(SpeakerConfig::new(Asn::PEERING, Ipv4Addr::new(10, 0, 0, 1)));
    if let Some(t) = telemetry {
        s.set_telemetry(t.clone());
    }
    let now = SimTime::ZERO;
    let sessions = (0..UPSTREAMS)
        .map(|u| {
            let mut cfg =
                PeerConfig::new(PeerId(u as u32), upstream_asn(u)).export(Policy::reject_all());
            if u == 0 {
                cfg = cfg.import(Policy::accept_all().rule(
                    Match::Any,
                    vec![Action::SetLocalPref(PRIMARY_PREF), Action::Accept],
                ));
            }
            (cfg, upstream_asn(u))
        })
        .chain((0..CLIENTS).map(|c| {
            let asn = Asn(65001 + c as u32);
            (PeerConfig::new(client_peer(c), asn), asn)
        }));
    for (cfg, asn) in sessions {
        let id = cfg.id;
        s.add_peer(cfg);
        let start = Instant::now();
        s.start_peer(id, now);
        let open = OpenMessage::new(asn, 90, Ipv4Addr::new(10, 1, 1, id.0 as u8));
        s.on_message(id, BgpMessage::Open(open), now);
        s.on_message(id, BgpMessage::Keepalive, now);
        if let Some(tr) = tracer {
            tr.close(Layer::Session, start, 3);
        }
    }
    s
}

/// What one pass over the workload measured.
#[derive(Default)]
struct Pass {
    /// Seconds per UPDATE, announce phase then fail-over phase.
    updates: Vec<f64>,
    /// Seconds of UPDATE handling in the announce phase.
    announce_s: f64,
    /// Seconds of UPDATE handling in the fail-over phase.
    failover_s: f64,
    /// UPDATE messages the router sent in reply.
    sends: u64,
    /// Peak resident memory once every upstream's table is held.
    peak_rss_mb: f64,
    /// Modelled table bytes and distinct attribute sets at that point
    /// (traced passes only).
    table: (usize, usize),
    /// Wall seconds from the start of the pass to the end of the
    /// announce rounds of the first [`HEAD_SHARE`] of the batches.
    head_wall: f64,
}

/// Feed one UPDATE and consume its outputs; returns the UPDATEs sent.
fn feed(s: &mut Speaker, from: PeerId, update: UpdateMessage, tracer: Option<&Tracer>) -> u64 {
    let prefixes = (update.announced.len() + update.withdrawn.len()) as u64;
    let start = Instant::now();
    let outputs = s.on_message(from, BgpMessage::Update(update), SimTime::from_secs(1));
    if let Some(tr) = tracer {
        tr.close(Layer::Update, start, prefixes);
    }
    let start = Instant::now();
    let sends = outputs
        .iter()
        .filter(|o| matches!(o, Output::Send(_, BgpMessage::Update(_))))
        .count() as u64;
    drop(outputs);
    if let Some(tr) = tracer {
        tr.close(Layer::Route, start, sends);
    }
    sends
}

/// Time `f` as a span of `layer` when tracing.
fn span<T>(tracer: Option<&Tracer>, layer: Layer, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    if let Some(tr) = tracer {
        tr.close(layer, start, 1);
    }
    out
}

/// Run both phases, checking the tables after each. Peak memory is read
/// before the first check, whose Adj-RIB-Out copies are the benchmark's
/// and not the workload's.
fn pass(s: &mut Speaker, inputs: &Inputs, report: &mut Report, tracer: Option<&Tracer>) -> Pass {
    let mut out = Pass::default();
    let batches = inputs.batches();
    let start = Instant::now();
    for b in 0..batches {
        if b == batches / HEAD_SHARE {
            out.head_wall = start.elapsed().as_secs_f64();
        }
        for u in 0..UPSTREAMS {
            let update = span(tracer, Layer::Input, || {
                UpdateMessage::announce(inputs.attrs[u][b].clone(), inputs.nlri(b))
            });
            let start = Instant::now();
            out.sends += feed(s, PeerId(u as u32), update, tracer);
            let secs = start.elapsed().as_secs_f64();
            out.updates.push(secs);
            out.announce_s += secs;
        }
    }
    out.peak_rss_mb = peak_rss_mb();
    if tracer.is_some() {
        out.table = span(tracer, Layer::Measure, || {
            (s.table_memory(), s.interner_stats().0)
        });
    }
    span(tracer, Layer::Check, || check_announced(s, inputs, report));

    for b in 0..batches {
        let update = span(tracer, Layer::Input, || {
            UpdateMessage::withdraw(inputs.nlri(b))
        });
        let start = Instant::now();
        out.sends += feed(s, PeerId(0), update, tracer);
        let secs = start.elapsed().as_secs_f64();
        out.updates.push(secs);
        out.failover_s += secs;
    }
    span(tracer, Layer::Check, || {
        check_failed_over(s, inputs, report)
    });
    out
}

/// After the announce phase the Loc-RIB holds exactly the table, every
/// best route comes from the preferred upstream, and every client's
/// Adj-RIB-Out holds the table too. One operation per announced route.
fn check_announced(s: &Speaker, inputs: &Inputs, report: &mut Report) {
    let n = inputs.table.len();
    report.attempted += (UPSTREAMS * n) as u64;
    let rib = s.loc_rib();
    report.require(rib.len() == n, || {
        format!("Loc-RIB holds {} routes for a {n}-prefix table", rib.len())
    });
    for p in &inputs.table {
        match rib.get(p) {
            Some(r) if r.peer == PeerId(0) => {}
            Some(r) => report.fail(format!(
                "{p:?}: best route from {:?}, not upstream 0",
                r.peer
            )),
            None => report.fail(format!("{p:?}: missing from the Loc-RIB")),
        }
    }
    for c in 0..CLIENTS {
        let out = s
            .adj_rib_out(client_peer(c))
            .expect("client session exists");
        report.require(out.len() == n, || {
            format!("client {c} Adj-RIB-Out holds {} routes for {n}", out.len())
        });
        for p in &inputs.table {
            if out.paths(p).next().is_none() {
                report.fail(format!("{p:?}: missing from client {c}'s Adj-RIB-Out"));
            }
        }
    }
}

/// After fail-over no best route points at the withdrawn upstream and
/// the table is still whole. One operation per withdrawn route.
fn check_failed_over(s: &Speaker, inputs: &Inputs, report: &mut Report) {
    let n = inputs.table.len();
    report.attempted += n as u64;
    let rib = s.loc_rib();
    report.require(rib.len() == n, || {
        format!("Loc-RIB holds {} routes after fail-over for {n}", rib.len())
    });
    for p in &inputs.table {
        match rib.get(p) {
            Some(r) if r.peer != PeerId(0) => {}
            Some(_) => report.fail(format!(
                "{p:?}: best route still via the withdrawn upstream"
            )),
            None => report.fail(format!("{p:?}: lost in fail-over")),
        }
    }
}

/// Generate the inputs and bring the router up: the set-up.
fn set_up(seed: u64, setups: &mut Vec<f64>) -> (Inputs, Speaker) {
    let start = Instant::now();
    let inputs = Inputs::generate(seed);
    let s = router(None, None);
    setups.push(start.elapsed().as_secs_f64());
    (inputs, s)
}

/// End-to-end run: set up several times, then passes over the table on
/// fresh routers until the time budget is spent (at least one).
pub fn untraced(seed: u64, budget: Duration) -> Report {
    let mut report = Report::default();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for _ in 1..SETUP_REPS {
        drop(set_up(seed, &mut setups));
    }
    let (inputs, mut s) = set_up(seed, &mut setups);
    let mut converges = Vec::new();
    let mut peak = 0.0f64;
    let measuring = Instant::now();
    loop {
        let p = pass(&mut s, &inputs, &mut report, None);
        note_pass(&mut report, &inputs, &p);
        converges.push(p.announce_s + p.failover_s);
        peak = peak.max(p.peak_rss_mb);
        if measuring.elapsed() >= budget {
            break;
        }
        drop(s);
        s = router(None, None);
    }
    report.set("setup_s", median(&setups));
    report.set("converge_s", median(&converges));
    report.set("peak_rss_mb", peak);
    report.note(format!(
        "samples setup={} passes={}",
        setups.len(),
        converges.len()
    ));
    report
}

/// Print the figures of one pass that are read but not gated.
fn note_pass(report: &mut Report, inputs: &Inputs, p: &Pass) {
    let n = inputs.table.len() as f64;
    let ms: Vec<f64> = p.updates.iter().map(|s| s * 1e3).collect();
    report.note(format!(
        "table prefixes={} updates={} sends={}",
        inputs.table.len(),
        p.updates.len(),
        p.sends
    ));
    report.info(
        "ingest_routes_per_s",
        UPSTREAMS as f64 * n / p.announce_s,
        "routes/s",
    );
    report.info("failover_routes_per_s", n / p.failover_s, "routes/s");
    report.info("update_p50_ms", quantile(&ms, 0.5), "ms");
    report.info("update_p90_ms", quantile(&ms, 0.9), "ms");
}

/// Wall seconds of the announce rounds of the first [`HEAD_SHARE`] of
/// the batches on a fresh, untraced router.
fn head_wall(inputs: &Inputs) -> f64 {
    let mut s = router(None, None);
    let start = Instant::now();
    for b in 0..inputs.batches() / HEAD_SHARE {
        for u in 0..UPSTREAMS {
            let update = UpdateMessage::announce(inputs.attrs[u][b].clone(), inputs.nlri(b));
            feed(&mut s, PeerId(u as u32), update, None);
        }
    }
    start.elapsed().as_secs_f64()
}

/// Traced run: a pass with a span around every call and telemetry
/// attached to the router, after an untraced replay of its head for
/// the overhead ratio.
pub fn traced(seed: u64) -> Report {
    let mut report = Report::default();
    let inputs = Inputs::generate(seed);
    let untraced_head = head_wall(&inputs);

    let tracer = Tracer::default();
    let telemetry = Telemetry::new();
    let mut s = router(Some(&telemetry), Some(&tracer));
    let start = Instant::now();
    let p = pass(&mut s, &inputs, &mut report, Some(&tracer));
    let wall = start.elapsed().as_secs_f64();
    note_pass(&mut report, &inputs, &p);

    let snap = telemetry.snapshot();
    let prefixes = tracer.units(Layer::Update) as f64;
    report.set(
        "bgp.speaker.session_msgs",
        tracer.units(Layer::Session) as f64,
    );
    report.set("bgp.speaker.session_s", tracer.secs(Layer::Session));
    report.set_bgp_counters(&snap);
    report.set("bgp.speaker.updates", tracer.count(Layer::Update) as f64);
    report.set("bgp.speaker.update_prefixes", prefixes);
    report.set("bgp.speaker.update_s", tracer.secs(Layer::Update));
    report.set(
        "bgp.speaker.update_ns_per_prefix",
        tracer.secs(Layer::Update) * 1e9 / prefixes.max(1.0),
    );
    report.set("bench.route_s", tracer.secs(Layer::Route));
    report.set_table_memory(p.table.0, p.table.1, p.peak_rss_mb);
    // Session spans ran before the timed pass began.
    report.set(
        "trace.unattributed_ratio",
        (wall - (tracer.attributed_secs() - tracer.secs(Layer::Session))).max(0.0) / wall,
    );
    report.set("trace.overhead_ratio", p.head_wall / untraced_head);
    report.notes.extend(tracer.table());
    report
}
