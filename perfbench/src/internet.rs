//! `internet-full`: converge the 2014 Internet (the `full` preset, six
//! beacon prefixes) on the sequential engine.
//!
//! The untraced run times `Internet::build` + `ScaleTopo::from_internet`
//! (set-up) and `ScaleTopo::run_engine_sequential` with the standard
//! checkpoints (convergence). The traced run hosts public `Speaker`s in
//! the benchmark's own `EngineNode`, wired the way `from_internet` wires
//! them, on `peering_netsim::run_sequential`, with a span around every
//! call into the speaker, and must reproduce the program run's
//! `EngineRun` exactly.

use crate::report::{median, peak_rss_mb, Report};
use crate::trace::{Layer, Tracer};
use peering_bench::scale::standard_checkpoints;
use peering_bgp::{
    Action, Asn, BgpMessage, Community, Match, Output, PeerConfig, PeerId, Policy, Prefix, Speaker,
    SpeakerConfig,
};
use peering_netsim::{run_sequential, EngineNode, EngineRun, NodeId, Outbox, SimDuration, SimTime};
use peering_telemetry::Telemetry;
use peering_topology::{AsIdx, Internet, InternetConfig, Relationship};
use peering_workloads::{ScaleMsg, ScaleTopo};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::net::Ipv4Addr;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Beacon prefixes originated across the graph.
const BEACONS: usize = 6;
/// Set-ups timed per run; the median is reported.
const SETUP_REPS: usize = 3;

fn build(seed: u64) -> (Internet, ScaleTopo) {
    let net = Internet::build(InternetConfig::full(seed));
    let topo = ScaleTopo::from_internet(&net, BEACONS);
    (net, topo)
}

/// What is wrong with a converged run, if anything.
fn run_problems(run: &EngineRun, checkpoints: &[SimTime]) -> Vec<String> {
    let horizon = *checkpoints.last().expect("standard checkpoints");
    let mut problems = Vec::new();
    if run.events == 0 {
        problems.push("engine processed no events".to_string());
    }
    if run.end_time >= horizon {
        problems.push(format!(
            "run did not quiesce before the checkpoint horizon ({:?} >= {horizon:?})",
            run.end_time
        ));
    }
    if run.checkpoints.len() != checkpoints.len() {
        problems.push(format!(
            "{} checkpoint digests for {} checkpoints",
            run.checkpoints.len(),
            checkpoints.len()
        ));
    }
    problems
}

/// End-to-end run: set up several times, then converge until the time
/// budget is spent (at least once). Each convergence is one operation;
/// every repeat must equal the first run bit for bit.
pub fn untraced(seed: u64, budget: Duration) -> Report {
    let mut report = Report::default();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut timed_build = || {
        let start = Instant::now();
        let built = build(seed);
        setups.push(start.elapsed().as_secs_f64());
        built
    };
    for _ in 1..SETUP_REPS {
        drop(timed_build());
    }
    let (net, topo) = timed_build();
    drop(net);
    report.note(format!(
        "world ases={} sessions={} beacons={}",
        topo.node_count(),
        topo.session_count(),
        topo.beacon_count()
    ));

    let checkpoints = standard_checkpoints();
    let mut converges = Vec::new();
    let mut first: Option<EngineRun> = None;
    let measuring = Instant::now();
    while converges.is_empty() || measuring.elapsed() < budget {
        let start = Instant::now();
        let run = topo.run_engine_sequential(&checkpoints, SimTime::MAX);
        converges.push(start.elapsed().as_secs_f64());
        let mut problems = run_problems(&run, &checkpoints);
        match &first {
            None => {
                report.note(format!(
                    "run events={} end_time_us={} final_digest={:016x}",
                    run.events,
                    run.end_time.as_micros(),
                    run.final_digest
                ));
                first = Some(run);
            }
            Some(f) if *f != run => problems.push(format!("repeat run differs: {run:?} vs {f:?}")),
            Some(_) => {}
        }
        report.check(problems.is_empty(), || problems.join("; "));
    }
    report.set("setup_s", median(&setups));
    report.set("converge_s", median(&converges));
    report.set("peak_rss_mb", peak_rss_mb());
    report.note(format!(
        "samples setup={} converge={}",
        setups.len(),
        converges.len()
    ));
    report
}

/// Traced run: the program's own run (with and without checkpoints)
/// for reference, then the hosted replica with spans.
pub fn traced(seed: u64) -> Report {
    let mut report = Report::default();
    let (net, topo) = build(seed);
    let checkpoints = standard_checkpoints();

    let start = Instant::now();
    let reference = topo.run_engine_sequential(&checkpoints, SimTime::MAX);
    let program_wall = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let bare = topo.run_engine_sequential(&[], SimTime::MAX);
    let bare_wall = start.elapsed().as_secs_f64();
    drop(topo);
    report
        .problems
        .extend(run_problems(&reference, &checkpoints));
    report.require(
        bare.events == reference.events && bare.final_digest == reference.final_digest,
        || "checkpoints changed the run".into(),
    );

    let specs = node_specs(&net, BEACONS);
    drop(net);
    let shared = Rc::new(Shared::default());
    let telemetry = Telemetry::new();
    let start = Instant::now();
    shared.tracer.exit();
    let hosted = run_sequential(
        specs.len(),
        |id| HostedNode::build(&specs[id.0 as usize], id, &shared, &telemetry),
        &checkpoints,
        SimTime::MAX,
    );
    // Whatever the engine did after the last hosted callback returned
    // (freeing its queues) is engine time too.
    shared.tracer.enter();
    let hosted_wall = start.elapsed().as_secs_f64();

    report.check(hosted == reference, || {
        format!("hosted run {hosted:?} differs from the program run {reference:?}")
    });
    report.note(format!(
        "run events={} end_time_us={} final_digest={:016x} program_wall_s={program_wall:.6} \
         no_checkpoint_wall_s={bare_wall:.6} hosted_wall_s={hosted_wall:.6}",
        reference.events,
        reference.end_time.as_micros(),
        reference.final_digest
    ));

    let tr = &shared.tracer;
    let events = hosted.events as f64;
    let snap = telemetry.snapshot();
    let updates = tr.count(Layer::Update) as f64;
    let prefixes = tr.units(Layer::Update) as f64;
    report.set("netsim.engine.events", events);
    report.set("netsim.engine.self_s", tr.secs(Layer::Engine));
    report.set(
        "netsim.engine.ns_per_event",
        tr.secs(Layer::Engine) * 1e9 / events.max(1.0),
    );
    report.set("bgp.speaker.session_msgs", tr.units(Layer::Session) as f64);
    report.set("bgp.speaker.session_s", tr.secs(Layer::Session));
    report.set_bgp_counters(&snap);
    report.set("bgp.speaker.updates", updates);
    report.set("bgp.speaker.update_prefixes", prefixes);
    report.set("bgp.speaker.update_s", tr.secs(Layer::Update));
    report.set(
        "bgp.speaker.update_ns_per_prefix",
        tr.secs(Layer::Update) * 1e9 / prefixes.max(1.0),
    );
    report.set(
        "bgp.speaker.deadline_calls",
        tr.count(Layer::Deadline) as f64,
    );
    report.set("bgp.speaker.deadline_s", tr.secs(Layer::Deadline));
    report.set("bgp.speaker.ticks", tr.count(Layer::Tick) as f64);
    report.set("bgp.speaker.tick_s", tr.secs(Layer::Tick));
    report.set(
        "workloads.scale.digest_fold_s",
        (program_wall - bare_wall) / checkpoints.len() as f64,
    );
    report.set("bgp.speaker.build_s", tr.secs(Layer::Build));
    report.set("bgp.speaker.drop_s", tr.secs(Layer::Drop));
    report.set("bench.route_s", tr.secs(Layer::Route));
    report.set("bench.digest_s", tr.secs(Layer::Digest));
    report.set_table_memory(
        shared.table_bytes.get(),
        shared.distinct_attrs.get(),
        peak_rss_mb(),
    );
    report.set(
        "trace.unattributed_ratio",
        (hosted_wall - tr.attributed_secs()).max(0.0) / hosted_wall,
    );
    report.set("trace.overhead_ratio", hosted_wall / program_wall);
    report.notes.extend(tr.table());
    report
}

/// Base one-way link delay of the scale wiring.
const BASE_DELAY: SimDuration = SimDuration::from_millis(10);
/// Per-link delay spread of the scale wiring.
const DELAY_STEP: SimDuration = SimDuration::from_micros(250);
/// Route learned from a customer.
const TAG_CUSTOMER: Community = Community::new(65001, 1);
/// Route learned from a settlement-free peer.
const TAG_PEER: Community = Community::new(65001, 2);
/// Route learned from a transit provider.
const TAG_PROVIDER: Community = Community::new(65001, 3);

/// The neighbor's role as seen from the local AS.
#[derive(Clone, Copy)]
enum Role {
    Customer,
    Peer,
    Provider,
}

/// One hosted speaker's configuration: sessions as `(config, neighbor
/// node, neighbor's PeerId for this session, one-way delay)`.
struct NodeSpec {
    cfg: SpeakerConfig,
    peers: Vec<(PeerConfig, NodeId, PeerId, SimDuration)>,
    origins: Vec<Prefix>,
}

fn link_delay(a: usize, b: usize) -> SimDuration {
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    let k = (lo.wrapping_mul(7).wrapping_add(hi.wrapping_mul(13))) % 5;
    BASE_DELAY + DELAY_STEP.saturating_mul(k as u64)
}

fn session_config(id: PeerId, neighbor: Asn, role: Role) -> PeerConfig {
    let (local_pref, tag) = match role {
        Role::Customer => (200, TAG_CUSTOMER),
        Role::Peer => (100, TAG_PEER),
        Role::Provider => (50, TAG_PROVIDER),
    };
    let import = Policy::accept_all().rule(
        Match::Any,
        vec![
            Action::SetLocalPref(local_pref),
            Action::AddCommunity(tag),
            Action::Accept,
        ],
    );
    let export = match role {
        Role::Customer => Policy::accept_all(),
        Role::Peer | Role::Provider => Policy::accept_all().rule(
            Match::AnyOf(vec![
                Match::HasCommunity(TAG_PEER),
                Match::HasCommunity(TAG_PROVIDER),
            ]),
            vec![Action::Reject],
        ),
    };
    PeerConfig::new(id, neighbor).import(import).export(export)
}

/// The Gao–Rexford wiring of a generated Internet, built from the same
/// public inputs `ScaleTopo::from_internet` uses.
fn node_specs(net: &Internet, beacons: usize) -> Vec<NodeSpec> {
    let g = &net.graph;
    let mut specs: Vec<NodeSpec> = g
        .indices()
        .map(|u| {
            let i = u.i();
            let mut cfg = SpeakerConfig::new(
                g.info(u).asn,
                Ipv4Addr::new(10, (i >> 16) as u8, (i >> 8) as u8, i as u8),
            );
            cfg.hold_time = SimDuration::ZERO;
            NodeSpec {
                cfg,
                peers: Vec::new(),
                origins: Vec::new(),
            }
        })
        .collect();
    let mut wire = |a: AsIdx, b: AsIdx, role_a: Role, role_b: Role| {
        let (ai, bi) = (a.i(), b.i());
        let delay = link_delay(ai, bi);
        let pa = PeerId(specs[ai].peers.len() as u32);
        let pb = PeerId(specs[bi].peers.len() as u32);
        let mut cfg_a = session_config(pa, g.info(b).asn, role_a);
        let mut cfg_b = session_config(pb, g.info(a).asn, role_b);
        if ai < bi {
            cfg_b = cfg_b.passive();
        } else {
            cfg_a = cfg_a.passive();
        }
        specs[ai].peers.push((cfg_a, NodeId(bi as u32), pb, delay));
        specs[bi].peers.push((cfg_b, NodeId(ai as u32), pa, delay));
    };
    for (a, b, rel) in net.sessions() {
        match rel {
            Relationship::CustomerToProvider => wire(a, b, Role::Provider, Role::Customer),
            Relationship::PeerToPeer => wire(a, b, Role::Peer, Role::Peer),
        }
    }
    let owners: Vec<AsIdx> = g
        .indices()
        .filter(|&u| !g.info(u).prefixes.is_empty())
        .collect();
    let count = beacons.min(owners.len());
    if let Some(stride) = owners.len().checked_div(count) {
        let stride = stride.max(1);
        for k in 0..count {
            let u = owners[k * stride % owners.len()];
            specs[u.i()].origins.push(g.info(u).prefixes[0]);
        }
    }
    specs
}

/// State every hosted node shares: the span totals and the table
/// figures read at teardown.
#[derive(Default)]
struct Shared {
    tracer: Tracer,
    table_bytes: Cell<usize>,
    distinct_attrs: Cell<usize>,
}

struct Link {
    dest: NodeId,
    remote: PeerId,
    delay: SimDuration,
}

/// A `Speaker` hosted on the engine, timed at every call.
struct HostedNode {
    me: NodeId,
    /// Taken on drop so that its teardown can be timed.
    speaker: Option<Speaker>,
    links: Vec<Link>,
    origins: Vec<Prefix>,
    ticks: BTreeSet<SimTime>,
    shared: Rc<Shared>,
}

impl HostedNode {
    fn build(spec: &NodeSpec, me: NodeId, shared: &Rc<Shared>, telemetry: &Telemetry) -> Self {
        let tr = &shared.tracer;
        tr.enter();
        let start = Instant::now();
        let mut speaker = Speaker::new(spec.cfg.clone());
        speaker.set_telemetry(telemetry.clone());
        let mut links = Vec::with_capacity(spec.peers.len());
        for (cfg, dest, remote, delay) in &spec.peers {
            speaker.add_peer(cfg.clone());
            links.push(Link {
                dest: *dest,
                remote: *remote,
                delay: *delay,
            });
        }
        let node = HostedNode {
            me,
            speaker: Some(speaker),
            links,
            origins: spec.origins.clone(),
            ticks: BTreeSet::new(),
            shared: Rc::clone(shared),
        };
        tr.close(Layer::Build, start, 1);
        tr.exit();
        node
    }

    fn speaker(&mut self) -> &mut Speaker {
        self.speaker.as_mut().expect("speaker lives until drop")
    }

    /// Route outputs onto links and keep the node's timer scheduled,
    /// exactly as the program's node does.
    fn service(&mut self, now: SimTime, mut outputs: Vec<Output>, out: &mut Outbox<ScaleMsg>) {
        let shared = Rc::clone(&self.shared);
        let tr = &shared.tracer;
        loop {
            let start = Instant::now();
            for o in outputs.drain(..) {
                if let Output::Send(pid, msg) = o {
                    let link = &self.links[pid.0 as usize];
                    out.send(link.dest, link.delay, ScaleMsg::Bgp(link.remote, msg));
                }
            }
            tr.close(Layer::Route, start, 0);
            let start = Instant::now();
            let deadline = self.speaker().next_deadline();
            tr.close(Layer::Deadline, start, 1);
            let start = Instant::now();
            if deadline <= now {
                outputs = self.speaker().tick(now);
                if outputs.is_empty() && self.speaker().next_deadline() <= now {
                    panic!("node {:?}: speaker deadline did not advance", self.me);
                }
                tr.close(Layer::Tick, start, 1);
            } else {
                if deadline != SimTime::MAX && self.ticks.insert(deadline) {
                    out.send(self.me, deadline - now, ScaleMsg::Tick);
                }
                tr.close(Layer::Route, start, 0);
                return;
            }
        }
    }
}

impl EngineNode for HostedNode {
    type Msg = ScaleMsg;

    fn on_start(&mut self, out: &mut Outbox<ScaleMsg>) {
        let shared = Rc::clone(&self.shared);
        let tr = &shared.tracer;
        tr.enter();
        let start = Instant::now();
        let now = SimTime::ZERO;
        let mut outputs = Vec::new();
        for p in std::mem::take(&mut self.origins) {
            outputs.extend(self.speaker().originate(p, now));
        }
        let ids: Vec<PeerId> = self.speaker().peer_ids().collect();
        for id in ids {
            outputs.extend(self.speaker().start_peer(id, now));
        }
        tr.close(Layer::Session, start, 0);
        self.service(now, outputs, out);
        tr.exit();
    }

    fn on_event(&mut self, now: SimTime, _from: NodeId, msg: ScaleMsg, out: &mut Outbox<ScaleMsg>) {
        let shared = Rc::clone(&self.shared);
        let tr = &shared.tracer;
        tr.enter();
        let outputs = match msg {
            ScaleMsg::Bgp(pid, m) => {
                let (layer, units) = match &m {
                    BgpMessage::Update(u) => (
                        Layer::Update,
                        (u.announced.len() + u.withdrawn.len()) as u64,
                    ),
                    _ => (Layer::Session, 1),
                };
                let start = Instant::now();
                let outputs = self.speaker().on_message(pid, m, now);
                tr.close(layer, start, units);
                outputs
            }
            ScaleMsg::Tick => {
                let start = Instant::now();
                self.ticks.remove(&now);
                let outputs = self.speaker().tick(now);
                tr.close(Layer::Tick, start, 1);
                outputs
            }
        };
        self.service(now, outputs, out);
        tr.exit();
    }

    fn digest(&self) -> u64 {
        let tr = &self.shared.tracer;
        tr.enter();
        let start = Instant::now();
        let hash = loc_rib_digest(self.speaker.as_ref().expect("speaker lives until drop"));
        tr.close(Layer::Digest, start, 1);
        tr.exit();
        hash
    }
}

impl Drop for HostedNode {
    fn drop(&mut self) {
        let shared = Rc::clone(&self.shared);
        let tr = &shared.tracer;
        tr.enter();
        if let Some(speaker) = self.speaker.take() {
            let start = Instant::now();
            shared
                .table_bytes
                .set(shared.table_bytes.get() + speaker.table_memory());
            shared
                .distinct_attrs
                .set(shared.distinct_attrs.get() + speaker.interner_stats().0);
            tr.close(Layer::Measure, start, 1);
            let start = Instant::now();
            drop(speaker);
            drop(std::mem::take(&mut self.links));
            drop(std::mem::take(&mut self.ticks));
            tr.close(Layer::Drop, start, 1);
        }
        tr.exit();
    }
}

/// The scale harness's Loc-RIB digest: FNV-1a over the sorted, formatted
/// routes.
fn loc_rib_digest(speaker: &Speaker) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x1000_0000_01b3;
    let mut hash = FNV_OFFSET;
    let mut mix = |s: &str| {
        for byte in s.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
    };
    let mut lines: Vec<String> = speaker
        .loc_rib()
        .iter()
        .map(|r| {
            format!(
                "{:?} peer={:?} path_id={} source={:?} igp={} attrs={:?}",
                r.prefix, r.peer, r.path_id, r.source, r.igp_cost, r.attrs
            )
        })
        .collect();
    lines.sort();
    for line in &lines {
        mix(line);
        mix(";");
    }
    hash
}
