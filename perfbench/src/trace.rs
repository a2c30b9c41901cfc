//! In-memory span accounting for the traced run.
//!
//! The benchmark records a span around every call it makes into a layer
//! of the program. Spans are folded into per-layer totals as they close
//! (a full-preset run closes tens of millions of them), kept in memory,
//! and written out as a table when the workload ends. A hosting callback
//! that the engine invokes also marks its entry and exit, so the time
//! between one callback's return and the next one's entry is charged to
//! the engine itself.

use std::cell::Cell;
use std::time::Instant;

/// A layer boundary the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Engine self time: gaps between hosted callbacks.
    Engine,
    /// `Speaker::new` plus `add_peer` for one hosted node.
    Build,
    /// Dropping one hosted speaker.
    Drop,
    /// `Speaker::on_message` on OPEN, KEEPALIVE or NOTIFICATION, and
    /// session start-up calls.
    Session,
    /// `Speaker::on_message` on UPDATE.
    Update,
    /// `Speaker::next_deadline`.
    Deadline,
    /// `Speaker::tick`.
    Tick,
    /// Benchmark-side output routing and timer bookkeeping.
    Route,
    /// The hosted replica of the Loc-RIB digest.
    Digest,
    /// Table-size and interner reads taken at teardown.
    Measure,
    /// One `Emulation::step`.
    Step,
    /// One mux operation, from the first call to quiescence.
    Call,
    /// Output checks between operations.
    Check,
    /// Building the next input message.
    Input,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 14] = [
        Layer::Engine,
        Layer::Build,
        Layer::Drop,
        Layer::Session,
        Layer::Update,
        Layer::Deadline,
        Layer::Tick,
        Layer::Route,
        Layer::Digest,
        Layer::Measure,
        Layer::Step,
        Layer::Call,
        Layer::Check,
        Layer::Input,
    ];

    /// The span name written in the span table.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Engine => "netsim.engine",
            Layer::Build => "bgp.speaker.build",
            Layer::Drop => "bgp.speaker.drop",
            Layer::Session => "bgp.speaker.session",
            Layer::Update => "bgp.speaker.update",
            Layer::Deadline => "bgp.speaker.deadline",
            Layer::Tick => "bgp.speaker.tick",
            Layer::Route => "bench.route",
            Layer::Digest => "bench.digest",
            Layer::Measure => "bench.measure",
            Layer::Step => "emulation.step",
            Layer::Call => "core.mux.call",
            Layer::Check => "bench.check",
            Layer::Input => "bench.input",
        }
    }

    /// Whether the layer's spans nest inside another layer's spans, so
    /// that adding it to the attributed total would count time twice.
    pub fn nested(self) -> bool {
        matches!(self, Layer::Step)
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Per-layer span totals.
pub struct Tracer {
    nanos: [Cell<u64>; Layer::ALL.len()],
    spans: [Cell<u64>; Layer::ALL.len()],
    units: [Cell<u64>; Layer::ALL.len()],
    last_exit: Cell<Instant>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            nanos: Default::default(),
            spans: Default::default(),
            units: Default::default(),
            last_exit: Cell::new(Instant::now()),
        }
    }
}

impl Tracer {
    /// Close a span of `layer` opened at `start` that did `units` of
    /// work.
    pub fn close(&self, layer: Layer, start: Instant, units: u64) {
        let i = layer.index();
        self.nanos[i].set(self.nanos[i].get() + start.elapsed().as_nanos() as u64);
        self.spans[i].set(self.spans[i].get() + 1);
        self.units[i].set(self.units[i].get() + units);
    }

    /// Mark the engine handing control to a hosted callback: the gap
    /// since the previous callback returned is engine self time.
    pub fn enter(&self) {
        let gap = self.last_exit.get().elapsed();
        let i = Layer::Engine.index();
        self.nanos[i].set(self.nanos[i].get() + gap.as_nanos() as u64);
    }

    /// Mark a hosted callback returning to the engine.
    pub fn exit(&self) {
        self.last_exit.set(Instant::now());
    }

    /// Total seconds charged to `layer`.
    pub fn secs(&self, layer: Layer) -> f64 {
        self.nanos[layer.index()].get() as f64 / 1e9
    }

    /// Spans closed on `layer`.
    pub fn count(&self, layer: Layer) -> u64 {
        self.spans[layer.index()].get()
    }

    /// Work units recorded on `layer`.
    pub fn units(&self, layer: Layer) -> u64 {
        self.units[layer.index()].get()
    }

    /// Seconds covered by top-level spans (nested layers excluded).
    pub fn attributed_secs(&self) -> f64 {
        Layer::ALL
            .iter()
            .filter(|l| !l.nested())
            .map(|&l| self.secs(l))
            .sum()
    }

    /// The span table, one line per layer that recorded anything.
    pub fn table(&self) -> Vec<String> {
        Layer::ALL
            .iter()
            .filter(|&&l| self.nanos[l.index()].get() > 0)
            .map(|&l| {
                format!(
                    "span {:<22} spans={:<10} units={:<10} total_s={:.6}",
                    l.name(),
                    self.count(l),
                    self.units(l),
                    self.secs(l)
                )
            })
            .collect()
    }
}
