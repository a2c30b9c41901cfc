//! Routing information bases: per-peer Adj-RIB-In / Adj-RIB-Out and the
//! Loc-RIB, plus the shared-attribute interner.
//!
//! A PEERING server holds a full Adj-RIB-In per upstream peer — at AMS-IX
//! that is hundreds of tables — and per-client Adj-RIB-Outs. Figure 2 of
//! the paper measures exactly this: how much memory one router's tables
//! consume as peers × routes grow. The interner reproduces the attribute
//! sharing real BGP implementations rely on to keep that curve sane.

use crate::attrs::PathAttributes;
use peering_netsim::{Prefix, PrefixTrie, SimTime, TraceId};
use serde::{Deserialize, Serialize};
use std::collections::btree_map::Entry;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Identifies a BGP peer within one speaker.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct PeerId(pub u32);

impl PeerId {
    /// Pseudo-peer for locally originated routes.
    pub const LOCAL: PeerId = PeerId(u32::MAX);
}

impl fmt::Display for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == PeerId::LOCAL {
            write!(f, "local")
        } else {
            write!(f, "peer{}", self.0)
        }
    }
}

/// Where a route was learned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RouteSource {
    /// From an external peer.
    Ebgp,
    /// From an internal peer.
    Ibgp,
    /// Locally originated (static / redistributed).
    Local,
}

/// A route: a prefix plus its path attributes and bookkeeping.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Route {
    /// Destination prefix.
    pub prefix: Prefix,
    /// Shared path attributes.
    pub attrs: Arc<PathAttributes>,
    /// The peer this route was learned from ([`PeerId::LOCAL`] if local).
    pub peer: PeerId,
    /// ADD-PATH identifier (0 when unused).
    pub path_id: u32,
    /// eBGP / iBGP / local.
    pub source: RouteSource,
    /// IGP cost to the next hop (decision-process step).
    pub igp_cost: u32,
    /// When the route was installed.
    pub learned_at: SimTime,
    /// Provenance id of the originated change this route descends from.
    /// Minted deterministically at origination and carried through every
    /// RIB so the collector can rebuild per-prefix propagation DAGs; it
    /// plays no part in the decision process or convergence digests.
    pub trace: Option<TraceId>,
}

// Equality deliberately ignores `trace`: a route is defined by what BGP
// exchanged and decided, not by the observational provenance riding along.
impl PartialEq for Route {
    fn eq(&self, other: &Self) -> bool {
        self.prefix == other.prefix
            && self.attrs == other.attrs
            && self.peer == other.peer
            && self.path_id == other.path_id
            && self.source == other.source
            && self.igp_cost == other.igp_cost
            && self.learned_at == other.learned_at
    }
}

impl Route {
    /// A locally originated route.
    pub fn local(prefix: Prefix, attrs: Arc<PathAttributes>, now: SimTime) -> Self {
        Route {
            prefix,
            attrs,
            peer: PeerId::LOCAL,
            path_id: 0,
            source: RouteSource::Local,
            igp_cost: 0,
            learned_at: now,
            trace: None,
        }
    }

    /// Tag the route with a provenance id.
    pub fn with_trace(mut self, trace: Option<TraceId>) -> Self {
        self.trace = trace;
        self
    }
}

/// One peer's Adj-RIB (used for both In and Out directions): the set of
/// routes exchanged with that peer, keyed by prefix and ADD-PATH id.
///
/// Each prefix holds one path vector sorted by ascending `path_id` with
/// no duplicate ids, so every iteration surface ([`iter`](Self::iter),
/// [`prefixes`](Self::prefixes), [`clear`](Self::clear)) yields
/// prefix-then-path-id order — a determinism-contract requirement
/// (`nd-hash-iter`): Adj-RIB walks feed digests, MRT dumps, and the
/// decision process.
///
/// A vector rather than a nested map because almost every prefix holds a
/// single path: a one-slot vector costs one route, where a private
/// `BTreeMap` leaf reserves eleven (DESIGN.md §14, "RIB memory layout").
/// Single-path vectors are therefore kept at exact capacity.
#[derive(Debug, Clone, Default)]
pub struct AdjRib {
    routes: BTreeMap<Prefix, Vec<Route>>,
    entries: usize,
}

/// Adj-RIB-In: routes learned from a peer, after import policy.
pub type AdjRibIn = AdjRib;
/// Adj-RIB-Out: routes advertised to a peer, after export policy.
pub type AdjRibOut = AdjRib;

/// Where `path_id` sits in a path vector sorted by id: `Ok` at a match,
/// `Err` at the slot that keeps the vector sorted.
fn find_path(paths: &[Route], path_id: u32) -> Result<usize, usize> {
    paths.binary_search_by_key(&path_id, |r| r.path_id)
}

impl AdjRib {
    /// Create an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert or replace a route (keyed by `prefix` + `path_id`).
    pub fn insert(&mut self, route: Route) -> Option<Route> {
        let paths = match self.routes.entry(route.prefix) {
            Entry::Vacant(e) => {
                // `vec!` allocates exactly one slot; a first `push` would
                // reserve four.
                e.insert(vec![route]);
                self.entries += 1;
                return None;
            }
            Entry::Occupied(e) => e.into_mut(),
        };
        match find_path(paths, route.path_id) {
            Ok(i) => Some(std::mem::replace(&mut paths[i], route)),
            Err(i) => {
                paths.insert(i, route);
                self.entries += 1;
                None
            }
        }
    }

    /// Remove one path for a prefix.
    pub fn remove(&mut self, prefix: &Prefix, path_id: u32) -> Option<Route> {
        let paths = self.routes.get_mut(prefix)?;
        let i = find_path(paths, path_id).ok()?;
        let old = paths.remove(i);
        self.entries -= 1;
        if paths.is_empty() {
            self.routes.remove(prefix);
        }
        Some(old)
    }

    /// Remove every path for a prefix (plain withdraw).
    pub fn remove_prefix(&mut self, prefix: &Prefix) -> Vec<Route> {
        let paths = self.routes.remove(prefix).unwrap_or_default();
        self.entries -= paths.len();
        paths
    }

    /// All paths currently held for a prefix.
    pub fn paths(&self, prefix: &Prefix) -> impl Iterator<Item = &Route> {
        self.routes
            .get(prefix)
            .map_or(&[][..], Vec::as_slice)
            .iter()
    }

    /// A specific path.
    pub fn get(&self, prefix: &Prefix, path_id: u32) -> Option<&Route> {
        let paths = self.routes.get(prefix)?;
        find_path(paths, path_id).ok().map(|i| &paths[i])
    }

    /// All `(prefix, route)` entries.
    pub fn iter(&self) -> impl Iterator<Item = &Route> {
        self.routes.values().flatten()
    }

    /// Distinct prefixes present.
    pub fn prefixes(&self) -> impl Iterator<Item = &Prefix> {
        self.routes.keys()
    }

    /// Number of `(prefix, path)` entries.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// True when no routes are held.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Number of distinct prefixes.
    pub fn prefix_count(&self) -> usize {
        self.routes.len()
    }

    /// Replace every path held for `prefix` with `routes` in one step.
    /// The peer-group export engine uses this to commit a staged export
    /// computation into the group's shared Adj-RIB-Out base. Of two
    /// routes with the same path id, the later one wins.
    pub fn set_prefix(&mut self, prefix: &Prefix, mut routes: Vec<Route>) {
        if let Some(old) = self.routes.remove(prefix) {
            self.entries -= old.len();
        }
        if routes.is_empty() {
            return;
        }
        debug_assert!(
            routes.iter().all(|r| r.prefix == *prefix),
            "route committed under wrong prefix"
        );
        // Stable, so duplicates keep their input order; `dedup_by` hands
        // the later one first and moves it into the kept slot.
        routes.sort_by_key(|r| r.path_id);
        routes.dedup_by(|later, kept| {
            let dup = later.path_id == kept.path_id;
            if dup {
                std::mem::swap(later, kept);
            }
            dup
        });
        routes.shrink_to_fit();
        self.entries += routes.len();
        self.routes.insert(*prefix, routes);
    }

    /// Drop everything, returning the affected prefixes (for re-decision).
    pub fn clear(&mut self) -> Vec<Prefix> {
        let prefixes: Vec<Prefix> = self.routes.keys().copied().collect();
        self.routes.clear();
        self.entries = 0;
        prefixes
    }

    /// Structural invariants of the table. Called behind `debug_assert!`
    /// by the speaker after RIB mutations; returns the first violated
    /// invariant as text so failures are self-describing.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut counted = 0;
        for (prefix, paths) in &self.routes {
            if paths.is_empty() {
                return Err(format!("empty path vector retained for {prefix}"));
            }
            for route in paths {
                if route.prefix != *prefix {
                    return Err(format!(
                        "route keyed under {prefix} carries prefix {}",
                        route.prefix
                    ));
                }
            }
            if let Some(w) = paths.windows(2).find(|w| w[0].path_id >= w[1].path_id) {
                return Err(format!(
                    "paths for {prefix} out of order: path id {} before {}",
                    w[0].path_id, w[1].path_id
                ));
            }
            counted += paths.len();
        }
        if counted != self.entries {
            return Err(format!(
                "entry counter {} disagrees with stored routes {counted}",
                self.entries
            ));
        }
        Ok(())
    }
}

/// The Loc-RIB: the best route per prefix after the decision process.
///
/// Backed by a binary radix trie ([`PrefixTrie`]) so exact lookup,
/// longest-prefix match, and covered-range walks are `O(prefix length)`
/// instead of map scans at full-table scale. The trie's preorder
/// iteration equals the old `BTreeMap<Prefix, Route>` order bit for bit,
/// so [`iter`](Self::iter) — the source of convergence digests and
/// collector RIB dumps (`nd-hash-iter` contract) — is unchanged.
#[derive(Clone, Default)]
pub struct LocRib {
    best: PrefixTrie<Route>,
    /// Mutation counter: every mutator bumps it, so two reads at the
    /// same generation see the same table (see [`generation`](Self::generation)).
    generation: u64,
}

// The generation is bookkeeping, not routing state: it stays out of the
// Debug form so nothing that formats a Loc-RIB can observe it.
impl fmt::Debug for LocRib {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LocRib").field("best", &self.best).finish()
    }
}

impl LocRib {
    /// Create an empty Loc-RIB.
    pub fn new() -> Self {
        Self::default()
    }

    /// A counter that moves on every mutation. Equal generations of one
    /// table mean equal contents, which lets callers memoize anything
    /// derived from the table (the scale harness's digests do). The
    /// value carries no meaning across different tables.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Install `route` as best for its prefix, returning the previous best.
    pub fn set_best(&mut self, route: Route) -> Option<Route> {
        self.generation += 1;
        self.best.insert(route.prefix, route)
    }

    /// Remove the best route for a prefix.
    pub fn remove(&mut self, prefix: &Prefix) -> Option<Route> {
        self.generation += 1;
        self.best.remove(prefix)
    }

    /// Drop every best route (a cold restart). The generation moves on
    /// rather than restarting, so memos taken before the clear stay
    /// invalid after it.
    pub fn clear(&mut self) {
        self.generation += 1;
        self.best = PrefixTrie::default();
    }

    /// The best route for a prefix.
    pub fn get(&self, prefix: &Prefix) -> Option<&Route> {
        self.best.get(prefix)
    }

    /// The most specific best route covering `addr`.
    pub fn longest_match(&self, addr: std::net::IpAddr) -> Option<&Route> {
        self.best.longest_match(addr).map(|(_, r)| r)
    }

    /// All best routes covered by `prefix` (including the exact entry),
    /// in prefix order.
    pub fn covered<'a>(&'a self, prefix: &Prefix) -> impl Iterator<Item = &'a Route> {
        self.best.covered(prefix).map(|(_, r)| r)
    }

    /// All best routes whose prefix covers `prefix`, shortest first.
    pub fn covering(&self, prefix: &Prefix) -> Vec<&Route> {
        self.best
            .covering(prefix)
            .into_iter()
            .map(|(_, r)| r)
            .collect()
    }

    /// All best routes, in prefix order.
    pub fn iter(&self) -> impl Iterator<Item = &Route> {
        self.best.values()
    }

    /// Number of prefixes with a best route.
    pub fn len(&self) -> usize {
        self.best.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.best.is_empty()
    }

    /// Trie nodes backing the table (memory accounting).
    pub fn node_count(&self) -> usize {
        self.best.node_count()
    }

    /// Bytes held in trie nodes (memory accounting, excluding allocator
    /// headers).
    pub fn node_bytes(&self) -> usize {
        self.best.node_bytes()
    }

    /// Structural invariants: every best route is stored under its own
    /// prefix.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (prefix, route) in self.best.iter() {
            if route.prefix != prefix {
                return Err(format!(
                    "best route keyed under {prefix} carries prefix {}",
                    route.prefix
                ));
            }
        }
        Ok(())
    }
}

/// Interns path attributes so identical attribute sets share one
/// allocation across RIB entries and sessions.
///
/// Disabling interning (`AttrInterner::disabled`) is the ablation for the
/// Figure 2 experiment: every route then carries a private copy, which is
/// how a naive implementation's memory curve would look.
#[derive(Debug, Default)]
pub struct AttrInterner {
    buckets: HashMap<u64, Vec<Arc<PathAttributes>>>,
    enabled: bool,
    /// Times an existing allocation was reused.
    pub hits: u64,
    /// Times a new allocation was created.
    pub misses: u64,
}

impl AttrInterner {
    /// A working interner.
    pub fn new() -> Self {
        AttrInterner {
            enabled: true,
            ..Default::default()
        }
    }

    /// An interner that always allocates (ablation mode).
    pub fn disabled() -> Self {
        AttrInterner {
            enabled: false,
            ..Default::default()
        }
    }

    /// Whether interning is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn hash(attrs: &PathAttributes) -> u64 {
        let mut h = DefaultHasher::new();
        attrs.hash(&mut h);
        h.finish()
    }

    /// Return a shared allocation equal to `attrs`.
    pub fn intern(&mut self, attrs: PathAttributes) -> Arc<PathAttributes> {
        if !self.enabled {
            self.misses += 1;
            return Arc::new(attrs);
        }
        let key = Self::hash(&attrs);
        let bucket = self.buckets.entry(key).or_default();
        for existing in bucket.iter() {
            if **existing == attrs {
                self.hits += 1;
                return Arc::clone(existing);
            }
        }
        self.misses += 1;
        let arc = Arc::new(attrs);
        bucket.push(Arc::clone(&arc));
        arc
    }

    /// Like [`intern`](Self::intern) but starts from an existing Arc,
    /// avoiding a clone when it is already the canonical allocation.
    pub fn intern_arc(&mut self, attrs: Arc<PathAttributes>) -> Arc<PathAttributes> {
        if !self.enabled {
            return attrs;
        }
        let key = Self::hash(&attrs);
        let bucket = self.buckets.entry(key).or_default();
        for existing in bucket.iter() {
            if Arc::ptr_eq(existing, &attrs) || **existing == *attrs {
                self.hits += 1;
                return Arc::clone(existing);
            }
        }
        self.misses += 1;
        bucket.push(Arc::clone(&attrs));
        attrs
    }

    /// Drop interned entries no longer referenced anywhere else.
    pub fn gc(&mut self) -> usize {
        let mut freed = 0;
        // peering-analysis: allow(nd-hash-iter, reason = "retain visits every bucket exactly once; per-bucket decisions depend only on refcounts, so visit order cannot alter the surviving set")
        self.buckets.retain(|_, bucket| {
            bucket.retain(|arc| {
                let keep = Arc::strong_count(arc) > 1;
                if !keep {
                    freed += 1;
                }
                keep
            });
            !bucket.is_empty()
        });
        freed
    }

    /// Number of distinct attribute sets currently interned.
    pub fn len(&self) -> usize {
        // peering-analysis: allow(nd-hash-iter, reason = "order-insensitive integer sum of bucket sizes; iteration order cannot reach the result")
        self.buckets.values().map(Vec::len).sum()
    }

    /// True when nothing is interned.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Iterate the interned attribute sets (for memory accounting).
    /// Order is unspecified: the sole consumer is `DeepSize`, an
    /// order-insensitive byte sum that never reaches a digest.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<PathAttributes>> {
        // peering-analysis: allow(nd-hash-iter, reason = "memory-accounting walk; consumers sum per-entry byte charges, an order-insensitive reduction")
        self.buckets.values().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::AsPath;
    use peering_netsim::Asn;

    fn route(prefix: Prefix, path_id: u32, first_as: u32) -> Route {
        Route {
            prefix,
            attrs: Arc::new(PathAttributes {
                as_path: AsPath::from_asns(&[Asn(first_as)]),
                ..Default::default()
            }),
            peer: PeerId(1),
            path_id,
            source: RouteSource::Ebgp,
            igp_cost: 0,
            learned_at: SimTime::ZERO,
            trace: None,
        }
    }

    #[test]
    fn adj_rib_insert_replace_remove() {
        let mut rib = AdjRib::new();
        let p = Prefix::v4(10, 0, 0, 0, 8);
        assert!(rib.insert(route(p, 0, 1)).is_none());
        assert_eq!(rib.len(), 1);
        // Replacement keeps entry count.
        let old = rib.insert(route(p, 0, 2)).unwrap();
        assert_eq!(old.attrs.as_path.first_as(), Some(Asn(1)));
        assert_eq!(rib.len(), 1);
        assert_eq!(
            rib.get(&p, 0).unwrap().attrs.as_path.first_as(),
            Some(Asn(2))
        );
        assert!(rib.remove(&p, 0).is_some());
        assert!(rib.is_empty());
        assert!(rib.remove(&p, 0).is_none());
    }

    #[test]
    fn adj_rib_multiple_paths_per_prefix() {
        let mut rib = AdjRib::new();
        let p = Prefix::v4(10, 0, 0, 0, 8);
        rib.insert(route(p, 1, 100));
        rib.insert(route(p, 2, 200));
        rib.insert(route(p, 3, 300));
        assert_eq!(rib.len(), 3);
        assert_eq!(rib.prefix_count(), 1);
        assert_eq!(rib.paths(&p).count(), 3);
        // Paths iterate in path-id order (BTreeMap).
        let ids: Vec<u32> = rib.paths(&p).map(|r| r.path_id).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        let removed = rib.remove_prefix(&p);
        assert_eq!(removed.len(), 3);
        assert!(rib.is_empty());
    }

    #[test]
    fn adj_rib_clear_reports_prefixes() {
        let mut rib = AdjRib::new();
        rib.insert(route(Prefix::v4(10, 0, 0, 0, 8), 0, 1));
        rib.insert(route(Prefix::v4(20, 0, 0, 0, 8), 0, 1));
        let mut cleared = rib.clear();
        cleared.sort();
        assert_eq!(cleared.len(), 2);
        assert!(rib.is_empty());
        assert_eq!(rib.prefix_count(), 0);
    }

    #[test]
    fn loc_rib_basics() {
        let mut rib = LocRib::new();
        let p = Prefix::v4(10, 0, 0, 0, 8);
        assert!(rib.set_best(route(p, 0, 1)).is_none());
        assert!(rib.set_best(route(p, 0, 2)).is_some());
        assert_eq!(rib.len(), 1);
        assert_eq!(rib.get(&p).unwrap().attrs.as_path.first_as(), Some(Asn(2)));
        assert!(rib.remove(&p).is_some());
        assert!(rib.is_empty());
    }

    #[test]
    fn loc_rib_generation_moves_on_every_mutation_and_stays_out_of_debug() {
        let mut rib = LocRib::new();
        let empty = format!("{rib:?}");
        let p = Prefix::v4(10, 0, 0, 0, 8);
        let mut last = rib.generation();
        let mut moved = |rib: &LocRib| {
            let moved = rib.generation() != last;
            last = rib.generation();
            moved
        };
        rib.set_best(route(p, 0, 1));
        assert!(moved(&rib), "set_best");
        rib.remove(&p);
        assert!(moved(&rib), "remove");
        rib.set_best(route(p, 0, 2));
        rib.clear();
        assert!(moved(&rib), "clear");
        assert_ne!(rib.generation(), 0, "clear must not restart the count");
        assert!(rib.is_empty());
        assert_eq!(format!("{rib:?}"), empty, "generation leaked into Debug");
    }

    #[test]
    fn interner_shares_equal_attrs() {
        let mut int = AttrInterner::new();
        let a1 = PathAttributes {
            as_path: AsPath::from_asns(&[Asn(1), Asn(2)]),
            ..Default::default()
        };
        let a2 = a1.clone();
        let arc1 = int.intern(a1);
        let arc2 = int.intern(a2);
        assert!(Arc::ptr_eq(&arc1, &arc2));
        assert_eq!(int.len(), 1);
        assert_eq!(int.hits, 1);
        assert_eq!(int.misses, 1);
    }

    #[test]
    fn interner_distinguishes_different_attrs() {
        let mut int = AttrInterner::new();
        let arc1 = int.intern(PathAttributes {
            as_path: AsPath::from_asns(&[Asn(1)]),
            ..Default::default()
        });
        let arc2 = int.intern(PathAttributes {
            as_path: AsPath::from_asns(&[Asn(2)]),
            ..Default::default()
        });
        assert!(!Arc::ptr_eq(&arc1, &arc2));
        assert_eq!(int.len(), 2);
    }

    #[test]
    fn interner_disabled_always_allocates() {
        let mut int = AttrInterner::disabled();
        let a = PathAttributes::default();
        let arc1 = int.intern(a.clone());
        let arc2 = int.intern(a);
        assert!(!Arc::ptr_eq(&arc1, &arc2));
        assert!(int.is_empty());
        assert!(!int.is_enabled());
    }

    #[test]
    fn interner_gc_frees_unreferenced() {
        let mut int = AttrInterner::new();
        {
            let _arc = int.intern(PathAttributes::default());
            // _arc dropped here
        }
        let kept = int.intern(PathAttributes {
            med: Some(5),
            ..Default::default()
        });
        assert_eq!(int.len(), 2);
        let freed = int.gc();
        assert_eq!(freed, 1);
        assert_eq!(int.len(), 1);
        drop(kept);
    }

    #[test]
    fn intern_arc_reuses_canonical() {
        let mut int = AttrInterner::new();
        let first = int.intern(PathAttributes::default());
        let other = Arc::new(PathAttributes::default());
        let got = int.intern_arc(other);
        assert!(Arc::ptr_eq(&first, &got));
        assert_eq!(int.len(), 1);
    }

    #[test]
    fn rib_invariants_hold_across_mutations() {
        let mut rib = AdjRib::new();
        let p = Prefix::v4(10, 0, 0, 0, 8);
        rib.check_invariants().unwrap();
        rib.insert(route(p, 1, 100));
        rib.insert(route(p, 2, 200));
        rib.check_invariants().unwrap();
        rib.remove(&p, 1);
        rib.check_invariants().unwrap();
        rib.remove_prefix(&p);
        rib.check_invariants().unwrap();
        let mut loc = LocRib::new();
        loc.set_best(route(p, 0, 1));
        loc.check_invariants().unwrap();
    }

    #[test]
    fn single_path_prefixes_hold_exactly_one_slot() {
        let mut rib = AdjRib::new();
        let p = Prefix::v4(10, 0, 0, 0, 8);
        let q = Prefix::v4(20, 0, 0, 0, 8);
        rib.insert(route(p, 0, 1));
        assert_eq!(rib.routes[&p].capacity(), 1, "insert");
        // A staged export collects through `filter_map`, which reserves
        // spare slots; the committed vector must not keep them.
        let mut staged = Vec::with_capacity(8);
        staged.push(route(q, 0, 1));
        rib.set_prefix(&q, staged);
        assert_eq!(rib.routes[&q].capacity(), 1, "set_prefix");
        rib.set_prefix(&q, vec![route(q, 0, 2), route(q, 0, 3)]);
        assert_eq!(rib.routes[&q].capacity(), 1, "set_prefix over a duplicate");
    }

    #[test]
    fn set_prefix_sorts_by_path_id_and_the_later_duplicate_wins() {
        let mut rib = AdjRib::new();
        let p = Prefix::v4(10, 0, 0, 0, 8);
        rib.set_prefix(
            &p,
            vec![
                route(p, 3, 30),
                route(p, 1, 10),
                route(p, 3, 31),
                route(p, 2, 20),
                route(p, 1, 11),
                route(p, 3, 32),
            ],
        );
        let got: Vec<(u32, Option<Asn>)> = rib
            .paths(&p)
            .map(|r| (r.path_id, r.attrs.as_path.first_as()))
            .collect();
        assert_eq!(
            got,
            vec![(1, Some(Asn(11))), (2, Some(Asn(20))), (3, Some(Asn(32)))]
        );
        assert_eq!(rib.len(), 3);
        rib.check_invariants().unwrap();
    }

    #[test]
    fn invariants_reject_unordered_or_duplicated_path_ids() {
        let p = Prefix::v4(10, 0, 0, 0, 8);
        for ids in [[2, 1], [1, 1]] {
            let mut rib = AdjRib::new();
            rib.routes
                .insert(p, ids.iter().map(|&id| route(p, id, 1)).collect());
            rib.entries = 2;
            let err = rib.check_invariants().unwrap_err();
            assert!(err.contains("out of order"), "{ids:?}: {err}");
        }
    }

    /// The pre-vector Adj-RIB layout, kept as the reference model for the
    /// property test below: one `BTreeMap` of paths per prefix.
    #[derive(Default)]
    struct NestedRib(BTreeMap<Prefix, BTreeMap<u32, Route>>);

    impl NestedRib {
        fn insert(&mut self, route: Route) -> Option<Route> {
            self.0
                .entry(route.prefix)
                .or_default()
                .insert(route.path_id, route)
        }

        fn remove(&mut self, prefix: &Prefix, path_id: u32) -> Option<Route> {
            let paths = self.0.get_mut(prefix)?;
            let old = paths.remove(&path_id);
            if paths.is_empty() {
                self.0.remove(prefix);
            }
            old
        }

        fn remove_prefix(&mut self, prefix: &Prefix) -> Vec<Route> {
            self.0
                .remove(prefix)
                .map(|paths| paths.into_values().collect())
                .unwrap_or_default()
        }

        fn set_prefix(&mut self, prefix: &Prefix, routes: Vec<Route>) {
            self.0.remove(prefix);
            if !routes.is_empty() {
                let paths = routes.into_iter().map(|r| (r.path_id, r)).collect();
                self.0.insert(*prefix, paths);
            }
        }

        fn clear(&mut self) -> Vec<Prefix> {
            let prefixes = self.0.keys().copied().collect();
            self.0.clear();
            prefixes
        }
    }

    /// One step of the Adj-RIB property test. Prefixes index a pool of
    /// four and path ids range over four values, so replacements and
    /// duplicate ids are common; the `u32` tag marks which route won.
    #[derive(Debug, Clone)]
    enum RibOp {
        Insert(usize, u32, u32),
        Remove(usize, u32),
        RemovePrefix(usize),
        SetPrefix(usize, Vec<(u32, u32)>),
        Clear,
    }

    fn rib_op() -> impl proptest::strategy::Strategy<Value = RibOp> {
        use proptest::prelude::*;
        let px = || 0usize..4;
        let id = || 0u32..4;
        prop_oneof![
            5 => (px(), id(), 1u32..1000).prop_map(|(p, i, t)| RibOp::Insert(p, i, t)),
            3 => (px(), id()).prop_map(|(p, i)| RibOp::Remove(p, i)),
            1 => px().prop_map(RibOp::RemovePrefix),
            3 => (px(), proptest::collection::vec((id(), 1u32..1000), 0..6))
                .prop_map(|(p, v)| RibOp::SetPrefix(p, v)),
            1 => Just(RibOp::Clear),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The path-vector Adj-RIB agrees with the nested-map layout it
        /// replaced on every return value and every read surface.
        #[test]
        fn adj_rib_matches_the_nested_map_model(
            ops in proptest::collection::vec(rib_op(), 1..60)
        ) {
            use proptest::prelude::*;
            let pool = [
                Prefix::v4(10, 0, 0, 0, 8),
                Prefix::v4(10, 1, 0, 0, 16),
                Prefix::v4(192, 0, 2, 0, 24),
                Prefix::v4(203, 0, 113, 0, 24),
            ];
            let mut rib = AdjRib::new();
            let mut model = NestedRib::default();
            for op in ops {
                match op {
                    RibOp::Insert(p, id, tag) => {
                        let r = route(pool[p], id, tag);
                        prop_assert_eq!(rib.insert(r.clone()), model.insert(r));
                    }
                    RibOp::Remove(p, id) => {
                        prop_assert_eq!(rib.remove(&pool[p], id), model.remove(&pool[p], id));
                    }
                    RibOp::RemovePrefix(p) => {
                        prop_assert_eq!(rib.remove_prefix(&pool[p]), model.remove_prefix(&pool[p]));
                    }
                    RibOp::SetPrefix(p, paths) => {
                        let routes: Vec<Route> =
                            paths.iter().map(|&(id, tag)| route(pool[p], id, tag)).collect();
                        rib.set_prefix(&pool[p], routes.clone());
                        model.set_prefix(&pool[p], routes);
                    }
                    RibOp::Clear => prop_assert_eq!(rib.clear(), model.clear()),
                }
                prop_assert_eq!(rib.check_invariants(), Ok(()));
                let want: Vec<&Route> = model.0.values().flat_map(|m| m.values()).collect();
                prop_assert_eq!(rib.iter().collect::<Vec<_>>(), want);
                prop_assert_eq!(
                    rib.prefixes().collect::<Vec<_>>(),
                    model.0.keys().collect::<Vec<_>>()
                );
                prop_assert_eq!(rib.len(), model.0.values().map(BTreeMap::len).sum::<usize>());
                prop_assert_eq!(rib.prefix_count(), model.0.len());
                prop_assert_eq!(rib.is_empty(), model.0.is_empty());
                for p in &pool {
                    let paths = model.0.get(p);
                    prop_assert_eq!(
                        rib.paths(p).collect::<Vec<_>>(),
                        paths.into_iter().flat_map(|m| m.values()).collect::<Vec<_>>()
                    );
                    for id in 0..4 {
                        prop_assert_eq!(rib.get(p, id), paths.and_then(|m| m.get(&id)));
                    }
                }
            }
        }
    }

    #[test]
    fn peer_id_display() {
        assert_eq!(PeerId(3).to_string(), "peer3");
        assert_eq!(PeerId::LOCAL.to_string(), "local");
    }
}
