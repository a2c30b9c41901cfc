//! Binary radix (Patricia) tries keyed by IP prefixes.
//!
//! The Loc-RIB and FIB hot paths need three operations that `BTreeMap`
//! scans make needlessly expensive at full-table scale (~524k prefixes):
//! exact lookup, longest-prefix match, and covered-range iteration.
//! [`RadixTrie`] provides all three in `O(prefix length)` with path
//! compression, and [`PrefixTrie`] wraps a v4 and a v6 trie behind the
//! [`Prefix`] type.
//!
//! **Iteration-order contract.** Preorder traversal (a node's own entry,
//! then its 0-branch subtree, then its 1-branch subtree) yields entries
//! in exactly `(address, length)` lexicographic order — the same order
//! `BTreeMap<Prefix, _>` iteration produced before the conversion, and
//! the order every convergence digest and collector dump is pinned to.
//! A covering prefix sorts before everything it covers (its address bits
//! are a prefix of theirs, and on an address tie the shorter length wins),
//! and sibling subtrees are ordered by their distinguishing bit; both
//! facts together make preorder equal to the sorted order bit for bit.

use crate::net::{Ipv4Net, Ipv6Net, Prefix};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// Address-bits key for a radix trie: a fixed-width big-endian bit string.
pub trait TrieKey: Copy + Ord {
    /// Width of the key in bits (32 for IPv4, 128 for IPv6).
    const BITS: u8;
    /// The all-zero key.
    const ZERO: Self;
    /// Bit `i` counted from the most significant end (`i < BITS`).
    fn bit(self, i: u8) -> bool;
    /// Keep the top `len` bits, zeroing the rest.
    fn mask(self, len: u8) -> Self;
    /// Number of leading bits on which `self` and `other` agree, capped
    /// at `max`.
    fn common_len(self, other: Self, max: u8) -> u8;
}

impl TrieKey for u32 {
    const BITS: u8 = 32;
    const ZERO: Self = 0;
    fn bit(self, i: u8) -> bool {
        (self >> (31 - i)) & 1 == 1
    }
    fn mask(self, len: u8) -> Self {
        if len == 0 {
            0
        } else {
            self & (u32::MAX << (32 - len))
        }
    }
    fn common_len(self, other: Self, max: u8) -> u8 {
        ((self ^ other).leading_zeros() as u8).min(max)
    }
}

impl TrieKey for u128 {
    const BITS: u8 = 128;
    const ZERO: Self = 0;
    fn bit(self, i: u8) -> bool {
        (self >> (127 - i)) & 1 == 1
    }
    fn mask(self, len: u8) -> Self {
        if len == 0 {
            0
        } else {
            self & (u128::MAX << (128 - len))
        }
    }
    fn common_len(self, other: Self, max: u8) -> u8 {
        ((self ^ other).leading_zeros() as u8).min(max)
    }
}

/// One trie node. Children's keys strictly extend the node's key, so tree
/// depth is bounded by `K::BITS + 1` regardless of entry count.
#[derive(Debug, Clone)]
struct Node<K, T> {
    addr: K,
    len: u8,
    value: Option<T>,
    kids: [Option<Box<Node<K, T>>>; 2],
}

impl<K: TrieKey, T> Node<K, T> {
    fn leaf(addr: K, len: u8, value: T) -> Self {
        Node {
            addr,
            len,
            value: Some(value),
            kids: [None, None],
        }
    }

    fn root() -> Self {
        Node {
            addr: K::ZERO,
            len: 0,
            value: None,
            kids: [None, None],
        }
    }

    fn boxed_nodes(&self) -> usize {
        self.kids
            .iter()
            .flatten()
            .map(|k| 1 + k.boxed_nodes())
            .sum()
    }
}

/// A path-compressed binary radix trie over `(address, length)` prefixes.
#[derive(Debug, Clone)]
pub struct RadixTrie<K: TrieKey, T> {
    root: Node<K, T>,
    len: usize,
}

impl<K: TrieKey, T> Default for RadixTrie<K, T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: TrieKey, T> RadixTrie<K, T> {
    /// An empty trie.
    pub fn new() -> Self {
        RadixTrie {
            root: Node::root(),
            len: 0,
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Remove every entry.
    pub fn clear(&mut self) {
        self.root = Node::root();
        self.len = 0;
    }

    /// Heap-allocated node count (the root is inline). Memory accounting
    /// only; `O(n)` traversal.
    pub fn node_count(&self) -> usize {
        self.root.boxed_nodes()
    }

    /// Size in bytes of one heap node, for deep-size accounting.
    pub fn node_size() -> usize {
        std::mem::size_of::<Node<K, T>>()
    }

    /// Insert or replace the entry for `(addr, len)`, returning the old
    /// value on replacement. Host bits of `addr` are masked off.
    pub fn insert(&mut self, addr: K, len: u8, value: T) -> Option<T> {
        let addr = addr.mask(len);
        let mut cur: &mut Node<K, T> = &mut self.root;
        loop {
            if cur.len == len {
                // Walk invariant: cur's key is a bit-prefix of the target,
                // so equal lengths mean equal keys.
                debug_assert!(cur.addr == addr);
                let old = cur.value.replace(value);
                if old.is_none() {
                    self.len += 1;
                }
                return old;
            }
            let b = addr.bit(cur.len) as usize;
            if cur.kids[b].is_none() {
                cur.kids[b] = Some(Box::new(Node::leaf(addr, len, value)));
                self.len += 1;
                return None;
            }
            let (descend, child_len) = {
                let child = cur.kids[b].as_deref().expect("checked above");
                let cpl = addr.common_len(child.addr, len.min(child.len));
                (cpl == child.len, cpl)
            };
            if descend {
                cur = cur.kids[b].as_deref_mut().expect("checked above");
                continue;
            }
            let cpl = child_len;
            let old_child = cur.kids[b].take().expect("checked above");
            if cpl == len {
                // The new key is an ancestor of the existing child.
                let mut n = Node::leaf(addr, len, value);
                let cb = old_child.addr.bit(len) as usize;
                n.kids[cb] = Some(old_child);
                cur.kids[b] = Some(Box::new(n));
            } else {
                // Keys diverge: fork at their common prefix.
                let mut fork = Node {
                    addr: addr.mask(cpl),
                    len: cpl,
                    value: None,
                    kids: [None, None],
                };
                let nb = addr.bit(cpl) as usize;
                fork.kids[nb] = Some(Box::new(Node::leaf(addr, len, value)));
                fork.kids[1 - nb] = Some(old_child);
                cur.kids[b] = Some(Box::new(fork));
            }
            self.len += 1;
            return None;
        }
    }

    /// Remove the exact entry for `(addr, len)`, splicing out any interior
    /// node left with no value and at most one child.
    pub fn remove(&mut self, addr: K, len: u8) -> Option<T> {
        let addr = addr.mask(len);
        if len == 0 {
            let old = self.root.value.take();
            if old.is_some() {
                self.len -= 1;
            }
            return old;
        }
        fn rec<K: TrieKey, T>(slot: &mut Option<Box<Node<K, T>>>, addr: K, len: u8) -> Option<T> {
            let node = slot.as_mut()?;
            let removed = if node.len == len {
                if node.addr != addr {
                    return None;
                }
                node.value.take()?
            } else {
                if node.len > len || node.addr != addr.mask(node.len) {
                    return None;
                }
                rec(&mut node.kids[addr.bit(node.len) as usize], addr, len)?
            };
            if node.value.is_none() {
                let kids = node.kids.iter().flatten().count();
                if kids == 0 {
                    *slot = None;
                } else if kids == 1 {
                    let kid = node
                        .kids
                        .iter_mut()
                        .find_map(Option::take)
                        .expect("one child present");
                    *slot = Some(kid);
                }
            }
            Some(removed)
        }
        let b = addr.bit(0) as usize;
        let old = rec(&mut self.root.kids[b], addr, len);
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// Exact-match lookup.
    pub fn get(&self, addr: K, len: u8) -> Option<&T> {
        let addr = addr.mask(len);
        let mut cur = &self.root;
        loop {
            if cur.len == len {
                return if cur.addr == addr {
                    cur.value.as_ref()
                } else {
                    None
                };
            }
            if cur.len > len || cur.addr != addr.mask(cur.len) {
                return None;
            }
            cur = cur.kids[addr.bit(cur.len) as usize].as_deref()?;
        }
    }

    /// Exact-match mutable lookup.
    pub fn get_mut(&mut self, addr: K, len: u8) -> Option<&mut T> {
        let addr = addr.mask(len);
        let mut cur = &mut self.root;
        loop {
            if cur.len == len {
                return if cur.addr == addr {
                    cur.value.as_mut()
                } else {
                    None
                };
            }
            if cur.len > len || cur.addr != addr.mask(cur.len) {
                return None;
            }
            cur = cur.kids[addr.bit(cur.len) as usize].as_deref_mut()?;
        }
    }

    /// Longest-prefix match for a full-width address: the most specific
    /// stored entry covering it.
    pub fn longest_match(&self, addr: K) -> Option<(K, u8, &T)> {
        let mut best = None;
        let mut cur = &self.root;
        loop {
            if cur.addr != addr.mask(cur.len) {
                break;
            }
            if let Some(v) = &cur.value {
                best = Some((cur.addr, cur.len, v));
            }
            if cur.len >= K::BITS {
                break;
            }
            match cur.kids[addr.bit(cur.len) as usize].as_deref() {
                Some(n) => cur = n,
                None => break,
            }
        }
        best
    }

    /// Every stored entry whose key covers `(addr, len)` (including the
    /// exact entry), shortest first — the root-to-leaf path with values.
    pub fn covering(&self, addr: K, len: u8) -> Vec<(K, u8, &T)> {
        let addr = addr.mask(len);
        let mut out = Vec::new();
        let mut cur = &self.root;
        loop {
            if cur.len > len || cur.addr != addr.mask(cur.len) {
                break;
            }
            if let Some(v) = &cur.value {
                out.push((cur.addr, cur.len, v));
            }
            if cur.len >= len {
                break;
            }
            match cur.kids[addr.bit(cur.len) as usize].as_deref() {
                Some(n) => cur = n,
                None => break,
            }
        }
        out
    }

    /// Preorder iteration over all entries: `(address, length)`
    /// lexicographic order (see the module docs for why).
    pub fn iter(&self) -> TrieIter<'_, K, T> {
        // An empty trie yields nothing, so it starts with an unallocated
        // stack, as `covered` does on a miss.
        TrieIter {
            stack: if self.len == 0 {
                Vec::new()
            } else {
                vec![&self.root]
            },
        }
    }

    /// Preorder iteration over the entries covered by `(addr, len)`
    /// (including the exact entry), in `(address, length)` order.
    pub fn covered(&self, addr: K, len: u8) -> TrieIter<'_, K, T> {
        let addr = addr.mask(len);
        let mut cur = &self.root;
        loop {
            if cur.len >= len {
                let within = cur.addr.mask(len) == addr;
                return TrieIter {
                    stack: if within { vec![cur] } else { Vec::new() },
                };
            }
            if cur.addr != addr.mask(cur.len) {
                return TrieIter { stack: Vec::new() };
            }
            match cur.kids[addr.bit(cur.len) as usize].as_deref() {
                Some(n) => cur = n,
                None => return TrieIter { stack: Vec::new() },
            }
        }
    }
}

/// Preorder iterator over a [`RadixTrie`] (sub)tree.
#[derive(Debug)]
pub struct TrieIter<'a, K, T> {
    stack: Vec<&'a Node<K, T>>,
}

impl<'a, K: TrieKey, T> Iterator for TrieIter<'a, K, T> {
    type Item = (K, u8, &'a T);

    fn next(&mut self) -> Option<Self::Item> {
        while let Some(node) = self.stack.pop() {
            // Push the 1-branch first so the 0-branch pops (and yields)
            // first: preorder = sorted order.
            if let Some(k) = node.kids[1].as_deref() {
                self.stack.push(k);
            }
            if let Some(k) = node.kids[0].as_deref() {
                self.stack.push(k);
            }
            if let Some(v) = &node.value {
                return Some((node.addr, node.len, v));
            }
        }
        None
    }
}

/// A dual-stack prefix trie: one radix trie per address family, iterated
/// v4-before-v6 to match `Prefix`'s derived ordering.
#[derive(Debug, Clone)]
pub struct PrefixTrie<T> {
    v4: RadixTrie<u32, T>,
    v6: RadixTrie<u128, T>,
}

impl<T> Default for PrefixTrie<T> {
    fn default() -> Self {
        Self::new()
    }
}

fn v4_prefix(addr: u32, len: u8) -> Prefix {
    Prefix::V4(Ipv4Net::new(Ipv4Addr::from(addr), len))
}

fn v6_prefix(addr: u128, len: u8) -> Prefix {
    Prefix::V6(Ipv6Net::new(Ipv6Addr::from(addr), len))
}

impl<T> PrefixTrie<T> {
    /// An empty trie.
    pub fn new() -> Self {
        PrefixTrie {
            v4: RadixTrie::new(),
            v6: RadixTrie::new(),
        }
    }

    /// Number of stored entries across both families.
    pub fn len(&self) -> usize {
        self.v4.len() + self.v6.len()
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Remove every entry.
    pub fn clear(&mut self) {
        self.v4.clear();
        self.v6.clear();
    }

    /// Heap node count across both families (memory accounting).
    pub fn node_count(&self) -> usize {
        self.v4.node_count() + self.v6.node_count()
    }

    /// Total bytes held in heap trie nodes (memory accounting; excludes
    /// allocator headers, which the caller charges).
    pub fn node_bytes(&self) -> usize {
        self.v4.node_count() * RadixTrie::<u32, T>::node_size()
            + self.v6.node_count() * RadixTrie::<u128, T>::node_size()
    }

    /// Insert or replace the entry for `prefix`.
    pub fn insert(&mut self, prefix: Prefix, value: T) -> Option<T> {
        match prefix {
            Prefix::V4(n) => self.v4.insert(n.network_u32(), n.len(), value),
            Prefix::V6(n) => self.v6.insert(u128::from(n.network()), n.len(), value),
        }
    }

    /// Remove the exact entry for `prefix`.
    pub fn remove(&mut self, prefix: &Prefix) -> Option<T> {
        match prefix {
            Prefix::V4(n) => self.v4.remove(n.network_u32(), n.len()),
            Prefix::V6(n) => self.v6.remove(u128::from(n.network()), n.len()),
        }
    }

    /// Exact-match lookup.
    pub fn get(&self, prefix: &Prefix) -> Option<&T> {
        match prefix {
            Prefix::V4(n) => self.v4.get(n.network_u32(), n.len()),
            Prefix::V6(n) => self.v6.get(u128::from(n.network()), n.len()),
        }
    }

    /// Exact-match mutable lookup.
    pub fn get_mut(&mut self, prefix: &Prefix) -> Option<&mut T> {
        match prefix {
            Prefix::V4(n) => self.v4.get_mut(n.network_u32(), n.len()),
            Prefix::V6(n) => self.v6.get_mut(u128::from(n.network()), n.len()),
        }
    }

    /// Longest-prefix match for an address.
    pub fn longest_match(&self, addr: IpAddr) -> Option<(Prefix, &T)> {
        match addr {
            IpAddr::V4(ip) => self
                .v4
                .longest_match(u32::from(ip))
                .map(|(a, l, v)| (v4_prefix(a, l), v)),
            IpAddr::V6(ip) => self
                .v6
                .longest_match(u128::from(ip))
                .map(|(a, l, v)| (v6_prefix(a, l), v)),
        }
    }

    /// All entries whose prefix covers `prefix`, shortest first.
    pub fn covering(&self, prefix: &Prefix) -> Vec<(Prefix, &T)> {
        match prefix {
            Prefix::V4(n) => self
                .v4
                .covering(n.network_u32(), n.len())
                .into_iter()
                .map(|(a, l, v)| (v4_prefix(a, l), v))
                .collect(),
            Prefix::V6(n) => self
                .v6
                .covering(u128::from(n.network()), n.len())
                .into_iter()
                .map(|(a, l, v)| (v6_prefix(a, l), v))
                .collect(),
        }
    }

    /// All entries covered by `prefix` (including the exact entry), in
    /// `(address, length)` order.
    pub fn covered<'a>(&'a self, prefix: &Prefix) -> impl Iterator<Item = (Prefix, &'a T)> {
        let (v4, v6) = match prefix {
            Prefix::V4(n) => (Some(self.v4.covered(n.network_u32(), n.len())), None),
            Prefix::V6(n) => (
                None,
                Some(self.v6.covered(u128::from(n.network()), n.len())),
            ),
        };
        v4.into_iter()
            .flatten()
            .map(|(a, l, v)| (v4_prefix(a, l), v))
            .chain(
                v6.into_iter()
                    .flatten()
                    .map(|(a, l, v)| (v6_prefix(a, l), v)),
            )
    }

    /// All entries in `Prefix` sort order (v4 before v6, then
    /// `(address, length)` lexicographic within each family).
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, &T)> {
        self.v4
            .iter()
            .map(|(a, l, v)| (v4_prefix(a, l), v))
            .chain(self.v6.iter().map(|(a, l, v)| (v6_prefix(a, l), v)))
    }

    /// Values in the same order as [`iter`](Self::iter).
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.iter().map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut t = PrefixTrie::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(p("10.0.0.0/8"), 1), None);
        assert_eq!(t.insert(p("10.0.0.0/8"), 2), Some(1));
        assert_eq!(t.get(&p("10.0.0.0/8")), Some(&2));
        assert_eq!(t.get(&p("10.0.0.0/16")), None);
        assert_eq!(t.remove(&p("10.0.0.0/8")), Some(2));
        assert!(t.is_empty());
        assert_eq!(t.remove(&p("10.0.0.0/8")), None);
    }

    #[test]
    fn preorder_matches_btreemap_order() {
        use std::collections::BTreeMap;
        let prefixes = [
            "10.0.0.0/8",
            "10.0.0.0/16",
            "10.0.0.0/32",
            "10.128.0.0/9",
            "8.0.0.0/6",
            "11.0.0.0/8",
            "0.0.0.0/0",
            "255.255.255.255/32",
            "2001:db8::/32",
            "::/0",
            "2001:db8::1/128",
        ];
        let mut t = PrefixTrie::new();
        let mut m = BTreeMap::new();
        for (i, s) in prefixes.iter().enumerate() {
            t.insert(p(s), i);
            m.insert(p(s), i);
        }
        let got: Vec<(Prefix, usize)> = t.iter().map(|(k, v)| (k, *v)).collect();
        let want: Vec<(Prefix, usize)> = m.into_iter().collect();
        assert_eq!(got, want);
    }

    #[test]
    fn longest_match_prefers_most_specific() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), "coarse");
        t.insert(p("10.1.0.0/16"), "mid");
        t.insert(p("10.1.2.0/24"), "fine");
        fn lpm(t: &PrefixTrie<&'static str>, s: &str) -> Option<&'static str> {
            t.longest_match(s.parse::<IpAddr>().unwrap())
                .map(|(_, v)| *v)
        }
        assert_eq!(lpm(&t, "10.1.2.3"), Some("fine"));
        assert_eq!(lpm(&t, "10.1.9.9"), Some("mid"));
        assert_eq!(lpm(&t, "10.200.0.1"), Some("coarse"));
        assert_eq!(lpm(&t, "11.0.0.1"), None);
        t.insert(p("0.0.0.0/0"), "default");
        assert_eq!(lpm(&t, "11.0.0.1"), Some("default"));
    }

    #[test]
    fn covered_and_covering() {
        let mut t = PrefixTrie::new();
        for s in ["10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "11.0.0.0/8"] {
            t.insert(p(s), s.to_string());
        }
        let covered: Vec<Prefix> = t.covered(&p("10.0.0.0/8")).map(|(k, _)| k).collect();
        assert_eq!(
            covered,
            vec![p("10.0.0.0/8"), p("10.1.0.0/16"), p("10.1.2.0/24")]
        );
        let covering: Vec<Prefix> = t
            .covering(&p("10.1.2.0/24"))
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(
            covering,
            vec![p("10.0.0.0/8"), p("10.1.0.0/16"), p("10.1.2.0/24")]
        );
        assert!(t.covered(&p("12.0.0.0/8")).next().is_none());
    }

    #[test]
    fn host_routes_and_default_route() {
        let mut t = PrefixTrie::new();
        t.insert(p("0.0.0.0/0"), 0);
        t.insert(p("192.0.2.1/32"), 1);
        t.insert(p("::/0"), 2);
        t.insert(p("2001:db8::1/128"), 3);
        assert_eq!(t.len(), 4);
        assert_eq!(t.get(&p("0.0.0.0/0")), Some(&0));
        assert_eq!(t.get(&p("192.0.2.1/32")), Some(&1));
        assert_eq!(t.get(&p("::/0")), Some(&2));
        assert_eq!(t.get(&p("2001:db8::1/128")), Some(&3));
        assert_eq!(t.remove(&p("0.0.0.0/0")), Some(0));
        assert_eq!(t.remove(&p("::/0")), Some(2));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn node_count_shrinks_after_removal() {
        let mut t = PrefixTrie::new();
        for s in ["10.0.0.0/8", "10.64.0.0/10", "10.128.0.0/9"] {
            t.insert(p(s), ());
        }
        let full = t.node_count();
        t.remove(&p("10.64.0.0/10"));
        assert!(t.node_count() < full, "splice must drop interior nodes");
        t.remove(&p("10.0.0.0/8"));
        t.remove(&p("10.128.0.0/9"));
        assert_eq!(t.node_count(), 0);
        assert!(t.is_empty());
    }

    #[test]
    fn empty_trie_iterates_without_allocating() {
        let mut t: RadixTrie<u32, ()> = RadixTrie::new();
        assert_eq!(t.iter().stack.capacity(), 0);
        t.insert(0x0a00_0000, 8, ());
        assert_eq!(t.iter().count(), 1);
        t.remove(0x0a00_0000, 8);
        let it = t.iter();
        assert_eq!(it.stack.capacity(), 0, "drained trie still allocates");
        assert_eq!(it.count(), 0);
        // The default route lives on the root itself.
        t.insert(0, 0, ());
        assert_eq!(t.iter().count(), 1);
    }
}
