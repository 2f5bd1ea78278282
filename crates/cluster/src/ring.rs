//! Seeded consistent-hash ring for session placement.
//!
//! Each node contributes `vnodes` points on a 64-bit ring; a key is
//! assigned to the node owning the first point clockwise of the key's
//! hash. Two properties the cluster leans on (and `tests/ring_props.rs`
//! proves):
//!
//! * **Determinism** — placement is a pure function of
//!   `(seed, members, key)`. Two routers configured identically place
//!   every session identically, and a reconnecting client (same resume
//!   token) lands on the same shard.
//! * **Bounded churn** — adding or removing a node only reassigns keys
//!   whose ring-successor changed, i.e. the ring-adjacent token ranges
//!   of the touched node's points. Everything else stays put, so a
//!   join/leave migrates `~1/n` of sessions, not all of them.

// Points and keys are FNV-1a hashes finished with the splitmix64
// avalanche, so FNV's weak low bits don't cluster vnode points.
use fmml_obs::hash::{fnv1a_extend as fnv, splitmix64_mix as mix, FNV_OFFSET};
use std::collections::BTreeMap;

/// A seeded consistent-hash ring mapping string keys to named nodes.
#[derive(Debug, Clone)]
pub struct HashRing {
    seed: u64,
    default_vnodes: usize,
    /// Ring point → owning node.
    points: BTreeMap<u64, String>,
    /// Node → its vnode count (weight).
    nodes: BTreeMap<String, usize>,
}

impl HashRing {
    /// An empty ring. `default_vnodes` is the weight used by
    /// [`add`](HashRing::add); more vnodes → smoother balance and a
    /// proportionally larger share of keys.
    pub fn new(seed: u64, default_vnodes: usize) -> HashRing {
        HashRing {
            seed,
            default_vnodes: default_vnodes.max(1),
            points: BTreeMap::new(),
            nodes: BTreeMap::new(),
        }
    }

    fn point(&self, node: &str, vnode: usize) -> u64 {
        let h = fnv(FNV_OFFSET ^ self.seed, node.as_bytes());
        mix(fnv(h, &(vnode as u64).to_le_bytes()))
    }

    fn key_hash(&self, key: &str) -> u64 {
        mix(fnv(FNV_OFFSET ^ self.seed, key.as_bytes()))
    }

    /// Add `node` at the default weight. Re-adding is a no-op.
    pub fn add(&mut self, node: &str) {
        self.add_weighted(node, self.default_vnodes);
    }

    /// Add `node` with an explicit vnode count (weight). Re-adding an
    /// existing node changes nothing.
    pub fn add_weighted(&mut self, node: &str, vnodes: usize) {
        let vnodes = vnodes.max(1);
        if self.nodes.contains_key(node) {
            return;
        }
        self.nodes.insert(node.to_string(), vnodes);
        for v in 0..vnodes {
            // Ties between distinct nodes on the same point are broken
            // by insertion refusal: first owner keeps it (astronomically
            // rare at 64 bits, but determinism must not depend on luck).
            self.points
                .entry(self.point(node, v))
                .or_insert_with(|| node.to_string());
        }
    }

    /// Remove `node` and all its points. Unknown nodes are a no-op.
    pub fn remove(&mut self, node: &str) {
        let Some(vnodes) = self.nodes.remove(node) else {
            return;
        };
        for v in 0..vnodes {
            let p = self.point(node, v);
            if self.points.get(&p).is_some_and(|n| n == node) {
                self.points.remove(&p);
            }
        }
    }

    /// The node owning `key`: first ring point clockwise of the key's
    /// hash (wrapping). `None` on an empty ring.
    pub fn assign(&self, key: &str) -> Option<&str> {
        if self.points.is_empty() {
            return None;
        }
        let h = self.key_hash(key);
        self.points
            .range(h..)
            .next()
            .or_else(|| self.points.iter().next())
            .map(|(_, n)| n.as_str())
    }

    /// Member nodes, sorted by name.
    pub fn nodes(&self) -> Vec<String> {
        self.nodes.keys().cloned().collect()
    }

    pub fn contains(&self, node: &str) -> bool {
        self.nodes.contains_key(node)
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assign_is_deterministic_and_total() {
        let mut r = HashRing::new(7, 16);
        r.add("a");
        r.add("b");
        r.add("c");
        for i in 0..100 {
            let k = format!("rtok-{i:016x}");
            let n1 = r.assign(&k).unwrap().to_string();
            let n2 = r.assign(&k).unwrap().to_string();
            assert_eq!(n1, n2);
        }
        assert_eq!(r.nodes(), vec!["a", "b", "c"]);
    }

    #[test]
    fn empty_ring_assigns_nothing() {
        let r = HashRing::new(1, 8);
        assert!(r.assign("k").is_none());
        assert!(r.is_empty());
    }

    #[test]
    fn remove_returns_keys_to_survivors_only() {
        let mut r = HashRing::new(3, 32);
        r.add("a");
        r.add("b");
        r.add("c");
        let before: Vec<String> = (0..500)
            .map(|i| r.assign(&format!("k{i}")).unwrap().to_string())
            .collect();
        r.remove("b");
        for (i, owner) in before.iter().enumerate() {
            let now = r.assign(&format!("k{i}")).unwrap();
            if owner != "b" {
                assert_eq!(now, owner, "key k{i} moved although its owner survived");
            } else {
                assert_ne!(now, "b");
            }
        }
    }
}
