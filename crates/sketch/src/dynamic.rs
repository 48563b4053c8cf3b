//! Turnstile AGM sketches over a growing vertex universe.
//!
//! [`ConnectivitySketch`](crate::ConnectivitySketch) is built for a fixed
//! vertex count `n`: its edge coordinates are `u·n + v`, so the sketch cannot
//! absorb vertices that arrive after construction without re-indexing every
//! coordinate. A streaming engine discovers vertices as edges arrive, so this
//! module keeps the same per-vertex signed edge-incidence sketches but indexes
//! the coordinate space by the *pair itself*: edge `{u, v}` with `u < v` lives
//! at coordinate `(u << 32) | v`. That makes the coordinate independent of the
//! current vertex count — [`DynamicConnectivitySketch::push_vertex`] appends a
//! fresh empty vertex sketch and every existing coordinate stays valid.
//!
//! The price is a coordinate universe of size `2^64` instead of `n²`, which
//! costs nothing in space (the samplers are universe-size oblivious) and only
//! weakens the one-sparse fingerprint bound from `O(n²/p)` to `O(m·2^64/p·…)`
//! — still negligible because the fingerprint test is evaluated over
//! `p = 2^61 − 1` on the *actual support* (at most `m` coordinates), giving a
//! collision probability of `O(m/p)` per recovery. The construction is valid
//! for dense vertex ids below `2^32`; the streaming engine interns raw ids to
//! dense `u32`s, so this always holds.
//!
//! The turnstile property is inherited from linearity: a deletion is a `−1`
//! update on the same coordinate, so after any interleaving of inserts and
//! deletes the sketch equals the sketch of the surviving edge multiset.
//!
//! **Cost of an edge op.** The coordinate's level and its fingerprint power
//! `z^index` depend only on the phase and the coordinate, so
//! [`add_edge`](DynamicConnectivitySketch::add_edge) and
//! [`remove_edge`](DynamicConnectivitySketch::remove_edge) compute them once
//! per phase and apply `+δ` to the smaller endpoint and `−δ` to the larger.
//! The power is a product of 8 entries of the phase's power table (held
//! once by the sketch, 16 KiB per phase), each multiply reduced modulo the
//! Mersenne prime `2^61 − 1` by shifts and adds. What remains per phase and
//! endpoint is one add per level the coordinate reaches (2 on average).
//!
//! **Memory.** A vertex stores, per phase, only the populated levels of its
//! sampler (32 bytes each, about `log₂ d + 1` of them at degree `d`), not
//! the 61 levels the message-size model charges; the charged size,
//! [`words_per_vertex`](DynamicConnectivitySketch::words_per_vertex), is
//! the model's and does not depend on what is stored.
//!
//! [`DynamicConnectivitySketch::subset_components`] is the repair primitive
//! the streaming engine runs after a deletion: sketch-space Borůvka restricted
//! to the members of one (possibly no-longer-connected) component, returning
//! the exact partition into connected parts when a phase *certifies* it (every
//! part's summed sampler is zero on level 0 — a randomness-independent test),
//! or `None` on sampling failure so the caller can escalate to a full
//! recompute.

use crate::connectivity::{SharedRandomness, VertexSketch};
use crate::l0::L0Sampler;

/// Encodes the unordered edge `{u, v}` as an ℓ0 coordinate independent of the
/// vertex count: the smaller endpoint in the high 32 bits.
fn edge_coordinate(u: u32, v: u32) -> u64 {
    debug_assert_ne!(u, v);
    let (a, b) = if u < v { (u, v) } else { (v, u) };
    ((a as u64) << 32) | b as u64
}

fn decode_edge_coordinate(idx: u64) -> (u32, u32) {
    ((idx >> 32) as u32, (idx & 0xFFFF_FFFF) as u32)
}

/// A certified partition of a member set into its exact connected parts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubsetPartition {
    /// The connected parts, ordered by smallest member; each part's members
    /// are ascending. A deterministic function of the sketch state and the
    /// member set.
    pub parts: Vec<Vec<u32>>,
    /// Number of Borůvka phases consumed before certification succeeded.
    pub phases_used: usize,
}

/// An AGM connectivity sketch whose vertex set can grow and whose edge
/// multiset supports turnstile updates (inserts and deletes).
///
/// All vertices share the same per-phase hash seeds (the shared-randomness
/// requirement of Proposition 8.1), so per-vertex sketches remain addable and
/// a component's sketch is the sum of its members' sketches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DynamicConnectivitySketch {
    shared: SharedRandomness,
    words_per_vertex: usize,
    vertices: Vec<VertexSketch>,
}

impl DynamicConnectivitySketch {
    /// Creates an empty sketch (zero vertices) with `num_phases` independent
    /// Borůvka phases. More phases raise the certification probability of
    /// [`subset_components`](Self::subset_components) and the message size.
    pub fn new(num_phases: usize, seed: u64) -> Self {
        assert!(num_phases > 0, "at least one Borůvka phase required");
        let shared = SharedRandomness::new(num_phases, seed);
        let words_per_vertex = VertexSketch::new(&shared).size_in_words();
        DynamicConnectivitySketch {
            shared,
            words_per_vertex,
            vertices: Vec::new(),
        }
    }

    /// Number of vertices currently tracked.
    pub fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Number of Borůvka phases per vertex.
    pub fn num_phases(&self) -> usize {
        self.shared.num_phases()
    }

    /// Size of one vertex's message in machine words (constant: the model
    /// charges every sampler its full 61 levels, however few are stored).
    pub fn words_per_vertex(&self) -> usize {
        self.words_per_vertex
    }

    /// Appends one fresh (edge-less) vertex; its dense id is the previous
    /// vertex count. Existing coordinates are unaffected.
    pub fn push_vertex(&mut self) {
        self.vertices.push(VertexSketch::new(&self.shared));
    }

    /// Inserts the undirected edge `{u, v}`. Self-loops are ignored (no slot
    /// in the incidence vector). Parallel edges accumulate multiplicity.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn add_edge(&mut self, u: u32, v: u32) {
        self.apply_edge(u, v, 1);
    }

    /// Deletes one copy of the undirected edge `{u, v}` — a `−1` turnstile
    /// update on the same coordinate. The caller is responsible for only
    /// deleting live edges; the sketch itself cannot detect over-deletion.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn remove_edge(&mut self, u: u32, v: u32) {
        self.apply_edge(u, v, -1);
    }

    fn apply_edge(&mut self, u: u32, v: u32, delta: i64) {
        let n = self.vertices.len();
        assert!(
            (u as usize) < n && (v as usize) < n,
            "endpoint out of range"
        );
        if u == v {
            return;
        }
        let idx = edge_coordinate(u, v);
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        let (head, tail) = self.vertices.split_at_mut(b as usize);
        VertexSketch::update_pair(
            &mut head[a as usize],
            &mut tail[0],
            &self.shared,
            idx,
            delta,
        );
    }

    /// Sketch-space Borůvka restricted to `members` (sorted ascending, no
    /// duplicates), which must be a union of whole connected components of
    /// the current edge multiset — then every edge incident to a member stays
    /// inside the set and the signed coordinates of any sub-part's sum are
    /// exactly its outgoing edges within the set.
    ///
    /// Returns the certified exact partition of `members` into connected
    /// parts, or `None` when the phase budget is exhausted before a phase
    /// certifies (every part's summed sampler reads zero on level 0, which
    /// holds all coordinates — a false zero needs a fingerprint collision).
    /// `None` means "sampling failure, escalate"; it never silently returns
    /// an uncertified partition.
    ///
    /// Deterministic: parts are discovered in first-seen member order and
    /// reported ordered by smallest member.
    ///
    /// # Panics
    ///
    /// Panics if `members` is unsorted, has duplicates, or contains an
    /// out-of-range vertex.
    pub fn subset_components(&self, members: &[u32]) -> Option<SubsetPartition> {
        let k = members.len();
        assert!(
            members.windows(2).all(|w| w[0] < w[1]),
            "members must be sorted ascending without duplicates"
        );
        if let Some(&last) = members.last() {
            assert!((last as usize) < self.vertices.len(), "member out of range");
        }
        if k <= 1 {
            return Some(SubsetPartition {
                parts: members.iter().map(|&m| vec![m]).collect(),
                phases_used: 0,
            });
        }

        // Local union-find over member positions; global ids map back via
        // binary search in the sorted member slice.
        let mut parent: Vec<u32> = (0..k as u32).collect();
        fn find(parent: &mut [u32], mut x: u32) -> u32 {
            while parent[x as usize] != x {
                let g = parent[parent[x as usize] as usize];
                parent[x as usize] = g;
                x = g;
            }
            x
        }

        let mut slot_of_root = vec![usize::MAX; k];
        // One extra iteration past the last phase: the final phase's unions
        // may complete the partition, and the zero test is valid on any
        // phase's samplers (level 0 holds every coordinate regardless of the
        // phase's sub-sampling randomness).
        let num_phases = self.num_phases();
        for round in 0..=num_phases {
            let phase = round.min(num_phases - 1);
            let mut acc: Vec<(u32, L0Sampler)> = Vec::new();
            for (pos, &m) in members.iter().enumerate() {
                let root = find(&mut parent, pos as u32);
                let sampler = self.vertices[m as usize].phase_sampler(phase);
                if slot_of_root[root as usize] == usize::MAX {
                    slot_of_root[root as usize] = acc.len();
                    acc.push((root, sampler.clone()));
                } else {
                    acc[slot_of_root[root as usize]].1.merge(sampler);
                }
            }
            for &(root, _) in &acc {
                slot_of_root[root as usize] = usize::MAX;
            }
            let all_zero = acc.iter().all(|(_, s)| s.is_zero());
            if all_zero {
                // Certified: every current part has no edge leaving it within
                // the member set, so the parts are exact connected components.
                let mut parts: Vec<Vec<u32>> = Vec::new();
                let mut part_of_root = vec![usize::MAX; k];
                for (pos, &m) in members.iter().enumerate() {
                    let root = find(&mut parent, pos as u32) as usize;
                    if part_of_root[root] == usize::MAX {
                        part_of_root[root] = parts.len();
                        parts.push(Vec::new());
                    }
                    parts[part_of_root[root]].push(m);
                }
                // First-seen order over ascending members already orders parts
                // by smallest member and each part ascending.
                return Some(SubsetPartition {
                    parts,
                    phases_used: round,
                });
            }
            if round == num_phases {
                return None;
            }
            for (_, sampler) in acc {
                if sampler.is_zero() {
                    continue;
                }
                if let Some((idx, _weight)) = sampler.sample_with(|i| self.shared.pow(phase, i)) {
                    let (u, v) = decode_edge_coordinate(idx);
                    // A fingerprint collision can surface a garbage
                    // coordinate; only union endpoints that are both members.
                    if let (Ok(pu), Ok(pv)) = (members.binary_search(&u), members.binary_search(&v))
                    {
                        let (ru, rv) = (find(&mut parent, pu as u32), find(&mut parent, pv as u32));
                        if ru != rv {
                            // Union by smaller root id keeps the structure a
                            // pure function of the union sequence.
                            let (lo, hi) = if ru < rv { (ru, rv) } else { (rv, ru) };
                            parent[hi as usize] = lo;
                        }
                    }
                }
            }
        }
        unreachable!("loop returns on certification or exhaustion");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sketch_with(n: usize, edges: &[(u32, u32)]) -> DynamicConnectivitySketch {
        let mut sk = DynamicConnectivitySketch::new(24, 42);
        for _ in 0..n {
            sk.push_vertex();
        }
        for &(u, v) in edges {
            sk.add_edge(u, v);
        }
        sk
    }

    fn all_members(n: usize) -> Vec<u32> {
        (0..n as u32).collect()
    }

    #[test]
    fn empty_member_set_certifies_trivially() {
        let sk = sketch_with(4, &[]);
        let p = sk.subset_components(&[]).unwrap();
        assert!(p.parts.is_empty());
        let p = sk.subset_components(&[2]).unwrap();
        assert_eq!(p.parts, vec![vec![2]]);
    }

    #[test]
    fn connected_subset_certifies_as_one_part() {
        let sk = sketch_with(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let p = sk.subset_components(&all_members(6)).unwrap();
        assert_eq!(p.parts, vec![all_members(6)]);
    }

    #[test]
    fn deletion_splits_a_cycle() {
        let n = 20u32;
        let mut sk = sketch_with(
            n as usize,
            &(0..n).map(|i| (i, (i + 1) % n)).collect::<Vec<_>>(),
        );
        sk.remove_edge(0, 1);
        // Still a path: one part.
        let p = sk.subset_components(&all_members(n as usize)).unwrap();
        assert_eq!(p.parts.len(), 1);
        sk.remove_edge(10, 11);
        let p = sk.subset_components(&all_members(n as usize)).unwrap();
        assert_eq!(p.parts.len(), 2);
        // Ordered by smallest member: the part containing vertex 0 first.
        let mut first: Vec<u32> = (11..n).collect();
        first.insert(0, 0);
        assert_eq!(p.parts[0], first);
        assert_eq!(p.parts[1], (1..=10).collect::<Vec<u32>>());
    }

    #[test]
    fn full_teardown_yields_singletons() {
        let edges = [(0, 1), (1, 2), (0, 2)];
        let mut sk = sketch_with(3, &edges);
        for &(u, v) in &edges {
            sk.remove_edge(u, v);
        }
        let p = sk.subset_components(&[0, 1, 2]).unwrap();
        assert_eq!(p.parts, vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn delete_reinsert_cancels_exactly() {
        let base = sketch_with(5, &[(0, 1), (2, 3)]);
        let mut churned = base.clone();
        churned.add_edge(1, 2);
        churned.add_edge(3, 4);
        churned.remove_edge(3, 4);
        churned.remove_edge(1, 2);
        assert_eq!(base, churned);
    }

    #[test]
    fn parallel_edges_need_matching_deletes() {
        let mut sk = sketch_with(2, &[(0, 1), (0, 1)]);
        sk.remove_edge(0, 1);
        // One copy survives: still connected.
        let p = sk.subset_components(&[0, 1]).unwrap();
        assert_eq!(p.parts.len(), 1);
        sk.remove_edge(0, 1);
        let p = sk.subset_components(&[0, 1]).unwrap();
        assert_eq!(p.parts.len(), 2);
    }

    #[test]
    fn pushed_vertices_join_later() {
        let mut sk = sketch_with(2, &[(0, 1)]);
        sk.push_vertex();
        sk.add_edge(1, 2);
        let p = sk.subset_components(&[0, 1, 2]).unwrap();
        assert_eq!(p.parts, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn subset_restricted_to_whole_components_is_exact() {
        // Two triangles; querying one triangle's members must not see the other.
        let sk = sketch_with(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]);
        let p = sk.subset_components(&[0, 1, 2]).unwrap();
        assert_eq!(p.parts, vec![vec![0, 1, 2]]);
        let p = sk.subset_components(&[3, 4, 5]).unwrap();
        assert_eq!(p.parts, vec![vec![3, 4, 5]]);
        // The union of both components is also a valid member set.
        let p = sk.subset_components(&all_members(6)).unwrap();
        assert_eq!(p.parts, vec![vec![0, 1, 2], vec![3, 4, 5]]);
    }

    #[test]
    fn subset_components_is_deterministic() {
        let sk = sketch_with(12, &[(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11)]);
        let a = sk.subset_components(&all_members(12)).unwrap();
        let b = sk.subset_components(&all_members(12)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn pair_updates_equal_per_vertex_sampler_updates() {
        use rand::{Rng, SeedableRng};
        let (n, phases, seed) = (24u32, 5, 42u64);
        let mut sk = DynamicConnectivitySketch::new(phases, seed);
        for _ in 0..n {
            sk.push_vertex();
        }
        // The reference: each endpoint's samplers updated on their own.
        let mut reference: Vec<Vec<L0Sampler>> = (0..n)
            .map(|_| {
                (0..phases)
                    .map(|p| L0Sampler::new(seed.wrapping_add(0x9E37_79B9 * (p as u64 + 1))))
                    .collect()
            })
            .collect();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let mut live: Vec<(u32, u32)> = Vec::new();
        for _ in 0..300 {
            let (u, v, delta) = if !live.is_empty() && rng.gen_bool(0.4) {
                let (u, v) = live.swap_remove(rng.gen_range(0..live.len()));
                sk.remove_edge(u, v);
                (u, v, -1)
            } else {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                sk.add_edge(u, v);
                live.push((u, v));
                (u, v, 1)
            };
            if u == v {
                continue;
            }
            let idx = edge_coordinate(u, v);
            for s in &mut reference[u.min(v) as usize] {
                s.update(idx, delta);
            }
            for s in &mut reference[u.max(v) as usize] {
                s.update(idx, -delta);
            }
        }
        for (v, samplers) in reference.iter().enumerate() {
            for (p, want) in samplers.iter().enumerate() {
                assert_eq!(
                    sk.vertices[v].phase_sampler(p),
                    want,
                    "vertex {v} phase {p}"
                );
            }
        }
    }

    #[test]
    fn insert_then_delete_of_a_high_level_coordinate_leaves_the_sketch_unchanged() {
        let base = sketch_with(64, &[(0, 1), (2, 3), (5, 40)]);
        // The pair whose coordinate reaches the highest level in any phase.
        let level = |u: u32, v: u32| {
            (0..base.num_phases())
                .map(|p| {
                    let seed = base.vertices[0].phase_sampler(p).seed();
                    crate::l0::level_of(seed, edge_coordinate(u, v))
                })
                .max()
                .unwrap()
        };
        let (u, v) = (0..64u32)
            .flat_map(|u| (u + 1..64).map(move |v| (u, v)))
            .max_by_key(|&(u, v)| level(u, v))
            .unwrap();
        assert!(level(u, v) >= 10, "no high-level pair among 2016");
        let mut churned = base.clone();
        churned.add_edge(u, v);
        assert_ne!(churned, base);
        churned.remove_edge(v, u);
        assert_eq!(churned, base);
        assert_eq!(churned, {
            let mut fresh = sketch_with(64, &[]);
            for (a, b) in [(5, 40), (2, 3), (0, 1)] {
                fresh.add_edge(a, b);
            }
            fresh
        });
    }

    #[test]
    fn words_per_vertex_is_pinned_at_the_61_level_model_size() {
        // 26 phases × (seed + 61 levels × 4 words): the words the stream
        // engine charges per repaired member.
        assert_eq!(
            DynamicConnectivitySketch::new(26, 7).words_per_vertex(),
            6370
        );
    }

    #[test]
    fn words_per_vertex_is_constant_and_positive() {
        let mut sk = DynamicConnectivitySketch::new(8, 7);
        let w = sk.words_per_vertex();
        assert!(w > 0);
        sk.push_vertex();
        sk.push_vertex();
        sk.add_edge(0, 1);
        assert_eq!(sk.words_per_vertex(), w);
    }

    #[test]
    #[should_panic(expected = "sorted ascending")]
    fn unsorted_members_panic() {
        let sk = sketch_with(3, &[]);
        let _ = sk.subset_components(&[2, 0]);
    }
}
