//! The Ahn–Guha–McGregor connectivity sketch (Proposition 8.1).
//!
//! Every vertex `v` owns the *signed edge-incidence vector* `a_v`, indexed by
//! ordered vertex pairs: for an edge `{u, v}` with `u < v`, coordinate
//! `(u, v)` of `a_u` is `+1` and of `a_v` is `−1`; all other coordinates are
//! zero. The crucial linearity property: for any vertex set `S`, the non-zero
//! coordinates of `Σ_{v∈S} a_v` are exactly the edges with one endpoint in
//! `S` — internal edges cancel.
//!
//! Each vertex keeps `t = O(log n)` independent [`L0Sampler`]s of `a_v`.
//! Borůvka then runs entirely in sketch space: in phase `i`, every current
//! component sums its members' `i`-th samplers, samples one outgoing edge
//! (if any), and the sampled edges merge components. Using a *fresh* sampler
//! per phase keeps the samples independent of the merging decisions — the
//! same "fresh randomness per phase" idea the paper reuses for its
//! leader-election algorithm in Section 6. After `O(log n)` phases no
//! component has an outgoing edge and the components are exactly the
//! connected components of the graph.

use crate::l0::{fingerprint_point, level_of, L0Sampler};
use crate::one_sparse::{field_of, mul_mod, Measurements, PowerTable};

use wcc_graph::{ComponentLabels, UnionFind};

/// The shared random bits of Proposition 8.1 for `num_phases` Borůvka
/// phases: per phase, the seed of the ℓ0-samplers' level hash, their
/// fingerprint point `z`, and a table of the powers `z^(j·256^i)` that
/// turns `z^index` into 7 multiplies. Every vertex sketch of one
/// connectivity sketch is built from the same value, which is what makes
/// the vertex sketches addable; the tables are held once here, not per
/// vertex.
#[derive(Debug, Clone)]
pub struct SharedRandomness {
    seed: u64,
    phases: Vec<PhaseHash>,
}

#[derive(Debug, Clone)]
struct PhaseHash {
    seed: u64,
    powers: PowerTable,
}

impl PhaseHash {
    /// The level of coordinate `index` and the measurements of the update
    /// `vector[index] += delta`. Both are the same for every level of a
    /// sampler and for every vertex.
    fn hash(&self, index: u64, delta: i64) -> (usize, Measurements) {
        let term = mul_mod(field_of(delta), self.powers.pow(index));
        (
            level_of(self.seed, index),
            Measurements::of_update(index, delta, term),
        )
    }
}

impl SharedRandomness {
    /// Derives the per-phase hashes from `seed` (phase `p` samples with the
    /// seed `seed + 0x9E3779B9·(p + 1)`).
    pub fn new(num_phases: usize, seed: u64) -> Self {
        let phases = (0..num_phases)
            .map(|p| {
                let seed = seed.wrapping_add(0x9E37_79B9 * (p as u64 + 1));
                PhaseHash {
                    seed,
                    powers: PowerTable::new(fingerprint_point(seed)),
                }
            })
            .collect();
        SharedRandomness { seed, phases }
    }

    /// Number of Borůvka phases.
    pub fn num_phases(&self) -> usize {
        self.phases.len()
    }

    /// `z^index mod p` for phase `phase`'s fingerprint point.
    pub(crate) fn pow(&self, phase: usize, index: u64) -> u64 {
        self.phases[phase].powers.pow(index)
    }
}

/// Equal exactly when built from the same phase count and seed (the tables
/// are a function of both).
impl PartialEq for SharedRandomness {
    fn eq(&self, other: &Self) -> bool {
        self.seed == other.seed && self.phases.len() == other.phases.len()
    }
}

impl Eq for SharedRandomness {}

/// The per-vertex message of Proposition 8.1: `num_phases` independent
/// ℓ0-samplers of the vertex's signed edge-incidence vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VertexSketch {
    samplers: Vec<L0Sampler>,
}

impl VertexSketch {
    pub(crate) fn new(shared: &SharedRandomness) -> Self {
        VertexSketch {
            samplers: shared
                .phases
                .iter()
                .map(|ph| L0Sampler::new(ph.seed))
                .collect(),
        }
    }

    /// Applies `vector[index] += delta` to every phase's sampler.
    pub(crate) fn update(&mut self, shared: &SharedRandomness, index: u64, delta: i64) {
        for (s, ph) in self.samplers.iter_mut().zip(&shared.phases) {
            let (level, update) = ph.hash(index, delta);
            s.apply(level, &update);
        }
    }

    /// Applies the signed incidence update of one edge: `+delta` at
    /// `index` to `lo`'s samplers and `-delta` to `hi`'s, hashing the
    /// coordinate once per phase for both endpoints.
    pub(crate) fn update_pair(
        lo: &mut VertexSketch,
        hi: &mut VertexSketch,
        shared: &SharedRandomness,
        index: u64,
        delta: i64,
    ) {
        let pairs = lo.samplers.iter_mut().zip(hi.samplers.iter_mut());
        for ((a, b), ph) in pairs.zip(&shared.phases) {
            let (level, update) = ph.hash(index, delta);
            a.apply(level, &update);
            b.apply(level, &update.negated());
        }
    }

    /// The phase-`phase` ℓ0-sampler of this vertex (one independent sampler
    /// per Borůvka phase).
    pub(crate) fn phase_sampler(&self, phase: usize) -> &L0Sampler {
        &self.samplers[phase]
    }

    /// Adds another vertex's message to this one (sketches are linear, so the
    /// sum is the sketch of the combined incidence vector). Used when several
    /// original vertices are contracted into one super-vertex before their
    /// messages are sent to the coordinator.
    pub fn merge(&mut self, other: &VertexSketch) {
        for (a, b) in self.samplers.iter_mut().zip(other.samplers.iter()) {
            a.merge(b);
        }
    }

    /// Size of this message in machine words (the quantity Proposition 8.1
    /// bounds by `O(log³ n)` bits).
    pub fn size_in_words(&self) -> usize {
        self.samplers.iter().map(|s| s.size_in_words()).sum()
    }
}

/// The full AGM connectivity sketch of a graph on `n` vertices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnectivitySketch {
    n: usize,
    shared: SharedRandomness,
    vertices: Vec<VertexSketch>,
}

impl ConnectivitySketch {
    /// Creates a sketch for a graph on `n` vertices using a default number of
    /// Borůvka phases (`2·⌈log₂ n⌉ + 2`) and a fixed seed.
    pub fn new(n: usize, seed: u64) -> Self {
        let phases = 2 * (usize::BITS - n.max(2).leading_zeros()) as usize + 2;
        Self::with_phases(n, phases, seed)
    }

    /// Creates a sketch with an explicit number of Borůvka phases. More
    /// phases increase both the success probability and the message size.
    ///
    /// All vertices share the same per-phase hash seeds — this is the
    /// "players have access to `polylog(n)` shared random bits" requirement
    /// of Proposition 8.1, and it is what makes sketches of different
    /// vertices addable.
    pub fn with_phases(n: usize, num_phases: usize, seed: u64) -> Self {
        let shared = SharedRandomness::new(num_phases, seed);
        ConnectivitySketch {
            n,
            vertices: (0..n).map(|_| VertexSketch::new(&shared)).collect(),
            shared,
        }
    }

    /// Reassembles a sketch from per-vertex messages built independently
    /// with [`ConnectivitySketch::vertex_sketch_for`] from the same
    /// `shared` randomness — the fan-in half of a per-vertex parallel
    /// construction. Equivalent to feeding every edge through
    /// [`ConnectivitySketch::add_edge`] (sketch updates are linear, so
    /// per-vertex construction order cannot matter).
    ///
    /// # Panics
    ///
    /// Panics if `vertices.len() != n`.
    pub fn from_vertex_sketches(
        n: usize,
        shared: SharedRandomness,
        vertices: Vec<VertexSketch>,
    ) -> Self {
        assert_eq!(vertices.len(), n, "one message per vertex required");
        ConnectivitySketch {
            n,
            shared,
            vertices,
        }
    }

    /// Builds the message of a single vertex of an `n`-vertex graph from its
    /// neighbour list (as stored by
    /// [`Graph::neighbors`](wcc_graph::Graph::neighbors); self-loops are
    /// ignored, parallel edges counted with multiplicity). A pure function
    /// of `(shared, v, neighbors)`, so callers can fan the per-vertex work
    /// out on any execution backend and reassemble with
    /// [`ConnectivitySketch::from_vertex_sketches`].
    pub fn vertex_sketch_for(
        shared: &SharedRandomness,
        n: usize,
        v: usize,
        neighbors: &[u32],
    ) -> VertexSketch {
        assert!(v < n, "vertex out of range");
        let mut sketch = VertexSketch::new(shared);
        for &w in neighbors {
            let w = w as usize;
            if w == v {
                continue;
            }
            let (a, b) = if v < w { (v, w) } else { (w, v) };
            let idx = a as u64 * n as u64 + b as u64;
            sketch.update(shared, idx, if v == a { 1 } else { -1 });
        }
        sketch
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Encodes the ordered pair `(u, v)`, `u < v`, as an ℓ0 coordinate.
    fn edge_index(&self, u: usize, v: usize) -> u64 {
        debug_assert!(u < v);
        u as u64 * self.n as u64 + v as u64
    }

    fn decode_edge(&self, index: u64) -> (usize, usize) {
        (
            (index / self.n as u64) as usize,
            (index % self.n as u64) as usize,
        )
    }

    /// Inserts the undirected edge `{u, v}`. Self-loops are ignored (they are
    /// irrelevant for connectivity and have no slot in the incidence vector).
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn add_edge(&mut self, u: usize, v: usize) {
        self.apply_edge(u, v, 1);
    }

    /// Deletes the undirected edge `{u, v}` (the sketch is linear, so
    /// deletions are just negative updates).
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn remove_edge(&mut self, u: usize, v: usize) {
        self.apply_edge(u, v, -1);
    }

    fn apply_edge(&mut self, u: usize, v: usize, delta: i64) {
        assert!(u < self.n && v < self.n, "edge endpoint out of range");
        if u == v {
            return;
        }
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        let idx = self.edge_index(a, b);
        let (head, tail) = self.vertices.split_at_mut(b);
        VertexSketch::update_pair(&mut head[a], &mut tail[0], &self.shared, idx, delta);
    }

    /// The per-vertex message for vertex `v` (what each "player" sends to the
    /// coordinator in Proposition 8.1).
    pub fn vertex_sketch(&self, v: usize) -> &VertexSketch {
        &self.vertices[v]
    }

    /// Total size of all messages, in words.
    pub fn total_size_in_words(&self) -> usize {
        self.vertices.iter().map(|v| v.size_in_words()).sum()
    }

    /// The coordinator's computation: recovers the connected components from
    /// the vertex sketches alone by sketch-space Borůvka.
    ///
    /// With the default number of phases the output equals the true
    /// components with high probability; it is always a *refinement* of the
    /// true components (the sketch can fail to merge, but a sampled edge is
    /// always a real edge thanks to the fingerprint test).
    pub fn components(&self) -> ComponentLabels {
        let mut uf = UnionFind::new(self.n);
        // Scratch map from component representative to its accumulator slot,
        // reused across phases (roots are vertex ids, so a flat vector
        // replaces the hash map and keeps the iteration order deterministic:
        // components are visited in first-seen vertex order).
        let mut slot_of_root = vec![usize::MAX; self.n];
        for phase in 0..self.shared.num_phases() {
            // Sum the phase-th sampler of each component.
            let mut acc: Vec<(usize, L0Sampler)> = Vec::new();
            for v in 0..self.n {
                let root = uf.find(v);
                let sampler = &self.vertices[v].samplers[phase];
                if slot_of_root[root] == usize::MAX {
                    slot_of_root[root] = acc.len();
                    acc.push((root, sampler.clone()));
                } else {
                    acc[slot_of_root[root]].1.merge(sampler);
                }
            }
            for &(root, _) in &acc {
                slot_of_root[root] = usize::MAX;
            }
            // A phase may merge nothing just because every component's sample
            // failed (each fails with constant probability) — that is not
            // convergence, and later phases have fresh randomness. Exit early
            // only when no component has an outgoing edge: `is_zero` tests
            // level 0 (which holds every coordinate), so a false "zero"
            // requires a fingerprint collision, probability O(n²/p) per check.
            let mut all_zero = true;
            for (_root, sampler) in acc {
                if sampler.is_zero() {
                    continue;
                }
                all_zero = false;
                if let Some((idx, _weight)) = sampler.sample_with(|i| self.shared.pow(phase, i)) {
                    let (u, v) = self.decode_edge(idx);
                    if u < self.n && v < self.n {
                        uf.union(u, v);
                    }
                }
            }
            if all_zero {
                break;
            }
        }
        uf.into_labels()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use wcc_graph::prelude::*;

    fn sketch_components(g: &Graph, seed: u64) -> ComponentLabels {
        let mut sk = ConnectivitySketch::new(g.num_vertices(), seed);
        for (u, v) in g.edge_iter() {
            sk.add_edge(u, v);
        }
        sk.components()
    }

    #[test]
    fn per_vertex_construction_matches_add_edge() {
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let g = generators::random_out_degree_graph(80, 6, &mut rng);
        let n = g.num_vertices();
        let (phases, seed) = (20, 99);
        let mut incremental = ConnectivitySketch::with_phases(n, phases, seed);
        for (u, v) in g.edge_iter() {
            incremental.add_edge(u, v);
        }
        let shared = SharedRandomness::new(phases, seed);
        let messages: Vec<VertexSketch> = (0..n)
            .map(|v| ConnectivitySketch::vertex_sketch_for(&shared, n, v, g.neighbors(v)))
            .collect();
        let assembled = ConnectivitySketch::from_vertex_sketches(n, shared, messages);
        assert_eq!(incremental, assembled);
    }

    #[test]
    fn empty_graph_has_all_singletons() {
        let g = Graph::empty(10);
        let labels = sketch_components(&g, 1);
        assert_eq!(labels.num_components(), 10);
    }

    #[test]
    fn cycle_is_one_component() {
        let g = generators::cycle(50);
        assert_eq!(sketch_components(&g, 2).num_components(), 1);
    }

    #[test]
    fn two_cliques_stay_separate() {
        let (g, _) =
            generators::disjoint_union_of(&[generators::complete(8), generators::complete(9)]);
        let truth = connected_components(&g);
        let got = sketch_components(&g, 3);
        assert!(got.same_partition(&truth));
    }

    #[test]
    fn random_graphs_match_ground_truth() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for seed in 0..5u64 {
            let g = generators::erdos_renyi(120, 0.02, &mut rng);
            let truth = connected_components(&g);
            let got = sketch_components(&g, seed);
            assert!(
                got.same_partition(&truth),
                "seed {seed}: sketch {} vs truth {} components",
                got.num_components(),
                truth.num_components()
            );
        }
    }

    #[test]
    fn output_is_always_a_refinement_even_with_too_few_phases() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let g = generators::random_out_degree_graph(200, 8, &mut rng);
        let truth = connected_components(&g);
        let mut sk = ConnectivitySketch::with_phases(g.num_vertices(), 1, 7);
        for (u, v) in g.edge_iter() {
            sk.add_edge(u, v);
        }
        let got = sk.components();
        assert!(got.is_refinement_of(&truth));
    }

    #[test]
    fn deletion_stream_is_supported() {
        // Build a cycle, then delete one edge: still connected. Delete another: splits.
        let n = 30;
        let mut sk = ConnectivitySketch::new(n, 9);
        for i in 0..n {
            sk.add_edge(i, (i + 1) % n);
        }
        sk.remove_edge(0, 1);
        assert_eq!(sk.components().num_components(), 1);
        sk.remove_edge(15, 16);
        assert_eq!(sk.components().num_components(), 2);
    }

    #[test]
    fn self_loops_are_ignored() {
        let mut sk = ConnectivitySketch::new(5, 4);
        sk.add_edge(2, 2);
        assert_eq!(sk.components().num_components(), 5);
    }

    #[test]
    fn message_size_is_polylogarithmic() {
        let sk = ConnectivitySketch::new(1 << 12, 0);
        let per_vertex = sk.vertex_sketch(0).size_in_words();
        // O(log^2)-ish words per vertex; definitely far below n.
        assert!(per_vertex < 10_000, "per-vertex message {per_vertex} words");
        assert_eq!(sk.total_size_in_words(), per_vertex * (1 << 12));
    }

    #[test]
    fn planted_expanders_recovered() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let g = generators::planted_expander_components(&[40, 60, 80], 8, &mut rng);
        let truth = connected_components(&g);
        let got = sketch_components(&g, 13);
        assert!(got.same_partition(&truth));
    }
}
