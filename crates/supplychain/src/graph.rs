//! The news blockchain supply-chain graph (paper Figure 4).
//!
//! Nodes are news items (and factual-database roots); edges record which
//! parent(s) an item derived from, with which [`PropagationOp`], and the
//! measured modification degree. Because an item's parents must already
//! exist when it is inserted, the graph is a DAG by construction, and
//! trace-back — "one group is able to trace back to the factual database
//! … and the other group cannot" (§VI) — is answered when the item is
//! inserted, not when it is asked.
//!
//! # Stored answers
//!
//! Nodes live in one insertion-ordered arena, parents at lower indices
//! than their children. Beside its item every node keeps a fixed-size
//! summary of its best path to a fact root: whether one exists, its score
//! Π(1 − modificationᵢ), hop count and Σ modificationᵢ, the arena index
//! of the next hop, the largest-modification hop and who made it, and the
//! origin author. A node's summary is a function of its own edges and its
//! parents' summaries, and nothing a node's answer depends on can change
//! afterwards: nodes are never removed or edited, and an edge can only
//! point at a node that already exists, so no later insert reaches an
//! earlier node's ancestry. That immutability is the whole invalidation
//! story — there is nothing to invalidate, so there is no cache, no
//! recomputation and no lock. Ranking, culprit and origin reads are one
//! lookup; a trace follows the next-hop links to write its path out,
//! O(path) and iterative — chain depth is outside input (any account can
//! relay its own item without end) and must never become stack depth.
//!
//! Summaries and the expertise tallies ([`crate::expert`]) are derived
//! data: [`SupplyChainGraph::digest`] and [`SupplyChainGraph::to_bytes`]
//! cover items and edges only, and [`SupplyChainGraph::from_bytes`]
//! recomputes both in insertion order. `tests/trace_oracle.rs` holds
//! every read to the recursive definition bit for bit.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use tn_crypto::sha256::{tagged_hash, tagged_hasher};
use tn_crypto::{Address, Hash256};

use crate::expert::ExpertTallies;
use crate::ops::PropagationOp;
use crate::text::modification_degree;

/// A parent edge of a news item.
#[derive(Debug, Clone, PartialEq)]
pub struct ParentRef {
    /// Parent item id.
    pub id: Hash256,
    /// Operation that derived this item from the parent.
    pub(crate) op: PropagationOp,
    /// Measured modification degree in `[0, 1]` (0 = verbatim).
    pub modification: f64,
}

/// A node in the supply-chain graph.
#[derive(Debug, Clone, PartialEq)]
pub struct NewsItem {
    /// Content-addressed id.
    pub id: Hash256,
    /// Publishing account.
    pub author: Address,
    /// Full text (kept in-graph; the chain stores the same bytes in blobs).
    pub content: String,
    /// Topic label.
    pub topic: String,
    /// News room the item was published into.
    pub(crate) room: u64,
    /// Parent edges (empty for original, unsourced claims).
    pub parents: Vec<ParentRef>,
    /// True for factual-database root nodes.
    pub is_fact_root: bool,
    /// Publication time.
    pub(crate) published_at: u64,
}

/// Computes the content-addressed id of an item from its identity fields.
pub fn item_id(author: &Address, content: &str, published_at: u64) -> Hash256 {
    let mut data = Vec::with_capacity(40 + content.len());
    data.extend_from_slice(author.as_hash().as_bytes());
    data.extend_from_slice(&published_at.to_le_bytes());
    data.extend_from_slice(content.as_bytes());
    tagged_hash("TN/news-item", &data)
}

/// Errors from graph operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// Item id already present.
    Duplicate(Hash256),
    /// A referenced parent does not exist.
    MissingParent(Hash256),
    /// Unknown item id.
    NotFound(Hash256),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Duplicate(h) => write!(f, "item {} already in graph", h.short()),
            GraphError::MissingParent(h) => write!(f, "parent {} not in graph", h.short()),
            GraphError::NotFound(h) => write!(f, "item {} not in graph", h.short()),
        }
    }
}

impl Error for GraphError {}

/// Result of tracing an item back toward the factual database.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceResult {
    /// True when at least one path reaches a fact root.
    pub reaches_root: bool,
    /// Best path quality: max over root paths of Π(1 − modificationᵢ);
    /// 0.0 when no root is reachable.
    pub score: f64,
    /// Hop count of the best-scoring path (None when unreachable).
    pub distance: Option<usize>,
    /// Item ids along the best path, from the item (inclusive) to the
    /// root (inclusive). Empty when unreachable.
    pub path: Vec<Hash256>,
    /// Sum of modification degrees along the best path.
    pub cumulative_modification: f64,
}

/// A [`TraceResult`] without its path: what ranking needs of a trace, at
/// a fixed size whatever the depth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSummary {
    /// True when at least one path reaches a fact root.
    pub reaches_root: bool,
    /// Best path quality, as [`TraceResult::score`].
    pub(crate) score: f64,
    /// Hop count of the best-scoring path (None when unreachable).
    pub(crate) distance: Option<usize>,
    /// Sum of modification degrees along the best path.
    pub(crate) cumulative_modification: f64,
}

impl TraceSummary {
    /// A fact root: the path is the root itself.
    const ROOT: TraceSummary = TraceSummary {
        reaches_root: true,
        score: 1.0,
        distance: Some(0),
        cumulative_modification: 0.0,
    };
    /// No path to any root.
    const UNREACHABLE: TraceSummary = TraceSummary {
        reaches_root: false,
        score: 0.0,
        distance: None,
        cumulative_modification: 0.0,
    };
}

/// The stored answer of a node: everything the provenance reads report
/// about its best path except the path itself, which is the chain of
/// `next` links. Computed once, when the node enters the arena.
#[derive(Debug, Clone, Copy)]
struct Summary {
    trace: TraceSummary,
    /// Arena index of the parent the best path continues through; `None`
    /// on a root and on an item that reaches none.
    next: Option<usize>,
    /// The largest-modification hop of the best path, as `(author of the
    /// hop's child, modification)`; of equal hops the one nearest this
    /// node. `None` on a path without hops.
    worst_hop: Option<(Address, f64)>,
    /// Author of the node before the root on the best path; for an item
    /// that reaches no root, of the unsourced item its first-parent chain
    /// ends at. `None` on a root.
    origin: Option<Address>,
}

#[derive(Debug)]
struct Node {
    item: NewsItem,
    children: Vec<Hash256>,
    summary: Summary,
}

/// The supply-chain graph.
#[derive(Debug, Default)]
pub struct SupplyChainGraph {
    /// Every node, in insertion order. A node's parents sit at lower
    /// indices, and neither they nor their summaries ever change.
    nodes: Vec<Node>,
    /// Item id → position in `nodes`.
    index: HashMap<Hash256, usize>,
    experts: ExpertTallies,
}

impl SupplyChainGraph {
    /// New empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes (items + roots).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of fact-root nodes.
    pub fn root_count(&self) -> usize {
        self.iter().filter(|i| i.is_fact_root).count()
    }

    /// Total number of parent edges.
    pub fn edge_count(&self) -> usize {
        self.iter().map(|i| i.parents.len()).sum()
    }

    /// Adds a factual-database record as a root node.
    ///
    /// # Errors
    ///
    /// [`GraphError::Duplicate`] if the id is present.
    pub fn add_fact_root(
        &mut self,
        id: Hash256,
        content: &str,
        topic: &str,
        recorded_at: u64,
    ) -> Result<(), GraphError> {
        if self.index.contains_key(&id) {
            return Err(GraphError::Duplicate(id));
        }
        self.push(
            NewsItem {
                id,
                author: Address::SYSTEM,
                content: content.to_string(),
                topic: topic.to_string(),
                room: 0,
                parents: Vec::new(),
                is_fact_root: true,
                published_at: recorded_at,
            },
            &[],
        );
        Ok(())
    }

    /// Inserts a news item whose parents (if any) must already exist.
    /// Modification degrees on the parent edges are recomputed from the
    /// actual texts, so callers cannot claim a smaller modification than
    /// they made — this is the "completely transparent" property §VI
    /// derives from on-chain recording.
    ///
    /// # Errors
    ///
    /// [`GraphError::Duplicate`] or [`GraphError::MissingParent`].
    pub fn insert(
        &mut self,
        author: Address,
        content: &str,
        topic: &str,
        room: u64,
        parents: Vec<(Hash256, PropagationOp)>,
        published_at: u64,
    ) -> Result<Hash256, GraphError> {
        let id = item_id(&author, content, published_at);
        if self.index.contains_key(&id) {
            return Err(GraphError::Duplicate(id));
        }
        let mut parent_refs = Vec::with_capacity(parents.len());
        let mut parent_idx = Vec::with_capacity(parents.len());
        for (pid, op) in parents {
            let idx = *self.index.get(&pid).ok_or(GraphError::MissingParent(pid))?;
            parent_refs.push(ParentRef {
                id: pid,
                op,
                modification: modification_degree(&self.nodes[idx].item.content, content),
            });
            parent_idx.push(idx);
        }
        self.push(
            NewsItem {
                id,
                author,
                content: content.to_string(),
                topic: topic.to_string(),
                room,
                parents: parent_refs,
                is_fact_root: false,
                published_at,
            },
            &parent_idx,
        );
        Ok(id)
    }

    /// Appends a node whose id is new; `parent_idx[i]` is the arena index
    /// of `item.parents[i]`. The one place a node's summary is computed
    /// and the expertise tallies move.
    fn push(&mut self, item: NewsItem, parent_idx: &[usize]) {
        let summary = self.summarize(&item, parent_idx);
        if !item.is_fact_root {
            self.experts
                .record(&item.topic, item.author, &summary.trace);
        }
        for &parent in parent_idx {
            self.nodes[parent].children.push(item.id);
        }
        self.index.insert(item.id, self.nodes.len());
        self.nodes.push(Node {
            item,
            children: Vec::new(),
            summary,
        });
    }

    /// The best path of a node about to enter the arena, from its
    /// parents' stored answers: max over reaching parents of `parent
    /// score × (1 − modification)`, the earlier edge winning unless a
    /// later one scores strictly higher or equal (within 1e-15) over a
    /// strictly shorter path.
    fn summarize(&self, item: &NewsItem, parent_idx: &[usize]) -> Summary {
        if item.is_fact_root {
            return Summary {
                trace: TraceSummary::ROOT,
                next: None,
                worst_hop: None,
                origin: None,
            };
        }
        let mut best = Summary {
            trace: TraceSummary::UNREACHABLE,
            next: None,
            worst_hop: None,
            // Replaced as soon as a parent reaches a root; an item that
            // reaches none inherits the end of its first-parent chain.
            origin: match parent_idx.first() {
                Some(&first) => self.nodes[first].summary.origin,
                None => Some(item.author),
            },
        };
        for (pref, &idx) in item.parents.iter().zip(parent_idx) {
            let parent = &self.nodes[idx].summary;
            if !parent.trace.reaches_root {
                continue;
            }
            let retention = (1.0 - pref.modification).max(0.0);
            let score = parent.trace.score * retention;
            let distance = parent.trace.distance.map(|d| d + 1);
            let better = score > best.trace.score
                || !best.trace.reaches_root
                || ((score - best.trace.score).abs() < 1e-15 && distance < best.trace.distance);
            if !better {
                continue;
            }
            // A path is a list of ids, so when a parent is named twice its
            // hop carries the first such edge's modification.
            let hop = item
                .parents
                .iter()
                .find(|p| p.id == pref.id)
                .map_or(pref.modification, |p| p.modification);
            best = Summary {
                trace: TraceSummary {
                    reaches_root: true,
                    score,
                    distance,
                    cumulative_modification: parent.trace.cumulative_modification
                        + pref.modification,
                },
                next: Some(idx),
                // Read from the item toward the root, the first of equal
                // hops is blamed: this node's own hop wins a tie.
                worst_hop: match parent.worst_hop {
                    Some((_, m)) if m > hop => parent.worst_hop,
                    _ => Some((item.author, hop)),
                },
                // A parent without an origin is a root: this is the
                // first publisher.
                origin: parent.origin.or(Some(item.author)),
            };
        }
        best
    }

    /// A hash of the entire graph state, covering every node (in
    /// insertion order) with its author, texts, and parent edges. Two
    /// graphs built from the same event sequence digest identically, so
    /// replicas and ledger replays can be compared by hash.
    pub fn digest(&self) -> Hash256 {
        // Streamed into the hasher a node at a time: the graph is hashed
        // after every block, and a buffer of its whole encoding would be
        // the largest allocation of a read-heavy node. One node's encoding
        // goes in as one piece, so its full blocks compress in one run.
        let mut h = tagged_hasher("TN/supplychain-graph");
        let mut node = Vec::new();
        for item in self.iter() {
            node.clear();
            node.extend_from_slice(item.id.as_bytes());
            node.extend_from_slice(item.author.as_hash().as_bytes());
            node.extend_from_slice(&(item.content.len() as u64).to_le_bytes());
            node.extend_from_slice(item.content.as_bytes());
            node.extend_from_slice(&(item.topic.len() as u64).to_le_bytes());
            node.extend_from_slice(item.topic.as_bytes());
            node.extend_from_slice(&item.room.to_le_bytes());
            node.extend_from_slice(&item.published_at.to_le_bytes());
            node.push(item.is_fact_root as u8);
            node.extend_from_slice(&(item.parents.len() as u64).to_le_bytes());
            for p in &item.parents {
                node.extend_from_slice(p.id.as_bytes());
                node.push(p.op.tag());
                node.extend_from_slice(&p.modification.to_bits().to_le_bytes());
            }
            h.update(&node);
        }
        h.finalize()
    }

    /// The node at arena index `idx`. Every read path reaches nodes
    /// through here, so tests can count how many a read visits.
    fn node(&self, idx: usize) -> &Node {
        count_visit();
        &self.nodes[idx]
    }

    fn lookup(&self, id: &Hash256) -> Result<&Node, GraphError> {
        let idx = self.index.get(id).ok_or(GraphError::NotFound(*id))?;
        Ok(self.node(*idx))
    }

    /// Looks up an item.
    pub fn get(&self, id: &Hash256) -> Option<&NewsItem> {
        self.lookup(id).ok().map(|node| &node.item)
    }

    /// Items derived from `id`.
    pub fn children_of(&self, id: &Hash256) -> &[Hash256] {
        self.lookup(id).map_or(&[], |node| node.children.as_slice())
    }

    /// Iterates all items in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &NewsItem> {
        self.nodes.iter().map(|node| &node.item)
    }

    /// Every item with its stored trace summary, in insertion order.
    pub fn summaries(&self) -> impl Iterator<Item = (&NewsItem, &TraceSummary)> {
        self.nodes
            .iter()
            .map(|node| (&node.item, &node.summary.trace))
    }

    /// Expertise tallies of every non-root item inserted so far.
    pub(crate) fn experts(&self) -> &ExpertTallies {
        &self.experts
    }

    /// The trace of `id` without its path — one lookup, whatever the
    /// depth.
    ///
    /// # Errors
    ///
    /// [`GraphError::NotFound`] for unknown ids.
    pub fn trace_summary(&self, id: &Hash256) -> Result<TraceSummary, GraphError> {
        Ok(self.lookup(id)?.summary.trace)
    }

    /// Traces `id` back to the factual database, returning the best path
    /// (max product of per-hop retention `1 − modification`).
    ///
    /// # Errors
    ///
    /// [`GraphError::NotFound`] for unknown ids.
    pub fn trace_back(&self, id: &Hash256) -> Result<TraceResult, GraphError> {
        Ok(self.materialize(self.lookup(id)?))
    }

    /// A node's stored trace with its path written out by following the
    /// `next` links: O(path), no recursion.
    fn materialize(&self, node: &Node) -> TraceResult {
        let trace = node.summary.trace;
        let mut path = Vec::with_capacity(trace.distance.map_or(0, |d| d + 1));
        let mut at = trace.reaches_root.then_some(node);
        while let Some(hop) = at {
            path.push(hop.item.id);
            at = hop.summary.next.map(|idx| self.node(idx));
        }
        TraceResult {
            reaches_root: trace.reaches_root,
            score: trace.score,
            distance: trace.distance,
            path,
            cumulative_modification: trace.cumulative_modification,
        }
    }

    /// Traces every non-root item, returning `(id, trace)` pairs in
    /// insertion order. Writing the paths out makes this O(Σ path
    /// lengths); [`SupplyChainGraph::trace_summary`] answers without them.
    pub fn trace_all(&self) -> Vec<(Hash256, TraceResult)> {
        self.nodes
            .iter()
            .filter(|node| !node.item.is_fact_root)
            .map(|node| (node.item.id, self.materialize(node)))
            .collect()
    }

    /// The account that introduced the largest modification along an
    /// item's best trace path — the accountability query for *distorted*
    /// news ("tracing the root to the person who creates fake news", §VI).
    /// Of equal modifications the hop nearest the item is blamed. Returns
    /// `None` when the item does not reach a root or every hop is below
    /// `threshold`.
    ///
    /// # Errors
    ///
    /// [`GraphError::NotFound`] for unknown ids.
    pub fn distortion_culprit(
        &self,
        id: &Hash256,
        threshold: f64,
    ) -> Result<Option<(Address, f64)>, GraphError> {
        let worst = self.lookup(id)?.summary.worst_hop;
        Ok(worst.filter(|(_, modification)| *modification >= threshold))
    }

    /// The origin account of an item: the author of the last non-root
    /// node on its best trace path, or, when no root is reachable, of the
    /// unsourced item its first-parent chain ends at — the accountability
    /// query of §IV ("people create fake news can be easily identified and
    /// located"). `None` for a fact root.
    pub fn origin_author(&self, id: &Hash256) -> Result<Option<Address>, GraphError> {
        Ok(self.lookup(id)?.summary.origin)
    }

    /// Serializes the graph (all nodes with their recorded edges, in
    /// insertion order) for a chain checkpoint. Modification degrees are
    /// stored as recorded — [`SupplyChainGraph::from_bytes`] restores them
    /// without recomputation, so the round trip is exact. Summaries and
    /// tallies are derived from these bytes and are not part of them.
    pub fn to_bytes(&self) -> Vec<u8> {
        use tn_chain::codec::Encoder;
        let mut e = Encoder::new();
        e.put_varint(self.nodes.len() as u64);
        for item in self.iter() {
            e.put_hash(&item.id)
                .put_hash(item.author.as_hash())
                .put_str(&item.content)
                .put_str(&item.topic)
                .put_u64(item.room)
                .put_u64(item.published_at)
                .put_bool(item.is_fact_root)
                .put_varint(item.parents.len() as u64);
            for p in &item.parents {
                e.put_hash(&p.id)
                    .put_u8(p.op.tag())
                    .put_u64(p.modification.to_bits());
            }
        }
        e.finish()
    }

    /// Restores a graph from [`SupplyChainGraph::to_bytes`] bytes,
    /// recomputing every summary and tally in insertion order.
    ///
    /// # Errors
    ///
    /// A message when the blob is malformed (decode error, unknown op
    /// tag, a modification that is not a number in `[0, 1]`, or an edge
    /// to a node that does not precede it).
    pub fn from_bytes(bytes: &[u8]) -> Result<SupplyChainGraph, String> {
        use tn_chain::codec::Decoder;
        let err = |e: tn_chain::codec::DecodeError| format!("malformed graph state: {e}");
        let mut dec = Decoder::new(bytes);
        let mut graph = SupplyChainGraph::new();
        let n = dec.get_varint().map_err(err)?;
        for _ in 0..n {
            let id = dec.get_hash().map_err(err)?;
            let author = Address::from_hash(dec.get_hash().map_err(err)?);
            let content = dec.get_str().map_err(err)?;
            let topic = dec.get_str().map_err(err)?;
            let room = dec.get_u64().map_err(err)?;
            let published_at = dec.get_u64().map_err(err)?;
            let is_fact_root = dec.get_bool().map_err(err)?;
            let np = dec.get_varint().map_err(err)?;
            let capacity = (np as usize).min(1 << 10);
            let mut parents = Vec::with_capacity(capacity);
            let mut parent_idx = Vec::with_capacity(capacity);
            for _ in 0..np {
                let pid = dec.get_hash().map_err(err)?;
                let op = PropagationOp::from_tag(dec.get_u8().map_err(err)?)
                    .ok_or_else(|| "unknown propagation op tag".to_string())?;
                // Scores and tallies multiply and add this value as it
                // stands: NaN (which fails the range test too), a negative
                // or a value above 1 must not get past the decoder.
                let modification = f64::from_bits(dec.get_u64().map_err(err)?);
                if !(0.0..=1.0).contains(&modification) {
                    return Err(format!("edge modification {modification} outside [0, 1]"));
                }
                let Some(&idx) = graph.index.get(&pid) else {
                    return Err(format!("edge to unknown parent {}", pid.short()));
                };
                parents.push(ParentRef {
                    id: pid,
                    op,
                    modification,
                });
                parent_idx.push(idx);
            }
            if graph.index.contains_key(&id) {
                return Err(format!("duplicate node {}", id.short()));
            }
            graph.push(
                NewsItem {
                    id,
                    author,
                    content,
                    topic,
                    room,
                    parents,
                    is_fact_root,
                    published_at,
                },
                &parent_idx,
            );
        }
        dec.expect_end().map_err(err)?;
        Ok(graph)
    }
}

/// Notes one arena node or expertise row read; nothing outside tests.
pub(crate) fn count_visit() {
    #[cfg(test)]
    NODE_VISITS.with(|visits| visits.set(visits.get() + 1));
}

#[cfg(test)]
thread_local! {
    /// Arena nodes and tally rows read on this thread. Tests read it to
    /// show that a provenance read visits its answer and nothing else.
    static NODE_VISITS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use tn_crypto::sha256::sha256;
    use tn_crypto::Keypair;

    fn addr(seed: &[u8]) -> Address {
        Keypair::from_seed(seed).address()
    }

    const FACT: &str = "The committee approved the solar subsidy amendment. \
        The vote passed with a clear majority. The minister welcomed the outcome.";

    fn graph_with_root() -> (SupplyChainGraph, Hash256) {
        let mut g = SupplyChainGraph::new();
        let root = sha256(b"fact-1");
        g.add_fact_root(root, FACT, "energy", 0).unwrap();
        (g, root)
    }

    #[test]
    fn root_traces_to_itself() {
        let (g, root) = graph_with_root();
        let t = g.trace_back(&root).unwrap();
        assert!(t.reaches_root);
        assert_eq!(t.score, 1.0);
        assert_eq!(t.distance, Some(0));
        assert_eq!(t.path, vec![root]);
    }

    #[test]
    fn verbatim_relay_keeps_score_one() {
        let (mut g, root) = graph_with_root();
        let id = g
            .insert(
                addr(b"relayer"),
                FACT,
                "energy",
                1,
                vec![(root, PropagationOp::Relay)],
                10,
            )
            .unwrap();
        let t = g.trace_back(&id).unwrap();
        assert!(t.reaches_root);
        assert!((t.score - 1.0).abs() < 1e-9, "score={}", t.score);
        assert_eq!(t.distance, Some(1));
        assert_eq!(t.path, vec![id, root]);
    }

    #[test]
    fn modification_reduces_score_along_chain() {
        let (mut g, root) = graph_with_root();
        let modified = format!("{FACT} Insiders warn this is a shocking corrupt cover-up.");
        let a = g
            .insert(
                addr(b"a"),
                &modified,
                "energy",
                1,
                vec![(root, PropagationOp::Insert)],
                10,
            )
            .unwrap();
        let more = format!("{modified} They do not want you to know the terrifying truth.");
        let b = g
            .insert(
                addr(b"b"),
                &more,
                "energy",
                1,
                vec![(a, PropagationOp::Insert)],
                20,
            )
            .unwrap();
        let ta = g.trace_back(&a).unwrap();
        let tb = g.trace_back(&b).unwrap();
        assert!(ta.score < 1.0);
        assert!(
            tb.score < ta.score,
            "scores must decay: {} vs {}",
            tb.score,
            ta.score
        );
        assert!(tb.cumulative_modification > ta.cumulative_modification);
        assert_eq!(tb.distance, Some(2));
    }

    #[test]
    fn unsourced_item_does_not_reach_root() {
        let (mut g, _) = graph_with_root();
        let id = g
            .insert(
                addr(b"fabricator"),
                "Aliens built the dam overnight.",
                "energy",
                1,
                vec![],
                5,
            )
            .unwrap();
        let t = g.trace_back(&id).unwrap();
        assert!(!t.reaches_root);
        assert_eq!(t.score, 0.0);
        assert_eq!(t.distance, None);
    }

    #[test]
    fn best_path_chosen_among_parents() {
        let (mut g, root) = graph_with_root();
        // Faithful relay and heavy distortion both exist as parents.
        let clean = g
            .insert(
                addr(b"clean"),
                FACT,
                "energy",
                1,
                vec![(root, PropagationOp::Relay)],
                1,
            )
            .unwrap();
        let distorted_text = "Furious critics call it the worst scandal in history. \
            Anonymous sources claim the real numbers are being hidden.";
        let distorted = g
            .insert(
                addr(b"dirty"),
                distorted_text,
                "energy",
                1,
                vec![(root, PropagationOp::Insert)],
                2,
            )
            .unwrap();
        // A child merging both: best path should go through the clean parent.
        let merged = format!("{FACT} {distorted_text}");
        let child = g
            .insert(
                addr(b"merger"),
                &merged,
                "energy",
                1,
                vec![
                    (clean, PropagationOp::Merge),
                    (distorted, PropagationOp::Merge),
                ],
                3,
            )
            .unwrap();
        let t = g.trace_back(&child).unwrap();
        assert!(t.reaches_root);
        assert_eq!(
            t.path[1], clean,
            "best path should route through the faithful parent"
        );
    }

    #[test]
    fn missing_parent_rejected() {
        let (mut g, _) = graph_with_root();
        let err = g
            .insert(
                addr(b"x"),
                "text",
                "t",
                1,
                vec![(sha256(b"nowhere"), PropagationOp::Relay)],
                1,
            )
            .unwrap_err();
        assert!(matches!(err, GraphError::MissingParent(_)));
    }

    #[test]
    fn duplicate_item_rejected() {
        let (mut g, root) = graph_with_root();
        g.insert(
            addr(b"a"),
            FACT,
            "energy",
            1,
            vec![(root, PropagationOp::Relay)],
            10,
        )
        .unwrap();
        let err = g
            .insert(
                addr(b"a"),
                FACT,
                "energy",
                1,
                vec![(root, PropagationOp::Relay)],
                10,
            )
            .unwrap_err();
        assert!(matches!(err, GraphError::Duplicate(_)));
        let err2 = g.add_fact_root(root, FACT, "energy", 0).unwrap_err();
        assert!(matches!(err2, GraphError::Duplicate(_)));
    }

    #[test]
    fn children_tracked() {
        let (mut g, root) = graph_with_root();
        let a = g
            .insert(
                addr(b"a"),
                FACT,
                "energy",
                1,
                vec![(root, PropagationOp::Relay)],
                1,
            )
            .unwrap();
        let b = g
            .insert(
                addr(b"b"),
                FACT,
                "energy",
                1,
                vec![(root, PropagationOp::Relay)],
                2,
            )
            .unwrap();
        assert_eq!(g.children_of(&root), &[a, b]);
        assert!(g.children_of(&a).is_empty());
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn origin_author_found_for_rooted_and_unrooted() {
        let (mut g, root) = graph_with_root();
        let first = addr(b"first-publisher");
        let a = g
            .insert(
                first,
                FACT,
                "energy",
                1,
                vec![(root, PropagationOp::Cite)],
                1,
            )
            .unwrap();
        let b = g
            .insert(
                addr(b"relayer"),
                FACT,
                "energy",
                1,
                vec![(a, PropagationOp::Relay)],
                2,
            )
            .unwrap();
        assert_eq!(g.origin_author(&b).unwrap(), Some(first));

        let fab = addr(b"fabricator");
        let f = g
            .insert(fab, "Made up story.", "energy", 1, vec![], 3)
            .unwrap();
        let f2 = g
            .insert(
                addr(b"spreader"),
                "Made up story.",
                "energy",
                1,
                vec![(f, PropagationOp::Relay)],
                4,
            )
            .unwrap();
        assert_eq!(g.origin_author(&f2).unwrap(), Some(fab));
    }

    #[test]
    fn distortion_culprit_blames_the_distorter() {
        let (mut g, root) = graph_with_root();
        let honest = addr(b"honest relayer");
        let distorter = addr(b"distorter");
        let relayed = g
            .insert(
                honest,
                FACT,
                "energy",
                1,
                vec![(root, PropagationOp::Relay)],
                1,
            )
            .unwrap();
        let distorted_text = format!(
            "{FACT} Insiders warn this is a shocking corrupt cover-up. \
             They do not want you to know the terrifying truth."
        );
        let distorted = g
            .insert(
                distorter,
                &distorted_text,
                "energy",
                1,
                vec![(relayed, PropagationOp::Insert)],
                2,
            )
            .unwrap();
        // A downstream relay of the distorted item still blames the distorter.
        let downstream = g
            .insert(
                addr(b"resharer"),
                &distorted_text,
                "energy",
                1,
                vec![(distorted, PropagationOp::Relay)],
                3,
            )
            .unwrap();
        let culprit = g.distortion_culprit(&downstream, 0.1).unwrap();
        assert_eq!(culprit.map(|(a, _)| a), Some(distorter));
        // A faithful chain has no culprit above the threshold.
        assert_eq!(g.distortion_culprit(&relayed, 0.1).unwrap(), None);
        // Unrooted items report None.
        let unrooted = g
            .insert(addr(b"fab"), "Made up.", "energy", 1, vec![], 4)
            .unwrap();
        assert_eq!(g.distortion_culprit(&unrooted, 0.1).unwrap(), None);
    }

    #[test]
    fn trace_all_covers_non_roots() {
        let (mut g, root) = graph_with_root();
        for i in 0..5u64 {
            g.insert(
                addr(&i.to_le_bytes()),
                FACT,
                "energy",
                1,
                vec![(root, PropagationOp::Relay)],
                10 + i,
            )
            .unwrap();
        }
        let all = g.trace_all();
        assert_eq!(all.len(), 5);
        assert!(all.iter().all(|(_, t)| t.reaches_root));
    }

    #[test]
    fn serialization_round_trip_preserves_digest() {
        let (mut g, root) = graph_with_root();
        let a = g
            .insert(
                addr(b"a"),
                FACT,
                "energy",
                1,
                vec![(root, PropagationOp::Relay)],
                1,
            )
            .unwrap();
        let modified = format!("{FACT} Shocking new claims emerge.");
        g.insert(
            addr(b"b"),
            &modified,
            "energy",
            2,
            vec![(a, PropagationOp::Insert)],
            2,
        )
        .unwrap();

        let bytes = g.to_bytes();
        let restored = SupplyChainGraph::from_bytes(&bytes).unwrap();
        assert_eq!(restored.digest(), g.digest());
        assert_eq!(restored.len(), g.len());
        assert_eq!(restored.root_count(), g.root_count());
        assert_eq!(restored.edge_count(), g.edge_count());
        assert_eq!(restored.children_of(&root), g.children_of(&root));
        // Truncation and bit flips are rejected, never silently accepted.
        assert!(SupplyChainGraph::from_bytes(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn trace_unknown_id_errors() {
        let (g, _) = graph_with_root();
        assert!(matches!(
            g.trace_back(&sha256(b"missing")),
            Err(GraphError::NotFound(_))
        ));
    }

    /// A relay chain of `hops` verbatim copies of `text` hanging off
    /// `parent` (or off nothing); returns the ids in chain order.
    fn relay_chain(
        g: &mut SupplyChainGraph,
        parent: Option<Hash256>,
        text: &str,
        topic: &str,
        authors: &[Address],
        hops: usize,
    ) -> Vec<Hash256> {
        let mut ids = Vec::with_capacity(hops);
        let mut tip = parent;
        for i in 0..hops {
            let edges = tip.map(|p| (p, PropagationOp::Relay)).into_iter().collect();
            let id = g
                .insert(authors[i % authors.len()], text, topic, 1, edges, i as u64)
                .unwrap();
            ids.push(id);
            tip = Some(id);
        }
        ids
    }

    /// Any account can relay its own item as often as it likes, so chain
    /// depth is outside input. The recursive walk overflowed a 2 MiB
    /// stack — this test's — from about 8 000 hops; no read may depend on
    /// stack depth, rooted or not.
    #[test]
    fn hundred_thousand_hop_chains_answer_on_a_default_stack() {
        use crate::expert::{experts_for_topic, score_experts};
        const HOPS: usize = 100_000;
        let authors = [addr(b"first"), addr(b"second"), addr(b"third")];

        let (mut g, root) = graph_with_root();
        let mut chain = relay_chain(&mut g, Some(root), FACT, "energy", &authors, HOPS / 2);
        let distorter = addr(b"distorter");
        let distorted = format!("{FACT} Insiders warn this is a shocking corrupt cover-up.");
        let turn = g
            .insert(
                distorter,
                &distorted,
                "energy",
                1,
                vec![(chain[HOPS / 2 - 1], PropagationOp::Insert)],
                0,
            )
            .unwrap();
        chain.push(turn);
        chain.extend(relay_chain(
            &mut g,
            Some(turn),
            &distorted,
            "energy",
            &authors,
            HOPS / 2 - 1,
        ));
        let tip = chain[HOPS - 1];
        let trace = g.trace_back(&tip).unwrap();
        assert_eq!(trace.distance, Some(HOPS));
        assert_eq!(trace.path.len(), HOPS + 1);
        assert_eq!(trace.path[HOPS], root);
        assert!(chain.iter().rev().eq(trace.path[..HOPS].iter()));
        assert_eq!(g.trace_summary(&tip).unwrap().distance, Some(HOPS));
        let (culprit, modification) = g.distortion_culprit(&tip, 0.1).unwrap().unwrap();
        assert_eq!(culprit, distorter);
        assert!(modification > 0.1 && trace.score == 1.0 - modification);
        assert_eq!(g.origin_author(&tip).unwrap(), Some(authors[0]));

        // The unrooted walks: `origin_author` follows first parents to the
        // fabricator, and the whole-graph reads touch every node of the
        // chain. (On a rooted chain `trace_all` writes out Σ depth ids by
        // contract, which no stack or heap survives at this depth.)
        let mut g = SupplyChainGraph::new();
        let chain = relay_chain(&mut g, None, "Made up story.", "energy", &authors, HOPS);
        assert_eq!(g.origin_author(&chain[HOPS - 1]).unwrap(), Some(authors[0]));
        assert_eq!(g.distortion_culprit(&chain[HOPS - 1], 0.0).unwrap(), None);
        let all = g.trace_all();
        assert_eq!(all.len(), HOPS);
        assert!(all
            .iter()
            .all(|(_, t)| !t.reaches_root && t.path.is_empty()));
        let experts = score_experts(&g);
        assert_eq!(experts.len(), authors.len());
        assert_eq!(experts.iter().map(|e| e.items).sum::<usize>(), HOPS);
        assert_eq!(experts_for_topic(&g, "energy", 2).len(), 2);
        assert_eq!(g.summaries().count(), HOPS);
    }

    fn visits<T>(read: impl FnOnce() -> T) -> usize {
        NODE_VISITS.with(|v| v.set(0));
        read();
        NODE_VISITS.with(|v| v.get())
    }

    /// The stored summaries make a read cost its answer: one node for a
    /// rank summary, a culprit or an origin, the path for a trace, one
    /// topic's authors for a suggestion — whatever else the graph holds.
    #[test]
    fn reads_visit_their_answer_and_nothing_else() {
        use crate::expert::{experts_for_topic, score_experts};
        const DEPTH: usize = 4_096;
        let (mut g, root) = graph_with_root();
        // Ten times the chain in unrelated items: 64 authors on another
        // topic, in short chains off a root of their own.
        let crowd: Vec<Address> = (0..64u8).map(|i| addr(&[b'c', i])).collect();
        let other_root = sha256(b"fact-2");
        g.add_fact_root(other_root, "Hospital staffing rose.", "health", 0)
            .unwrap();
        for burst in 0..(10 * DEPTH / 64) {
            let text = format!("Hospital staffing rose. Ward {burst}.");
            relay_chain(&mut g, Some(other_root), &text, "health", &crowd, 64);
        }
        let authors = [addr(b"first"), addr(b"second"), addr(b"third")];
        let chain = relay_chain(&mut g, Some(root), FACT, "energy", &authors, DEPTH);
        let tip = chain[DEPTH - 1];
        assert!(g.len() > 11 * DEPTH);

        assert_eq!(visits(|| g.trace_summary(&tip).unwrap()), 1);
        assert_eq!(visits(|| g.distortion_culprit(&tip, 0.1).unwrap()), 1);
        assert_eq!(visits(|| g.origin_author(&tip).unwrap()), 1);
        assert_eq!(visits(|| g.trace_back(&tip).unwrap()), DEPTH + 1);
        assert_eq!(visits(|| g.trace_back(&chain[7]).unwrap()), 8 + 1);
        assert_eq!(
            visits(|| assert_eq!(experts_for_topic(&g, "energy", 2).len(), 2)),
            authors.len()
        );
        assert_eq!(visits(|| experts_for_topic(&g, "sports", 2)), 0);
        assert_eq!(visits(|| score_experts(&g)), authors.len() + crowd.len());
    }

    /// A checkpoint blob is outside input: an edge whose modification is
    /// not a number in `[0, 1]` would flow into every score and tally
    /// downstream of it.
    #[test]
    fn restore_rejects_modifications_outside_the_unit_interval() {
        let (mut g, root) = graph_with_root();
        g.insert(
            addr(b"a"),
            FACT,
            "energy",
            1,
            vec![(root, PropagationOp::Relay)],
            1,
        )
        .unwrap();
        // The blob ends with the last edge's modification bits.
        let with_modification = |m: f64| {
            let mut bytes = g.to_bytes();
            let at = bytes.len() - 8;
            bytes[at..].copy_from_slice(&m.to_bits().to_le_bytes());
            SupplyChainGraph::from_bytes(&bytes)
        };
        for bad in [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.25,
            1.0 + f64::EPSILON,
            7.0,
        ] {
            let err = with_modification(bad).unwrap_err();
            assert!(err.contains("outside [0, 1]"), "{bad}: {err}");
        }
        for good in [0.0, f64::MIN_POSITIVE, 0.5, 1.0] {
            let restored = with_modification(good).unwrap();
            let tip = restored.iter().last().unwrap().id;
            assert_eq!(restored.trace_back(&tip).unwrap().score, 1.0 - good);
        }
    }
}
