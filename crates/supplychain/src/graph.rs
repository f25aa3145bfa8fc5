//! The news blockchain supply-chain graph (paper Figure 4).
//!
//! Nodes are news items (and factual-database roots); edges record which
//! parent(s) an item derived from, with which [`PropagationOp`], and the
//! measured modification degree. Because an item's parents must already
//! exist when it is inserted, the graph is a DAG by construction, and
//! trace-back — "one group is able to trace back to the factual database
//! … and the other group cannot" (§VI) — is a memoized reverse walk.

use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;

use tn_crypto::sha256::{sha256, tagged_hash, Sha256};
use tn_crypto::{Address, Hash256};

use crate::ops::PropagationOp;
use crate::text::modification_degree;

/// A parent edge of a news item.
#[derive(Debug, Clone, PartialEq)]
pub struct ParentRef {
    /// Parent item id.
    pub id: Hash256,
    /// Operation that derived this item from the parent.
    pub op: PropagationOp,
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
    pub room: u64,
    /// Parent edges (empty for original, unsourced claims).
    pub parents: Vec<ParentRef>,
    /// True for factual-database root nodes.
    pub is_fact_root: bool,
    /// Publication time.
    pub published_at: u64,
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

impl TraceResult {
    fn unreachable() -> TraceResult {
        TraceResult {
            reaches_root: false,
            score: 0.0,
            distance: None,
            path: Vec::new(),
            cumulative_modification: 0.0,
        }
    }
}

/// The supply-chain graph.
#[derive(Debug, Default)]
pub struct SupplyChainGraph {
    items: HashMap<Hash256, NewsItem>,
    children: HashMap<Hash256, Vec<Hash256>>,
    roots: HashSet<Hash256>,
    /// Insertion order, for deterministic iteration.
    order: Vec<Hash256>,
}

impl SupplyChainGraph {
    /// New empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes (items + roots).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Number of fact-root nodes.
    pub fn root_count(&self) -> usize {
        self.roots.len()
    }

    /// Total number of parent edges.
    pub fn edge_count(&self) -> usize {
        self.items.values().map(|i| i.parents.len()).sum()
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
        if self.items.contains_key(&id) {
            return Err(GraphError::Duplicate(id));
        }
        self.items.insert(
            id,
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
        );
        self.roots.insert(id);
        self.order.push(id);
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
        if self.items.contains_key(&id) {
            return Err(GraphError::Duplicate(id));
        }
        let mut parent_refs = Vec::with_capacity(parents.len());
        for (pid, op) in parents {
            let parent = self.items.get(&pid).ok_or(GraphError::MissingParent(pid))?;
            let modification = modification_degree(&parent.content, content);
            parent_refs.push(ParentRef {
                id: pid,
                op,
                modification,
            });
        }
        for pref in &parent_refs {
            self.children.entry(pref.id).or_default().push(id);
        }
        self.items.insert(
            id,
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
        );
        self.order.push(id);
        Ok(id)
    }

    /// A hash of the entire graph state, covering every node (in
    /// insertion order) with its author, texts, and parent edges. Two
    /// graphs built from the same event sequence digest identically, so
    /// replicas and ledger replays can be compared by hash.
    pub fn digest(&self) -> Hash256 {
        // Streamed into the hasher field by field: the graph is hashed
        // after every block, and a buffer of its whole encoding would be
        // the largest allocation of a read-heavy node.
        let tag = sha256(b"TN/supplychain-graph");
        let mut h = Sha256::new();
        h.update(tag.as_bytes());
        h.update(tag.as_bytes());
        for item in self.iter() {
            h.update(item.id.as_bytes());
            h.update(item.author.as_hash().as_bytes());
            h.update(&(item.content.len() as u64).to_le_bytes());
            h.update(item.content.as_bytes());
            h.update(&(item.topic.len() as u64).to_le_bytes());
            h.update(item.topic.as_bytes());
            h.update(&item.room.to_le_bytes());
            h.update(&item.published_at.to_le_bytes());
            h.update(&[item.is_fact_root as u8]);
            h.update(&(item.parents.len() as u64).to_le_bytes());
            for p in &item.parents {
                h.update(p.id.as_bytes());
                h.update(&[p.op.tag()]);
                h.update(&p.modification.to_bits().to_le_bytes());
            }
        }
        h.finalize()
    }

    /// Looks up an item.
    pub fn get(&self, id: &Hash256) -> Option<&NewsItem> {
        self.items.get(id)
    }

    /// Items derived from `id`.
    pub fn children_of(&self, id: &Hash256) -> &[Hash256] {
        self.children.get(id).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Iterates all items in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &NewsItem> {
        self.order.iter().map(|id| &self.items[id])
    }

    /// Traces `id` back to the factual database, returning the best path
    /// (max product of per-hop retention `1 − modification`).
    ///
    /// # Errors
    ///
    /// [`GraphError::NotFound`] for unknown ids.
    pub fn trace_back(&self, id: &Hash256) -> Result<TraceResult, GraphError> {
        if !self.items.contains_key(id) {
            return Err(GraphError::NotFound(*id));
        }
        let mut memo: HashMap<Hash256, TraceResult> = HashMap::new();
        Ok(self.trace_memo(*id, &mut memo))
    }

    fn trace_memo(&self, id: Hash256, memo: &mut HashMap<Hash256, TraceResult>) -> TraceResult {
        if let Some(cached) = memo.get(&id) {
            return cached.clone();
        }
        let item = &self.items[&id];
        let result = if item.is_fact_root {
            TraceResult {
                reaches_root: true,
                score: 1.0,
                distance: Some(0),
                path: vec![id],
                cumulative_modification: 0.0,
            }
        } else {
            let mut best = TraceResult::unreachable();
            for pref in &item.parents {
                let parent_res = self.trace_memo(pref.id, memo);
                if !parent_res.reaches_root {
                    continue;
                }
                let retention = (1.0 - pref.modification).max(0.0);
                let score = parent_res.score * retention;
                let better = score > best.score
                    || (!best.reaches_root)
                    || ((score - best.score).abs() < 1e-15
                        && parent_res.distance.map(|d| d + 1) < best.distance);
                if better {
                    let mut path = Vec::with_capacity(parent_res.path.len() + 1);
                    path.push(id);
                    path.extend_from_slice(&parent_res.path);
                    best = TraceResult {
                        reaches_root: true,
                        score,
                        distance: parent_res.distance.map(|d| d + 1),
                        path,
                        cumulative_modification: parent_res.cumulative_modification
                            + pref.modification,
                    };
                }
            }
            best
        };
        memo.insert(id, result.clone());
        result
    }

    /// Traces every non-root item, returning `(id, trace)` pairs in
    /// insertion order. Uses one shared memo, so the whole-graph cost is
    /// linear in nodes + edges.
    pub fn trace_all(&self) -> Vec<(Hash256, TraceResult)> {
        let mut memo = HashMap::new();
        self.order
            .iter()
            .filter(|id| !self.roots.contains(id))
            .map(|id| (*id, self.trace_memo(*id, &mut memo)))
            .collect()
    }

    /// The account that introduced the largest modification along an
    /// item's best trace path — the accountability query for *distorted*
    /// news ("tracing the root to the person who creates fake news", §VI).
    /// Returns `None` when the item does not reach a root or every hop is
    /// below `threshold`.
    ///
    /// # Errors
    ///
    /// [`GraphError::NotFound`] for unknown ids.
    pub fn distortion_culprit(
        &self,
        id: &Hash256,
        threshold: f64,
    ) -> Result<Option<(Address, f64)>, GraphError> {
        let trace = self.trace_back(id)?;
        if !trace.reaches_root {
            return Ok(None);
        }
        let mut worst: Option<(Address, f64)> = None;
        // path[i] derives from path[i+1]; find the edge with the largest
        // modification and blame the child (the account that made it).
        for w in trace.path.windows(2) {
            let child = &self.items[&w[0]];
            let parent_id = w[1];
            if let Some(pref) = child.parents.iter().find(|p| p.id == parent_id) {
                if pref.modification >= threshold
                    && worst.is_none_or(|(_, m)| pref.modification > m)
                {
                    worst = Some((child.author, pref.modification));
                }
            }
        }
        Ok(worst)
    }

    /// The origin account of an item: walks the best trace path to the
    /// last non-root node and reports its author — the accountability
    /// query of §IV ("people create fake news can be easily identified and
    /// located").
    pub fn origin_author(&self, id: &Hash256) -> Result<Option<Address>, GraphError> {
        let trace = self.trace_back(id)?;
        if !trace.reaches_root {
            // No root path: the earliest ancestor chain ends at an
            // unsourced item; find it by walking any-parent upward.
            let mut cur = *id;
            loop {
                let item = &self.items[&cur];
                match item.parents.first() {
                    Some(p) => cur = p.id,
                    None => return Ok(Some(item.author)),
                }
            }
        }
        // Path ends at the fact root; the node before it is the first
        // publisher.
        let n = trace.path.len();
        if n >= 2 {
            Ok(Some(self.items[&trace.path[n - 2]].author))
        } else {
            Ok(None) // the item IS a root
        }
    }

    /// Serializes the graph (all nodes with their recorded edges, in
    /// insertion order) for a chain checkpoint. Modification degrees are
    /// stored as recorded — [`SupplyChainGraph::from_bytes`] restores them
    /// without recomputation, so the round trip is exact.
    pub fn to_bytes(&self) -> Vec<u8> {
        use tn_chain::codec::Encoder;
        let mut e = Encoder::new();
        e.put_varint(self.order.len() as u64);
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

    /// Restores a graph from [`SupplyChainGraph::to_bytes`] bytes.
    ///
    /// # Errors
    ///
    /// A message when the blob is malformed (decode error, unknown op
    /// tag, or an edge to a node that does not precede it).
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
            let mut parents = Vec::with_capacity((np as usize).min(1 << 10));
            for _ in 0..np {
                let pid = dec.get_hash().map_err(err)?;
                let op = PropagationOp::from_tag(dec.get_u8().map_err(err)?)
                    .ok_or_else(|| "unknown propagation op tag".to_string())?;
                let modification = f64::from_bits(dec.get_u64().map_err(err)?);
                if !graph.items.contains_key(&pid) {
                    return Err(format!("edge to unknown parent {}", pid.short()));
                }
                parents.push(ParentRef {
                    id: pid,
                    op,
                    modification,
                });
            }
            if graph.items.contains_key(&id) {
                return Err(format!("duplicate node {}", id.short()));
            }
            for p in &parents {
                graph.children.entry(p.id).or_default().push(id);
            }
            if is_fact_root {
                graph.roots.insert(id);
            }
            graph.items.insert(
                id,
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
            );
            graph.order.push(id);
        }
        dec.expect_end().map_err(err)?;
        Ok(graph)
    }
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
}
