//! Trace and span identifiers.
//!
//! Everything here is a *deterministic hash*: a trace id is derived from
//! the item it follows (a transaction id, a batch digest, a block id), and
//! a span id is derived from `(trace, span name[, replica])`. That single
//! decision is what makes causal links work across replicas with no
//! coordination — replica 3 can parent its `tx.apply` span to the
//! cluster-wide `tx.commit` span by *computing* the parent id, without
//! ever learning which replica recorded it.

use std::fmt;

/// FNV-1a offset basis, 64-bit variant.
const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime, 64-bit variant.
const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;
/// FNV-1a offset basis, 128-bit variant.
const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// FNV-1a prime, 128-bit variant.
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// FNV-1a-style mixing over 8-byte words, 64-bit state.
///
/// Byte-serial FNV costs one serially-dependent multiply per byte, which
/// is measurable at span-record rates (a span id hashes ~40 bytes and is
/// recomputed wherever a parent link is derived). The ids only need
/// determinism, not FNV compatibility, so the word-wise variant — tail
/// zero-padded, input length mixed in last to keep `"a"` distinct from
/// `"a\0"` — buys an ~8x shorter multiply chain.
fn mix64(mut state: u64, bytes: &[u8]) -> u64 {
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        state ^= u64::from_be_bytes(c.try_into().expect("8-byte chunk"));
        state = state.wrapping_mul(FNV64_PRIME);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        state ^= u64::from_be_bytes(tail);
        state = state.wrapping_mul(FNV64_PRIME);
    }
    state ^= bytes.len() as u64;
    state.wrapping_mul(FNV64_PRIME)
}

/// FNV-1a-style mixing over 16-byte words, 128-bit state (see [`mix64`]).
fn mix128(mut state: u128, bytes: &[u8]) -> u128 {
    let mut chunks = bytes.chunks_exact(16);
    for c in &mut chunks {
        state ^= u128::from_be_bytes(c.try_into().expect("16-byte chunk"));
        state = state.wrapping_mul(FNV128_PRIME);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 16];
        tail[..rem.len()].copy_from_slice(rem);
        state ^= u128::from_be_bytes(tail);
        state = state.wrapping_mul(FNV128_PRIME);
    }
    state ^= bytes.len() as u128;
    state.wrapping_mul(FNV128_PRIME)
}

/// A 128-bit causal trace identifier.
///
/// The zero value is reserved: it means "no trace" ([`TraceId::NONE`],
/// also the `Default`). Mint real ids with [`TraceId::from_seed`], always
/// from data every replica agrees on, so all replicas independently mint
/// the *same* id for the same item.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u128);

impl TraceId {
    /// The absent trace (all zero).
    pub const NONE: TraceId = TraceId(0);

    /// Deterministically derives a trace id from `seed` (128-bit word-FNV).
    /// Equal seeds give equal ids on every replica; the reserved zero
    /// value is remapped so a real trace is never mistaken for
    /// [`TraceId::NONE`].
    pub fn from_seed(seed: &[u8]) -> TraceId {
        let h = mix128(FNV128_OFFSET, seed);
        TraceId(if h == 0 { 1 } else { h })
    }

    /// True for the reserved "no trace" value.
    pub fn is_none(&self) -> bool {
        self.0 == 0
    }

    /// Lower-case hex rendering (no `0x` prefix), as used in exports.
    pub(crate) fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Id of a span recorded *once per trace*, regardless of replica — e.g.
/// the single cluster-wide `tx.admission` span. Never returns 0 (the
/// "no parent" sentinel).
pub fn span_id(trace: TraceId, name: &str) -> u64 {
    let mut state = mix64(FNV64_OFFSET, &trace.0.to_be_bytes());
    state = mix64(state, name.as_bytes());
    if state == 0 {
        1
    } else {
        state
    }
}

/// Id of a span recorded *per replica* — e.g. each replica's `tx.apply`
/// span for the same transaction. Never returns 0.
pub fn replica_span_id(trace: TraceId, name: &str, replica: usize) -> u64 {
    let mut state = mix64(FNV64_OFFSET, &trace.0.to_be_bytes());
    state = mix64(state, name.as_bytes());
    state = mix64(state, &(replica as u64).to_be_bytes());
    if state == 0 {
        1
    } else {
        state
    }
}

/// The causal context a consensus message carries across the (simulated)
/// network: which trace the message belongs to and which span caused it.
///
/// Protocol layers attach this to every ordering message (PBFT
/// pre-prepare/prepare/commit, PoA slot proposals) so the receiving
/// replica can parent its own handling span under the sender's — the
/// cross-replica edge of the causal graph.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanContext {
    /// The trace this message belongs to.
    pub trace: TraceId,
    /// The span (on the sending replica) that caused this message;
    /// 0 when unknown.
    pub parent: u64,
}

impl SpanContext {
    /// An absent context (no trace, no parent).
    pub const NONE: SpanContext = SpanContext {
        trace: TraceId::NONE,
        parent: 0,
    };

    /// Builds a context for `trace` caused by span `parent`.
    pub fn new(trace: TraceId, parent: u64) -> SpanContext {
        SpanContext { trace, parent }
    }

    /// True when no trace is attached.
    pub fn is_none(&self) -> bool {
        self.trace.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_seed_is_deterministic_and_nonzero() {
        let a = TraceId::from_seed(b"tx-1");
        let b = TraceId::from_seed(b"tx-1");
        let c = TraceId::from_seed(b"tx-2");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(!a.is_none());
        assert!(TraceId::NONE.is_none());
        assert!(TraceId::default().is_none());
    }

    #[test]
    fn span_ids_differ_by_name_and_replica() {
        let t = TraceId::from_seed(b"x");
        assert_ne!(span_id(t, "a"), span_id(t, "b"));
        assert_ne!(replica_span_id(t, "a", 0), replica_span_id(t, "a", 1));
        assert_ne!(span_id(t, "a"), replica_span_id(t, "a", 0));
        // Deterministic: recomputable anywhere.
        assert_eq!(replica_span_id(t, "a", 3), replica_span_id(t, "a", 3));
        assert_ne!(span_id(t, "a"), 0);
    }

    #[test]
    fn hex_renders_full_width() {
        let t = TraceId(0xab);
        assert_eq!(t.to_hex().len(), 32);
        assert!(t.to_hex().ends_with("ab"));
        assert_eq!(format!("{t}"), t.to_hex());
    }

    #[test]
    fn span_context_roundtrip() {
        let t = TraceId::from_seed(b"ctx");
        let ctx = SpanContext::new(t, span_id(t, "root"));
        assert!(!ctx.is_none());
        assert!(SpanContext::NONE.is_none());
        assert_eq!(SpanContext::default(), SpanContext::NONE);
    }
}
