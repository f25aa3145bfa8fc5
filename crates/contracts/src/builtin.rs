//! Built-in (native) platform contracts.
//!
//! The paper's governance mechanisms are all "managed and enforced by
//! various smart contracts" (§V): distribution-platform creation,
//! journalist authentication, crowd-source ranking, incentives, and
//! factual-database admission. These four contracts implement those
//! mechanisms natively, as typed Rust state behind one byte-level call
//! interface that `ContractCall` transactions reach.
//!
//! Input/output use the `tn-chain` canonical codec; the first byte of the
//! input selects the operation. A call that returns `Err` has changed
//! nothing: every operation checks and decodes before it writes.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

use tn_chain::codec::{Decoder, Encoder};
use tn_crypto::{Address, Hash256};

/// Interface shared by all native contracts.
pub trait BuiltinContract: Send + fmt::Debug {
    /// Human-readable contract name (also used to derive its address).
    fn name(&self) -> &'static str;

    /// Executes one call.
    ///
    /// # Errors
    ///
    /// Returns a message describing the failure (bad op, unauthorized
    /// caller, malformed input).
    fn call(&mut self, caller: &Address, input: &[u8]) -> Result<Vec<u8>, String>;

    /// Typed read access for in-process platform code (downcasting).
    fn as_any(&self) -> &dyn std::any::Any;

    /// Typed mutable access for in-process platform code.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;

    /// Serializes the contract's persistent state for a chain checkpoint.
    fn save_state(&self) -> Vec<u8>;

    /// Restores state produced by [`BuiltinContract::save_state`].
    ///
    /// # Errors
    ///
    /// A message when the blob is malformed.
    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String>;
}

fn bad_input(e: impl fmt::Display) -> String {
    format!("malformed input: {e}")
}

// ---------------------------------------------------------------------------
// Newsroom registry
// ---------------------------------------------------------------------------

/// A distribution platform (paper §V: "each news publisher … can apply to
/// set up a distribution platform").
#[derive(Debug, Clone)]
pub struct PlatformRecord {
    /// Owner account.
    pub owner: Address,
    /// Display name.
    pub name: String,
}

/// A news room within a platform (the editing platform of §V).
#[derive(Debug, Clone)]
pub struct RoomRecord {
    /// Owning platform id.
    pub platform: u64,
    /// Topic string.
    pub topic: String,
    /// Journalists authorized to publish in this room.
    pub(crate) journalists: HashSet<Address>,
}

/// The two-layer trust registry: platforms (layer 1) and rooms with
/// authorized journalists (layer 2).
///
/// Operations (first input byte):
/// - `0` RegisterPlatform(name: str) → platform id (u64)
/// - `1` CreateRoom(platform: u64, topic: str) → room id (u64); owner only
/// - `2` AuthorizeJournalist(room: u64, who: hash); platform owner only
/// - `3` IsAuthorized(room: u64, who: hash) → bool byte
/// - `4` RevokeJournalist(room: u64, who: hash); platform owner only
#[derive(Debug, Default)]
pub struct NewsroomRegistry {
    platforms: BTreeMap<u64, PlatformRecord>,
    rooms: BTreeMap<u64, RoomRecord>,
    next_platform: u64,
    next_room: u64,
}

impl NewsroomRegistry {
    /// New, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Read-only platform lookup (for in-process callers like `tn-core`).
    pub fn platform(&self, id: u64) -> Option<&PlatformRecord> {
        self.platforms.get(&id)
    }

    /// Read-only room lookup.
    pub fn room(&self, id: u64) -> Option<&RoomRecord> {
        self.rooms.get(&id)
    }

    /// Iterates `(id, record)` for all platforms, ascending.
    pub fn platforms(&self) -> impl Iterator<Item = (u64, &PlatformRecord)> {
        self.platforms.iter().map(|(id, p)| (*id, p))
    }

    /// Iterates `(id, record)` for all rooms, ascending.
    pub fn rooms(&self) -> impl Iterator<Item = (u64, &RoomRecord)> {
        self.rooms.iter().map(|(id, r)| (*id, r))
    }

    /// Finds a platform id by exact name (first match).
    pub fn find_platform(&self, name: &str) -> Option<u64> {
        self.platforms
            .iter()
            .find(|(_, p)| p.name == name)
            .map(|(id, _)| *id)
    }

    /// True when `who` may publish in `room` (owner or authorized
    /// journalist) — the same check op 3 performs, typed.
    pub fn is_authorized(&self, room: u64, who: &Address) -> bool {
        let Some(r) = self.rooms.get(&room) else {
            return false;
        };
        r.journalists.contains(who)
            || self
                .platforms
                .get(&r.platform)
                .is_some_and(|p| p.owner == *who)
    }

    fn room_owner(&self, room: u64) -> Option<Address> {
        let r = self.rooms.get(&room)?;
        Some(self.platforms.get(&r.platform)?.owner)
    }
}

impl BuiltinContract for NewsroomRegistry {
    fn name(&self) -> &'static str {
        "newsroom-registry"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn save_state(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_varint(self.platforms.len() as u64);
        for (id, p) in &self.platforms {
            e.put_u64(*id).put_hash(p.owner.as_hash()).put_str(&p.name);
        }
        e.put_varint(self.rooms.len() as u64);
        for (id, r) in &self.rooms {
            e.put_u64(*id).put_u64(r.platform).put_str(&r.topic);
            // HashSet order is nondeterministic; sort so identical state
            // always serializes to identical bytes.
            let mut js: Vec<&Address> = r.journalists.iter().collect();
            js.sort();
            e.put_varint(js.len() as u64);
            for j in js {
                e.put_hash(j.as_hash());
            }
        }
        e.put_u64(self.next_platform).put_u64(self.next_room);
        e.finish()
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut dec = Decoder::new(bytes);
        let mut platforms = BTreeMap::new();
        let n = dec.get_varint().map_err(bad_input)?;
        for _ in 0..n {
            let id = dec.get_u64().map_err(bad_input)?;
            let owner = Address::from_hash(dec.get_hash().map_err(bad_input)?);
            let name = dec.get_str().map_err(bad_input)?;
            platforms.insert(id, PlatformRecord { owner, name });
        }
        let mut rooms = BTreeMap::new();
        let n = dec.get_varint().map_err(bad_input)?;
        for _ in 0..n {
            let id = dec.get_u64().map_err(bad_input)?;
            let platform = dec.get_u64().map_err(bad_input)?;
            let topic = dec.get_str().map_err(bad_input)?;
            let j = dec.get_varint().map_err(bad_input)?;
            let mut journalists = HashSet::new();
            for _ in 0..j {
                journalists.insert(Address::from_hash(dec.get_hash().map_err(bad_input)?));
            }
            rooms.insert(
                id,
                RoomRecord {
                    platform,
                    topic,
                    journalists,
                },
            );
        }
        self.next_platform = dec.get_u64().map_err(bad_input)?;
        self.next_room = dec.get_u64().map_err(bad_input)?;
        dec.expect_end().map_err(bad_input)?;
        self.platforms = platforms;
        self.rooms = rooms;
        Ok(())
    }

    fn call(&mut self, caller: &Address, input: &[u8]) -> Result<Vec<u8>, String> {
        let mut dec = Decoder::new(input);
        let op = dec.get_u8().map_err(bad_input)?;
        match op {
            0 => {
                let name = dec.get_str().map_err(bad_input)?;
                if name.is_empty() {
                    return Err("platform name must be nonempty".into());
                }
                self.next_platform += 1;
                let id = self.next_platform;
                self.platforms.insert(
                    id,
                    PlatformRecord {
                        owner: *caller,
                        name,
                    },
                );
                Ok(id.to_le_bytes().to_vec())
            }
            1 => {
                let platform = dec.get_u64().map_err(bad_input)?;
                let topic = dec.get_str().map_err(bad_input)?;
                let p = self
                    .platforms
                    .get(&platform)
                    .ok_or_else(|| format!("unknown platform {platform}"))?;
                if p.owner != *caller {
                    return Err("only the platform owner may create rooms".into());
                }
                self.next_room += 1;
                let id = self.next_room;
                self.rooms.insert(
                    id,
                    RoomRecord {
                        platform,
                        topic,
                        journalists: HashSet::new(),
                    },
                );
                Ok(id.to_le_bytes().to_vec())
            }
            2 | 4 => {
                let room = dec.get_u64().map_err(bad_input)?;
                let who = Address::from_hash(dec.get_hash().map_err(bad_input)?);
                let owner = self
                    .room_owner(room)
                    .ok_or_else(|| format!("unknown room {room}"))?;
                if owner != *caller {
                    return Err("only the platform owner may manage journalists".into());
                }
                let Some(r) = self.rooms.get_mut(&room) else {
                    return Err(format!("unknown room {room}"));
                };
                if op == 2 {
                    r.journalists.insert(who);
                } else {
                    r.journalists.remove(&who);
                }
                Ok(Vec::new())
            }
            3 => {
                let room = dec.get_u64().map_err(bad_input)?;
                let who = Address::from_hash(dec.get_hash().map_err(bad_input)?);
                let r = self
                    .rooms
                    .get(&room)
                    .ok_or_else(|| format!("unknown room {room}"))?;
                let owner = self.platforms.get(&r.platform).map(|p| p.owner);
                let authorized = r.journalists.contains(&who) || owner == Some(who);
                Ok(vec![authorized as u8])
            }
            other => Err(format!("unknown newsroom op {other}")),
        }
    }
}

/// Encodes a `RegisterPlatform` call input.
pub fn newsroom_register_platform(name: &str) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u8(0).put_str(name);
    e.finish()
}

/// Encodes a `CreateRoom` call input.
pub fn newsroom_create_room(platform: u64, topic: &str) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u8(1).put_u64(platform).put_str(topic);
    e.finish()
}

/// Encodes an `AuthorizeJournalist` call input.
pub fn newsroom_authorize(room: u64, who: &Address) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u8(2).put_u64(room).put_hash(who.as_hash());
    e.finish()
}

/// Encodes a `RevokeJournalist` call input.
pub fn newsroom_revoke(room: u64, who: &Address) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u8(4).put_u64(room).put_hash(who.as_hash());
    e.finish()
}

// ---------------------------------------------------------------------------
// Ranking contract
// ---------------------------------------------------------------------------

/// Reputation-weighted crowd ranking of news items (paper §V: "the
/// truthfulness of all the contents … ranked collectively by AI algorithms
/// and blockchain crowd sourcing").
///
/// Operations:
/// - `0` SubmitRating(item: hash, score: u8 ≤ 100) — last write per caller wins;
///   rejected for quarantined callers while a defense policy is active
/// - `1` GetRanking(item) → (count u64, weighted mean ×10⁻⁴ u64); the mean
///   is left out when no rating carries weight
/// - `2` SetReputation(who: hash, rep u64) — owner only
/// - `3` GetRating(item, who: hash) → score byte (0xff when absent)
/// - `4` SetPolicy(min_bond u64, decay_bps u64, slash_bps u64) — owner only;
///   activates the adversarial-participant defenses (E24)
/// - `5` GrantStake(who: hash, amount u64) — owner only (admission grant);
///   refused when total stake (free + bonded + treasury) would pass `u64::MAX`
/// - `6` PostBond(amount u64) — moves the caller's free stake into its bond
/// - `7` RecordOutcome(item: hash, factual u8) — owner only; decays every
///   rater's reputation toward the prior, bumps/penalizes by confirmed
///   agreement, and slashes the bonds of contradicted raters
/// - `8` Quarantine(who: hash) — owner only
/// - `9` Unquarantine(who: hash) — owner only
/// - `10` GetStake(who: hash) → (free u64, bonded u64)
#[derive(Debug)]
pub struct RankingContract {
    owner: Address,
    /// item → rater → score.
    ratings: HashMap<Hash256, BTreeMap<Address, u8>>,
    /// Reputation weights (default 100).
    reputation: HashMap<Address, u64>,
    /// Active defense policy (`None` = legacy weighting, no gates).
    policy: Option<DefensePolicy>,
    /// Grantable/bondable stake per rater.
    free_stake: HashMap<Address, u64>,
    /// Bonded stake per rater (the sybil admission cost at risk).
    bonded_stake: HashMap<Address, u64>,
    /// Slashed stake accumulator (conservation: granted = free + bonded
    /// + treasury).
    treasury: u64,
    /// Quarantined raters: zero weight, submissions rejected.
    quarantined: HashSet<Address>,
}

/// Default reputation weight for unknown raters.
pub(crate) const DEFAULT_REPUTATION: u64 = 100;

/// Reputation ceiling under an active defense policy.
pub(crate) const REPUTATION_CAP: u64 = 1_000;

/// Reputation gained per confirmed-correct rating.
pub(crate) const REPUTATION_STEP_UP: u64 = 20;

/// Reputation lost per confirmed-wrong rating (harsher than the gain, so
/// turncoats fall faster than they climbed).
pub(crate) const REPUTATION_STEP_DOWN: u64 = 40;

/// On-chain defense parameters (op `4`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DefensePolicy {
    /// Minimum bonded stake for a rating to carry weight.
    pub min_bond: u64,
    /// Basis points of a rater's *deviation from the default reputation*
    /// kept per recorded outcome (e.g. 9000 = 90 % — old behaviour fades).
    pub decay_bps: u64,
    /// Basis points of the bond slashed per contradicted rating.
    pub slash_bps: u64,
}

impl RankingContract {
    /// Creates the contract with `owner` allowed to set reputations.
    pub fn new(owner: Address) -> Self {
        RankingContract {
            owner,
            ratings: HashMap::new(),
            reputation: HashMap::new(),
            policy: None,
            free_stake: HashMap::new(),
            bonded_stake: HashMap::new(),
            treasury: 0,
            quarantined: HashSet::new(),
        }
    }

    fn rep(&self, who: &Address) -> u64 {
        self.reputation
            .get(who)
            .copied()
            .unwrap_or(DEFAULT_REPUTATION)
    }

    /// `(free, bonded)` stake of a rater.
    pub fn stake(&self, who: &Address) -> (u64, u64) {
        (
            self.free_stake.get(who).copied().unwrap_or(0),
            self.bonded_stake.get(who).copied().unwrap_or(0),
        )
    }

    /// Accumulated slashed stake.
    pub fn treasury(&self) -> u64 {
        self.treasury
    }

    /// True when `who` is quarantined.
    pub fn is_quarantined(&self, who: &Address) -> bool {
        self.quarantined.contains(who)
    }

    /// A rater's current aggregation weight: its reputation, gated to
    /// zero by quarantine or an unmet bond when a policy is active.
    pub(crate) fn vote_weight(&self, who: &Address) -> u64 {
        if let Some(policy) = &self.policy {
            if self.quarantined.contains(who)
                || self.bonded_stake.get(who).copied().unwrap_or(0) < policy.min_bond
            {
                return 0;
            }
        }
        self.rep(who)
    }

    /// Computes `(rating count, weighted mean score in 1e-4 units)`. The
    /// mean is `None` when no rating carries weight — nobody rated the
    /// item, or every rater is quarantined or under the bond — so an item
    /// nobody credible rated never reads as a unanimous score of 0.
    pub fn ranking(&self, item: &Hash256) -> (u64, Option<u64>) {
        let Some(rs) = self.ratings.get(item) else {
            return (0, None);
        };
        let mut weight_sum: u128 = 0;
        let mut score_sum: u128 = 0;
        for (who, score) in rs {
            let w = self.vote_weight(who) as u128;
            weight_sum += w;
            score_sum += w * (*score as u128);
        }
        let mean_e4 = (weight_sum > 0).then(|| (score_sum * 10_000 / weight_sum) as u64);
        (rs.len() as u64, mean_e4)
    }

    /// Applies one confirmed outcome to every rater of `item`: decay
    /// toward the prior first, then a bump (agreed) or a penalty plus a
    /// bond slash (contradicted). Score 50 is neutral and untouched.
    fn record_outcome(&mut self, item: &Hash256, factual: bool) -> u64 {
        let Some(policy) = self.policy else {
            return 0;
        };
        let Some(rs) = self.ratings.get(item) else {
            return 0;
        };
        let raters: Vec<(Address, u8)> = rs.iter().map(|(a, s)| (*a, *s)).collect();
        let mut slashed_total = 0u64;
        for (who, score) in raters {
            if score == 50 {
                continue;
            }
            let says_factual = score > 50;
            let agreed = says_factual == factual;
            // Exponential forgetting in integer space: keep decay_bps of
            // the deviation from the prior.
            let prior = DEFAULT_REPUTATION as i128;
            let rep = self.rep(&who) as i128;
            let decayed = prior + (rep - prior) * policy.decay_bps.min(10_000) as i128 / 10_000;
            let updated = if agreed {
                (decayed + REPUTATION_STEP_UP as i128).min(REPUTATION_CAP as i128)
            } else {
                (decayed - REPUTATION_STEP_DOWN as i128).max(0)
            };
            self.reputation.insert(who, updated as u64);
            if !agreed {
                let bonded = self.bonded_stake.entry(who).or_insert(0);
                if *bonded > 0 {
                    let cut =
                        ((*bonded as u128 * policy.slash_bps.min(10_000) as u128) / 10_000) as u64;
                    let cut = cut.max(1).min(*bonded);
                    *bonded -= cut;
                    self.treasury += cut;
                    slashed_total += cut;
                }
            }
        }
        slashed_total
    }
}

impl BuiltinContract for RankingContract {
    fn name(&self) -> &'static str {
        "ranking"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn save_state(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_hash(self.owner.as_hash());
        let mut items: Vec<(&Hash256, &BTreeMap<Address, u8>)> = self.ratings.iter().collect();
        items.sort_by_key(|(h, _)| **h);
        e.put_varint(items.len() as u64);
        for (item, rs) in items {
            e.put_hash(item).put_varint(rs.len() as u64);
            for (who, score) in rs {
                e.put_hash(who.as_hash()).put_u8(*score);
            }
        }
        let mut reps: Vec<(&Address, &u64)> = self.reputation.iter().collect();
        reps.sort_by_key(|(a, _)| **a);
        e.put_varint(reps.len() as u64);
        for (who, rep) in reps {
            e.put_hash(who.as_hash()).put_u64(*rep);
        }
        match &self.policy {
            None => {
                e.put_u8(0);
            }
            Some(p) => {
                e.put_u8(1)
                    .put_u64(p.min_bond)
                    .put_u64(p.decay_bps)
                    .put_u64(p.slash_bps);
            }
        }
        let put_stake_map = |e: &mut Encoder, map: &HashMap<Address, u64>| {
            let mut entries: Vec<(&Address, &u64)> = map.iter().collect();
            entries.sort_by_key(|(a, _)| **a);
            e.put_varint(entries.len() as u64);
            for (who, amount) in entries {
                e.put_hash(who.as_hash()).put_u64(*amount);
            }
        };
        put_stake_map(&mut e, &self.free_stake);
        put_stake_map(&mut e, &self.bonded_stake);
        e.put_u64(self.treasury);
        let mut quarantined: Vec<&Address> = self.quarantined.iter().collect();
        quarantined.sort();
        e.put_varint(quarantined.len() as u64);
        for who in quarantined {
            e.put_hash(who.as_hash());
        }
        e.finish()
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut dec = Decoder::new(bytes);
        let owner = Address::from_hash(dec.get_hash().map_err(bad_input)?);
        let mut ratings = HashMap::new();
        let n = dec.get_varint().map_err(bad_input)?;
        for _ in 0..n {
            let item = dec.get_hash().map_err(bad_input)?;
            let m = dec.get_varint().map_err(bad_input)?;
            let mut rs = BTreeMap::new();
            for _ in 0..m {
                let who = Address::from_hash(dec.get_hash().map_err(bad_input)?);
                rs.insert(who, dec.get_u8().map_err(bad_input)?);
            }
            ratings.insert(item, rs);
        }
        let mut reputation = HashMap::new();
        let n = dec.get_varint().map_err(bad_input)?;
        for _ in 0..n {
            let who = Address::from_hash(dec.get_hash().map_err(bad_input)?);
            reputation.insert(who, dec.get_u64().map_err(bad_input)?);
        }
        let policy = match dec.get_u8().map_err(bad_input)? {
            0 => None,
            1 => Some(DefensePolicy {
                min_bond: dec.get_u64().map_err(bad_input)?,
                decay_bps: dec.get_u64().map_err(bad_input)?,
                slash_bps: dec.get_u64().map_err(bad_input)?,
            }),
            other => return Err(format!("bad policy tag {other}")),
        };
        let get_stake_map = |dec: &mut Decoder| -> Result<HashMap<Address, u64>, String> {
            let n = dec.get_varint().map_err(bad_input)?;
            let mut map = HashMap::new();
            for _ in 0..n {
                let who = Address::from_hash(dec.get_hash().map_err(bad_input)?);
                map.insert(who, dec.get_u64().map_err(bad_input)?);
            }
            Ok(map)
        };
        let free_stake = get_stake_map(&mut dec)?;
        let bonded_stake = get_stake_map(&mut dec)?;
        let treasury = dec.get_u64().map_err(bad_input)?;
        let mut quarantined = HashSet::new();
        let n = dec.get_varint().map_err(bad_input)?;
        for _ in 0..n {
            quarantined.insert(Address::from_hash(dec.get_hash().map_err(bad_input)?));
        }
        dec.expect_end().map_err(bad_input)?;
        self.owner = owner;
        self.ratings = ratings;
        self.reputation = reputation;
        self.policy = policy;
        self.free_stake = free_stake;
        self.bonded_stake = bonded_stake;
        self.treasury = treasury;
        self.quarantined = quarantined;
        Ok(())
    }

    fn call(&mut self, caller: &Address, input: &[u8]) -> Result<Vec<u8>, String> {
        let mut dec = Decoder::new(input);
        let op = dec.get_u8().map_err(bad_input)?;
        match op {
            0 => {
                let item = dec.get_hash().map_err(bad_input)?;
                let score = dec.get_u8().map_err(bad_input)?;
                if score > 100 {
                    return Err(format!("score {score} out of range 0..=100"));
                }
                if self.policy.is_some() && self.quarantined.contains(caller) {
                    return Err("caller is quarantined".into());
                }
                self.ratings.entry(item).or_default().insert(*caller, score);
                Ok(Vec::new())
            }
            1 => {
                let item = dec.get_hash().map_err(bad_input)?;
                let (count, mean) = self.ranking(&item);
                let mut out = count.to_le_bytes().to_vec();
                if let Some(mean) = mean {
                    out.extend_from_slice(&mean.to_le_bytes());
                }
                Ok(out)
            }
            2 => {
                if *caller != self.owner {
                    return Err("only the owner may set reputation".into());
                }
                let who = Address::from_hash(dec.get_hash().map_err(bad_input)?);
                let rep = dec.get_u64().map_err(bad_input)?;
                self.reputation.insert(who, rep);
                Ok(Vec::new())
            }
            3 => {
                let item = dec.get_hash().map_err(bad_input)?;
                let who = Address::from_hash(dec.get_hash().map_err(bad_input)?);
                let score = self
                    .ratings
                    .get(&item)
                    .and_then(|rs| rs.get(&who))
                    .copied()
                    .unwrap_or(0xff);
                Ok(vec![score])
            }
            4 => {
                if *caller != self.owner {
                    return Err("only the owner may set the defense policy".into());
                }
                self.policy = Some(DefensePolicy {
                    min_bond: dec.get_u64().map_err(bad_input)?,
                    decay_bps: dec.get_u64().map_err(bad_input)?,
                    slash_bps: dec.get_u64().map_err(bad_input)?,
                });
                Ok(Vec::new())
            }
            5 => {
                if *caller != self.owner {
                    return Err("only the owner may grant stake".into());
                }
                let who = Address::from_hash(dec.get_hash().map_err(bad_input)?);
                let amount = dec.get_u64().map_err(bad_input)?;
                if amount == 0 {
                    return Err("grant amount must be positive".into());
                }
                // Every granted token stays in free + bonded + treasury,
                // so a total that fits a u64 keeps every balance, bond
                // and the treasury from overflowing.
                let held: u128 = self
                    .free_stake
                    .values()
                    .chain(self.bonded_stake.values())
                    .map(|v| *v as u128)
                    .sum::<u128>()
                    + self.treasury as u128;
                if held + amount as u128 > u64::MAX as u128 {
                    return Err(format!(
                        "grant of {amount} would push total stake {held} past u64::MAX"
                    ));
                }
                *self.free_stake.entry(who).or_insert(0) += amount;
                Ok(Vec::new())
            }
            6 => {
                let amount = dec.get_u64().map_err(bad_input)?;
                if amount == 0 {
                    return Err("bond amount must be positive".into());
                }
                // Read, not `entry`: a refused bond must not leave a
                // zero entry behind in the checkpointed stake map.
                let free = self.free_stake.get(caller).copied().unwrap_or(0);
                if free < amount {
                    return Err(format!(
                        "insufficient free stake: have {free}, need {amount}"
                    ));
                }
                self.free_stake.insert(*caller, free - amount);
                *self.bonded_stake.entry(*caller).or_insert(0) += amount;
                Ok(Vec::new())
            }
            7 => {
                if *caller != self.owner {
                    return Err("only the owner may record outcomes".into());
                }
                let item = dec.get_hash().map_err(bad_input)?;
                let factual = dec.get_u8().map_err(bad_input)? != 0;
                let slashed = self.record_outcome(&item, factual);
                Ok(slashed.to_le_bytes().to_vec())
            }
            8 => {
                if *caller != self.owner {
                    return Err("only the owner may quarantine".into());
                }
                let who = Address::from_hash(dec.get_hash().map_err(bad_input)?);
                self.quarantined.insert(who);
                Ok(Vec::new())
            }
            9 => {
                if *caller != self.owner {
                    return Err("only the owner may unquarantine".into());
                }
                let who = Address::from_hash(dec.get_hash().map_err(bad_input)?);
                self.quarantined.remove(&who);
                Ok(Vec::new())
            }
            10 => {
                let who = Address::from_hash(dec.get_hash().map_err(bad_input)?);
                let (free, bonded) = self.stake(&who);
                let mut out = Vec::with_capacity(16);
                out.extend_from_slice(&free.to_le_bytes());
                out.extend_from_slice(&bonded.to_le_bytes());
                Ok(out)
            }
            other => Err(format!("unknown ranking op {other}")),
        }
    }
}

/// Encodes a `SubmitRating` input.
pub fn ranking_submit(item: &Hash256, score: u8) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u8(0).put_hash(item).put_u8(score);
    e.finish()
}

/// Encodes a `GetRanking` input.
pub fn ranking_get(item: &Hash256) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u8(1).put_hash(item);
    e.finish()
}

/// Encodes a `SetReputation` input.
pub fn ranking_set_reputation(who: &Address, rep: u64) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u8(2).put_hash(who.as_hash()).put_u64(rep);
    e.finish()
}

/// Decodes a `GetRanking` output into `(count, weighted mean ×1e-4)`,
/// the mean `None` when no rating carries weight (8 bytes instead of 16).
pub fn decode_ranking(out: &[u8]) -> Option<(u64, Option<u64>)> {
    let (count, mean) = out.split_first_chunk::<8>()?;
    let mean = match mean {
        [] => None,
        mean => Some(u64::from_le_bytes(mean.try_into().ok()?)),
    };
    Some((u64::from_le_bytes(*count), mean))
}

/// Encodes a `SetPolicy` input (op 4).
pub fn ranking_set_policy(policy: &DefensePolicy) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u8(4)
        .put_u64(policy.min_bond)
        .put_u64(policy.decay_bps)
        .put_u64(policy.slash_bps);
    e.finish()
}

/// Encodes a `GrantStake` input (op 5).
pub fn ranking_grant_stake(who: &Address, amount: u64) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u8(5).put_hash(who.as_hash()).put_u64(amount);
    e.finish()
}

/// Encodes a `PostBond` input (op 6).
pub fn ranking_post_bond(amount: u64) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u8(6).put_u64(amount);
    e.finish()
}

/// Encodes a `RecordOutcome` input (op 7).
pub fn ranking_record_outcome(item: &Hash256, factual: bool) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u8(7).put_hash(item).put_u8(u8::from(factual));
    e.finish()
}

/// Encodes a `Quarantine` input (op 8).
pub fn ranking_quarantine(who: &Address) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u8(8).put_hash(who.as_hash());
    e.finish()
}

/// Encodes an `Unquarantine` input (op 9).
pub fn ranking_unquarantine(who: &Address) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u8(9).put_hash(who.as_hash());
    e.finish()
}

// ---------------------------------------------------------------------------
// Incentive contract
// ---------------------------------------------------------------------------

/// Platform-internal incentive points ("economic incentives to reward
/// individuals for flagging behaviors", §V).
///
/// Operations:
/// - `0` Reward(who: hash, amount u64) — owner only
/// - `1` Slash(who: hash, amount u64) — owner only (saturating)
/// - `2` BalanceOf(who: hash) → u64
/// - `3` Transfer(to: hash, amount u64) — moves caller's points
#[derive(Debug)]
pub struct IncentiveContract {
    owner: Address,
    balances: HashMap<Address, u64>,
}

impl IncentiveContract {
    /// Creates the contract administered by `owner`.
    pub fn new(owner: Address) -> Self {
        IncentiveContract {
            owner,
            balances: HashMap::new(),
        }
    }

    /// Current point balance.
    pub fn balance(&self, who: &Address) -> u64 {
        self.balances.get(who).copied().unwrap_or(0)
    }
}

impl BuiltinContract for IncentiveContract {
    fn name(&self) -> &'static str {
        "incentive"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn save_state(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_hash(self.owner.as_hash());
        let mut bals: Vec<(&Address, &u64)> = self.balances.iter().collect();
        bals.sort_by_key(|(a, _)| **a);
        e.put_varint(bals.len() as u64);
        for (who, bal) in bals {
            e.put_hash(who.as_hash()).put_u64(*bal);
        }
        e.finish()
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut dec = Decoder::new(bytes);
        let owner = Address::from_hash(dec.get_hash().map_err(bad_input)?);
        let mut balances = HashMap::new();
        let n = dec.get_varint().map_err(bad_input)?;
        for _ in 0..n {
            let who = Address::from_hash(dec.get_hash().map_err(bad_input)?);
            balances.insert(who, dec.get_u64().map_err(bad_input)?);
        }
        dec.expect_end().map_err(bad_input)?;
        self.owner = owner;
        self.balances = balances;
        Ok(())
    }

    fn call(&mut self, caller: &Address, input: &[u8]) -> Result<Vec<u8>, String> {
        let mut dec = Decoder::new(input);
        let op = dec.get_u8().map_err(bad_input)?;
        match op {
            0 | 1 => {
                if *caller != self.owner {
                    return Err("only the owner may reward/slash".into());
                }
                let who = Address::from_hash(dec.get_hash().map_err(bad_input)?);
                let amount = dec.get_u64().map_err(bad_input)?;
                let bal = self.balances.entry(who).or_insert(0);
                if op == 0 {
                    *bal = bal.saturating_add(amount);
                } else {
                    *bal = bal.saturating_sub(amount);
                }
                Ok(Vec::new())
            }
            2 => {
                let who = Address::from_hash(dec.get_hash().map_err(bad_input)?);
                Ok(self.balance(&who).to_le_bytes().to_vec())
            }
            3 => {
                let to = Address::from_hash(dec.get_hash().map_err(bad_input)?);
                let amount = dec.get_u64().map_err(bad_input)?;
                let from_bal = self.balance(caller);
                if from_bal < amount {
                    return Err(format!(
                        "insufficient points: have {from_bal}, need {amount}"
                    ));
                }
                self.balances.insert(*caller, from_bal - amount);
                let to_bal = self.balances.entry(to).or_insert(0);
                *to_bal = to_bal.saturating_add(amount);
                Ok(Vec::new())
            }
            other => Err(format!("unknown incentive op {other}")),
        }
    }
}

/// Encodes a `Reward` input.
pub fn incentive_reward(who: &Address, amount: u64) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u8(0).put_hash(who.as_hash()).put_u64(amount);
    e.finish()
}

/// Encodes a `Slash` input.
pub fn incentive_slash(who: &Address, amount: u64) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u8(1).put_hash(who.as_hash()).put_u64(amount);
    e.finish()
}

/// Encodes a `BalanceOf` query.
pub fn incentive_balance(who: &Address) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u8(2).put_hash(who.as_hash());
    e.finish()
}

// ---------------------------------------------------------------------------
// Factual-database admission
// ---------------------------------------------------------------------------

/// Threshold attestation gate for the factual database (paper §VI: "if the
/// news is verified to be factual, then it can be added into the factual
/// database").
///
/// Operations:
/// - `0` RegisterChecker(who: hash) — owner only
/// - `1` Attest(record: hash) — registered checkers only, deduplicated
/// - `2` IsAdmitted(record) → bool byte
/// - `3` AttestationCount(record) → u64
#[derive(Debug)]
pub struct FactDbAdmission {
    owner: Address,
    threshold: usize,
    checkers: HashSet<Address>,
    attestations: HashMap<Hash256, HashSet<Address>>,
}

impl FactDbAdmission {
    /// Creates the gate: records need `threshold` distinct checker
    /// attestations to be admitted.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is zero.
    pub fn new(owner: Address, threshold: usize) -> Self {
        assert!(threshold > 0, "admission threshold must be positive");
        FactDbAdmission {
            owner,
            threshold,
            checkers: HashSet::new(),
            attestations: HashMap::new(),
        }
    }

    /// True once `record` has reached the attestation threshold.
    pub(crate) fn is_admitted(&self, record: &Hash256) -> bool {
        self.attestations
            .get(record)
            .is_some_and(|s| s.len() >= self.threshold)
    }

    /// Number of distinct attestations for `record`.
    pub(crate) fn attestation_count(&self, record: &Hash256) -> usize {
        self.attestations.get(record).map_or(0, HashSet::len)
    }
}

impl BuiltinContract for FactDbAdmission {
    fn name(&self) -> &'static str {
        "factdb-admission"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn save_state(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_hash(self.owner.as_hash())
            .put_u64(self.threshold as u64);
        let mut checkers: Vec<&Address> = self.checkers.iter().collect();
        checkers.sort();
        e.put_varint(checkers.len() as u64);
        for c in checkers {
            e.put_hash(c.as_hash());
        }
        let mut records: Vec<(&Hash256, &HashSet<Address>)> = self.attestations.iter().collect();
        records.sort_by_key(|(h, _)| **h);
        e.put_varint(records.len() as u64);
        for (record, who) in records {
            e.put_hash(record);
            let mut who: Vec<&Address> = who.iter().collect();
            who.sort();
            e.put_varint(who.len() as u64);
            for w in who {
                e.put_hash(w.as_hash());
            }
        }
        e.finish()
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut dec = Decoder::new(bytes);
        let owner = Address::from_hash(dec.get_hash().map_err(bad_input)?);
        let threshold = dec.get_u64().map_err(bad_input)? as usize;
        if threshold == 0 {
            return Err("admission threshold must be positive".into());
        }
        let mut checkers = HashSet::new();
        let n = dec.get_varint().map_err(bad_input)?;
        for _ in 0..n {
            checkers.insert(Address::from_hash(dec.get_hash().map_err(bad_input)?));
        }
        let mut attestations = HashMap::new();
        let n = dec.get_varint().map_err(bad_input)?;
        for _ in 0..n {
            let record = dec.get_hash().map_err(bad_input)?;
            let m = dec.get_varint().map_err(bad_input)?;
            let mut who = HashSet::new();
            for _ in 0..m {
                who.insert(Address::from_hash(dec.get_hash().map_err(bad_input)?));
            }
            attestations.insert(record, who);
        }
        dec.expect_end().map_err(bad_input)?;
        self.owner = owner;
        self.threshold = threshold;
        self.checkers = checkers;
        self.attestations = attestations;
        Ok(())
    }

    fn call(&mut self, caller: &Address, input: &[u8]) -> Result<Vec<u8>, String> {
        let mut dec = Decoder::new(input);
        let op = dec.get_u8().map_err(bad_input)?;
        match op {
            0 => {
                if *caller != self.owner {
                    return Err("only the owner may register checkers".into());
                }
                let who = Address::from_hash(dec.get_hash().map_err(bad_input)?);
                self.checkers.insert(who);
                Ok(Vec::new())
            }
            1 => {
                if !self.checkers.contains(caller) {
                    return Err("caller is not a registered fact checker".into());
                }
                let record = dec.get_hash().map_err(bad_input)?;
                self.attestations.entry(record).or_default().insert(*caller);
                Ok(vec![self.is_admitted(&record) as u8])
            }
            2 => {
                let record = dec.get_hash().map_err(bad_input)?;
                Ok(vec![self.is_admitted(&record) as u8])
            }
            3 => {
                let record = dec.get_hash().map_err(bad_input)?;
                Ok((self.attestation_count(&record) as u64)
                    .to_le_bytes()
                    .to_vec())
            }
            other => Err(format!("unknown admission op {other}")),
        }
    }
}

/// Encodes a `RegisterChecker` input.
pub fn admission_register_checker(who: &Address) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u8(0).put_hash(who.as_hash());
    e.finish()
}

/// Encodes an `Attest` input.
pub fn admission_attest(record: &Hash256) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u8(1).put_hash(record);
    e.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tn_crypto::sha256::sha256;
    use tn_crypto::Keypair;

    /// Encodes a `GetStake` input (op 10).
    fn ranking_get_stake(who: &Address) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u8(10).put_hash(who.as_hash());
        e.finish()
    }

    /// Decodes a `GetStake` output into `(free, bonded)`.
    fn decode_stake(out: &[u8]) -> Option<(u64, u64)> {
        if out.len() != 16 {
            return None;
        }
        Some((
            u64::from_le_bytes(out[..8].try_into().ok()?),
            u64::from_le_bytes(out[8..].try_into().ok()?),
        ))
    }

    /// Encodes an `IsAdmitted` query.
    fn admission_is_admitted(record: &Hash256) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u8(2).put_hash(record);
        e.finish()
    }

    impl RankingContract {
        /// The active defense policy, if any.
        fn policy(&self) -> Option<DefensePolicy> {
            self.policy
        }
    }

    /// Encodes an `IsAuthorized` query input.
    fn newsroom_is_authorized(room: u64, who: &Address) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u8(3).put_u64(room).put_hash(who.as_hash());
        e.finish()
    }

    /// Encodes a `Transfer` input.
    fn incentive_transfer(to: &Address, amount: u64) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u8(3).put_hash(to.as_hash()).put_u64(amount);
        e.finish()
    }

    fn addr(seed: &[u8]) -> Address {
        Keypair::from_seed(seed).address()
    }

    #[test]
    fn newsroom_two_layer_flow() {
        let mut reg = NewsroomRegistry::new();
        let owner = addr(b"owner");
        let journo = addr(b"journalist");
        let stranger = addr(b"stranger");

        let out = reg
            .call(&owner, &newsroom_register_platform("Daily Facts"))
            .unwrap();
        let pid = u64::from_le_bytes(out.try_into().unwrap());
        let out = reg
            .call(&owner, &newsroom_create_room(pid, "elections"))
            .unwrap();
        let rid = u64::from_le_bytes(out.try_into().unwrap());

        // Stranger cannot authorize.
        assert!(reg
            .call(&stranger, &newsroom_authorize(rid, &journo))
            .is_err());
        // Owner authorizes journalist.
        reg.call(&owner, &newsroom_authorize(rid, &journo)).unwrap();
        assert_eq!(
            reg.call(&stranger, &newsroom_is_authorized(rid, &journo))
                .unwrap(),
            vec![1]
        );
        assert_eq!(
            reg.call(&stranger, &newsroom_is_authorized(rid, &stranger))
                .unwrap(),
            vec![0]
        );
        // Owner is implicitly authorized.
        assert_eq!(
            reg.call(&stranger, &newsroom_is_authorized(rid, &owner))
                .unwrap(),
            vec![1]
        );
        // Revoke.
        reg.call(&owner, &newsroom_revoke(rid, &journo)).unwrap();
        assert_eq!(
            reg.call(&stranger, &newsroom_is_authorized(rid, &journo))
                .unwrap(),
            vec![0]
        );
    }

    #[test]
    fn newsroom_rejects_bad_ops_and_unknown_ids() {
        let mut reg = NewsroomRegistry::new();
        let a = addr(b"a");
        assert!(reg.call(&a, &[9]).is_err());
        assert!(reg.call(&a, &newsroom_create_room(77, "t")).is_err());
        assert!(reg.call(&a, &newsroom_register_platform("")).is_err());
    }

    #[test]
    fn ranking_weighted_mean() {
        let owner = addr(b"platform");
        let mut rk = RankingContract::new(owner);
        let item = sha256(b"story");
        let expert = addr(b"expert");
        let troll = addr(b"troll");

        rk.call(&owner, &ranking_set_reputation(&expert, 900))
            .unwrap();
        rk.call(&owner, &ranking_set_reputation(&troll, 10))
            .unwrap();
        rk.call(&expert, &ranking_submit(&item, 90)).unwrap();
        rk.call(&troll, &ranking_submit(&item, 0)).unwrap();

        let out = rk.call(&addr(b"reader"), &ranking_get(&item)).unwrap();
        let (count, mean) = decode_ranking(&out).unwrap();
        assert_eq!(count, 2);
        // (900*90 + 10*0) / 910 = 89.01 → 890109 in 1e-4 units.
        let mean = mean.expect("weighted");
        assert!((880_000..900_000).contains(&mean), "mean={mean}");
    }

    #[test]
    fn ranking_resubmission_overwrites() {
        let owner = addr(b"p");
        let mut rk = RankingContract::new(owner);
        let item = sha256(b"x");
        let rater = addr(b"r");
        rk.call(&rater, &ranking_submit(&item, 10)).unwrap();
        rk.call(&rater, &ranking_submit(&item, 80)).unwrap();
        let (count, mean) = decode_ranking(&rk.call(&rater, &ranking_get(&item)).unwrap()).unwrap();
        assert_eq!(count, 1);
        assert_eq!(mean, Some(800_000));
    }

    #[test]
    fn ranking_guards() {
        let owner = addr(b"p");
        let mut rk = RankingContract::new(owner);
        let item = sha256(b"x");
        assert!(rk.call(&addr(b"r"), &ranking_submit(&item, 101)).is_err());
        assert!(rk
            .call(&addr(b"not owner"), &ranking_set_reputation(&addr(b"r"), 5))
            .is_err());
        // Unrated item: zero count, no mean (8 bytes).
        let out = rk.call(&owner, &ranking_get(&item)).unwrap();
        assert_eq!(out.len(), 8);
        assert_eq!(decode_ranking(&out), Some((0, None)));
        assert_eq!(decode_ranking(&out[..5]), None);
    }

    #[test]
    fn incentive_reward_slash_transfer() {
        let owner = addr(b"platform");
        let mut inc = IncentiveContract::new(owner);
        let v = addr(b"validator");
        let w = addr(b"other");

        inc.call(&owner, &incentive_reward(&v, 100)).unwrap();
        assert_eq!(inc.balance(&v), 100);
        inc.call(&owner, &incentive_slash(&v, 30)).unwrap();
        assert_eq!(inc.balance(&v), 70);
        // Over-slash saturates.
        inc.call(&owner, &incentive_slash(&v, 1000)).unwrap();
        assert_eq!(inc.balance(&v), 0);

        inc.call(&owner, &incentive_reward(&v, 50)).unwrap();
        inc.call(&v, &incentive_transfer(&w, 20)).unwrap();
        assert_eq!(inc.balance(&v), 30);
        assert_eq!(inc.balance(&w), 20);
        assert!(inc.call(&v, &incentive_transfer(&w, 1000)).is_err());
        assert!(inc.call(&v, &incentive_reward(&v, 1)).is_err());

        let out = inc.call(&w, &incentive_balance(&v)).unwrap();
        assert_eq!(u64::from_le_bytes(out.try_into().unwrap()), 30);
    }

    #[test]
    fn admission_threshold() {
        let owner = addr(b"gov");
        let mut adm = FactDbAdmission::new(owner, 2);
        let c1 = addr(b"checker1");
        let c2 = addr(b"checker2");
        let record = sha256(b"speech record");

        adm.call(&owner, &admission_register_checker(&c1)).unwrap();
        adm.call(&owner, &admission_register_checker(&c2)).unwrap();

        // Unregistered cannot attest.
        assert!(adm
            .call(&addr(b"rando"), &admission_attest(&record))
            .is_err());

        assert_eq!(adm.call(&c1, &admission_attest(&record)).unwrap(), vec![0]);
        // Duplicate attestation does not double-count.
        assert_eq!(adm.call(&c1, &admission_attest(&record)).unwrap(), vec![0]);
        assert_eq!(adm.attestation_count(&record), 1);
        assert_eq!(adm.call(&c2, &admission_attest(&record)).unwrap(), vec![1]);
        assert!(adm.is_admitted(&record));
        assert_eq!(
            adm.call(&owner, &admission_is_admitted(&record)).unwrap(),
            vec![1]
        );
    }

    #[test]
    #[should_panic(expected = "threshold must be positive")]
    fn admission_zero_threshold_panics() {
        let _ = FactDbAdmission::new(addr(b"x"), 0);
    }

    #[test]
    fn ranking_defense_policy_gates_weight_on_bond_and_quarantine() {
        let owner = addr(b"platform");
        let mut rk = RankingContract::new(owner);
        let honest = addr(b"honest");
        let sybil = addr(b"sybil");
        let item = sha256(b"contested");

        // Legacy mode: both votes carry the default weight.
        rk.call(&honest, &ranking_submit(&item, 80)).unwrap();
        rk.call(&sybil, &ranking_submit(&item, 0)).unwrap();
        assert_eq!(rk.ranking(&item), (2, Some(40_0000)));

        // Policy on: nobody bonded yet, so all weights collapse to zero.
        let policy = DefensePolicy {
            min_bond: 50,
            decay_bps: 9_000,
            slash_bps: 2_500,
        };
        assert!(rk.call(&honest, &ranking_set_policy(&policy)).is_err());
        rk.call(&owner, &ranking_set_policy(&policy)).unwrap();
        assert_eq!(rk.policy(), Some(policy));
        assert_eq!(rk.ranking(&item), (2, None));

        // Honest bonds; sybil does not → only the honest vote counts.
        assert!(rk
            .call(&honest, &ranking_grant_stake(&honest, 100))
            .is_err());
        rk.call(&owner, &ranking_grant_stake(&honest, 100)).unwrap();
        assert!(rk.call(&honest, &ranking_post_bond(200)).is_err());
        rk.call(&honest, &ranking_post_bond(100)).unwrap();
        assert_eq!(rk.stake(&honest), (0, 100));
        assert_eq!(rk.ranking(&item), (2, Some(80_0000)));

        // Quarantine zeroes the honest vote too; unquarantine restores.
        rk.call(&owner, &ranking_quarantine(&honest)).unwrap();
        assert!(rk.is_quarantined(&honest));
        assert_eq!(rk.ranking(&item), (2, None));
        assert!(rk.call(&honest, &ranking_submit(&item, 90)).is_err());
        rk.call(&owner, &ranking_unquarantine(&honest)).unwrap();
        assert_eq!(rk.ranking(&item), (2, Some(80_0000)));

        let out = rk.call(&sybil, &ranking_get_stake(&honest)).unwrap();
        assert_eq!(decode_stake(&out), Some((0, 100)));
    }

    #[test]
    fn ranking_grant_past_u64_max_is_refused_without_writing() {
        let owner = addr(b"platform");
        let mut rk = RankingContract::new(owner);
        let (a, b) = (addr(b"a"), addr(b"b"));
        rk.call(&owner, &ranking_grant_stake(&a, u64::MAX - 1))
            .unwrap();
        rk.call(&a, &ranking_post_bond(u64::MAX / 2)).unwrap();
        let before = rk.save_state();
        assert!(rk.call(&owner, &ranking_grant_stake(&a, 2)).is_err());
        assert!(rk.call(&owner, &ranking_grant_stake(&b, 2)).is_err());
        assert_eq!(rk.save_state(), before);
        rk.call(&owner, &ranking_grant_stake(&b, 1)).unwrap();
        assert_eq!(rk.stake(&b), (1, 0));
    }

    #[test]
    fn ranking_record_outcome_decays_and_slashes() {
        let owner = addr(b"platform");
        let mut rk = RankingContract::new(owner);
        let right = addr(b"right");
        let wrong = addr(b"wrong");
        let neutral = addr(b"neutral");
        let item = sha256(b"checked story");

        rk.call(
            &owner,
            &ranking_set_policy(&DefensePolicy {
                min_bond: 50,
                decay_bps: 9_000,
                slash_bps: 2_500,
            }),
        )
        .unwrap();
        for who in [&right, &wrong, &neutral] {
            rk.call(&owner, &ranking_grant_stake(who, 100)).unwrap();
            rk.call(who, &ranking_post_bond(100)).unwrap();
        }
        rk.call(&right, &ranking_submit(&item, 90)).unwrap();
        rk.call(&wrong, &ranking_submit(&item, 10)).unwrap();
        rk.call(&neutral, &ranking_submit(&item, 50)).unwrap();

        let out = rk
            .call(&owner, &ranking_record_outcome(&item, true))
            .unwrap();
        let slashed = u64::from_le_bytes(out.try_into().unwrap());
        assert_eq!(slashed, 25, "25% of the wrong rater's 100 bond");
        // Agreed: default 100 decays to 100, +20. Contradicted: -40.
        assert_eq!(rk.vote_weight(&right), 120);
        assert_eq!(rk.vote_weight(&wrong), 60);
        assert_eq!(rk.vote_weight(&neutral), 100, "score 50 is untouched");
        assert_eq!(rk.stake(&wrong), (0, 75));
        assert_eq!(rk.treasury(), 25);

        // Repeated contradictions drain the bond below min_bond → weight 0.
        for _ in 0..6 {
            rk.call(&owner, &ranking_record_outcome(&item, true))
                .unwrap();
        }
        assert!(rk.stake(&wrong).1 < 50, "bond {:?}", rk.stake(&wrong));
        assert_eq!(rk.vote_weight(&wrong), 0);
        // Stake conservation: grants = free + bonded + treasury.
        let circulating: u64 = [&right, &wrong, &neutral]
            .iter()
            .map(|w| {
                let (f, b) = rk.stake(w);
                f + b
            })
            .sum::<u64>()
            + rk.treasury();
        assert_eq!(circulating, 300);

        // Outcome recording is a no-op without a policy.
        let mut legacy = RankingContract::new(owner);
        legacy.call(&right, &ranking_submit(&item, 10)).unwrap();
        let out = legacy
            .call(&owner, &ranking_record_outcome(&item, true))
            .unwrap();
        assert_eq!(u64::from_le_bytes(out.try_into().unwrap()), 0);
        assert_eq!(legacy.vote_weight(&right), DEFAULT_REPUTATION);
    }

    #[test]
    fn ranking_defense_state_roundtrips_through_checkpoint() {
        let owner = addr(b"platform");
        let mut rk = RankingContract::new(owner);
        let a = addr(b"a");
        let item = sha256(b"story");
        rk.call(
            &owner,
            &ranking_set_policy(&DefensePolicy {
                min_bond: 10,
                decay_bps: 9_500,
                slash_bps: 1_000,
            }),
        )
        .unwrap();
        rk.call(&owner, &ranking_grant_stake(&a, 40)).unwrap();
        rk.call(&a, &ranking_post_bond(15)).unwrap();
        rk.call(&a, &ranking_submit(&item, 20)).unwrap();
        rk.call(&owner, &ranking_record_outcome(&item, true))
            .unwrap();
        rk.call(&owner, &ranking_quarantine(&a)).unwrap();

        let blob = rk.save_state();
        let mut restored = RankingContract::new(addr(b"other"));
        restored.load_state(&blob).unwrap();
        assert_eq!(restored.save_state(), blob);
        assert_eq!(restored.policy(), rk.policy());
        assert_eq!(restored.stake(&a), rk.stake(&a));
        assert_eq!(restored.treasury(), rk.treasury());
        assert!(restored.is_quarantined(&a));
        assert_eq!(restored.ranking(&item), rk.ranking(&item));
    }
}
