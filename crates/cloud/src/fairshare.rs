//! Fair-share queue ordering (Sec. II-E of the paper).
//!
//! Both cloud access models order pending jobs with fair-share scheduling:
//! a job's priority reflects its user's recent resource consumption, the
//! number of requests they have in flight, and the computation time they
//! request — heavy users sink, light users float. This module implements
//! that ordering for the orchestrator's dispatcher, where every request is
//! bound to a device: dispatchable work to the device that will run it, a
//! provisional hold to the device whose backlog it reserves.
//!
//! # Indexed core
//!
//! The queue is indexed so the hot paths never scan every pending request:
//!
//! * Each tenant's requests live in per-*lane* ordered buckets (one lane per
//!   placement tag: bound to a device, or a provisional hold on a device),
//!   keyed by the decay-invariant part of the fair-share score —
//!   `request_size_weight * requested_seconds`, then submission time, then
//!   insertion sequence. Every request of a tenant shares the same usage and
//!   in-flight score terms, so this within-lane order never changes when
//!   balances move.
//! * A per-device ready index holds each device lane's best request keyed
//!   by its full score, so [`pop_for_device`](FairShareQueue::pop_for_device)
//!   is a first-entry read plus an `O(log n)` removal. Writes (push, removal,
//!   usage charge or credit) only flag their tenant; a device pop first
//!   reposts the flagged tenants, so any number of writes to one tenant
//!   between two reads cost one repost.
//! * No insertion-order index is kept: [`pending`](FairShareQueue::pending)
//!   sorts the queued requests by their insertion sequence, `O(n log n)`.
//! * [`decay_usage`](FairShareQueue::decay_usage) keeps the seed's exact
//!   arithmetic (`consumed *= factor` per tenant, so balances stay
//!   bit-identical to the unindexed implementation) and merely marks the
//!   ready indexes stale; the next device pop performs one amortized
//!   rebuild over the lanes instead of re-scoring on every comparison.
//! * A per-device backlog summary (sum of queued `requested_seconds`) is
//!   maintained incrementally on push/pop/cancel so admission projections
//!   read it in `O(1)` instead of cloning and draining the queue.
//! * A lazily maintained *drain-order index* holds, per device, every
//!   queued request charged to it in the order a drain would reach it, so
//!   the admission projection
//!   ([`projected_backlog_for`](FairShareQueue::projected_backlog_for)) is
//!   one ordered range walk per priced device. Writes only mark their tenant
//!   dirty; the next undecayed projection re-keys the dirty tenants
//!   ([`QueueOpStats::drain_rekeys`]), or everyone once after a decay epoch.
//!
//! The behavioral contract is unchanged from the original linear-scan
//! implementation: pops pick the lowest score, FIFO on score ties, insertion
//! order on full ties. The retained reference implementation in
//! [`crate::reference`] pins that contract in the equivalence property
//! tests, which express a device pop as the reference's predicate pop over
//! the requests bound to that device. One deliberate boundary tightening:
//! requests with non-finite `requested_seconds` or `submitted_at` are
//! rejected at push time with a typed error instead of panicking inside the
//! pop comparator.

use std::cell::RefCell;
use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// FxHash's multiply-rotate step, for the maps every push and pop looks up
/// (SipHash was a measured share of those); `finish` rotates so hashbrown's
/// bucket bits come from the product's upper half. Not collision-resistant.
#[derive(Default)]
struct MulRotHasher(u64);

impl Hasher for MulRotHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_usize(b.into()));
    }

    fn write_usize(&mut self, n: usize) {
        self.0 = (self.0.rotate_left(5) ^ n as u64).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<MulRotHasher>>;

/// Why a [`FairShareQueue`] accounting call rejected a parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FairShareError {
    /// Usage decay factors must lie in `[0, 1]` (1 = no aging, 0 = full
    /// amnesty).
    DecayFactorOutOfRange(f64),
    /// Consumption and credit amounts must be non-negative finite seconds;
    /// a negative or non-finite amount would silently corrupt every later
    /// priority comparison.
    InvalidSeconds(f64),
    /// Requests must carry finite `requested_seconds` and `submitted_at`:
    /// the queue orders by both, so a NaN or infinity admitted at push time
    /// would poison every later comparison. Rejecting at the boundary keeps
    /// the pop path panic-free.
    NonFiniteRequest {
        /// The offending request's `requested_seconds`.
        requested_seconds: f64,
        /// The offending request's `submitted_at`.
        submitted_at: f64,
    },
    /// A request with this id is already queued. Ids are the handle for
    /// targeted pops and cancellations, so duplicates would make those
    /// ambiguous.
    DuplicateRequestId(usize),
}

impl fmt::Display for FairShareError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FairShareError::DecayFactorOutOfRange(v) => {
                write!(f, "decay factor must lie in [0, 1], got {v}")
            }
            FairShareError::InvalidSeconds(v) => {
                write!(f, "seconds must be a non-negative finite number, got {v}")
            }
            FairShareError::NonFiniteRequest {
                requested_seconds,
                submitted_at,
            } => write!(
                f,
                "request fields must be finite, got requested_seconds={requested_seconds} \
                 submitted_at={submitted_at}"
            ),
            FairShareError::DuplicateRequestId(id) => {
                write!(f, "request id {id} is already queued")
            }
        }
    }
}

impl std::error::Error for FairShareError {}

/// Per-user accounting the fair-share policy weighs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct UserUsage {
    /// Device-seconds consumed in the accounting window.
    pub consumed_seconds: f64,
    /// Jobs currently queued or running.
    pub jobs_in_flight: u32,
}

/// A queued request as fair-share sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct QueuedRequest {
    /// Request id.
    pub id: usize,
    /// Submitting user.
    pub user: String,
    /// Requested computation time, seconds.
    pub requested_seconds: f64,
    /// Submission time (FIFO tie-break).
    pub submitted_at: f64,
}

/// Weights of the fair-share score; larger scores dequeue later.
pub(crate) struct Weights {
    /// Weight on the user's consumed device-seconds.
    pub usage: f64,
    /// Weight on the user's in-flight job count.
    pub in_flight: f64,
    /// Weight on the requested computation time. Non-negative, so ordering
    /// a tenant's requests by `request_size * requested_seconds` agrees with
    /// full-score order, which the per-tenant index relies on.
    pub request_size: f64,
}

/// The weights both queues (this one and [`crate::reference`]) score with.
pub(crate) const WEIGHTS: Weights = Weights {
    usage: 1.0,
    in_flight: 10.0,
    request_size: 0.5,
};

impl Weights {
    fn score_of(&self, usage: UserUsage, requested_seconds: f64) -> f64 {
        self.usage * usage.consumed_seconds
            + self.in_flight * usage.jobs_in_flight as f64
            + self.request_size * requested_seconds
    }

    /// The cross-tenant key of a request under the given score terms; its
    /// tie-breaks are the within-lane key's.
    fn cross_key(&self, usage: UserUsage, requested_seconds: f64, rk: ReqKey) -> CrossKey {
        CrossKey {
            score: Key::new(self.score_of(usage, requested_seconds)),
            submitted: rk.submitted,
            seq: rk.seq,
        }
    }
}

/// Per-run counters over the queue's indexed operations, exposed so a
/// scheduling run can prove its hot paths stayed on the indexed fast path
/// (an `O(log n)` claim that silently regresses to rescans shows up here as
/// `index_rebuilds` growing with operation count instead of decay epochs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueOpStats {
    /// Requests enqueued, device-bound and holds alike (requeues included).
    pub pushes: u64,
    /// Requests dequeued for execution, by device or by id.
    pub pops: u64,
    /// Requests removed without running (cancellations).
    pub cancels: u64,
    /// Amortized rebuilds of the per-device ready indexes. Exactly one per
    /// device pop that follows a decaying `decay_usage` call — if this
    /// grows like `pops`, the lazy-rebuild optimization has regressed.
    pub index_rebuilds: u64,
    /// Incremental updates of the per-device backlog summary (one per
    /// push, pop and cancel; never a full queue walk).
    pub backlog_refreshes: u64,
    /// Queued requests whose drain-order key a fresh projection's lazy
    /// refresh recomputed: every request of each tenant written to since
    /// the last one (all of them after a decay epoch). Zero across
    /// projections with no write in between.
    pub drain_rekeys: u64,
    /// Drain-order index entries fresh projections visited — the requests
    /// ranked ahead of the probe on the devices it priced.
    pub projection_walked: u64,
}

/// Total-ordered `f64` wrapper for index keys. Construction normalizes
/// `-0.0` to `+0.0` so `total_cmp`'s `-0 < +0` distinction can never
/// diverge from the IEEE `==` the unindexed comparator used.
#[derive(Debug, Clone, Copy)]
struct Key(f64);

impl Key {
    fn new(v: f64) -> Self {
        Key(v + 0.0)
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Placement tag of a queued request: which lane it lives in and which
/// device's backlog it charges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Tag {
    /// Dispatchable work bound to a device's ready set.
    Device(usize),
    /// Provisional reservation charged to a device's backlog but excluded
    /// from that device's dispatch pops.
    Hold(usize),
}

impl Tag {
    /// The device whose backlog this request charges.
    fn device(self) -> usize {
        match self {
            Tag::Device(d) | Tag::Hold(d) => d,
        }
    }
}

/// Within-lane order key: the decay-invariant score component, then the
/// seed comparator's tie-breaks (submission time, insertion sequence).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct ReqKey {
    size: Key,
    submitted: Key,
    seq: u64,
}

/// Cross-tenant order key: the full fair-share score of a lane's best
/// request, then the same tie-breaks. Unique per request via `seq`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct CrossKey {
    score: Key,
    submitted: Key,
    seq: u64,
}

#[derive(Debug, Clone)]
struct StoredRequest {
    request: QueuedRequest,
    uid: usize,
    tag: Tag,
    seq: u64,
}

/// A queued request's rank in a drain: its tenant's prefix-maximum
/// [`CrossKey`] through its within-tenant drain position, then the position.
type DrainKey = (CrossKey, u32);

/// One tenant's side of the [`DrainIndex`]: whether it awaits re-keying, and
/// the `(device, key)` of each posting it holds so a re-key can retract them.
#[derive(Debug, Clone, Default)]
struct TenantPostings {
    dirty: bool,
    posted: Vec<(usize, DrainKey)>,
}

/// The drain-order index behind the fresh admission projection. Per device,
/// every queued request charged to it, keyed by its [`DrainKey`] under the
/// live balances, with its `(requested_seconds, uid)`. Ascending key order
/// restricted to a device is the order a drain would visit that device's
/// requests, so a projection is one range walk per priced device.
/// Maintained lazily: writes only mark their tenant dirty and the next fresh
/// projection re-keys the dirty tenants, which is why the queue holds it in
/// a `RefCell`.
#[derive(Debug, Clone, Default)]
struct DrainIndex {
    by_device: FastMap<usize, BTreeMap<DrainKey, (f64, u32)>>,
    /// Parallel to `FairShareQueue::states`.
    tenants: Vec<TenantPostings>,
    /// Tenants whose balances or requests moved since their last re-key.
    dirty: Vec<usize>,
    /// Set by a decaying `decay_usage`: every key moved, rebuild from empty.
    all_dirty: bool,
    /// `QueueOpStats::{drain_rekeys, projection_walked}`.
    rekeys: u64,
    walked: u64,
}

/// One tenant's ordered bucket of requests sharing a placement tag, plus,
/// for a device lane, the ready-index key its best member is posted under.
#[derive(Debug, Clone, Default)]
struct Lane {
    requests: BTreeMap<ReqKey, usize>,
    posted: Option<CrossKey>,
}

#[derive(Debug, Clone)]
struct UserState {
    name: String,
    usage: UserUsage,
    /// At most a few lanes per tenant (one per device it queues on, plus
    /// holds), so a scan beats a hash. Their order is first-push order and
    /// never reaches output: readers that merge lanes sort by a unique key.
    lanes: Vec<(Tag, Lane)>,
    /// Written to since its lanes were last posted (on
    /// `FairShareQueue::unposted`).
    unposted: bool,
}

/// A fair-share priority queue over [`QueuedRequest`]s.
///
/// # Examples
///
/// ```
/// use qoncord_cloud::fairshare::{FairShareQueue, QueuedRequest};
///
/// let mut q = FairShareQueue::new();
/// q.record_usage("heavy", 1000.0).unwrap();
/// let req = |id: usize, user: &str| QueuedRequest {
///     id, user: user.into(), requested_seconds: 5.0, submitted_at: id as f64,
/// };
/// q.push_for_device(req(0, "heavy"), 0).unwrap();
/// q.push_for_device(req(1, "light"), 0).unwrap();
/// // The light user's later submission dequeues first.
/// assert_eq!(q.pop_for_device(0).unwrap().id, 1);
/// ```
///
/// Its hash maps are only looked up, or iterated where the result is sorted
/// by a unique key or order-insensitive: no iteration order reaches output.
#[derive(Debug, Clone, Default)]
pub struct FairShareQueue {
    /// Tenant name → dense uid into `states`.
    users: FastMap<String, usize>,
    states: Vec<UserState>,
    /// Request id → stored request + index coordinates.
    entries: FastMap<usize, StoredRequest>,
    /// Per-device score index over `Tag::Device` lane bests → tenant uid.
    ready_by_device: FastMap<usize, BTreeMap<CrossKey, usize>>,
    /// Incrementally maintained per-device backlog: sum of queued
    /// `requested_seconds` charged to the device (dispatchable + holds).
    backlog: FastMap<usize, f64>,
    len: usize,
    seq: u64,
    /// Tenants whose posted lane bests predate a write; reposted by the
    /// next device pop.
    unposted: Vec<usize>,
    /// Set by a decaying `decay_usage`; cleared by the next device pop's
    /// amortized index rebuild.
    stale: bool,
    stats: QueueOpStats,
    /// Refreshed inside `&self` projections, hence the cell.
    drain: RefCell<DrainIndex>,
}

// The cell makes the queue `!Sync`; the engine moves it but never shares it.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<FairShareQueue>()
};

impl FairShareQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        FairShareQueue::default()
    }

    /// Number of pending requests.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Counters over this queue's operations since construction.
    pub fn stats(&self) -> QueueOpStats {
        let drain = self.drain.borrow();
        QueueOpStats {
            drain_rekeys: drain.rekeys,
            projection_walked: drain.walked,
            ..self.stats
        }
    }

    fn uid_of(&mut self, user: &str) -> usize {
        if let Some(&uid) = self.users.get(user) {
            return uid;
        }
        let uid = self.states.len();
        self.users.insert(user.to_owned(), uid);
        self.states.push(UserState {
            name: user.to_owned(),
            usage: UserUsage::default(),
            lanes: Vec::new(),
            unposted: false,
        });
        self.drain.get_mut().tenants.push(TenantPostings::default());
        uid
    }

    fn req_key(&self, request: &QueuedRequest, seq: u64) -> ReqKey {
        ReqKey {
            size: Key::new(WEIGHTS.request_size * request.requested_seconds),
            submitted: Key::new(request.submitted_at),
            seq,
        }
    }

    /// A tenant's balance or requests moved: flags it for the two lazy
    /// indexes — the posted lane bests, re-derived by the next device pop
    /// ([`ensure_fresh`](Self::ensure_fresh)), and the drain index's next
    /// re-key — so a write costs no ordered-map operation until something
    /// reads the order.
    fn touch(&mut self, uid: usize) {
        let drain = self.drain.get_mut();
        if !std::mem::replace(&mut drain.tenants[uid].dirty, true) {
            drain.dirty.push(uid);
        }
        if !std::mem::replace(&mut self.states[uid].unposted, true) {
            self.unposted.push(uid);
        }
    }

    /// Reposts every device lane of a tenant — needed whenever the tenant's
    /// usage terms change, since those shift all of its lanes' posted
    /// scores — and drops the lanes of either tag that emptied. Hold lanes
    /// are never posted: no pop reads them in score order.
    fn repost_user(&mut self, uid: usize) {
        let usage = self.states[uid].usage;
        let mut lanes = std::mem::take(&mut self.states[uid].lanes);
        lanes.retain_mut(|(tag, lane)| {
            if let Tag::Device(d) = *tag {
                let ready = self.ready_by_device.entry(d).or_default();
                if let Some(old) = lane.posted.take() {
                    ready.remove(&old);
                }
                lane.posted = lane.requests.first_key_value().map(|(&rk, id)| {
                    let seconds = self.entries[id].request.requested_seconds;
                    WEIGHTS.cross_key(usage, seconds, rk)
                });
                if let Some(key) = lane.posted {
                    ready.insert(key, uid);
                }
            }
            !lane.requests.is_empty()
        });
        self.states[uid].lanes = lanes;
    }

    /// Brings the ready indexes up to date with the live state, as the first
    /// step of every device pop: reposts the tenants written to since the
    /// last one — or everyone, as the amortized rebuild a decay epoch
    /// deferred. A posting is a function of the tenant's live balance and
    /// lane contents alone, so however many writes a tenant absorbed in
    /// between, one repost lands it where eager reposting would have. The
    /// within-lane order is decay-invariant, so only the posted lane-best
    /// keys need re-deriving.
    fn ensure_fresh(&mut self) {
        let _rebuild = std::mem::take(&mut self.stale).then(|| {
            self.stats.index_rebuilds += 1;
            self.unposted.clear();
            self.unposted.extend(0..self.states.len());
            qoncord_prof::span("fairshare::rebuild")
        });
        for i in 0..self.unposted.len() {
            let uid = self.unposted[i];
            self.states[uid].unposted = false;
            self.repost_user(uid);
        }
        self.unposted.clear();
    }

    /// The push-time checks: finite fields and an id not already queued.
    fn admissible(&self, request: &QueuedRequest) -> Result<(), FairShareError> {
        if !(request.requested_seconds.is_finite() && request.submitted_at.is_finite()) {
            return Err(FairShareError::NonFiniteRequest {
                requested_seconds: request.requested_seconds,
                submitted_at: request.submitted_at,
            });
        }
        if self.entries.contains_key(&request.id) {
            return Err(FairShareError::DuplicateRequestId(request.id));
        }
        Ok(())
    }

    fn insert_request(&mut self, request: QueuedRequest, tag: Tag) -> Result<(), FairShareError> {
        let _prof = qoncord_prof::span("fairshare::push");
        self.admissible(&request)?;
        let uid = self.uid_of(&request.user);
        self.states[uid].usage.jobs_in_flight += 1;
        let seq = self.seq;
        self.seq += 1;
        *self.backlog.entry(tag.device()).or_insert(0.0) += request.requested_seconds;
        self.stats.backlog_refreshes += 1;
        let key = self.req_key(&request, seq);
        let lanes = &mut self.states[uid].lanes;
        let at = match lanes.iter().position(|(t, _)| *t == tag) {
            Some(at) => at,
            None => {
                lanes.push((tag, Lane::default()));
                lanes.len() - 1
            }
        };
        lanes[at].1.requests.insert(key, request.id);
        self.entries.insert(
            request.id,
            StoredRequest {
                request,
                uid,
                tag,
                seq,
            },
        );
        self.len += 1;
        self.stats.pushes += 1;
        self.touch(uid);
        Ok(())
    }

    fn remove_request(&mut self, id: usize) -> Option<QueuedRequest> {
        let StoredRequest {
            request,
            uid,
            tag,
            seq,
        } = self.entries.remove(&id)?;
        let key = self.req_key(&request, seq);
        if let Some((_, lane)) = self.states[uid].lanes.iter_mut().find(|(t, _)| *t == tag) {
            lane.requests.remove(&key);
        }
        if let Some(total) = self.backlog.get_mut(&tag.device()) {
            *total -= request.requested_seconds;
        }
        self.stats.backlog_refreshes += 1;
        let usage = &mut self.states[uid].usage;
        usage.jobs_in_flight = usage.jobs_in_flight.saturating_sub(1);
        self.len -= 1;
        self.touch(uid);
        Some(request)
    }

    /// Records `seconds` of consumption against `user`'s share.
    ///
    /// # Errors
    ///
    /// Returns [`FairShareError::InvalidSeconds`] when `seconds` is negative
    /// or not finite. Deliberate credits (which *reduce* a user's balance) go
    /// through [`credit_usage`](Self::credit_usage) instead, so an accounting
    /// bug cannot masquerade as a discount.
    pub fn record_usage(&mut self, user: &str, seconds: f64) -> Result<(), FairShareError> {
        if !(seconds.is_finite() && seconds >= 0.0) {
            return Err(FairShareError::InvalidSeconds(seconds));
        }
        let uid = self.uid_of(user);
        self.states[uid].usage.consumed_seconds += seconds;
        self.touch(uid);
        Ok(())
    }

    /// Grants `user` a fair-share credit of `seconds`: their consumption
    /// balance drops by that amount, floating their queued requests. This is
    /// the explicit discount path — priority boosts, eviction compensation —
    /// kept separate from [`record_usage`](Self::record_usage) so only
    /// intentional call sites can lower a balance.
    ///
    /// # Errors
    ///
    /// Returns [`FairShareError::InvalidSeconds`] when `seconds` is negative
    /// or not finite.
    pub fn credit_usage(&mut self, user: &str, seconds: f64) -> Result<(), FairShareError> {
        if !(seconds.is_finite() && seconds >= 0.0) {
            return Err(FairShareError::InvalidSeconds(seconds));
        }
        let uid = self.uid_of(user);
        self.states[uid].usage.consumed_seconds -= seconds;
        self.touch(uid);
        Ok(())
    }

    /// Ages all users' consumption by `factor` (e.g. nightly decay toward
    /// zero so past-heavy users recover priority).
    ///
    /// Balances are updated eagerly with the same `consumed *= factor`
    /// arithmetic as the reference implementation (keeping them
    /// bit-identical); only the ready indexes are deferred, via a stale flag
    /// consumed by the next device pop's single amortized rebuild.
    ///
    /// # Errors
    ///
    /// Returns [`FairShareError::DecayFactorOutOfRange`] when `factor` is
    /// outside `[0, 1]` or not finite.
    pub fn decay_usage(&mut self, factor: f64) -> Result<(), FairShareError> {
        if !(factor.is_finite() && (0.0..=1.0).contains(&factor)) {
            return Err(FairShareError::DecayFactorOutOfRange(factor));
        }
        for state in &mut self.states {
            state.usage.consumed_seconds *= factor;
        }
        if factor < 1.0 {
            self.stale = true;
            self.drain.get_mut().all_dirty = true;
        }
        Ok(())
    }

    /// Current usage record for a user.
    pub fn usage(&self, user: &str) -> UserUsage {
        self.users
            .get(user)
            .map(|&uid| self.states[uid].usage)
            .unwrap_or_default()
    }

    /// Iterates every user the queue has accounted, with their usage
    /// (arbitrary order — sort before presenting).
    pub fn balances(&self) -> impl Iterator<Item = (&str, UserUsage)> {
        self.states.iter().map(|s| (s.name.as_str(), s.usage))
    }

    /// Iterates the pending requests — device-bound and holds — in
    /// insertion order, without popping. A request popped and pushed again
    /// re-enters at the back. Sorts per call, `O(n log n)`.
    pub fn pending(&self) -> impl Iterator<Item = &QueuedRequest> {
        let mut stored: Vec<&StoredRequest> = self.entries.values().collect();
        stored.sort_unstable_by_key(|s| s.seq);
        stored.into_iter().map(|s| &s.request)
    }

    /// The incrementally maintained backlog of `device`: total requested
    /// seconds of queued work charged to it (dispatchable requests and
    /// holds). Clamped at zero against accumulated floating-point drift.
    pub fn device_backlog(&self, device: usize) -> f64 {
        self.backlog.get(&device).copied().unwrap_or(0.0).max(0.0)
    }

    /// Enqueues a request into `device`'s ready set and bumps the user's
    /// in-flight count: it charges that device's backlog and is eligible
    /// for [`pop_for_device`](Self::pop_for_device).
    ///
    /// # Errors
    ///
    /// Returns [`FairShareError::NonFiniteRequest`] when the request's
    /// `requested_seconds` or `submitted_at` is not finite, and
    /// [`FairShareError::DuplicateRequestId`] when its id is already queued;
    /// nothing is enqueued in either case.
    pub fn push_for_device(
        &mut self,
        request: QueuedRequest,
        device: usize,
    ) -> Result<(), FairShareError> {
        self.insert_request(request, Tag::Device(device))
    }

    /// Enqueues a provisional hold on `device`: the request charges the
    /// device's backlog but is excluded from the device's dispatch pops
    /// until released ([`cancel_by_id`](Self::cancel_by_id)).
    ///
    /// # Errors
    ///
    /// Same contract as [`push_for_device`](Self::push_for_device).
    pub fn push_hold(
        &mut self,
        request: QueuedRequest,
        device: usize,
    ) -> Result<(), FairShareError> {
        self.insert_request(request, Tag::Hold(device))
    }

    /// Dequeues the lowest-score dispatchable request bound to `device`
    /// (FIFO on ties), releasing its in-flight slot. Holds on the device
    /// are not candidates. The caller should
    /// [`record_usage`](Self::record_usage) once the job actually runs.
    pub fn pop_for_device(&mut self, device: usize) -> Option<QueuedRequest> {
        let _prof = qoncord_prof::span("fairshare::pop");
        self.ensure_fresh();
        let (_, &uid) = self.ready_by_device.get(&device)?.first_key_value()?;
        let tag = Tag::Device(device);
        let (_, lane) = self.states[uid]
            .lanes
            .iter()
            .find(|(t, _)| *t == tag)
            .expect("a posted lane exists");
        let id = *lane
            .requests
            .first_key_value()
            .expect("posted lane is non-empty")
            .1;
        self.stats.pops += 1;
        self.remove_request(id)
    }

    /// Dequeues the request with id `id`, releasing its in-flight slot.
    /// Returns `None` when no such request is queued.
    pub fn pop_by_id(&mut self, id: usize) -> Option<QueuedRequest> {
        let _prof = qoncord_prof::span("fairshare::pop");
        let request = self.remove_request(id)?;
        self.stats.pops += 1;
        Some(request)
    }

    /// Removes the request with id `id` without running it, releasing its
    /// in-flight slot. Returns `None` when no such request is queued.
    pub fn cancel_by_id(&mut self, id: usize) -> Option<QueuedRequest> {
        let request = self.remove_request(id)?;
        self.stats.cancels += 1;
        Some(request)
    }

    /// Requeues into `device`'s ready set a request whose granted device
    /// time was preempted before it produced anything: the tenant is
    /// credited `burned_seconds` of fair-share usage as compensation for the
    /// delay, so eviction victims float back up the queue. The caller owns
    /// the credit's lifetime — charge it back (via
    /// [`record_usage`](Self::record_usage)) once the victim is made whole,
    /// or it becomes a permanent discount.
    ///
    /// # Errors
    ///
    /// Returns [`FairShareError::InvalidSeconds`] when `burned_seconds` is
    /// negative or not finite, plus
    /// [`push_for_device`](Self::push_for_device)'s errors for the request
    /// itself; neither the credit nor the enqueue happens on any rejection.
    pub fn requeue_with_credit_for_device(
        &mut self,
        request: QueuedRequest,
        device: usize,
        burned_seconds: f64,
    ) -> Result<(), FairShareError> {
        if !(burned_seconds.is_finite() && burned_seconds >= 0.0) {
            return Err(FairShareError::InvalidSeconds(burned_seconds));
        }
        self.admissible(&request)?;
        self.credit_usage(&request.user, burned_seconds)?;
        self.insert_request(request, Tag::Device(device))
    }
}

/// A tenant snapshot inside the replay oracle: a mutable copy of its usage
/// plus its requests in within-tenant drain order.
#[derive(Debug, Default)]
struct ProjectedUser {
    usage: UserUsage,
    /// `(order key, id, requested_seconds, charged device)` sorted by key.
    requests: Vec<(ReqKey, usize, f64, Option<usize>)>,
    cursor: usize,
}

impl FairShareQueue {
    /// Collects `uid`'s pending requests into `buf` in within-tenant drain
    /// order — `(order key, id, requested_seconds, charged device)` merged
    /// across lanes and sorted by the decay-invariant key. Shared by the
    /// replay snapshot and the rank-query walk so both see the identical
    /// sequence.
    fn tenant_requests_into(&self, uid: usize, buf: &mut Vec<(ReqKey, usize, f64, Option<usize>)>) {
        buf.clear();
        buf.extend(self.states[uid].lanes.iter().flat_map(|(tag, lane)| {
            let device = Some(tag.device());
            lane.requests.iter().map(move |(&key, &id)| {
                (key, id, self.entries[&id].request.requested_seconds, device)
            })
        }));
        buf.sort_unstable_by_key(|a| a.0);
    }

    /// Projects the per-device backlog that would dispatch *ahead of*
    /// `probe` if it were pushed now: credits `probe_credit` seconds to the
    /// probe's tenant, ages every balance by `decay_factor`, virtually
    /// enqueues the probe last, then accumulates each outranking request's
    /// `requested_seconds` against the device it is charged to — all
    /// without cloning the queue. Only the devices an admission decision
    /// prices accumulate: slot `d` of the result is device `d`'s share when
    /// `devices` lists `d` and `d < n_devices`, and `0.0` otherwise. Each
    /// device's sum is independent of every other device's, so a slot does
    /// not depend on what else is listed. This is the rank query
    /// [`crate::policy::estimate_feasibility_decayed`] rides.
    ///
    /// # Panics
    ///
    /// Panics when `decay_factor` is outside `[0, 1]`, `probe_credit` is
    /// negative or not finite, or the probe's fields are not finite.
    pub fn projected_backlog_for(
        &self,
        probe: &QueuedRequest,
        probe_credit: f64,
        decay_factor: f64,
        n_devices: usize,
        devices: &[usize],
    ) -> Vec<f64> {
        assert!(
            decay_factor.is_finite() && (0.0..=1.0).contains(&decay_factor),
            "decay factor must lie in [0, 1], got {decay_factor}"
        );
        assert!(
            probe_credit.is_finite() && probe_credit >= 0.0,
            "probe credit must be a non-negative finite number, got {probe_credit}"
        );
        assert!(
            probe.requested_seconds.is_finite() && probe.submitted_at.is_finite(),
            "probe fields must be finite"
        );
        let _prof = qoncord_prof::span("fairshare::projection");
        let fast = self.backlog_ahead_ranked(probe, probe_credit, decay_factor, n_devices, devices);
        #[cfg(debug_assertions)]
        {
            let replay =
                self.backlog_ahead_replay(probe, probe_credit, decay_factor, n_devices, devices);
            debug_assert!(
                fast.len() == replay.len()
                    && fast
                        .iter()
                        .zip(&replay)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                "rank-query backlog projection diverged from exact replay: \
                 {fast:?} vs {replay:?}"
            );
        }
        fast
    }

    /// The exact-replay oracle: heap-replays the drain over tenant
    /// snapshots, exactly as dispatch would pop, until the probe surfaces.
    /// Only the popped tenant's head key changes per step, so a binary heap
    /// with reinsertion replays the exact order in `O(n log u)`. Retained
    /// as the `debug_assert` check on every
    /// [`backlog_ahead_ranked`](Self::backlog_ahead_ranked) answer.
    // Only the debug-assert path calls it, so release builds see it as
    // dead; it must stay compiled so the oracle can't rot.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    fn backlog_ahead_replay(
        &self,
        probe: &QueuedRequest,
        probe_credit: f64,
        decay_factor: f64,
        n_devices: usize,
        devices: &[usize],
    ) -> Vec<f64> {
        let mut users: Vec<ProjectedUser> = (0..self.states.len())
            .map(|uid| {
                let mut requests = Vec::new();
                self.tenant_requests_into(uid, &mut requests);
                ProjectedUser {
                    usage: self.states[uid].usage,
                    requests,
                    cursor: 0,
                }
            })
            .collect();
        let probe_uid = match self.users.get(&probe.user) {
            Some(&uid) => uid,
            None => {
                users.push(ProjectedUser::default());
                users.len() - 1
            }
        };
        // Same op order as the reference projection: credit, then decay,
        // then enqueue the probe (bumping its tenant's in-flight count).
        users[probe_uid].usage.consumed_seconds -= probe_credit;
        for user in &mut users {
            user.usage.consumed_seconds *= decay_factor;
        }
        let probe_user = &mut users[probe_uid];
        probe_user.usage.jobs_in_flight += 1;
        let probe_key = self.req_key(probe, self.seq);
        let at = probe_user
            .requests
            .partition_point(|(key, ..)| *key < probe_key);
        probe_user
            .requests
            .insert(at, (probe_key, probe.id, probe.requested_seconds, None));

        let head_key = |user: &ProjectedUser| {
            let (rk, _, secs, _) = user.requests[user.cursor];
            WEIGHTS.cross_key(user.usage, secs, rk)
        };
        let mut heap: BinaryHeap<_> = users
            .iter()
            .enumerate()
            .filter(|(_, user)| !user.requests.is_empty())
            .map(|(uid, user)| Reverse((head_key(user), uid)))
            .collect();
        let mut ahead = vec![0.0; n_devices];
        while let Some(Reverse((_, uid))) = heap.pop() {
            let user = &mut users[uid];
            let (_, id, secs, device) = user.requests[user.cursor];
            if id == probe.id {
                break;
            }
            user.cursor += 1;
            user.usage.jobs_in_flight = user.usage.jobs_in_flight.saturating_sub(1);
            if let Some(d) = device.filter(|d| *d < n_devices && devices.contains(d)) {
                ahead[d] += secs;
            }
            if user.cursor < user.requests.len() {
                heap.push(Reverse((head_key(user), uid)));
            }
        }
        ahead
    }

    /// The prefix-maximum keys of one tenant's forced drain. Position `k` of
    /// `requests` (the tenant's merged within-lane order) is scored with
    /// `usage`'s balance and the in-flight count its `k` earlier pops leave,
    /// and yields the maximum key through `k` with its seconds and device.
    fn prefix_keys<'a>(
        &'a self,
        mut usage: UserUsage,
        requests: &'a [(ReqKey, usize, f64, Option<usize>)],
    ) -> impl Iterator<Item = (CrossKey, f64, Option<usize>)> + 'a {
        let mut max: Option<CrossKey> = None;
        requests.iter().map(move |&(rk, _, secs, device)| {
            let key = WEIGHTS.cross_key(usage, secs, rk);
            usage.jobs_in_flight = usage.jobs_in_flight.saturating_sub(1);
            let m = max.map_or(key, |prev| prev.max(key));
            max = Some(m);
            (m, secs, device)
        })
    }

    /// Brings the drain index up to date with the live balances: retracts
    /// and re-posts every request of each dirty tenant (of everyone after a
    /// decay epoch), keyed exactly as the decayed pass of
    /// [`backlog_ahead_ranked`](Self::backlog_ahead_ranked) would key it at
    /// factor 1 (`consumed * 1.0` is an identity).
    fn refresh_drain_index(&self, index: &mut DrainIndex) {
        if std::mem::take(&mut index.all_dirty) {
            index.by_device.clear();
            index.tenants.iter_mut().for_each(|t| t.posted.clear());
            index.dirty.clear();
            index.dirty.extend(0..index.tenants.len());
        }
        let mut buf = Vec::new();
        for uid in index.dirty.drain(..) {
            let tenant = &mut index.tenants[uid];
            tenant.dirty = false;
            for (d, key) in tenant.posted.drain(..) {
                if let Some(postings) = index.by_device.get_mut(&d) {
                    postings.remove(&key);
                }
            }
            self.tenant_requests_into(uid, &mut buf);
            index.rekeys += buf.len() as u64;
            let id = u32::try_from(uid).expect("fewer than 2^32 tenants");
            let keys = self.prefix_keys(self.states[uid].usage, &buf);
            for (k, (m, secs, device)) in keys.enumerate() {
                if let Some(d) = device {
                    let key = (m, k as u32);
                    index
                        .by_device
                        .entry(d)
                        .or_default()
                        .insert(key, (secs, id));
                    tenant.posted.push((d, key));
                }
            }
        }
    }

    /// The fast path behind
    /// [`projected_backlog_for`](Self::projected_backlog_for):
    /// characterizes the outranking set directly instead of heap-replaying
    /// the whole drain.
    ///
    /// Within one projection every request's effective key is a static
    /// function of its tenant and within-tenant drain position (balances
    /// don't move while draining; the in-flight term depends only on how
    /// many of the tenant's own requests already popped), per-tenant drain
    /// order is forced, and all keys are globally distinct via `seq`. Under
    /// those conditions a request at position `k` of tenant `u` pops before
    /// a request at position `m` of tenant `v` iff `u`'s *prefix-maximum*
    /// key through `k` is below `v`'s through `m` — so the set that
    /// dispatches ahead of the probe is exactly: the probe tenant's own
    /// positions before the probe, plus every other tenant's longest prefix
    /// whose keys stay below the probe's prefix-maximum key `T`, and the
    /// global pop order is ascending `(prefix max, position)`.
    ///
    /// Undecayed (`decay_factor == 1`, the fresh pass), the other tenants'
    /// part is already sorted in the [`DrainIndex`]: per priced device, one
    /// ascending walk of the postings below `T`, skipping the probe
    /// tenant's own and merging in its re-keyed forced prefix by key.
    /// Decayed, every key shifts, so each tenant gets an O(1) head test
    /// (the prefix maximum is nondecreasing, so a tenant whose head clears
    /// `T` contributes nothing), candidates are walked until their first
    /// key at or above `T`, and the collected set is sorted. Either way
    /// each device's sum accumulates in exact pop order — float addition
    /// order is the contract, which is why the index carries no prefix
    /// aggregates — keeping it bit-identical to the replay oracle.
    fn backlog_ahead_ranked(
        &self,
        probe: &QueuedRequest,
        probe_credit: f64,
        decay_factor: f64,
        n_devices: usize,
        devices: &[usize],
    ) -> Vec<f64> {
        let probe_uid = self.users.get(&probe.user).copied();
        let live = probe_uid.map_or(UserUsage::default(), |uid| self.states[uid].usage);
        // Same op order as the replay: credit, then decay, then the probe's
        // in-flight bump.
        let p_usage = UserUsage {
            consumed_seconds: (live.consumed_seconds - probe_credit) * decay_factor,
            jobs_in_flight: live.jobs_in_flight + 1,
        };
        // Every listed device below `n_devices` is priced once, however
        // often `devices` names it.
        let mut listed = vec![false; n_devices];
        for &d in devices {
            if let Some(slot) = listed.get_mut(d) {
                *slot = true;
            }
        }
        let priced = |device: Option<usize>| device.filter(|&d| listed.get(d) == Some(&true));

        let mut buf = Vec::new();
        if let Some(uid) = probe_uid {
            self.tenant_requests_into(uid, &mut buf);
        }
        let probe_key = self.req_key(probe, self.seq);
        let at = buf.partition_point(|(key, ..)| *key < probe_key);
        buf.truncate(at);
        buf.push((probe_key, probe.id, probe.requested_seconds, None));

        // Walk the probe tenant's forced prefix through the probe itself:
        // `t` ends as the probe's prefix-maximum key, and every position
        // before the probe is unconditionally ahead. Only priced requests
        // are ever summed, so only they are kept, as (rank, seconds,
        // device).
        let mut ahead_set: Vec<(DrainKey, f64, usize)> = Vec::new();
        let mut t = None;
        for (k, (m, secs, device)) in self.prefix_keys(p_usage, &buf).enumerate() {
            t = Some(m);
            if let Some(d) = priced(device) {
                ahead_set.push(((m, k as u32), secs, d));
            }
        }
        let t = t.expect("prefix includes the probe");
        let mut ahead = vec![0.0; n_devices];

        if decay_factor == 1.0 {
            let mut index = self.drain.borrow_mut();
            self.refresh_drain_index(&mut index);
            // Stable, so each device's run of own requests keeps its drain
            // order, and the runs come up in the order devices are walked.
            ahead_set.sort_by_key(|e| e.2);
            let mut own = ahead_set.iter().peekable();
            let mut walked = 0;
            for d in (0..n_devices).filter(|&d| listed[d]) {
                let others = index.by_device.get(&d).into_iter();
                for (key, &(secs, uid)) in others.flat_map(|p| p.range(..(t, 0))) {
                    walked += 1;
                    if Some(uid as usize) == probe_uid {
                        continue;
                    }
                    while let Some(e) = own.next_if(|e| e.2 == d && e.0 < *key) {
                        ahead[d] += e.1;
                    }
                    ahead[d] += secs;
                }
                while let Some(e) = own.next_if(|e| e.2 == d) {
                    ahead[d] += e.1;
                }
            }
            index.walked += walked;
            return ahead;
        }

        for (uid, state) in self.states.iter().enumerate() {
            if Some(uid) == probe_uid {
                continue;
            }
            // Head test: min lane head by the decay-invariant key.
            let head = state
                .lanes
                .iter()
                .filter_map(|(_, lane)| lane.requests.first_key_value())
                .min_by_key(|(&rk, _)| rk);
            let Some((&rk, id)) = head else { continue };
            let usage = UserUsage {
                consumed_seconds: state.usage.consumed_seconds * decay_factor,
                ..state.usage
            };
            let seconds = self.entries[id].request.requested_seconds;
            if WEIGHTS.cross_key(usage, seconds, rk) >= t {
                continue;
            }
            self.tenant_requests_into(uid, &mut buf);
            // The prefix max first reaches `t` exactly at the first key at
            // or above it.
            ahead_set.extend(
                self.prefix_keys(usage, &buf)
                    .enumerate()
                    .take_while(|(_, (m, ..))| *m < t)
                    .filter_map(|(k, (m, secs, device))| {
                        priced(device).map(|d| ((m, k as u32), secs, d))
                    }),
            );
        }
        // Replay the exact global pop order: ascending prefix-max key, then
        // within-tenant position (prefix-max keys never tie across tenants,
        // every key being globally unique via `seq`), so each device's sum
        // accumulates in the same order the drain would visit it.
        ahead_set.sort_unstable_by_key(|e| e.0);
        for (_, secs, d) in ahead_set {
            ahead[d] += secs;
        }
        ahead
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: usize, user: &str, seconds: f64, at: f64) -> QueuedRequest {
        QueuedRequest {
            id,
            user: user.into(),
            requested_seconds: seconds,
            submitted_at: at,
        }
    }

    #[test]
    fn light_users_jump_heavy_users() {
        let mut q = FairShareQueue::new();
        q.record_usage("heavy", 500.0).unwrap();
        q.push_for_device(req(0, "heavy", 10.0, 0.0), 0).unwrap();
        q.push_for_device(req(1, "light", 10.0, 5.0), 0).unwrap();
        assert_eq!(q.pop_for_device(0).unwrap().id, 1);
        assert_eq!(q.pop_for_device(0).unwrap().id, 0);
    }

    #[test]
    fn fifo_breaks_ties() {
        let mut q = FairShareQueue::new();
        q.push_for_device(req(0, "a", 10.0, 0.0), 0).unwrap();
        q.push_for_device(req(1, "b", 10.0, 1.0), 0).unwrap();
        assert_eq!(q.pop_for_device(0).unwrap().id, 0);
    }

    #[test]
    fn many_in_flight_jobs_sink_priority() {
        let mut q = FairShareQueue::new();
        for i in 0..5 {
            q.push_for_device(req(i, "spammer", 1.0, i as f64), 0)
                .unwrap();
        }
        q.push_for_device(req(99, "newcomer", 1.0, 10.0), 0)
            .unwrap();
        assert_eq!(
            q.pop_for_device(0).unwrap().id,
            99,
            "single-job user goes first"
        );
    }

    #[test]
    fn larger_requests_sink() {
        let mut q = FairShareQueue::new();
        q.push_for_device(req(0, "a", 1000.0, 0.0), 0).unwrap();
        q.push_for_device(req(1, "b", 1.0, 1.0), 0).unwrap();
        assert_eq!(q.pop_for_device(0).unwrap().id, 1);
    }

    #[test]
    fn decay_restores_priority() {
        let mut q = FairShareQueue::new();
        q.record_usage("reformed", 1000.0).unwrap();
        q.decay_usage(0.0).unwrap();
        q.push_for_device(req(0, "reformed", 5.0, 0.0), 0).unwrap();
        q.push_for_device(req(1, "fresh", 5.0, 1.0), 0).unwrap();
        // Equal usage now; FIFO decides.
        assert_eq!(q.pop_for_device(0).unwrap().id, 0);
    }

    #[test]
    fn decay_between_pushes_reorders_the_index() {
        // Decay lands while requests are queued: the deferred rebuild must
        // surface the reformed tenant's request first on the next pop.
        let mut q = FairShareQueue::new();
        q.record_usage("reformed", 1000.0).unwrap();
        q.record_usage("steady", 10.0).unwrap();
        q.push_for_device(req(0, "reformed", 5.0, 0.0), 0).unwrap();
        q.push_for_device(req(1, "steady", 5.0, 1.0), 0).unwrap();
        q.decay_usage(0.0).unwrap();
        assert_eq!(q.pop_for_device(0).unwrap().id, 0, "post-decay order wins");
        assert_eq!(q.stats().index_rebuilds, 1);
        q.decay_usage(1.0).unwrap();
        q.pop_for_device(0);
        assert_eq!(
            q.stats().index_rebuilds,
            1,
            "factor 1.0 leaves scores unchanged; no rebuild needed"
        );
    }

    #[test]
    fn pop_releases_in_flight_slot() {
        let mut q = FairShareQueue::new();
        q.push_for_device(req(0, "a", 1.0, 0.0), 0).unwrap();
        assert_eq!(q.usage("a").jobs_in_flight, 1);
        q.pop_for_device(0);
        assert_eq!(q.usage("a").jobs_in_flight, 0);
    }

    #[test]
    fn drain_returns_everything_in_order() {
        let mut q = FairShareQueue::new();
        q.record_usage("x", 100.0).unwrap();
        q.push_for_device(req(0, "x", 1.0, 0.0), 0).unwrap();
        q.push_for_device(req(1, "y", 1.0, 1.0), 0).unwrap();
        q.push_for_device(req(2, "z", 1.0, 2.0), 0).unwrap();
        let order: Vec<usize> = std::iter::from_fn(|| q.pop_for_device(0))
            .map(|r| r.id)
            .collect();
        assert_eq!(order, [1, 2, 0], "heavy user last, FIFO among the rest");
        assert!(q.is_empty());
    }

    #[test]
    fn bad_decay_rejected_with_typed_error() {
        let mut q = FairShareQueue::new();
        assert_eq!(
            q.decay_usage(1.5),
            Err(FairShareError::DecayFactorOutOfRange(1.5))
        );
        assert!(matches!(
            q.decay_usage(f64::NAN),
            Err(FairShareError::DecayFactorOutOfRange(v)) if v.is_nan()
        ));
        assert_eq!(
            q.decay_usage(-0.1),
            Err(FairShareError::DecayFactorOutOfRange(-0.1))
        );
        let err = q.decay_usage(2.0).unwrap_err();
        assert!(err.to_string().contains("decay factor"));
        assert_eq!(q.decay_usage(1.0), Ok(()));
        assert_eq!(q.decay_usage(0.0), Ok(()));
    }

    #[test]
    fn invalid_usage_seconds_rejected_with_typed_error() {
        let mut q = FairShareQueue::new();
        assert_eq!(
            q.record_usage("a", -5.0),
            Err(FairShareError::InvalidSeconds(-5.0))
        );
        assert!(matches!(
            q.record_usage("a", f64::INFINITY),
            Err(FairShareError::InvalidSeconds(_))
        ));
        assert_eq!(
            q.credit_usage("a", -1.0),
            Err(FairShareError::InvalidSeconds(-1.0))
        );
        assert_eq!(
            q.usage("a").consumed_seconds,
            0.0,
            "rejected calls leave the balance untouched"
        );
        let err = q.record_usage("a", f64::NAN).unwrap_err();
        assert!(err.to_string().contains("seconds"));
    }

    #[test]
    fn non_finite_request_rejected_at_push() {
        let mut q = FairShareQueue::new();
        let err = q
            .push_for_device(req(0, "a", f64::NAN, 0.0), 0)
            .unwrap_err();
        assert!(matches!(err, FairShareError::NonFiniteRequest { .. }));
        assert!(err.to_string().contains("finite"));
        assert!(matches!(
            q.push_hold(req(1, "a", 1.0, f64::INFINITY), 0),
            Err(FairShareError::NonFiniteRequest { .. })
        ));
        assert!(q.is_empty(), "rejected pushes must not enqueue");
        assert_eq!(
            q.usage("a").jobs_in_flight,
            0,
            "rejected pushes must not charge an in-flight slot"
        );
        assert!(matches!(
            q.push_for_device(req(2, "a", f64::NEG_INFINITY, 0.0), 0),
            Err(FairShareError::NonFiniteRequest { .. })
        ));
        assert_eq!(q.device_backlog(0), 0.0);
    }

    #[test]
    fn duplicate_request_id_rejected() {
        let mut q = FairShareQueue::new();
        q.push_for_device(req(7, "a", 1.0, 0.0), 0).unwrap();
        assert_eq!(
            q.push_for_device(req(7, "b", 2.0, 1.0), 0),
            Err(FairShareError::DuplicateRequestId(7))
        );
        assert_eq!(q.len(), 1);
        assert_eq!(q.usage("b").jobs_in_flight, 0);
        // Once popped, the id is free again.
        q.pop_for_device(0).unwrap();
        q.push_for_device(req(7, "b", 2.0, 1.0), 0).unwrap();
        assert_eq!(q.pop_for_device(0).unwrap().user, "b");
    }

    #[test]
    fn credit_lowers_the_balance() {
        let mut q = FairShareQueue::new();
        q.record_usage("a", 10.0).unwrap();
        q.credit_usage("a", 4.0).unwrap();
        assert_eq!(q.usage("a").consumed_seconds, 6.0);
    }

    #[test]
    fn requeue_with_credit_floats_the_victim() {
        let mut q = FairShareQueue::new();
        // Both tenants have identical history; the victim burned 40s of
        // occupancy on an evicted lease, so its requeued request must beat
        // an otherwise-equal earlier submission.
        q.record_usage("victim", 100.0).unwrap();
        q.record_usage("other", 100.0).unwrap();
        q.push_for_device(req(0, "other", 10.0, 0.0), 0).unwrap();
        q.requeue_with_credit_for_device(req(1, "victim", 10.0, 5.0), 0, 40.0)
            .unwrap();
        assert_eq!(q.usage("victim").consumed_seconds, 60.0);
        assert_eq!(q.pop_for_device(0).unwrap().id, 1);
    }

    #[test]
    fn negative_burned_credit_rejected_with_typed_error() {
        let mut q = FairShareQueue::new();
        assert_eq!(
            q.requeue_with_credit_for_device(req(0, "a", 1.0, 0.0), 0, -1.0),
            Err(FairShareError::InvalidSeconds(-1.0))
        );
        assert!(q.is_empty(), "a rejected requeue must not enqueue");
        assert_eq!(q.usage("a").jobs_in_flight, 0);
        // A bad request must not leave the credit behind either.
        assert!(matches!(
            q.requeue_with_credit_for_device(req(0, "a", f64::NAN, 0.0), 0, 5.0),
            Err(FairShareError::NonFiniteRequest { .. })
        ));
        q.push_for_device(req(1, "a", 1.0, 0.0), 0).unwrap();
        assert_eq!(
            q.requeue_with_credit_for_device(req(1, "a", 1.0, 0.0), 0, 5.0),
            Err(FairShareError::DuplicateRequestId(1))
        );
        assert_eq!(q.usage("a").consumed_seconds, 0.0);
    }

    #[test]
    fn device_pops_serve_only_their_ready_set() {
        let mut q = FairShareQueue::new();
        q.push_for_device(req(0, "a", 1.0, 0.0), 0).unwrap();
        q.push_for_device(req(1, "b", 1.0, 1.0), 1).unwrap();
        assert_eq!(q.pop_for_device(0).unwrap().id, 0);
        assert!(q.pop_for_device(0).is_none());
        assert!(q.pop_for_device(2).is_none(), "a device never pushed to");
        assert_eq!(q.len(), 1, "device 1's request survives device 0's pops");
        assert_eq!(q.pop_for_device(1).unwrap().id, 1);
    }

    #[test]
    fn device_pop_matches_global_fair_share_order() {
        let mut q = FairShareQueue::new();
        q.record_usage("heavy", 500.0).unwrap();
        q.push_for_device(req(0, "heavy", 1.0, 0.0), 0).unwrap();
        q.push_for_device(req(1, "light", 1.0, 1.0), 0).unwrap();
        // Same ordering contract as the reference's predicate pop over the
        // device's requests: fair-share score decides, not insertion.
        assert_eq!(q.pop_for_device(0).unwrap().id, 1);
        assert_eq!(q.pop_for_device(0).unwrap().id, 0);
    }

    #[test]
    fn holds_charge_backlog_but_never_dispatch() {
        let mut q = FairShareQueue::new();
        q.push_hold(req(0, "a", 30.0, 0.0), 0).unwrap();
        q.push_for_device(req(1, "b", 10.0, 1.0), 0).unwrap();
        assert_eq!(q.device_backlog(0), 40.0);
        assert_eq!(
            q.pending().map(|r| r.id).collect::<Vec<_>>(),
            [0, 1],
            "the hold is queued and charged to the device, not bound to it"
        );
        assert_eq!(
            q.pop_for_device(0).unwrap().id,
            1,
            "the hold is not a dispatch candidate"
        );
        assert!(q.pop_for_device(0).is_none());
        assert_eq!(q.device_backlog(0), 30.0);
        assert_eq!(q.cancel_by_id(0).unwrap().id, 0);
        assert_eq!(q.device_backlog(0), 0.0);
        assert_eq!(q.usage("a").jobs_in_flight, 0);
    }

    /// Hold lanes are never posted, so only a repost drops one once it
    /// empties: after any number of hold / release cycles, the next device
    /// pop — whichever device, whatever it returns — leaves the tenant with
    /// no lane at all.
    #[test]
    fn emptied_hold_lanes_are_dropped_by_the_next_pop() {
        let mut q = FairShareQueue::new();
        for id in 0..20 {
            q.push_hold(req(id, "a", 3.0, id as f64), id % 3).unwrap();
            q.cancel_by_id(id).unwrap();
        }
        assert_eq!(
            q.states[0].lanes.len(),
            3,
            "emptied lanes wait for a repost"
        );
        assert!(q.pop_for_device(7).is_none());
        assert!(q.states[0].lanes.is_empty(), "{:?}", q.states[0].lanes);
        assert!(q.ready_by_device.is_empty(), "hold lanes are never posted");
        for d in 0..3 {
            assert_eq!(q.device_backlog(d), 0.0);
        }
        assert_eq!(q.usage("a").jobs_in_flight, 0);
        // A device lane empties the same way once its last request pops.
        q.push_for_device(req(99, "a", 1.0, 0.0), 0).unwrap();
        assert_eq!(q.pop_for_device(0).unwrap().id, 99);
        assert!(q.pop_for_device(0).is_none());
        assert!(q.states[0].lanes.is_empty());
        assert!(q.ready_by_device[&0].is_empty());
    }

    #[test]
    fn pop_by_id_and_cancel_by_id_target_exactly_one_request() {
        let mut q = FairShareQueue::new();
        q.push_for_device(req(0, "a", 1.0, 0.0), 0).unwrap();
        q.push_for_device(req(1, "a", 1.0, 1.0), 0).unwrap();
        assert!(q.pop_by_id(5).is_none());
        assert_eq!(q.pop_by_id(1).unwrap().id, 1);
        assert!(q.cancel_by_id(1).is_none());
        assert_eq!(q.cancel_by_id(0).unwrap().id, 0);
        assert!(q.is_empty());
    }

    #[test]
    fn pending_views_iterate_in_insertion_order() {
        let mut q = FairShareQueue::new();
        q.push_for_device(req(0, "a", 3.0, 0.0), 1).unwrap();
        q.push_for_device(req(1, "b", 2.0, 1.0), 0).unwrap();
        q.push_hold(req(2, "a", 1.0, 2.0), 0).unwrap();
        q.push_for_device(req(3, "c", 4.0, 3.0), 0).unwrap();
        assert_eq!(q.pending().map(|r| r.id).collect::<Vec<_>>(), [0, 1, 2, 3]);
        // A popped request pushed again re-enters at the back.
        let again = q.pop_by_id(1).unwrap();
        q.push_for_device(again, 0).unwrap();
        assert_eq!(q.pending().map(|r| r.id).collect::<Vec<_>>(), [0, 2, 3, 1]);
        // Holds and other devices' requests are not device 0's candidates.
        let mut dispatched: Vec<usize> =
            std::iter::from_fn(|| q.pop_for_device(0).map(|r| r.id)).collect();
        dispatched.sort_unstable();
        assert_eq!(dispatched, [1, 3]);
        assert_eq!(q.pending().map(|r| r.id).collect::<Vec<_>>(), [0, 2]);
    }

    /// Writes only flag their tenant: however many land between two ordered
    /// reads, the ready indexes are not touched until the next read, which
    /// reposts each flagged tenant once and pops what eager reposting (the
    /// reference) pops.
    #[test]
    fn writes_between_reads_share_one_repost() {
        use crate::reference::ReferenceFairShareQueue;
        let mut q = FairShareQueue::new();
        let mut oracle = ReferenceFairShareQueue::new();
        for (id, user) in ["a", "b", "c"].into_iter().enumerate() {
            q.push_for_device(req(id, user, 5.0, id as f64), 0).unwrap();
            // Every request is bound to device 0, so the reference's plain
            // pop is the device pop.
            oracle.push(req(id, user, 5.0, id as f64));
        }
        assert_eq!(q.pop_for_device(0).unwrap().id, 0);
        assert_eq!(oracle.pop().unwrap().id, 0);
        // The pop flagged "a"; one read settles it.
        q.ensure_fresh();
        let posted = q.ready_by_device.clone();
        assert_eq!(posted[&0].len(), 2);

        // Three writes to "b" — charge, credit, push — and no read.
        q.record_usage("b", 100.0).unwrap();
        q.credit_usage("b", 30.0).unwrap();
        q.push_for_device(req(3, "b", 1.0, 3.0), 0).unwrap();
        oracle.record_usage("b", 100.0).unwrap();
        oracle.credit_usage("b", 30.0).unwrap();
        oracle.push(req(3, "b", 1.0, 3.0));
        assert_eq!(q.ready_by_device, posted, "no write reposts");
        assert_eq!(q.unposted, [1], "flagged once, not per write");

        // The read reposts "b" under its new balance: "c" now leads.
        let popped = q.pop_for_device(0).unwrap();
        assert_eq!(popped, oracle.pop().unwrap());
        assert_eq!(popped.id, 2);
        assert_ne!(q.ready_by_device, posted);
        for next in oracle.drain_ordered() {
            assert_eq!(q.pop_for_device(0), Some(next));
        }
        assert!(q.pop_for_device(0).is_none());
    }

    #[test]
    fn queue_op_stats_count_the_hot_paths() {
        let mut q = FairShareQueue::new();
        q.push_for_device(req(0, "a", 1.0, 0.0), 1).unwrap();
        q.push_for_device(req(1, "b", 2.0, 1.0), 0).unwrap();
        q.push_hold(req(2, "c", 3.0, 1.5), 0).unwrap();
        q.pop_for_device(1).unwrap();
        q.pop_for_device(0).unwrap();
        q.cancel_by_id(2).unwrap();
        q.decay_usage(0.5).unwrap();
        q.push_for_device(req(3, "a", 1.0, 2.0), 1).unwrap();
        q.pop_for_device(1).unwrap();
        let stats = q.stats();
        assert_eq!(stats.pushes, 4);
        assert_eq!(stats.pops, 3);
        assert_eq!(stats.cancels, 1);
        assert_eq!(stats.index_rebuilds, 1, "one amortized rebuild per epoch");
        // Every push and every removal charges a device: four + four.
        assert_eq!(stats.backlog_refreshes, 8);
    }

    /// The drain index's cost model, pinned the way `index_rebuilds` pins
    /// lazy decay: a fresh projection re-keys exactly the requests of the
    /// tenants written to since the last one, and walks exactly the
    /// postings ranked ahead of the probe on the devices it prices.
    #[test]
    fn drain_index_rekeys_only_written_tenants_and_walks_only_priced_devices() {
        let mut q = FairShareQueue::new();
        for i in 0..2000 {
            let secs = 0.1 * (i % 7) as f64 + 0.037;
            q.push_for_device(req(i, "whale", secs, i as f64), i % 2)
                .unwrap();
        }
        for i in 0..50 {
            q.push_for_device(req(10_000 + i, &format!("t{i}"), 1.0, i as f64), i % 2)
                .unwrap();
        }
        // A heavy probe tenant: every queued request outranks it.
        q.record_usage("probe", 1e9).unwrap();
        let probe = req(usize::MAX, "probe", 3.0, 5000.0);
        let project = |q: &FairShareQueue, factor: f64, devices: &[usize]| {
            q.projected_backlog_for(&probe, 0.0, factor, 2, devices);
            q.stats()
        };
        let built = project(&q, 1.0, &[0]);
        assert_eq!(built.drain_rekeys, 2050, "the first projection keys all");
        assert_eq!(built.projection_walked, 1025, "device 0's postings only");
        // Duplicates and out-of-range devices: each in-range one walked once.
        let again = project(&q, 1.0, &[0, 0, 7]);
        assert_eq!(again.projection_walked, 2 * 1025);
        for _ in 0..5 {
            project(&q, 1.0, &[0, 1]);
        }
        assert_eq!(q.stats().drain_rekeys, 2050, "no write, no re-key");
        q.push_hold(req(20_000, "t3", 1.0, 0.0), 1).unwrap();
        assert_eq!(project(&q, 1.0, &[0]).drain_rekeys, 2052, "t3's two");
        q.record_usage("whale", 1.0).unwrap();
        q.credit_usage("whale", 0.5).unwrap();
        assert_eq!(project(&q, 1.0, &[0]).drain_rekeys, 4052, "whale's 2000");
        q.cancel_by_id(20_000).unwrap();
        assert_eq!(
            project(&q, 0.5, &[0]).drain_rekeys,
            4052,
            "a decayed pass neither reads nor refreshes the index"
        );
        assert_eq!(project(&q, 1.0, &[0]).drain_rekeys, 4053);
        q.decay_usage(0.5).unwrap();
        project(&q, 1.0, &[0]);
        assert_eq!(
            project(&q, 1.0, &[1]).drain_rekeys,
            4053 + 2050,
            "one rebuild per decay epoch"
        );
    }

    #[test]
    fn projected_backlog_ahead_charges_outranking_work_per_device() {
        let mut q = FairShareQueue::new();
        q.record_usage("probe-user", 1000.0).unwrap();
        q.push_for_device(req(0, "a", 10.0, 0.0), 0).unwrap();
        q.push_for_device(req(1, "b", 20.0, 1.0), 1).unwrap();
        q.push_hold(req(2, "c", 5.0, 2.0), 0).unwrap();
        let probe = req(99, "probe-user", 1.0, 3.0);
        // Heavy probe tenant: everything outranks it.
        let ahead = q.projected_backlog_for(&probe, 0.0, 1.0, 2, &[0, 1]);
        assert_eq!(ahead, vec![15.0, 20.0]);
        // Only the listed devices accumulate.
        let ahead = q.projected_backlog_for(&probe, 0.0, 1.0, 2, &[1]);
        assert_eq!(ahead, vec![0.0, 20.0]);
        // A large enough credit floats the probe ahead of everything.
        let ahead = q.projected_backlog_for(&probe, 2000.0, 1.0, 2, &[0, 1]);
        assert_eq!(ahead, vec![0.0, 0.0]);
        // The projection must leave the queue untouched.
        assert_eq!(q.len(), 3);
        assert_eq!(q.usage("probe-user").jobs_in_flight, 0);
    }
}
