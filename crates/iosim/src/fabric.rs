//! The machine room: one storage system shared by N concurrent runs.
//!
//! Everything below [`StorageModel`] in this crate simulates a *private*
//! filesystem — each run owns its model, so campaigns are loops over
//! isolated worlds. A [`Fabric`] instead wraps one model behind a unified
//! event-driven clock and accepts bursts from N concurrent tenants via
//! per-tenant [`FabricHandle`]s. Overlapping bursts time-share each
//! server's bandwidth exactly the way a single burst's requests always
//! have (fair processor sharing per server), so a solo tenant's results
//! are **bit-identical** to [`StorageModel::simulate_burst`] /
//! [`StorageModel::simulate_read_burst`] — same noise draws, same event
//! arithmetic, same retirement epsilon (pinned by tests here and by
//! property tests across the backend × codec matrix).
//!
//! On top of plain fair sharing the fabric layers:
//!
//! * **QoS** ([`QosPolicy`]): per-tenant priority weights (a tenant's
//!   requests get `weight`-proportional shares of each server) and
//!   optional per-tenant bandwidth caps (a fraction of every server's
//!   bandwidth; excess redistributes to uncapped tenants by
//!   water-filling).
//! * **A bounded staging pool** ([`Fabric::with_staging`]): deferred
//!   backends hand bursts to a shared burst-buffer; when the pool is
//!   exhausted a new handoff back-pressures (the application blocks)
//!   until an in-flight drain releases space.
//! * **An interference plane** ([`TenantStats`]): shared vs
//!   solo-equivalent wall (the slowdown factor), plus lost service
//!   seconds split into *contention* (other tenants on my servers) and
//!   *throttling* (my own QoS cap), and seconds spent waiting for
//!   staging space.
//!
//! # Concurrency model
//!
//! Tenant threads interact with a conservative discrete-event engine
//! guarded by one mutex. Every fabric call blocks until the engine
//! resolves it, and the engine only advances when *every* live tenant is
//! parked inside a call — at that point all arrivals before the next
//! completion are known, so events are processed in global time order
//! and results are deterministic regardless of thread scheduling.
//! Register all tenants (and spawn their runs) before the first burst;
//! a finished tenant drops out of the quorum via [`FabricHandle::finish`]
//! (also called on drop).
//!
//! ```
//! use iosim::{Fabric, StorageModel, WriteRequest};
//!
//! let fabric = Fabric::new(StorageModel::ideal(1, 100.0));
//! let a = fabric.tenant("a");
//! let b = fabric.tenant("b");
//! let burst = |rank: usize| {
//!     vec![WriteRequest { rank, path: format!("/f{rank}"), bytes: 500, start: 0.0 }]
//! };
//! // Move each handle into its thread: when a tenant's run ends, the
//! // handle drops and the tenant retires from the engine's quorum.
//! let (ra, rb) = std::thread::scope(|s| {
//!     let ta = s.spawn(move || a.simulate_burst(&burst(0)));
//!     let tb = s.spawn(move || b.simulate_burst(&burst(1)));
//!     (ta.join().unwrap(), tb.join().unwrap())
//! });
//! // Two 500-byte writes share the single 100 B/s server: both finish
//! // at t=10 — exactly as one run's two-request burst always has.
//! assert!((ra.t_end - 10.0).abs() < 1e-9);
//! assert!((rb.t_end - 10.0).abs() < 1e-9);
//! ```

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use mpi_sim::NetworkModel;

use crate::schedule::BurstScheduler;
use crate::storage::{BurstResult, ReadRequest, ReqView, StorageModel, WriteRequest, RETIRE_EPS};

/// Per-tenant quality-of-service policy on the fabric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QosPolicy {
    /// Priority weight: a tenant's requests receive `weight`-proportional
    /// shares of each server they occupy (default 1.0 = fair share).
    pub weight: f64,
    /// Optional hard cap, as a fraction of *each* server's bandwidth in
    /// `(0, 1]`; bandwidth the cap forfeits redistributes to uncapped
    /// tenants (water-filling).
    pub bandwidth_cap: Option<f64>,
}

impl Default for QosPolicy {
    fn default() -> Self {
        Self {
            weight: 1.0,
            bandwidth_cap: None,
        }
    }
}

impl QosPolicy {
    /// A fair-share policy with priority `weight`.
    ///
    /// # Panics
    /// Panics unless `weight` is finite and positive.
    pub fn weighted(weight: f64) -> Self {
        assert!(
            weight.is_finite() && weight > 0.0,
            "QosPolicy: weight must be finite and positive"
        );
        Self {
            weight,
            bandwidth_cap: None,
        }
    }

    /// A default-weight policy capped at `frac` of each server.
    ///
    /// # Panics
    /// Panics unless `frac` is in `(0, 1]`.
    pub fn capped(frac: f64) -> Self {
        assert!(
            frac > 0.0 && frac <= 1.0,
            "QosPolicy: bandwidth cap must be in (0, 1]"
        );
        Self {
            weight: 1.0,
            bandwidth_cap: Some(frac),
        }
    }

    fn is_default(&self) -> bool {
        self.weight == 1.0 && self.bandwidth_cap.is_none()
    }
}

/// Interference metrics for one tenant of a [`Fabric`].
///
/// Stall fields are *lost service seconds*: over each event interval the
/// engine integrates the gap between the rate a request would have had
/// with the tenant alone on the machine and the rate it actually got,
/// attributing the loss to other tenants' traffic (`contention_stall`)
/// or to the tenant's own bandwidth cap (`throttle_stall`).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TenantStats {
    /// Tenant slot index (registration order).
    pub tenant: usize,
    /// Tenant name given at registration.
    pub name: String,
    /// Bursts the tenant submitted.
    pub bursts: u64,
    /// Payload bytes of write bursts.
    pub write_bytes: u64,
    /// Payload bytes of read bursts.
    pub read_bytes: u64,
    /// Wall-clock of the tenant's run on the shared fabric (reported by
    /// the scheduler at seal time; 0 until then).
    pub shared_wall: f64,
    /// Wall-clock the identical run would have taken with the storage to
    /// itself (exact solo replay, not an estimate; 0 until sealed).
    pub solo_wall: f64,
    /// Service seconds lost to other tenants' traffic.
    pub contention_stall: f64,
    /// Service seconds lost to the tenant's own QoS bandwidth cap.
    pub throttle_stall: f64,
    /// Seconds the application blocked waiting for staging-pool space.
    pub staging_wait: f64,
}

impl TenantStats {
    /// Shared wall over solo-equivalent wall (1.0 when either is
    /// unreported or the run was free).
    pub fn slowdown(&self) -> f64 {
        if self.solo_wall > 0.0 && self.shared_wall > 0.0 {
            self.shared_wall / self.solo_wall
        } else {
            1.0
        }
    }
}

/// What a run's burst scheduler is bound to: nothing (byte accounting
/// only), a private [`StorageModel`] (the legacy solo path), or one
/// tenant's seat on a shared [`Fabric`].
pub enum StorageAttach<'a> {
    /// No storage timing: bursts are free, only codec CPU costs time.
    None,
    /// A private storage model — the legacy one-run-one-filesystem path.
    Model(&'a StorageModel),
    /// One tenant of a shared machine room.
    Fabric(FabricHandle),
}

impl<'a> From<Option<&'a StorageModel>> for StorageAttach<'a> {
    fn from(storage: Option<&'a StorageModel>) -> Self {
        match storage {
            Some(m) => StorageAttach::Model(m),
            None => StorageAttach::None,
        }
    }
}

impl<'a> StorageAttach<'a> {
    /// Builds the run's burst scheduler for this attachment (`None` when
    /// unattached).
    pub fn scheduler(self, overlapped: bool) -> Option<BurstScheduler<'a>> {
        match self {
            StorageAttach::None => None,
            StorageAttach::Model(m) => Some(BurstScheduler::new(m, overlapped)),
            StorageAttach::Fabric(h) => Some(BurstScheduler::on_fabric(h, overlapped)),
        }
    }
}

/// Which bandwidth/latency class a burst runs in.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Class {
    Write,
    Read,
}

/// One request in flight on a server. Ordering (and every deterministic
/// tie-break) uses `(arrival, tenant, seq, req)` — never insertion
/// order, which depends on thread scheduling.
#[derive(Clone, Debug)]
struct Job {
    tenant: usize,
    /// Tenant-local burst sequence number.
    seq: u64,
    /// Global burst key (completion bookkeeping only).
    burst: u64,
    /// Index of this request within its burst's submission order.
    req: usize,
    arrival: f64,
    /// Remaining seconds of service demand.
    work: f64,
}

impl Job {
    fn key(&self) -> (f64, usize, u64, usize) {
        (self.arrival, self.tenant, self.seq, self.req)
    }

    fn before(&self, other: &Job) -> bool {
        let (a, b) = (self.key(), other.key());
        a.0.total_cmp(&b.0)
            .then(a.1.cmp(&b.1))
            .then(a.2.cmp(&b.2))
            .then(a.3.cmp(&b.3))
            .is_lt()
    }
}

/// One server's slice of the shared event engine. Servers never interact
/// (requests are pinned to servers by path hash, and QoS caps are
/// per-server fractions), so each keeps its *own* local event time and
/// its arithmetic sequence is identical to the solo simulation's — the
/// global loop merely interleaves per-server events in time order.
#[derive(Clone, Debug, Default)]
struct ServerState {
    /// Time of this server's last processed event.
    last_t: f64,
    /// Requests currently sharing the server (admission order, which is
    /// deterministic: arrivals are admitted in `Job::key` order).
    active: Vec<Job>,
    /// Future arrivals, sorted *descending* by `Job::key` (pop from the
    /// end is the earliest).
    queue: Vec<Job>,
}

impl ServerState {
    fn enqueue(&mut self, job: Job) {
        // Descending order: everything that sorts after `job` stays in
        // front of it, so popping from the end yields the earliest.
        let pos = self.queue.partition_point(|q| job.before(q));
        self.queue.insert(pos, job);
    }

    fn next_arrival(&self) -> Option<f64> {
        self.queue.last().map(|j| j.arrival)
    }
}

/// An unresolved burst: its owner is parked until `remaining` hits zero.
#[derive(Debug)]
struct PendingBurst {
    key: u64,
    remaining: usize,
    finish: Vec<f64>,
    /// True for a mirror slot's copy of a clone-group burst: no thread
    /// is parked on it, so resolving it must not touch `Engine::parked`.
    mirror: bool,
}

/// A resolved burst, keyed by burst in `Engine::results`.
#[derive(Debug)]
struct BurstDone {
    finish: Vec<f64>,
}

/// One staging-pool allocation, held from burst handoff until the drain
/// completes (`released_at`).
#[derive(Debug)]
struct StagingAlloc {
    burst: u64,
    bytes: u64,
    released_at: Option<f64>,
}

/// A tenant blocked waiting for staging space.
#[derive(Debug)]
struct StagingWaiter {
    tenant: usize,
    burst: u64,
    base: f64,
    bytes: u64,
    granted: Option<f64>,
}

#[derive(Debug)]
struct StagingState {
    capacity: u64,
    allocs: Vec<StagingAlloc>,
    waiters: Vec<StagingWaiter>,
}

impl StagingState {
    /// Earliest handoff time `τ ≥ base` at which `bytes` fit, treating
    /// unresolved allocations as permanently occupying (they resolve in
    /// global completion-time order, so by the time resolved releases
    /// suffice every earlier release is known). `None` means "not yet
    /// determinable — advance the engine".
    fn try_grant(&self, base: f64, bytes: u64) -> Option<f64> {
        if bytes > self.capacity {
            // A burst larger than the whole pool proceeds only with the
            // pool to itself (everything else drained).
            if self.allocs.iter().any(|a| a.released_at.is_none()) {
                return None;
            }
            return Some(
                self.allocs
                    .iter()
                    .filter_map(|a| a.released_at)
                    .fold(base, f64::max),
            );
        }
        let occupied_at = |tau: f64| -> u64 {
            self.allocs
                .iter()
                .filter(|a| a.released_at.is_none_or(|r| r > tau))
                .map(|a| a.bytes)
                .sum()
        };
        if occupied_at(base) + bytes <= self.capacity {
            return Some(base);
        }
        let mut releases: Vec<f64> = self
            .allocs
            .iter()
            .filter_map(|a| a.released_at)
            .filter(|&r| r > base)
            .collect();
        releases.sort_by(f64::total_cmp);
        releases
            .into_iter()
            .find(|&tau| occupied_at(tau) + bytes <= self.capacity)
    }
}

/// One registered tenant.
#[derive(Debug)]
struct TenantSlot {
    qos: QosPolicy,
    finished: bool,
    /// Bursts submitted so far (tenant-local sequence for ordering).
    seq: u64,
    stats: TenantStats,
}

/// The shared event engine (everything behind the fabric's one mutex).
#[derive(Debug, Default)]
struct Engine {
    tenants: Vec<TenantSlot>,
    servers: Vec<ServerState>,
    pending: Vec<PendingBurst>,
    results: HashMap<u64, BurstDone>,
    /// Tenants currently parked inside a fabric call.
    parked: usize,
    /// Engine time: the latest resolution (bursts only ever arrive at or
    /// after it — the conservative-advance causality invariant).
    time: f64,
    next_burst: u64,
    staging: Option<StagingState>,
    /// The fabric's interconnect, when one is attached: streamed
    /// (in-transit) tenants split its bandwidth instead of the servers'.
    link: Option<NetworkModel>,
    /// How many registered tenants stream over the shared link.
    stream_tenants: usize,
    /// True once a clone group registered mirror slots (mirror slots and
    /// the bounded staging pool are mutually exclusive).
    mirrored: bool,
}

/// Per-job rates over one event interval: actual, uncapped-fair (for
/// throttle attribution) and solo-equivalent (tenant alone).
struct Rates {
    rate: Vec<f64>,
    fair: Vec<f64>,
    solo: Vec<f64>,
    /// True when attribution can be skipped (one tenant, no caps).
    solo_only: bool,
}

/// Weighted + capped shares for one server's active set, by
/// water-filling: capped tenants clamp to their cap, the freed bandwidth
/// redistributes weight-proportionally among the rest. Iterates in
/// tenant-index order so float sums are deterministic.
fn job_rates(active: &[Job], tenants: &[TenantSlot]) -> Rates {
    let n = active.len();
    // Group by tenant (sorted by tenant index).
    let mut groups: Vec<(usize, usize)> = Vec::new(); // (tenant, count)
    for j in active {
        match groups.binary_search_by_key(&j.tenant, |g| g.0) {
            Ok(i) => groups[i].1 += 1,
            Err(i) => groups.insert(i, (j.tenant, 1)),
        }
    }
    let uniform = active.iter().all(|j| tenants[j.tenant].qos.is_default());
    let count_of = |tenant: usize| groups[groups.binary_search_by_key(&tenant, |g| g.0).unwrap()].1;
    if uniform {
        let rate = 1.0 / n as f64;
        return Rates {
            rate: vec![rate; n],
            fair: vec![rate; n],
            solo: active
                .iter()
                .map(|j| 1.0 / count_of(j.tenant) as f64)
                .collect(),
            solo_only: groups.len() == 1,
        };
    }
    // Uncapped weighted shares (the "fair" reference for throttling).
    let total_wn: f64 = groups
        .iter()
        .map(|&(t, c)| tenants[t].qos.weight * c as f64)
        .sum();
    let fair_share: Vec<f64> = groups
        .iter()
        .map(|&(t, c)| tenants[t].qos.weight * c as f64 / total_wn)
        .collect();
    // Water-filling: clamp binding caps, redistribute to the rest.
    let mut binding = vec![false; groups.len()];
    let mut share = fair_share.clone();
    loop {
        let cap_sum: f64 = groups
            .iter()
            .enumerate()
            .filter(|&(g, _)| binding[g])
            .map(|(g, &(t, _))| {
                let _ = g;
                tenants[t].qos.bandwidth_cap.unwrap_or(1.0)
            })
            .sum();
        let denom: f64 = groups
            .iter()
            .enumerate()
            .filter(|&(g, _)| !binding[g])
            .map(|(_, &(t, c))| tenants[t].qos.weight * c as f64)
            .sum();
        let remaining = (1.0 - cap_sum).max(0.0);
        let mut changed = false;
        for (g, &(t, c)) in groups.iter().enumerate() {
            if binding[g] {
                share[g] = tenants[t].qos.bandwidth_cap.unwrap_or(1.0);
                continue;
            }
            let s = if denom > 0.0 {
                remaining * tenants[t].qos.weight * c as f64 / denom
            } else {
                0.0
            };
            if let Some(cap) = tenants[t].qos.bandwidth_cap {
                if s > cap {
                    binding[g] = true;
                    changed = true;
                    share[g] = cap;
                    continue;
                }
            }
            share[g] = s;
        }
        if !changed {
            break;
        }
    }
    // Infeasible cap sets (> 1.0 combined) scale down proportionally so
    // every request keeps a positive rate.
    let total: f64 = share.iter().sum();
    if total > 1.0 {
        for s in &mut share {
            *s /= total;
        }
    }
    let idx_of = |tenant: usize| groups.binary_search_by_key(&tenant, |g| g.0).unwrap();
    Rates {
        rate: active
            .iter()
            .map(|j| {
                let g = idx_of(j.tenant);
                share[g] / groups[g].1 as f64
            })
            .collect(),
        fair: active
            .iter()
            .map(|j| {
                let g = idx_of(j.tenant);
                fair_share[g] / groups[g].1 as f64
            })
            .collect(),
        solo: active
            .iter()
            .map(|j| 1.0 / count_of(j.tenant) as f64)
            .collect(),
        solo_only: false,
    }
}

impl Engine {
    fn live(&self) -> usize {
        self.tenants.iter().filter(|t| !t.finished).count()
    }

    /// One scheduling decision, taken only when every live tenant is
    /// parked (the caller guarantees it): first re-check staging waiters
    /// in tenant order (a grant unparks exactly one tenant), else advance
    /// the event engine to the next burst resolution.
    fn decide(&mut self, model: &StorageModel) {
        if let Some(staging) = &mut self.staging {
            let mut order: Vec<usize> = (0..staging.waiters.len()).collect();
            order.sort_by_key(|&i| staging.waiters[i].tenant);
            for i in order {
                let w = &staging.waiters[i];
                if w.granted.is_some() {
                    continue;
                }
                if let Some(tau) = staging.try_grant(w.base, w.bytes) {
                    staging.allocs.push(StagingAlloc {
                        burst: w.burst,
                        bytes: w.bytes,
                        released_at: None,
                    });
                    staging.waiters[i].granted = Some(tau);
                    self.parked -= 1;
                    return;
                }
            }
        }
        self.advance_until_resolution(model);
    }

    /// Advances the shared clock, processing per-server events in global
    /// time order, until at least one pending burst fully completes.
    fn advance_until_resolution(&mut self, model: &StorageModel) {
        assert!(
            !self.pending.is_empty(),
            "machine-room deadlock: every live tenant is parked waiting for \
             staging space and no drain is in flight to release any \
             (staging pool too small for the concurrent burst set)"
        );
        loop {
            let mut best: Option<(f64, usize)> = None;
            for s in 0..self.servers.len() {
                let Some(t) = self.server_next_event(s) else {
                    continue;
                };
                assert!(
                    t.is_finite(),
                    "fabric: starved request on server {s} (QoS shares left zero bandwidth)"
                );
                if best.is_none_or(|(bt, _)| t < bt) {
                    best = Some((t, s));
                }
            }
            let (t, s) = best.expect("a pending burst implies a future server event");
            if self.process_server_event(s, t, model) {
                return;
            }
        }
    }

    /// This server's next event time: its earliest queued arrival vs the
    /// earliest completion of its active set at current rates.
    fn server_next_event(&self, s: usize) -> Option<f64> {
        let srv = &self.servers[s];
        let arrive = srv.next_arrival();
        if srv.active.is_empty() {
            return arrive;
        }
        let uniform = srv
            .active
            .iter()
            .all(|j| self.tenants[j.tenant].qos.is_default());
        let t_complete = if uniform {
            // Identical expressions to the solo event loop, so a solo
            // tenant's event times round identically.
            let rate = 1.0 / srv.active.len() as f64;
            let min_work = srv
                .active
                .iter()
                .map(|j| j.work)
                .fold(f64::INFINITY, f64::min);
            srv.last_t + min_work / rate
        } else {
            let rates = job_rates(&srv.active, &self.tenants);
            srv.active
                .iter()
                .zip(&rates.rate)
                .map(|(j, &r)| srv.last_t + j.work / r)
                .fold(f64::INFINITY, f64::min)
        };
        Some(match arrive {
            Some(a) => t_complete.min(a),
            None => t_complete,
        })
    }

    /// Processes one event of server `s` at time `t`: progress the active
    /// set over `[last_t, t]` (accumulating interference attribution),
    /// retire finished requests, admit arrivals due at or before `t`.
    /// Returns true when a burst fully resolved (its result is posted and
    /// its owner unparked).
    fn process_server_event(&mut self, s: usize, t: f64, _model: &StorageModel) -> bool {
        let mut retired: Vec<Job> = Vec::new();
        {
            let uniform = self.servers[s]
                .active
                .iter()
                .all(|j| self.tenants[j.tenant].qos.is_default());
            let srv_last_t = self.servers[s].last_t;
            if !self.servers[s].active.is_empty() {
                let elapsed = t - srv_last_t;
                if uniform {
                    let rate = 1.0 / self.servers[s].active.len() as f64;
                    let rates = job_rates(&self.servers[s].active, &self.tenants);
                    for j in self.servers[s].active.iter_mut() {
                        j.work -= rate * elapsed;
                    }
                    if !rates.solo_only && elapsed > 0.0 {
                        // Equal sharing across tenants: the whole gap to
                        // the solo rate is contention.
                        let losses: Vec<(usize, f64)> = self.servers[s]
                            .active
                            .iter()
                            .zip(&rates.solo)
                            .map(|(j, &solo)| (j.tenant, ((solo - rate) * elapsed).max(0.0)))
                            .collect();
                        for (tenant, loss) in losses {
                            self.tenants[tenant].stats.contention_stall += loss;
                        }
                    }
                } else {
                    let rates = job_rates(&self.servers[s].active, &self.tenants);
                    let mut attributions: Vec<(usize, f64, f64)> = Vec::new();
                    for (i, j) in self.servers[s].active.iter_mut().enumerate() {
                        j.work -= rates.rate[i] * elapsed;
                        if elapsed > 0.0 {
                            let lost = ((rates.solo[i] - rates.rate[i]) * elapsed).max(0.0);
                            if lost > 0.0 {
                                let throttle = ((rates.fair[i] - rates.rate[i]) * elapsed)
                                    .max(0.0)
                                    .min(lost);
                                attributions.push((j.tenant, lost - throttle, throttle));
                            }
                        }
                    }
                    for (tenant, contention, throttle) in attributions {
                        self.tenants[tenant].stats.contention_stall += contention;
                        self.tenants[tenant].stats.throttle_stall += throttle;
                    }
                }
            }
            let srv = &mut self.servers[s];
            srv.last_t = t;
            srv.active.retain(|j| {
                if j.work <= RETIRE_EPS {
                    retired.push(j.clone());
                    false
                } else {
                    true
                }
            });
            while srv.queue.last().is_some_and(|j| j.arrival <= t) {
                let j = srv.queue.pop().expect("checked non-empty");
                srv.active.push(j);
            }
        }
        // Record finishes; resolve bursts whose last request retired.
        let mut resolved_any = false;
        for j in retired {
            let p = self
                .pending
                .iter_mut()
                .find(|p| p.key == j.burst)
                .expect("retired request belongs to a pending burst");
            p.finish[j.req] = t;
            p.remaining -= 1;
            if p.remaining == 0 {
                let key = p.key;
                let finish = std::mem::take(&mut p.finish);
                let mirror = p.mirror;
                self.pending.retain(|p| p.key != key);
                self.results.insert(key, BurstDone { finish });
                self.time = t;
                if !mirror {
                    self.parked -= 1;
                }
                resolved_any = true;
                if let Some(staging) = &mut self.staging {
                    if let Some(a) = staging.allocs.iter_mut().find(|a| a.burst == key) {
                        a.released_at = Some(t);
                    }
                    // Garbage-collect releases no outstanding waiter (nor
                    // any future one: bases never precede engine time)
                    // can still observe.
                    let floor = staging
                        .waiters
                        .iter()
                        .map(|w| w.base)
                        .fold(self.time, f64::min);
                    staging
                        .allocs
                        .retain(|a| a.released_at.is_none_or(|r| r > floor));
                }
            }
        }
        resolved_any
    }
}

struct FabricShared {
    model: StorageModel,
    state: Mutex<Engine>,
    cv: Condvar,
}

/// A shared multi-tenant storage fabric (see the module docs).
pub struct Fabric {
    shared: Arc<FabricShared>,
}

impl Fabric {
    /// A fabric over one storage model. Stage capacity is unbounded until
    /// [`Fabric::with_staging`] bounds it.
    pub fn new(model: StorageModel) -> Self {
        Self {
            shared: Arc::new(FabricShared {
                model,
                state: Mutex::new(Engine::default()),
                cv: Condvar::new(),
            }),
        }
    }

    /// Bounds the shared burst-buffer pool: staged (overlapped-backend)
    /// handoffs allocate from `bytes` of staging space and back-pressure
    /// when it is exhausted, until in-flight drains release space.
    pub fn with_staging(self, bytes: u64) -> Self {
        {
            let mut g = self.shared.state.lock().expect("fabric lock");
            assert!(
                !g.mirrored,
                "Fabric::with_staging: clone groups (tenant_clones) do not \
                 support a bounded staging pool"
            );
            g.staging = Some(StagingState {
                capacity: bytes,
                allocs: Vec::new(),
                waiters: Vec::new(),
            });
        }
        self
    }

    /// Attaches a modeled interconnect: streamed (in-transit) tenants
    /// share this link's bandwidth the way stored tenants share the
    /// servers. Pair with [`Fabric::set_stream_tenants`]; each streamed
    /// tenant then draws its fair share via [`FabricHandle::stream_link`].
    pub fn with_link(self, net: NetworkModel) -> Self {
        {
            let mut g = self.shared.state.lock().expect("fabric lock");
            g.link = Some(net);
        }
        self
    }

    /// Declares how many registered tenants stream over the shared link
    /// (stored tenants never touch it). Zero is treated as one when
    /// shares are computed, so a lone caller can skip the declaration.
    pub fn set_stream_tenants(&self, n: usize) {
        let mut g = self.shared.state.lock().expect("fabric lock");
        g.stream_tenants = n;
    }

    /// The storage model the fabric wraps.
    pub fn model(&self) -> StorageModel {
        self.shared.model
    }

    /// Registers a tenant with default (fair-share) QoS. All tenants must
    /// be registered before any burst is submitted.
    pub fn tenant(&self, name: &str) -> FabricHandle {
        self.tenant_with(name, QosPolicy::default())
    }

    /// Registers a tenant with an explicit QoS policy.
    ///
    /// # Panics
    /// Panics if any burst has already been submitted: the conservative
    /// engine needs the full tenant quorum before it may advance.
    pub fn tenant_with(&self, name: &str, qos: QosPolicy) -> FabricHandle {
        let mut g = self.shared.state.lock().expect("fabric lock");
        assert!(
            g.next_burst == 0,
            "Fabric::tenant: register every tenant before the first burst"
        );
        if g.servers.is_empty() {
            g.servers = vec![ServerState::default(); self.shared.model.nservers.max(1)];
        }
        let tenant = g.tenants.len();
        g.tenants.push(TenantSlot {
            qos,
            finished: false,
            seq: 0,
            stats: TenantStats {
                tenant,
                name: name.to_string(),
                ..TenantStats::default()
            },
        });
        FabricHandle {
            shared: Arc::clone(&self.shared),
            tenant,
            mirrors: 0,
            finished: false,
        }
    }

    /// Registers a *clone group*: one tenant slot per name, all driven by
    /// the **single** returned handle. The first slot is the real tenant;
    /// the rest are mirror slots whose traffic the engine synthesizes —
    /// every burst the handle submits is enqueued once per slot (distinct
    /// tenant ids, own burst keys), so contention pricing sees the full
    /// N-tenant job set while only one application run executes.
    ///
    /// This is exact, not an approximation, for *identical clones*: the
    /// engine orders and rates jobs by `(arrival, tenant, seq, req)` and
    /// request placement/service demands depend only on the request set,
    /// so N clone tenants' job sets are copies of each other and every
    /// per-tenant outcome (burst results, stall attribution, walls) is
    /// bit-identical to N threaded tenants submitting the same sequence
    /// (pinned by tests). Callers remain responsible for only grouping
    /// runs that are identical modulo their display name.
    ///
    /// Mirror slots hold a permanent seat in the engine's quorum (they
    /// are "always parked"), leaving the real tenant free to advance the
    /// clock alone — no threads, no condvar hand-offs.
    ///
    /// # Panics
    /// Panics if `names` is empty, if any burst was already submitted, or
    /// if the fabric has a bounded staging pool (clone groups and staged
    /// back-pressure are mutually exclusive; spec throughput cells run
    /// unstaged).
    pub fn tenant_clones(&self, names: &[&str]) -> FabricHandle {
        assert!(!names.is_empty(), "Fabric::tenant_clones: empty group");
        let mut first = self.tenant(names[0]);
        let mirrors = names.len() - 1;
        if mirrors > 0 {
            let mut g = self.shared.state.lock().expect("fabric lock");
            assert!(
                g.staging.is_none(),
                "Fabric::tenant_clones: clone groups do not support a \
                 bounded staging pool"
            );
            g.mirrored = true;
            for name in &names[1..] {
                let tenant = g.tenants.len();
                g.tenants.push(TenantSlot {
                    qos: QosPolicy::default(),
                    finished: false,
                    seq: 0,
                    stats: TenantStats {
                        tenant,
                        name: name.to_string(),
                        ..TenantStats::default()
                    },
                });
            }
            // Mirror slots never park in a call; seat them permanently so
            // the quorum check (`parked == live`) still means "every real
            // tenant is blocked and all arrivals are known".
            g.parked += mirrors;
        }
        first.mirrors = mirrors;
        first
    }

    /// Per-tenant interference stats, in registration order. Meaningful
    /// once the runs holding the handles are done (walls are reported at
    /// scheduler seal time).
    pub fn tenant_stats(&self) -> Vec<TenantStats> {
        let g = self.shared.state.lock().expect("fabric lock");
        g.tenants.iter().map(|t| t.stats.clone()).collect()
    }
}

/// One tenant's seat on a [`Fabric`]. Mirrors the [`StorageModel`] burst
/// API, but calls block until the shared engine resolves them against
/// every overlapping tenant's traffic.
pub struct FabricHandle {
    shared: Arc<FabricShared>,
    tenant: usize,
    /// Mirror slots after `tenant` driven by this handle (clone groups;
    /// 0 for an ordinary tenant).
    mirrors: usize,
    finished: bool,
}

impl FabricHandle {
    /// The storage model behind the fabric (used by the scheduler's
    /// solo-replay shadow).
    pub fn model(&self) -> StorageModel {
        self.shared.model
    }

    /// The tenant slot this handle occupies.
    pub fn tenant(&self) -> usize {
        self.tenant
    }

    /// Mirror slots this handle drives ([`Fabric::tenant_clones`]); 0
    /// for an ordinary tenant.
    pub fn mirrors(&self) -> usize {
        self.mirrors
    }

    /// One streamed tenant's share of the fabric's interconnect: the
    /// link's bandwidth split evenly over the declared stream-tenant
    /// count ([`NetworkModel::fair_share`]) — static fair sharing, the
    /// stream-plane analogue of the servers' processor sharing. `None`
    /// when the fabric has no link attached, in which case an in-transit
    /// backend keeps the solo link its own spec configured.
    pub fn stream_link(&self) -> Option<NetworkModel> {
        let g = self.shared.state.lock().expect("fabric lock");
        g.link.map(|net| net.fair_share(g.stream_tenants.max(1)))
    }

    /// Fabric twin of [`StorageModel::simulate_burst`]: request `start`
    /// times must already be set. Blocks until the burst completes on the
    /// shared clock. Solo-tenant results are bit-identical to the model's.
    pub fn simulate_burst(&self, reqs: &[WriteRequest]) -> BurstResult {
        if reqs.is_empty() {
            return self.shared.model.simulate_burst(reqs);
        }
        let views: Vec<ReqView<'_>> = reqs
            .iter()
            .map(|r| ReqView {
                path: &r.path,
                bytes: r.bytes,
                start: r.start,
            })
            .collect();
        let g = self.shared.state.lock().expect("fabric lock");
        self.submit_and_wait(g, Class::Write, &views, None)
    }

    /// Fabric twin of [`StorageModel::simulate_read_burst`].
    pub fn simulate_read_burst(&self, reqs: &[ReadRequest]) -> BurstResult {
        if reqs.is_empty() {
            return self.shared.model.simulate_read_burst(reqs);
        }
        let views: Vec<ReqView<'_>> = reqs
            .iter()
            .map(|r| ReqView {
                path: &r.path,
                bytes: r.bytes,
                start: r.start,
            })
            .collect();
        let g = self.shared.state.lock().expect("fabric lock");
        self.submit_and_wait(g, Class::Read, &views, None)
    }

    /// Staged (deferred-backend) write burst: acquires staging-pool space
    /// for the requests' bytes no earlier than `base` (blocking while the
    /// pool is full), stamps every request with the granted handoff time,
    /// then runs the drain. Returns the handoff and the burst result;
    /// `handoff - base` is time the application lost to back-pressure.
    pub fn simulate_staged_burst(
        &self,
        base: f64,
        reqs: &mut [WriteRequest],
    ) -> (f64, BurstResult) {
        if reqs.is_empty() {
            for r in reqs.iter_mut() {
                r.start = base;
            }
            return (base, self.shared.model.simulate_burst(reqs));
        }
        let bytes: u64 = reqs.iter().map(|r| r.bytes).sum();
        let shared = &*self.shared;
        let mut g = shared.state.lock().expect("fabric lock");
        let key = g.next_burst;
        g.next_burst += 1;
        let handoff = if g.staging.is_some() {
            g.staging
                .as_mut()
                .expect("staging on")
                .waiters
                .push(StagingWaiter {
                    tenant: self.tenant,
                    burst: key,
                    base,
                    bytes,
                    granted: None,
                });
            g.parked += 1;
            loop {
                let staging = g.staging.as_mut().expect("staging on");
                if let Some(i) = staging
                    .waiters
                    .iter()
                    .position(|w| w.burst == key && w.granted.is_some())
                {
                    let w = staging.waiters.remove(i);
                    break w.granted.expect("granted");
                }
                if g.parked == g.live() {
                    let model = shared.model;
                    g.decide(&model);
                    shared.cv.notify_all();
                    continue;
                }
                g = shared.cv.wait(g).expect("fabric lock");
            }
        } else {
            base
        };
        if handoff > base {
            g.tenants[self.tenant].stats.staging_wait += handoff - base;
        }
        for r in reqs.iter_mut() {
            r.start = handoff;
        }
        let views: Vec<ReqView<'_>> = reqs
            .iter()
            .map(|r| ReqView {
                path: &r.path,
                bytes: r.bytes,
                start: r.start,
            })
            .collect();
        let result = self.submit_and_wait(g, Class::Write, &views, Some(key));
        (handoff, result)
    }

    /// Reports the run's final shared wall and the scheduler shadow's
    /// exact solo-equivalent wall into the tenant's stats (all slots of
    /// a clone group: the mirrors' runs are copies of the real one).
    pub fn record_walls(&self, shared_wall: f64, solo_wall: f64) {
        let mut g = self.shared.state.lock().expect("fabric lock");
        for t in self.tenant..=self.tenant + self.mirrors {
            g.tenants[t].stats.shared_wall = shared_wall;
            g.tenants[t].stats.solo_wall = solo_wall;
        }
    }

    /// Marks the tenant done: it leaves the engine's quorum so the
    /// remaining tenants can advance without it. A clone group retires
    /// all its slots (and releases the mirrors' permanent quorum seats).
    /// Idempotent; also called on drop.
    pub fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        let mut g = self.shared.state.lock().expect("fabric lock");
        for t in self.tenant..=self.tenant + self.mirrors {
            g.tenants[t].finished = true;
        }
        g.parked -= self.mirrors;
        drop(g);
        self.shared.cv.notify_all();
    }

    /// Submits `views` (starts already stamped) and parks until the
    /// engine resolves the burst. `staged_key` reuses a burst key
    /// pre-allocated by the staging path so the pool allocation releases
    /// when this burst's drain completes.
    fn submit_and_wait(
        &self,
        mut g: MutexGuard<'_, Engine>,
        class: Class,
        views: &[ReqView<'_>],
        staged_key: Option<u64>,
    ) -> BurstResult {
        let shared = &*self.shared;
        let model = shared.model;
        let (bw, per_file_latency) = match class {
            Class::Write => (model.server_bandwidth, model.metadata_latency),
            Class::Read => (model.server_read_bandwidth, model.open_latency),
        };
        let per_server = model.place(views);
        let works = model.service_demands(&per_server, views, bw, per_file_latency);
        let key = match staged_key {
            Some(k) => k,
            None => {
                let k = g.next_burst;
                g.next_burst += 1;
                k
            }
        };
        let seq = g.tenants[self.tenant].seq;
        g.tenants[self.tenant].seq += 1;
        for (s, ids) in per_server.iter().enumerate() {
            for &id in ids {
                g.servers[s].enqueue(Job {
                    tenant: self.tenant,
                    seq,
                    burst: key,
                    req: id,
                    arrival: views[id].start,
                    work: works[id],
                });
            }
        }
        g.pending.push(PendingBurst {
            key,
            remaining: views.len(),
            finish: vec![0.0; views.len()],
            mirror: false,
        });
        let total_bytes: u64 = views.iter().map(|v| v.bytes).sum();
        {
            let st = &mut g.tenants[self.tenant].stats;
            st.bursts += 1;
            match class {
                Class::Write => st.write_bytes += total_bytes,
                Class::Read => st.read_bytes += total_bytes,
            }
        }
        // Clone group: synthesize the mirrors' copies of this burst —
        // same arrivals, same placement, same service demands (placement
        // and noise depend only on the request set), distinct tenant ids
        // and burst keys. The engine then prices exactly the job set N
        // threaded clones would have submitted.
        let mut mirror_keys: Vec<u64> = Vec::with_capacity(self.mirrors);
        for m in 1..=self.mirrors {
            let tenant = self.tenant + m;
            let mseq = g.tenants[tenant].seq;
            g.tenants[tenant].seq += 1;
            let mkey = g.next_burst;
            g.next_burst += 1;
            for (s, ids) in per_server.iter().enumerate() {
                for &id in ids {
                    g.servers[s].enqueue(Job {
                        tenant,
                        seq: mseq,
                        burst: mkey,
                        req: id,
                        arrival: views[id].start,
                        work: works[id],
                    });
                }
            }
            g.pending.push(PendingBurst {
                key: mkey,
                remaining: views.len(),
                finish: vec![0.0; views.len()],
                mirror: true,
            });
            let st = &mut g.tenants[tenant].stats;
            st.bursts += 1;
            match class {
                Class::Write => st.write_bytes += total_bytes,
                Class::Read => st.read_bytes += total_bytes,
            }
            mirror_keys.push(mkey);
        }
        g.parked += 1;
        let done = loop {
            if let Some(d) = g.results.remove(&key) {
                break d;
            }
            if g.parked == g.live() {
                g.decide(&model);
                shared.cv.notify_all();
                continue;
            }
            g = shared.cv.wait(g).expect("fabric lock");
        };
        // Mirror copies are symmetric to the real burst, so they resolve
        // at the same engine event; their results are never read.
        for mkey in mirror_keys {
            let mirrored = g.results.remove(&mkey);
            debug_assert!(
                mirrored.is_some(),
                "clone-group mirror burst must resolve with its original"
            );
        }
        drop(g);
        // Epilogue identical to the solo `simulate_views`.
        let finish = done.finish;
        let t_start = views.iter().map(|v| v.start).fold(f64::INFINITY, f64::min);
        let t_end = finish.iter().copied().fold(0.0, f64::max);
        let duration = (t_end - t_start).max(0.0);
        let effective = if total_bytes > 0 {
            duration.max(per_file_latency)
        } else {
            duration
        };
        BurstResult {
            finish,
            t_start,
            t_end,
            total_bytes,
            aggregate_bandwidth: if total_bytes == 0 {
                0.0
            } else if effective > 0.0 {
                total_bytes as f64 / effective
            } else {
                f64::INFINITY
            },
        }
    }
}

impl Drop for FabricHandle {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(rank: usize, path: &str, bytes: u64, start: f64) -> WriteRequest {
        WriteRequest {
            rank,
            path: path.to_string(),
            bytes,
            start,
        }
    }

    fn burst(prefix: &str, n: usize, bytes: u64, start: f64) -> Vec<WriteRequest> {
        (0..n)
            .map(|i| req(i, &format!("/{prefix}{i}"), bytes, start))
            .collect()
    }

    #[test]
    fn solo_tenant_is_bit_identical_to_the_model() {
        // Noise on, several servers, several bursts in sequence: the
        // fabric's answers must equal the solo model's bit for bit.
        let model = StorageModel {
            variability_sigma: 0.2,
            metadata_latency: 0.01,
            ..StorageModel::ideal(4, 1e6)
        };
        let fabric = Fabric::new(model);
        let h = fabric.tenant("solo");
        let mut clock = 0.0;
        for step in 0..4 {
            let reqs = burst(&format!("s{step}/f"), 7, 250_000 + step as u64, clock);
            let solo = model.simulate_burst(&reqs);
            let shared = h.simulate_burst(&reqs);
            assert_eq!(solo, shared, "step {step}");
            clock = shared.t_end + 1.5;
        }
        let rreqs: Vec<ReadRequest> = (0..5)
            .map(|i| ReadRequest {
                rank: i,
                path: format!("/s0/f{i}"),
                bytes: 250_000,
                start: clock,
            })
            .collect();
        assert_eq!(
            model.simulate_read_burst(&rreqs),
            h.simulate_read_burst(&rreqs)
        );
    }

    #[test]
    fn two_tenants_share_like_one_burst_would() {
        let fabric = Fabric::new(StorageModel::ideal(1, 100.0));
        let a = fabric.tenant("a");
        let b = fabric.tenant("b");
        let (ra, rb) = std::thread::scope(|s| {
            let ta = s.spawn(move || a.simulate_burst(&[req(0, "/a", 500, 0.0)]));
            let tb = s.spawn(move || b.simulate_burst(&[req(0, "/b", 500, 0.0)]));
            (ta.join().unwrap(), tb.join().unwrap())
        });
        // Same as one run's two-request burst: both finish at 10.
        assert!((ra.t_end - 10.0).abs() < 1e-9, "{}", ra.t_end);
        assert!((rb.t_end - 10.0).abs() < 1e-9, "{}", rb.t_end);
        let stats = fabric.tenant_stats();
        // Each lost half the server for 10s: 5 lost service seconds.
        assert!((stats[0].contention_stall - 5.0).abs() < 1e-9);
        assert!((stats[1].contention_stall - 5.0).abs() < 1e-9);
        assert_eq!(stats[0].throttle_stall, 0.0);
    }

    #[test]
    fn n_identical_tenants_slow_down_by_n() {
        let model = StorageModel::ideal(1, 1000.0);
        let solo = model.simulate_burst(&[req(0, "/t0", 1000, 0.0)]);
        for n in [2usize, 4] {
            let fabric = Fabric::new(model);
            let handles: Vec<FabricHandle> =
                (0..n).map(|i| fabric.tenant(&format!("t{i}"))).collect();
            let walls: Vec<f64> = std::thread::scope(|s| {
                handles
                    .into_iter()
                    .enumerate()
                    .map(|(i, h)| {
                        s.spawn(move || {
                            h.simulate_burst(&[req(0, &format!("/t{i}"), 1000, 0.0)])
                                .t_end
                        })
                    })
                    .collect::<Vec<_>>()
                    .into_iter()
                    .map(|j| j.join().unwrap())
                    .collect()
            });
            for w in &walls {
                assert!(
                    (w - solo.t_end * n as f64).abs() < 1e-9,
                    "n={n}: {w} vs solo {}",
                    solo.t_end
                );
            }
        }
    }

    #[test]
    fn weighted_tenant_finishes_sooner() {
        let model = StorageModel::ideal(1, 100.0);
        let fabric = Fabric::new(model);
        let hi = fabric.tenant_with("hi", QosPolicy::weighted(3.0));
        let lo = fabric.tenant("lo");
        let (rhi, rlo) = std::thread::scope(|s| {
            // Handles move into the threads so a tenant retires from the
            // engine's quorum (handle drop) the moment its run ends.
            let a = s.spawn(move || hi.simulate_burst(&[req(0, "/hi", 600, 0.0)]));
            let b = s.spawn(move || lo.simulate_burst(&[req(0, "/lo", 600, 0.0)]));
            (a.join().unwrap(), b.join().unwrap())
        });
        // hi at 75 B/s finishes its 600 B at t=8; lo got 25 B/s for 8s
        // (200 B) then the full server: 400 left at 100 B/s -> t=12.
        assert!((rhi.t_end - 8.0).abs() < 1e-9, "{}", rhi.t_end);
        assert!((rlo.t_end - 12.0).abs() < 1e-9, "{}", rlo.t_end);
        assert!(rhi.t_end < rlo.t_end);
    }

    #[test]
    fn bandwidth_cap_throttles_and_is_attributed() {
        let model = StorageModel::ideal(1, 100.0);
        let fabric = Fabric::new(model);
        let capped = fabric.tenant_with("capped", QosPolicy::capped(0.25));
        let r = capped.simulate_burst(&[req(0, "/c", 100, 0.0)]);
        // Alone but capped at 25 B/s: 100 B take 4s.
        assert!((r.t_end - 4.0).abs() < 1e-9, "{}", r.t_end);
        let stats = fabric.tenant_stats();
        // Lost 3 service seconds (would have finished in 1s solo), all
        // attributable to the cap, none to contention.
        assert!((stats[0].throttle_stall - 3.0).abs() < 1e-6, "{:?}", stats);
        assert!(stats[0].contention_stall.abs() < 1e-9);
    }

    #[test]
    fn staging_pool_backpressures_concurrent_staged_bursts() {
        // Pool fits one 1000-byte staged burst; two tenants hand off at
        // t=0: the second must wait for the first drain (t=10) before its
        // handoff, finishing at 20 — full serialization through staging.
        let model = StorageModel::ideal(1, 100.0);
        let fabric = Fabric::new(model).with_staging(1000);
        let a = fabric.tenant("a");
        let b = fabric.tenant("b");
        let (ra, rb) = std::thread::scope(|s| {
            let ta = s.spawn(move || a.simulate_staged_burst(0.0, &mut burst("a", 1, 1000, 0.0)));
            let tb = s.spawn(move || b.simulate_staged_burst(0.0, &mut burst("b", 1, 1000, 0.0)));
            (ta.join().unwrap(), tb.join().unwrap())
        });
        let (first, second) = if ra.0 <= rb.0 { (ra, rb) } else { (rb, ra) };
        assert_eq!(first.0, 0.0, "first handoff is immediate");
        assert!((first.1.t_end - 10.0).abs() < 1e-9);
        assert!((second.0 - 10.0).abs() < 1e-9, "second staged at drain end");
        assert!((second.1.t_end - 20.0).abs() < 1e-9);
        let stats = fabric.tenant_stats();
        let waited: f64 = stats.iter().map(|s| s.staging_wait).sum();
        assert!((waited - 10.0).abs() < 1e-9, "{waited}");
    }

    #[test]
    fn oversized_staged_burst_proceeds_when_pool_is_empty() {
        let model = StorageModel::ideal(1, 100.0);
        let fabric = Fabric::new(model).with_staging(10);
        let a = fabric.tenant("a");
        let (handoff, r) = a.simulate_staged_burst(1.0, &mut burst("big", 1, 1000, 0.0));
        assert_eq!(handoff, 1.0);
        assert!((r.t_end - 11.0).abs() < 1e-9);
    }

    #[test]
    fn fabric_results_are_deterministic_across_runs() {
        let model = StorageModel {
            variability_sigma: 0.3,
            ..StorageModel::ideal(3, 1e5)
        };
        let run = || {
            let fabric = Fabric::new(model);
            let handles: Vec<FabricHandle> =
                (0..4).map(|i| fabric.tenant(&format!("t{i}"))).collect();
            let ends: Vec<Vec<f64>> = std::thread::scope(|s| {
                handles
                    .into_iter()
                    .enumerate()
                    .map(|(i, h)| {
                        s.spawn(move || {
                            let mut ends = Vec::new();
                            let mut clock = 0.0;
                            for step in 0..3 {
                                let r = h.simulate_burst(&burst(
                                    &format!("t{i}/s{step}/f"),
                                    5,
                                    40_000 + i as u64,
                                    clock,
                                ));
                                ends.push(r.t_end);
                                clock = r.t_end + 0.5 * (i + 1) as f64;
                            }
                            ends
                        })
                    })
                    .collect::<Vec<_>>()
                    .into_iter()
                    .map(|j| j.join().unwrap())
                    .collect()
            });
            let stats = fabric.tenant_stats();
            (ends, stats)
        };
        let (e1, s1) = run();
        let (e2, s2) = run();
        assert_eq!(e1, e2, "burst end times must not depend on thread timing");
        assert_eq!(s1, s2, "stats must not depend on thread timing");
    }

    #[test]
    fn finished_tenant_leaves_the_quorum() {
        // a runs one short burst and retires; b runs two. b's second
        // burst can only resolve once a has left the quorum (the engine
        // must otherwise hold time for a's potential future traffic).
        let fabric = Fabric::new(StorageModel::ideal(1, 100.0));
        let mut a = fabric.tenant("a");
        let b = fabric.tenant("b");
        let (ra, rb) = std::thread::scope(|s| {
            let ta = s.spawn(move || {
                let r = a.simulate_burst(&[req(0, "/a", 100, 0.0)]);
                a.finish();
                r
            });
            let tb = s.spawn(move || {
                let r1 = b.simulate_burst(&[req(0, "/b", 100, 0.0)]);
                let r2 = b.simulate_burst(&[req(0, "/b2", 100, r1.t_end + 5.0)]);
                (r1, r2)
            });
            (ta.join().unwrap(), tb.join().unwrap())
        });
        // First two bursts share the server (1s each solo -> both at 2).
        assert!((ra.t_end - 2.0).abs() < 1e-9, "{}", ra.t_end);
        assert!((rb.0.t_end - 2.0).abs() < 1e-9);
        // b's second burst runs alone after a retired: 7 -> 8.
        assert!((rb.1.t_end - 8.0).abs() < 1e-9, "{}", rb.1.t_end);
    }

    /// One clone tenant's driver loop: identical bursts (writes and a
    /// read), clocks chained through the previous result — the shape a
    /// scheduler-driven run produces.
    fn clone_driver(h: &FabricHandle) -> Vec<f64> {
        let mut ends = Vec::new();
        let mut clock = 0.0;
        for step in 0..3 {
            let r = h.simulate_burst(&burst(
                &format!("s{step}/f"),
                6,
                120_000 + step as u64,
                clock,
            ));
            ends.push(r.t_end);
            clock = r.t_end + 0.75;
        }
        let reads: Vec<ReadRequest> = (0..4)
            .map(|i| ReadRequest {
                rank: i,
                path: format!("/s0/f{i}"),
                bytes: 120_000,
                start: clock,
            })
            .collect();
        let r = h.simulate_read_burst(&reads);
        ends.push(r.t_end);
        ends
    }

    #[test]
    fn clone_group_is_bit_identical_to_threaded_clones() {
        // The mirrored-clone engine mode (one real tenant + N-1 mirror
        // slots, no threads) must reproduce N threaded clone tenants bit
        // for bit: burst end times, walls, and the full per-tenant stats
        // including contention attribution.
        let model = StorageModel {
            variability_sigma: 0.2,
            metadata_latency: 0.01,
            ..StorageModel::ideal(3, 1e6)
        };
        let n = 4;
        let names: Vec<String> = (0..n).map(|i| format!("c_t{i}")).collect();

        // Threaded reference: every clone on its own native thread.
        let threaded_fabric = Fabric::new(model);
        let handles: Vec<FabricHandle> = names
            .iter()
            .map(|name| threaded_fabric.tenant(name))
            .collect();
        let threaded_ends: Vec<Vec<f64>> = std::thread::scope(|s| {
            handles
                .into_iter()
                .map(|mut h| {
                    s.spawn(move || {
                        let ends = clone_driver(&h);
                        let wall = *ends.last().unwrap();
                        h.record_walls(wall, wall * 0.5);
                        h.finish();
                        ends
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|j| j.join().unwrap())
                .collect()
        });
        let threaded_stats = threaded_fabric.tenant_stats();

        // Mirrored mode: one real tenant drives the whole group inline.
        let mirrored_fabric = Fabric::new(model);
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let mut group = mirrored_fabric.tenant_clones(&name_refs);
        assert_eq!(group.mirrors(), n - 1);
        let mirrored_ends = clone_driver(&group);
        let wall = *mirrored_ends.last().unwrap();
        group.record_walls(wall, wall * 0.5);
        group.finish();
        let mirrored_stats = mirrored_fabric.tenant_stats();

        for ends in &threaded_ends {
            assert_eq!(ends, &mirrored_ends, "clone burst ends must match");
        }
        assert_eq!(threaded_stats, mirrored_stats);
        // The workload genuinely contends (stats are not trivial).
        assert!(mirrored_stats.iter().all(|s| s.contention_stall > 0.0));
        assert_eq!(mirrored_stats.len(), n);
    }

    #[test]
    fn clone_group_of_one_is_a_plain_tenant() {
        let model = StorageModel::ideal(2, 1e6);
        let fabric = Fabric::new(model);
        let solo = fabric.tenant_clones(&["only"]);
        assert_eq!(solo.mirrors(), 0);
        let ends = clone_driver(&solo);
        let legacy: Vec<f64> = {
            let f2 = Fabric::new(model);
            clone_driver(&f2.tenant("only"))
        };
        assert_eq!(ends, legacy);
    }

    #[test]
    fn clone_group_coexists_with_other_tenants() {
        // A clone pair plus an independent threaded tenant: the group's
        // mirror seat must not wedge the quorum, and results must match
        // the fully threaded 3-tenant run.
        let model = StorageModel::ideal(1, 1000.0);
        let run_threaded = || {
            let fabric = Fabric::new(model);
            let ha = fabric.tenant("a0");
            let hb = fabric.tenant("a1");
            let hc = fabric.tenant("b");
            std::thread::scope(|s| {
                let ta = s.spawn(move || ha.simulate_burst(&burst("x/f", 2, 500, 0.0)).t_end);
                let tb = s.spawn(move || hb.simulate_burst(&burst("x/f", 2, 500, 0.0)).t_end);
                let tc = s.spawn(move || hc.simulate_burst(&burst("y/f", 2, 500, 0.0)).t_end);
                (ta.join().unwrap(), tb.join().unwrap(), tc.join().unwrap())
            })
        };
        let run_mirrored = || {
            let fabric = Fabric::new(model);
            let group = fabric.tenant_clones(&["a0", "a1"]);
            let hc = fabric.tenant("b");
            std::thread::scope(|s| {
                let tg = s.spawn(move || group.simulate_burst(&burst("x/f", 2, 500, 0.0)).t_end);
                let tc = s.spawn(move || hc.simulate_burst(&burst("y/f", 2, 500, 0.0)).t_end);
                (tg.join().unwrap(), tc.join().unwrap())
            })
        };
        let (a0, a1, b) = run_threaded();
        let (ga, gb) = run_mirrored();
        assert_eq!(a0, a1);
        assert_eq!(ga, a0, "clone group must price like threaded clones");
        assert_eq!(gb, b);
    }

    #[test]
    fn stream_link_is_none_without_a_link() {
        let fabric = Fabric::new(StorageModel::ideal(1, 100.0));
        let t = fabric.tenant("solo");
        assert!(t.stream_link().is_none());
    }

    #[test]
    fn stream_link_fair_shares_across_declared_tenants() {
        let fabric =
            Fabric::new(StorageModel::ideal(1, 100.0)).with_link(NetworkModel::ideal(1000.0));
        fabric.set_stream_tenants(4);
        let t = fabric.tenant("streamer");
        let net = t.stream_link().expect("link attached");
        assert!((net.link_bandwidth - 250.0).abs() < 1e-9, "{net:?}");
        // A lone streamer that never declared a count gets the full link.
        fabric.set_stream_tenants(0);
        let solo = t.stream_link().expect("link attached");
        assert!((solo.link_bandwidth - 1000.0).abs() < 1e-9, "{solo:?}");
    }
}
