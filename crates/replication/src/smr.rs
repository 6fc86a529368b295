//! The state-machine-replication engine (system class S0).
//!
//! "S0 consists of 4 differently randomized nodes implementing a service
//! built as a DSM. Clients interact with these nodes directly. The nodes
//! execute an order protocol to decide on the order for processing
//! requests; correct nodes generate identical responses for each request"
//! (Definition 1). The order protocol here is a compact PBFT-family
//! three-phase commit:
//!
//! 1. the leader of view `v` (replica `v % n`) assigns a slot and
//!    broadcasts `PrePrepare`;
//! 2. replicas broadcast `Prepare`; a slot is *prepared* once `2f+1`
//!    replicas (leader included) vouch for the same digest;
//! 3. prepared replicas broadcast `Commit`; a slot *commits* at `2f+1`
//!    commits, and commits execute strictly in slot order.
//!
//! Every replica executes the operation itself — which is exactly why S0
//! demands a deterministic service — and signs its own response (clients
//! accept a response vouched for by `f+1` replicas; the client-side rule
//! lives in `fortress-core`).
//!
//! View changes follow the VSR (viewstamped replication) shape:
//!
//! 1. a replica whose oldest pending request outwaits the leader timeout
//!    broadcasts `StartViewChange{v+1}`; replicas that see a higher view
//!    proposed join by echoing their own;
//! 2. at `f+1` StartViewChange votes for a view, each replica sends
//!    `DoViewChange` — carrying its uncommitted log suffix — to that
//!    view's designated leader (`view % n`);
//! 3. the new leader collects `2f+1` DoViewChange messages, merges the
//!    carried suffixes per-slot (highest prepared view wins), installs
//!    the merged log and broadcasts `StartView`; replicas install the
//!    same suffix and re-vouch for every merged slot, so the ordinary
//!    prepare/commit quorum machinery finishes what the old view
//!    started. A stalled view change (its designated leader is down
//!    too) escalates to the next view after another timeout.
//!
//! This handles crash faults (the paper's S0 failure model for liveness)
//! while the quorum intersection argument carries the Byzantine safety
//! case: no committed slot can be lost in a view change, because every
//! commit quorum intersects every DoViewChange quorum in a correct
//! replica whose suffix carries the slot.

use std::collections::{BTreeMap, HashMap, HashSet};

use fortress_crypto::sha256::{Digest, Sha256};
use fortress_crypto::sig::Signer;
use fortress_net::codec::CodecError;

use crate::error::ReplicationError;
use crate::message::{ReplyBody, SignedReply, SmrLogEntry, SmrMsg};
use crate::service::Service;

/// Static configuration of an SMR group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SmrConfig {
    /// Number of replicas; must satisfy `n >= 3f + 1`.
    pub n: usize,
    /// Tolerated faults (the paper's S0 uses `f = 1`, `n = 4`).
    pub f: usize,
    /// A replica votes to depose the leader after a pending request waits
    /// this many ticks.
    pub leader_timeout: u64,
}

impl Default for SmrConfig {
    fn default() -> Self {
        SmrConfig {
            n: 4,
            f: 1,
            leader_timeout: 30,
        }
    }
}

impl SmrConfig {
    /// Quorum size `2f + 1`.
    pub fn quorum(&self) -> usize {
        2 * self.f + 1
    }

    /// Validates `n >= 3f + 1`.
    ///
    /// # Errors
    ///
    /// Returns [`ReplicationError::BadConfig`] when the bound is violated.
    pub fn validate(&self) -> Result<(), ReplicationError> {
        if self.n < 3 * self.f + 1 {
            return Err(ReplicationError::BadConfig {
                reason: format!("n = {} < 3f + 1 = {}", self.n, 3 * self.f + 1),
            });
        }
        Ok(())
    }
}

/// Inputs to the engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SmrInput {
    /// A client request (clients broadcast to all replicas).
    Request {
        /// Client-chosen request sequence number.
        seq: u64,
        /// Requesting client.
        client: String,
        /// Service operation.
        op: Vec<u8>,
    },
    /// An authenticated protocol message from replica `from`.
    ReplicaMsg {
        /// Authenticated sender index.
        from: usize,
        /// The message.
        msg: SmrMsg,
    },
    /// Logical clock tick.
    Tick {
        /// Current time.
        now: u64,
    },
}

/// Outputs of the engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SmrOutput {
    /// Send to every other replica.
    Broadcast(SmrMsg),
    /// Send to one replica.
    ToReplica(usize, SmrMsg),
    /// Signed response toward the client (the harness routes it).
    Reply(SignedReply),
}

#[derive(Clone, Debug)]
struct Proposal {
    view: u64,
    request_seq: u64,
    client: String,
    op: Vec<u8>,
    digest: Digest,
    committed: bool,
    commit_sent: bool,
}

fn request_digest(request_seq: u64, client: &str, op: &[u8]) -> Digest {
    Sha256::digest_parts(&[&request_seq.to_le_bytes(), client.as_bytes(), op])
}

/// Protocol status: `Normal` processes requests, `ViewChange` means this
/// replica has joined a view change and is waiting for the new leader's
/// `StartView`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SmrStatus {
    /// Normal operation under the current view's leader.
    Normal,
    /// A view change is in flight; ordering is suspended until `StartView`.
    ViewChange,
}

/// One replica's `DoViewChange` contribution, held by the would-be leader.
#[derive(Clone, Debug)]
struct DvcRecord {
    last_normal_view: u64,
    last_exec: u64,
    log: Vec<SmrLogEntry>,
}

/// One SMR replica.
///
/// # Example
///
/// ```
/// use fortress_crypto::{KeyAuthority, Signer};
/// use fortress_replication::smr::{SmrConfig, SmrInput, SmrOutput, SmrReplica};
/// use fortress_replication::service::KvStore;
/// use fortress_replication::message::SmrMsg;
///
/// let authority = KeyAuthority::with_seed(1);
/// let signer = Signer::register("smr-0", &authority);
/// let mut leader = SmrReplica::new(SmrConfig::default(), 0, KvStore::new(), signer).unwrap();
/// let outs = leader.on_input(SmrInput::Request {
///     seq: 1, client: "alice".into(), op: b"PUT k v".to_vec(),
/// });
/// assert!(matches!(&outs[..], [SmrOutput::Broadcast(SmrMsg::PrePrepare { .. })]));
/// ```
#[derive(Debug)]
pub struct SmrReplica<S> {
    cfg: SmrConfig,
    index: usize,
    service: S,
    signer: Signer,
    view: u64,
    next_seq: u64,
    last_exec: u64,
    now: u64,
    log: BTreeMap<u64, Proposal>,
    prepares: HashMap<(u64, u64), HashSet<usize>>,
    commits: HashMap<(u64, u64), HashSet<usize>>,
    executed: HashMap<(String, u64), Vec<u8>>,
    /// Requests seen but not yet executed: `(client, seq) → (op, since)`.
    pending: HashMap<(String, u64), (Vec<u8>, u64)>,
    status: SmrStatus,
    /// Last view in which this replica held `Normal` status.
    last_normal_view: u64,
    /// `StartViewChange` votes seen, per proposed view.
    svc_votes: HashMap<u64, HashSet<usize>>,
    /// `DoViewChange` records collected by this replica as the designated
    /// leader of the keyed view.
    dvc: HashMap<u64, HashMap<usize, DvcRecord>>,
    /// Highest view this replica has voted for (sticky).
    voted_view: u64,
    /// Highest view this replica has sent a `DoViewChange` for.
    dvc_sent: u64,
    /// Tick at which this replica last joined/escalated a view change.
    vc_since: u64,
    /// Completed view changes observed (entered Normal in a higher view).
    view_changes: u64,
    replies_sent: u64,
}

impl<S: Service> SmrReplica<S> {
    /// Creates replica `index` of a validated group.
    ///
    /// # Errors
    ///
    /// Returns [`ReplicationError::BadConfig`] for `n < 3f+1` and
    /// [`ReplicationError::BadReplicaIndex`] for an out-of-range index.
    pub fn new(
        cfg: SmrConfig,
        index: usize,
        service: S,
        signer: Signer,
    ) -> Result<SmrReplica<S>, ReplicationError> {
        cfg.validate()?;
        if index >= cfg.n {
            return Err(ReplicationError::BadReplicaIndex { index, n: cfg.n });
        }
        Ok(SmrReplica {
            cfg,
            index,
            service,
            signer,
            view: 0,
            next_seq: 0,
            last_exec: 0,
            now: 0,
            log: BTreeMap::new(),
            prepares: HashMap::new(),
            commits: HashMap::new(),
            executed: HashMap::new(),
            pending: HashMap::new(),
            status: SmrStatus::Normal,
            last_normal_view: 0,
            svc_votes: HashMap::new(),
            dvc: HashMap::new(),
            voted_view: 0,
            dvc_sent: 0,
            vc_since: 0,
            view_changes: 0,
            replies_sent: 0,
        })
    }

    /// Rewinds to the just-constructed state with a fresh service and
    /// credentials, keeping map capacity — the trial-arena reset path.
    /// Behaves exactly like `SmrReplica::new(cfg, index, service, signer)`
    /// with this replica's `cfg` and `index`.
    pub fn reset(&mut self, service: S, signer: Signer) {
        self.service = service;
        self.signer = signer;
        self.view = 0;
        self.next_seq = 0;
        self.last_exec = 0;
        self.now = 0;
        self.log.clear();
        self.prepares.clear();
        self.commits.clear();
        self.executed.clear();
        self.pending.clear();
        self.status = SmrStatus::Normal;
        self.last_normal_view = 0;
        self.svc_votes.clear();
        self.dvc.clear();
        self.voted_view = 0;
        self.dvc_sent = 0;
        self.vc_since = 0;
        self.view_changes = 0;
        self.replies_sent = 0;
    }

    /// This replica's index.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Current view.
    pub fn view(&self) -> u64 {
        self.view
    }

    /// Whether this replica leads the current view.
    pub fn is_leader(&self) -> bool {
        self.view as usize % self.cfg.n == self.index
    }

    /// Last executed slot.
    pub fn last_exec(&self) -> u64 {
        self.last_exec
    }

    /// Current protocol status.
    pub fn status(&self) -> SmrStatus {
        self.status
    }

    /// Whether this replica is in normal operation (not mid view change).
    pub fn is_normal(&self) -> bool {
        self.status == SmrStatus::Normal
    }

    /// Completed view changes this replica has participated in.
    pub fn view_changes(&self) -> u64 {
        self.view_changes
    }

    /// Signed replies emitted so far.
    pub fn replies_sent(&self) -> u64 {
        self.replies_sent
    }

    /// Immutable access to the replicated service.
    pub fn service(&self) -> &S {
        &self.service
    }

    /// Produces a snapshot offer for a rejoining replica.
    pub fn snapshot_offer(&self) -> SmrMsg {
        SmrMsg::SnapshotOffer {
            seq: self.last_exec,
            digest: self.service.digest(),
            snapshot: self.service.snapshot(),
        }
    }

    /// Installs a snapshot accepted by the rejoin rule (`f+1` matching
    /// digests, see [`crate::state_transfer`]).
    ///
    /// # Errors
    ///
    /// Returns [`ReplicationError::BadSnapshot`] when the bytes do not
    /// decode or the restored digest mismatches.
    pub fn install_snapshot(
        &mut self,
        seq: u64,
        digest: Digest,
        snapshot: &[u8],
    ) -> Result<(), ReplicationError> {
        self.service
            .restore(snapshot)
            .map_err(|e: CodecError| ReplicationError::BadSnapshot {
                reason: e.to_string(),
            })?;
        if self.service.digest() != digest {
            return Err(ReplicationError::BadSnapshot {
                reason: "restored state digest mismatch".into(),
            });
        }
        self.last_exec = seq;
        self.next_seq = seq;
        self.log.retain(|s, _| *s > seq);
        Ok(())
    }

    /// Feeds one input, returning the outputs it provokes.
    pub fn on_input(&mut self, input: SmrInput) -> Vec<SmrOutput> {
        match input {
            SmrInput::Request { seq, client, op } => self.on_request(seq, client, op),
            SmrInput::ReplicaMsg { from, msg } => self.on_replica_msg(from, msg),
            SmrInput::Tick { now } => self.on_tick(now),
        }
    }

    fn make_reply(&mut self, request_seq: u64, client: &str, body: Vec<u8>) -> SmrOutput {
        self.replies_sent += 1;
        SmrOutput::Reply(SignedReply::sign(
            ReplyBody {
                request_seq,
                client: client.to_owned(),
                body,
                server_index: self.index as u32,
            },
            &self.signer,
        ))
    }

    fn on_request(&mut self, seq: u64, client: String, op: Vec<u8>) -> Vec<SmrOutput> {
        let key = (client.clone(), seq);
        if let Some(body) = self.executed.get(&key) {
            let body = body.clone();
            return vec![self.make_reply(seq, &client, body)];
        }
        self.pending.entry(key).or_insert((op.clone(), self.now));
        if self.is_leader() {
            return self.propose(seq, client, op);
        }
        Vec::new()
    }

    fn propose(&mut self, request_seq: u64, client: String, op: Vec<u8>) -> Vec<SmrOutput> {
        // Skip if this request already occupies a slot in this view.
        let already = self.log.values().any(|p| {
            p.view == self.view && p.request_seq == request_seq && p.client == client
        });
        if already {
            return Vec::new();
        }
        self.next_seq += 1;
        let seq = self.next_seq;
        let digest = request_digest(request_seq, &client, &op);
        self.log.insert(
            seq,
            Proposal {
                view: self.view,
                request_seq,
                client: client.clone(),
                op: op.clone(),
                digest,
                committed: false,
                commit_sent: false,
            },
        );
        // The leader's pre-prepare doubles as its prepare vote.
        self.prepares
            .entry((self.view, seq))
            .or_default()
            .insert(self.index);
        vec![SmrOutput::Broadcast(SmrMsg::PrePrepare {
            view: self.view,
            seq,
            request_seq,
            client,
            op,
        })]
    }

    fn on_replica_msg(&mut self, from: usize, msg: SmrMsg) -> Vec<SmrOutput> {
        if from >= self.cfg.n {
            return Vec::new();
        }
        match msg {
            SmrMsg::PrePrepare {
                view,
                seq,
                request_seq,
                client,
                op,
            } => self.on_pre_prepare(from, view, seq, request_seq, client, op),
            SmrMsg::Prepare { view, seq, digest } => self.on_prepare(from, view, seq, digest),
            SmrMsg::Commit { view, seq, digest } => self.on_commit(from, view, seq, digest),
            SmrMsg::StartViewChange { new_view } => self.on_start_view_change(from, new_view),
            SmrMsg::DoViewChange {
                new_view,
                last_normal_view,
                last_exec,
                log,
            } => self.on_do_view_change(from, new_view, last_normal_view, last_exec, log),
            SmrMsg::StartView {
                view,
                last_exec,
                log,
            } => self.on_start_view(from, view, last_exec, log),
            SmrMsg::SnapshotRequest { .. } => {
                vec![SmrOutput::ToReplica(from, self.snapshot_offer())]
            }
            SmrMsg::SnapshotOffer { .. } => Vec::new(), // handled by the rejoin collector
            SmrMsg::Request { seq, client, op } => {
                // Replica-forwarded request (e.g. re-proposal path).
                self.on_request(seq, client, op)
            }
        }
    }

    fn on_pre_prepare(
        &mut self,
        from: usize,
        view: u64,
        seq: u64,
        request_seq: u64,
        client: String,
        op: Vec<u8>,
    ) -> Vec<SmrOutput> {
        if view < self.view || from != view as usize % self.cfg.n {
            return Vec::new();
        }
        if view > self.view {
            // A pre-prepare from the leader of a later view is evidence
            // that view is in normal operation (e.g. we missed StartView).
            self.adopt_view(view);
            self.status = SmrStatus::Normal;
            self.last_normal_view = view;
        }
        if seq <= self.last_exec {
            return Vec::new(); // already executed this slot
        }
        let digest = request_digest(request_seq, &client, &op);
        if let Some(existing) = self.log.get(&seq) {
            if existing.view >= view && existing.digest != digest {
                // Conflicting proposal for an occupied slot from a view we
                // already accepted: refuse (Byzantine-leader defense).
                return Vec::new();
            }
        }
        self.pending.remove(&(client.clone(), request_seq));
        self.log.insert(
            seq,
            Proposal {
                view,
                request_seq,
                client,
                op,
                digest,
                committed: false,
                commit_sent: false,
            },
        );
        let set = self.prepares.entry((view, seq)).or_default();
        set.insert(from); // the leader's implicit prepare
        set.insert(self.index);
        let mut outs = vec![SmrOutput::Broadcast(SmrMsg::Prepare { view, seq, digest })];
        outs.extend(self.check_prepared(view, seq));
        outs
    }

    fn on_prepare(&mut self, from: usize, view: u64, seq: u64, digest: Digest) -> Vec<SmrOutput> {
        if view != self.view && view < self.view {
            return Vec::new();
        }
        if let Some(p) = self.log.get(&seq) {
            if p.digest != digest {
                return Vec::new(); // vote for a different request
            }
        }
        self.prepares.entry((view, seq)).or_default().insert(from);
        self.check_prepared(view, seq)
    }

    fn check_prepared(&mut self, view: u64, seq: u64) -> Vec<SmrOutput> {
        let quorum = self.cfg.quorum();
        let have = self
            .prepares
            .get(&(view, seq))
            .map_or(0, |s| s.len());
        let Some(p) = self.log.get_mut(&seq) else {
            return Vec::new();
        };
        if p.commit_sent || p.view != view || have < quorum {
            return Vec::new();
        }
        p.commit_sent = true;
        let digest = p.digest;
        self.commits.entry((view, seq)).or_default().insert(self.index);
        let mut outs = vec![SmrOutput::Broadcast(SmrMsg::Commit { view, seq, digest })];
        outs.extend(self.check_committed(view, seq));
        outs
    }

    fn on_commit(&mut self, from: usize, view: u64, seq: u64, digest: Digest) -> Vec<SmrOutput> {
        if let Some(p) = self.log.get(&seq) {
            if p.digest != digest {
                return Vec::new();
            }
        }
        self.commits.entry((view, seq)).or_default().insert(from);
        self.check_committed(view, seq)
    }

    fn check_committed(&mut self, view: u64, seq: u64) -> Vec<SmrOutput> {
        let quorum = self.cfg.quorum();
        let have = self.commits.get(&(view, seq)).map_or(0, |s| s.len());
        if have < quorum {
            return Vec::new();
        }
        if let Some(p) = self.log.get_mut(&seq) {
            p.committed = true;
        }
        self.execute_ready()
    }

    /// Executes committed slots strictly in order.
    fn execute_ready(&mut self) -> Vec<SmrOutput> {
        let mut outs = Vec::new();
        loop {
            let next = self.last_exec + 1;
            let Some(p) = self.log.get(&next) else { break };
            if !p.committed {
                break;
            }
            let (client, request_seq, op) = (p.client.clone(), p.request_seq, p.op.clone());
            let (body, _delta) = self.service.execute(&op);
            self.last_exec = next;
            self.next_seq = self.next_seq.max(next);
            self.executed
                .insert((client.clone(), request_seq), body.clone());
            self.pending.remove(&(client.clone(), request_seq));
            outs.push(self.make_reply(request_seq, &client, body));
        }
        outs
    }

    /// This replica's uncommitted log suffix (slots above `last_exec`),
    /// the payload a `DoViewChange` carries to the new leader.
    fn log_suffix(&self) -> Vec<SmrLogEntry> {
        self.log
            .iter()
            .filter(|(seq, _)| **seq > self.last_exec)
            .map(|(seq, p)| SmrLogEntry {
                seq: *seq,
                view: p.view,
                request_seq: p.request_seq,
                client: p.client.clone(),
                op: p.op.clone(),
            })
            .collect()
    }

    /// Joins (or escalates to) the view change targeting `target`:
    /// broadcast our own `StartViewChange` and re-check the vote count.
    fn start_view_change(&mut self, target: u64) -> Vec<SmrOutput> {
        self.voted_view = target;
        self.vc_since = self.now;
        self.status = SmrStatus::ViewChange;
        self.svc_votes.entry(target).or_default().insert(self.index);
        let mut outs = vec![SmrOutput::Broadcast(SmrMsg::StartViewChange {
            new_view: target,
        })];
        outs.extend(self.check_svc_quorum(target));
        outs
    }

    fn on_start_view_change(&mut self, from: usize, new_view: u64) -> Vec<SmrOutput> {
        if new_view <= self.view {
            return Vec::new();
        }
        self.svc_votes.entry(new_view).or_default().insert(from);
        if self.voted_view < new_view {
            // Join: one peer proposing a higher view is enough to echo,
            // which is what lets a view change spread without every
            // replica's timer having to fire.
            self.start_view_change(new_view)
        } else {
            self.check_svc_quorum(new_view)
        }
    }

    /// At `f+1` StartViewChange votes, send `DoViewChange` (once per view)
    /// to the designated leader of `target` — or record our own if we are
    /// that leader.
    fn check_svc_quorum(&mut self, target: u64) -> Vec<SmrOutput> {
        if target <= self.view || self.dvc_sent >= target {
            return Vec::new();
        }
        let votes = self.svc_votes.get(&target).map_or(0, |s| s.len());
        if votes < self.cfg.f + 1 {
            return Vec::new();
        }
        self.dvc_sent = target;
        let record = DvcRecord {
            last_normal_view: self.last_normal_view,
            last_exec: self.last_exec,
            log: self.log_suffix(),
        };
        let leader = target as usize % self.cfg.n;
        if leader == self.index {
            self.dvc.entry(target).or_default().insert(self.index, record);
            self.try_start_view(target)
        } else {
            vec![SmrOutput::ToReplica(
                leader,
                SmrMsg::DoViewChange {
                    new_view: target,
                    last_normal_view: record.last_normal_view,
                    last_exec: record.last_exec,
                    log: record.log,
                },
            )]
        }
    }

    fn on_do_view_change(
        &mut self,
        from: usize,
        new_view: u64,
        last_normal_view: u64,
        last_exec: u64,
        log: Vec<SmrLogEntry>,
    ) -> Vec<SmrOutput> {
        if new_view <= self.view || new_view as usize % self.cfg.n != self.index {
            return Vec::new();
        }
        self.dvc.entry(new_view).or_default().insert(
            from,
            DvcRecord {
                last_normal_view,
                last_exec,
                log,
            },
        );
        self.try_start_view(new_view)
    }

    /// The designated leader of `new_view` takes over once `2f+1`
    /// `DoViewChange` records (its own included) are in: merge the carried
    /// suffixes per-slot (highest prepared view wins), install the merged
    /// log, broadcast `StartView`, and re-propose whatever is pending.
    fn try_start_view(&mut self, new_view: u64) -> Vec<SmrOutput> {
        if new_view <= self.view
            || self
                .dvc
                .get(&new_view)
                .map_or(0, |records| records.len())
                < self.cfg.quorum()
        {
            return Vec::new();
        }
        let records = self.dvc.remove(&new_view).unwrap_or_default();
        let max_exec = records
            .values()
            .map(|r| r.last_exec)
            .max()
            .unwrap_or(0)
            .max(self.last_exec);
        let mut merged: BTreeMap<u64, SmrLogEntry> = BTreeMap::new();
        for rec in records.values() {
            for entry in &rec.log {
                // Slots at or below the group's execution frontier are
                // committed history: state transfer covers them, not the
                // merged log.
                if entry.seq <= max_exec {
                    continue;
                }
                match merged.get(&entry.seq) {
                    Some(cur) if cur.view >= entry.view => {}
                    _ => {
                        merged.insert(entry.seq, entry.clone());
                    }
                }
            }
        }
        let mut outs = Vec::new();
        if max_exec > self.last_exec {
            // A quorum member executed past us: fetch its state before the
            // merged slots can execute (execution stalls at the gap until
            // the snapshot installs).
            let ahead = records
                .iter()
                .max_by_key(|(_, r)| (r.last_exec, r.last_normal_view))
                .map(|(i, _)| *i)
                .expect("quorum is non-empty");
            outs.push(SmrOutput::ToReplica(
                ahead,
                SmrMsg::SnapshotRequest {
                    last_exec: self.last_exec,
                },
            ));
        }
        self.enter_view(new_view);
        // Drop our own uncommitted slots, then install the merged suffix;
        // each installed slot gets our implicit prepare vote.
        let last_exec = self.last_exec;
        self.log.retain(|s, p| *s <= last_exec || p.committed);
        let mut start_log = Vec::with_capacity(merged.len());
        for entry in merged.into_values() {
            self.install_entry(&entry, new_view);
            self.next_seq = self.next_seq.max(entry.seq);
            start_log.push(entry);
        }
        self.next_seq = self.next_seq.max(max_exec);
        outs.push(SmrOutput::Broadcast(SmrMsg::StartView {
            view: new_view,
            last_exec: self.last_exec,
            log: start_log,
        }));
        // Re-propose pending requests the merged log does not carry.
        let pending: Vec<((String, u64), Vec<u8>)> = self
            .pending
            .iter()
            .map(|((c, s), (op, _))| ((c.clone(), *s), op.clone()))
            .collect();
        for ((client, seq), op) in pending {
            outs.extend(self.propose(seq, client, op));
        }
        outs
    }

    fn on_start_view(
        &mut self,
        from: usize,
        view: u64,
        leader_exec: u64,
        log: Vec<SmrLogEntry>,
    ) -> Vec<SmrOutput> {
        if view < self.view || from != view as usize % self.cfg.n {
            return Vec::new();
        }
        if view == self.view && self.status == SmrStatus::Normal {
            return Vec::new(); // duplicate
        }
        self.enter_view(view);
        let last_exec = self.last_exec;
        self.log.retain(|s, p| *s <= last_exec || p.committed);
        let mut outs = Vec::new();
        if leader_exec > self.last_exec {
            // The new leader's execution frontier is past ours: state
            // transfer fills the committed gap.
            outs.push(SmrOutput::ToReplica(
                from,
                SmrMsg::SnapshotRequest {
                    last_exec: self.last_exec,
                },
            ));
        }
        for entry in log {
            if entry.seq <= self.last_exec
                || self.log.get(&entry.seq).is_some_and(|p| p.committed)
            {
                continue;
            }
            let seq = entry.seq;
            let digest = self.install_entry(&entry, view);
            // Count the leader's implicit prepare alongside our own, then
            // re-vouch so the ordinary quorum machinery finishes the slot.
            self.prepares.entry((view, seq)).or_default().insert(from);
            self.next_seq = self.next_seq.max(seq);
            outs.push(SmrOutput::Broadcast(SmrMsg::Prepare { view, seq, digest }));
            outs.extend(self.check_prepared(view, seq));
        }
        outs
    }

    /// Installs one merged-log entry under `view`, with our own prepare
    /// vote. The digest is recomputed locally — never trusted off the wire.
    fn install_entry(&mut self, entry: &SmrLogEntry, view: u64) -> Digest {
        let digest = request_digest(entry.request_seq, &entry.client, &entry.op);
        self.pending.remove(&(entry.client.clone(), entry.request_seq));
        self.log.insert(
            entry.seq,
            Proposal {
                view,
                request_seq: entry.request_seq,
                client: entry.client.clone(),
                op: entry.op.clone(),
                digest,
                committed: false,
                commit_sent: false,
            },
        );
        self.prepares
            .entry((view, entry.seq))
            .or_default()
            .insert(self.index);
        digest
    }

    /// Enters `view` in Normal status, counting the completed view change
    /// and pruning vote state that can no longer matter.
    fn enter_view(&mut self, view: u64) {
        self.adopt_view(view);
        self.status = SmrStatus::Normal;
        self.last_normal_view = view;
        self.view_changes += 1;
        self.svc_votes.retain(|v, _| *v > view);
        self.dvc.retain(|v, _| *v > view);
    }

    fn adopt_view(&mut self, view: u64) {
        self.view = view;
        self.voted_view = self.voted_view.max(view);
        // Refresh pending timers so the new leader gets a full timeout.
        for (_, since) in self.pending.values_mut() {
            *since = self.now;
        }
    }

    fn on_tick(&mut self, now: u64) -> Vec<SmrOutput> {
        self.now = now;
        if self.is_leader() && self.status == SmrStatus::Normal {
            return Vec::new();
        }
        let overdue = self
            .pending
            .values()
            .any(|(_, since)| now.saturating_sub(*since) > self.cfg.leader_timeout);
        if !overdue {
            return Vec::new();
        }
        if self.voted_view <= self.view {
            self.start_view_change(self.view + 1)
        } else if now.saturating_sub(self.vc_since) > self.cfg.leader_timeout {
            // The view change we joined has itself stalled (its designated
            // leader is down too): escalate past it.
            self.start_view_change(self.voted_view + 1)
        } else {
            Vec::new() // sticky: wait out the in-flight view change
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::KvStore;
    use fortress_crypto::KeyAuthority;

    fn group(n: usize, f: usize) -> Vec<SmrReplica<KvStore>> {
        let authority = KeyAuthority::with_seed(7);
        let cfg = SmrConfig {
            n,
            f,
            leader_timeout: 30,
        };
        (0..n)
            .map(|i| {
                let signer = Signer::register(&format!("smr-{i}"), &authority);
                SmrReplica::new(cfg, i, KvStore::new(), signer).unwrap()
            })
            .collect()
    }

    /// Delivers outputs; `down` replicas drop everything. Returns replies.
    fn route(
        replicas: &mut [SmrReplica<KvStore>],
        from: usize,
        outputs: Vec<SmrOutput>,
        down: &[usize],
    ) -> Vec<SignedReply> {
        let mut replies = Vec::new();
        for out in outputs {
            match out {
                SmrOutput::Reply(r) => replies.push(r),
                SmrOutput::Broadcast(msg) => {
                    for i in 0..replicas.len() {
                        if i == from || down.contains(&i) {
                            continue;
                        }
                        let outs = replicas[i].on_input(SmrInput::ReplicaMsg {
                            from,
                            msg: msg.clone(),
                        });
                        replies.extend(route(replicas, i, outs, down));
                    }
                }
                SmrOutput::ToReplica(to, msg) => {
                    if down.contains(&to) {
                        continue;
                    }
                    let outs = replicas[to].on_input(SmrInput::ReplicaMsg {
                        from,
                        msg,
                    });
                    replies.extend(route(replicas, to, outs, down));
                }
            }
        }
        replies
    }

    fn submit(
        replicas: &mut [SmrReplica<KvStore>],
        seq: u64,
        op: &[u8],
        down: &[usize],
    ) -> Vec<SignedReply> {
        // The client's broadcast reaches every live replica before any
        // protocol message does (they are all sent at the same instant).
        let mut batches = Vec::new();
        for (i, replica) in replicas.iter_mut().enumerate() {
            if down.contains(&i) {
                continue;
            }
            let outs = replica.on_input(SmrInput::Request {
                seq,
                client: "alice".into(),
                op: op.to_vec(),
            });
            batches.push((i, outs));
        }
        let mut replies = Vec::new();
        for (i, outs) in batches {
            replies.extend(route(replicas, i, outs, down));
        }
        replies
    }

    #[test]
    fn four_replicas_execute_and_agree() {
        let mut replicas = group(4, 1);
        let replies = submit(&mut replicas, 1, b"PUT a 1", &[]);
        assert_eq!(replies.len(), 4, "all four reply");
        assert!(replies.iter().all(|r| r.reply.body == b"OK"));
        let digest = replicas[0].service().digest();
        for r in &replicas[1..] {
            assert_eq!(r.service().digest(), digest, "replica states agree");
        }
        assert!(replicas.iter().all(|r| r.last_exec() == 1));
    }

    #[test]
    fn sequence_of_requests_executes_in_order_everywhere() {
        let mut replicas = group(4, 1);
        submit(&mut replicas, 1, b"PUT a 1", &[]);
        submit(&mut replicas, 2, b"PUT b 2", &[]);
        let replies = submit(&mut replicas, 3, b"GET a", &[]);
        assert!(replies.iter().all(|r| r.reply.body == b"VALUE 1"));
        assert!(replicas.iter().all(|r| r.last_exec() == 3));
    }

    #[test]
    fn duplicate_request_answered_from_cache() {
        let mut replicas = group(4, 1);
        submit(&mut replicas, 1, b"PUT a 1", &[]);
        let exec_before: Vec<u64> = replicas.iter().map(|r| r.last_exec()).collect();
        let replies = submit(&mut replicas, 1, b"PUT a 1", &[]);
        assert_eq!(replies.len(), 4, "cached replies from each replica");
        let exec_after: Vec<u64> = replicas.iter().map(|r| r.last_exec()).collect();
        assert_eq!(exec_before, exec_after, "no re-execution");
    }

    #[test]
    fn tolerates_one_crashed_backup() {
        let mut replicas = group(4, 1);
        let replies = submit(&mut replicas, 1, b"PUT a 1", &[3]);
        // Three live replicas still reach the 2f+1 = 3 quorum.
        assert_eq!(replies.len(), 3);
        assert!(replicas[0].last_exec() == 1 && replicas[2].last_exec() == 1);
        assert_eq!(replicas[3].last_exec(), 0, "crashed replica missed it");
    }

    #[test]
    fn two_crashes_block_progress() {
        let mut replicas = group(4, 1);
        let replies = submit(&mut replicas, 1, b"PUT a 1", &[2, 3]);
        assert!(replies.is_empty(), "quorum impossible with 2 of 4 down");
        assert!(replicas[0].last_exec() == 0 && replicas[1].last_exec() == 0);
    }

    #[test]
    fn leader_crash_triggers_view_change_and_reexecution() {
        let mut replicas = group(4, 1);
        // Leader (0) is down; clients still broadcast.
        let replies = submit(&mut replicas, 1, b"PUT a 1", &[0]);
        assert!(replies.is_empty(), "no leader, no ordering yet");
        // Time passes; one backup's timer fires, its StartViewChange
        // spreads by echo, DoViewChange suffixes flow to replica 1
        // (= 1 % 4), which merges, broadcasts StartView and re-proposes.
        let mut all_replies = Vec::new();
        for i in 1..4 {
            let outs = replicas[i].on_input(SmrInput::Tick { now: 31 });
            all_replies.extend(route(&mut replicas, i, outs, &[0]));
        }
        assert_eq!(replicas[1].view(), 1);
        assert!(replicas[1].is_leader());
        assert!(replicas[1].is_normal());
        assert_eq!(all_replies.len(), 3, "request executed under new view");
        assert!(all_replies.iter().all(|r| r.reply.body == b"OK"));
        for r in &replicas[1..] {
            assert_eq!(r.view_changes(), 1, "one completed view change");
        }
    }

    #[test]
    fn view_change_merges_prepared_but_uncommitted_slot() {
        let mut replicas = group(4, 1);
        // Leader 0 pre-prepares slot 1, but only replica 1 hears it before
        // the leader dies: the slot is in replica 1's log, uncommitted.
        let outs = replicas[0].on_input(SmrInput::Request {
            seq: 1,
            client: "alice".into(),
            op: b"PUT a 1".to_vec(),
        });
        let SmrOutput::Broadcast(pp) = &outs[0] else { panic!() };
        replicas[1].on_input(SmrInput::ReplicaMsg {
            from: 0,
            msg: pp.clone(),
        });
        // 2 and 3 know about the request (pending) but never saw the slot.
        for i in [2usize, 3] {
            replicas[i].on_input(SmrInput::Request {
                seq: 1,
                client: "alice".into(),
                op: b"PUT a 1".to_vec(),
            });
        }
        let mut all_replies = Vec::new();
        for i in 1..4 {
            let outs = replicas[i].on_input(SmrInput::Tick { now: 31 });
            all_replies.extend(route(&mut replicas, i, outs, &[0]));
        }
        // The prepared slot survives the view change via replica 1's
        // DoViewChange suffix and commits under the new leader.
        assert_eq!(all_replies.len(), 3);
        assert!(all_replies.iter().all(|r| r.reply.body == b"OK"));
        for r in &replicas[1..] {
            assert_eq!(r.last_exec(), 1);
        }
    }

    #[test]
    fn stalled_view_change_escalates_past_a_dead_successor() {
        // n = 7, f = 2: leader 0 AND successor 1 both die. The view change
        // to view 1 stalls (its designated leader is down), then escalates
        // to view 2 after another timeout and completes there.
        let mut replicas = group(7, 2);
        let down = [0usize, 1];
        let replies = submit(&mut replicas, 1, b"PUT a 1", &down);
        assert!(replies.is_empty());
        // Sync every live clock first (the harness ticks each step), so
        // joiners stamp a fresh `vc_since` when the change starts at 31.
        for r in &mut replicas[2..] {
            r.on_input(SmrInput::Tick { now: 30 });
        }
        let mut all_replies = Vec::new();
        for i in 2..7 {
            let outs = replicas[i].on_input(SmrInput::Tick { now: 31 });
            all_replies.extend(route(&mut replicas, i, outs, &down));
        }
        assert!(all_replies.is_empty(), "view 1's leader is down: stalled");
        assert!(replicas[2..].iter().all(|r| !r.is_normal()));
        for i in 2..7 {
            let outs = replicas[i].on_input(SmrInput::Tick { now: 62 });
            all_replies.extend(route(&mut replicas, i, outs, &down));
        }
        assert_eq!(replicas[2].view(), 2);
        assert!(replicas[2].is_leader() && replicas[2].is_normal());
        assert_eq!(all_replies.len(), 5, "executed under view 2");
    }

    /// A deterministic xorshift so the property drivers need no rand dep.
    struct XorShift(u64);
    impl XorShift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
    }

    /// Property: view numbers are monotone at every replica, and any two
    /// replicas that executed the same slot agree on what it held, under
    /// randomized crash/recover/tick/request schedules.
    #[test]
    fn property_views_monotone_and_slots_agree_under_random_crashes() {
        for trial in 0..12u64 {
            let mut rng = XorShift(0x5EED_0001 + trial * 0x9E37);
            let mut replicas = group(4, 1);
            let mut down: Vec<usize> = Vec::new();
            let mut views = [0u64; 4];
            let mut now = 0u64;
            let mut next_req = 0u64;
            for _ in 0..40 {
                match rng.next() % 4 {
                    0 => {
                        // Crash one replica (keep a 2f+1 = 3 quorum live).
                        if down.is_empty() {
                            down.push((rng.next() % 4) as usize);
                        }
                    }
                    1 => {
                        down.clear();
                    }
                    2 => {
                        next_req += 1;
                        submit(&mut replicas, next_req, b"PUT k v", &down);
                    }
                    _ => {
                        now += 17;
                        for i in 0..4 {
                            if down.contains(&i) {
                                continue;
                            }
                            let outs = replicas[i].on_input(SmrInput::Tick { now });
                            let snapshot = down.clone();
                            route(&mut replicas, i, outs, &snapshot);
                        }
                    }
                }
                for (i, r) in replicas.iter().enumerate() {
                    assert!(r.view() >= views[i], "view went backwards at {i}");
                    views[i] = r.view();
                }
            }
            // Agreement: every pair of replicas with overlapping executed
            // prefixes has identical service digests at the shorter one...
            // cheaper: all replicas at the same last_exec agree exactly.
            for a in 0..4 {
                for b in (a + 1)..4 {
                    if replicas[a].last_exec() == replicas[b].last_exec() {
                        assert_eq!(
                            replicas[a].service().digest(),
                            replicas[b].service().digest(),
                            "diverged at the same execution frontier (trial {trial})"
                        );
                    }
                }
            }
        }
    }

    /// Property: at most one leader commits per view — every committed
    /// slot's view maps to exactly one leader index, so two replicas can
    /// never observe commits from different leaders of the same view.
    #[test]
    fn property_at_most_one_leader_commits_per_view() {
        let mut replicas = group(4, 1);
        submit(&mut replicas, 1, b"PUT a 1", &[0]);
        let mut now = 0;
        for round in 0..3 {
            now += 31;
            for i in 1..4 {
                let outs = replicas[i].on_input(SmrInput::Tick { now });
                route(&mut replicas, i, outs, &[0]);
            }
            submit(&mut replicas, 2 + round, b"PUT b 2", &[0]);
        }
        // Collect (view, leader) for every executed slot on every replica:
        // the leader of a view is view % n by construction, so the check
        // is that all replicas executed each slot under the *same* view.
        use std::collections::HashMap as Map;
        let mut slot_views: Map<u64, u64> = Map::new();
        for r in &replicas[1..] {
            for seq in 1..=r.last_exec() {
                let v = r
                    .log
                    .get(&seq)
                    .map(|p| p.view)
                    .expect("executed slot still logged");
                match slot_views.get(&seq) {
                    Some(prev) => assert_eq!(
                        *prev, v,
                        "slot {seq} committed under two different views/leaders"
                    ),
                    None => {
                        slot_views.insert(seq, v);
                    }
                }
            }
        }
    }

    /// Property: a single crash converges to a new view within one leader
    /// timeout — the first tick past `leader_timeout` completes the view
    /// change (measured latency ≈ the view timer, not a detection window).
    #[test]
    fn property_single_crash_converges_within_the_timeout() {
        for timeout in [10u64, 30, 50] {
            let authority = KeyAuthority::with_seed(7);
            let cfg = SmrConfig {
                n: 4,
                f: 1,
                leader_timeout: timeout,
            };
            let mut replicas: Vec<SmrReplica<KvStore>> = (0..4)
                .map(|i| {
                    let signer = Signer::register(&format!("smr-{i}"), &authority);
                    SmrReplica::new(cfg, i, KvStore::new(), signer).unwrap()
                })
                .collect();
            submit(&mut replicas, 1, b"PUT a 1", &[0]);
            // Tick every step: no view change at exactly `timeout`, a
            // completed one at `timeout + 1`.
            let mut converged_at = None;
            for now in 1..=timeout + 1 {
                for i in 1..4 {
                    let outs = replicas[i].on_input(SmrInput::Tick { now });
                    route(&mut replicas, i, outs, &[0]);
                }
                if replicas[1..].iter().all(|r| r.view() == 1 && r.is_normal()) {
                    converged_at = Some(now);
                    break;
                }
            }
            assert_eq!(
                converged_at,
                Some(timeout + 1),
                "view change must land exactly one tick past the timer"
            );
        }
    }

    #[test]
    fn byzantine_equivocation_on_a_slot_is_refused() {
        let mut replicas = group(4, 1);
        // Replica 1 receives two conflicting pre-prepares for slot 1.
        let pp1 = SmrMsg::PrePrepare {
            view: 0,
            seq: 1,
            request_seq: 1,
            client: "alice".into(),
            op: b"PUT a 1".to_vec(),
        };
        let pp2 = SmrMsg::PrePrepare {
            view: 0,
            seq: 1,
            request_seq: 2,
            client: "mallory".into(),
            op: b"PUT a 666".to_vec(),
        };
        let outs1 = replicas[1].on_input(SmrInput::ReplicaMsg { from: 0, msg: pp1 });
        assert!(!outs1.is_empty());
        let outs2 = replicas[1].on_input(SmrInput::ReplicaMsg { from: 0, msg: pp2 });
        assert!(outs2.is_empty(), "conflicting proposal refused");
    }

    #[test]
    fn prepare_with_wrong_digest_not_counted() {
        let mut replicas = group(4, 1);
        let outs = replicas[0].on_input(SmrInput::Request {
            seq: 1,
            client: "alice".into(),
            op: b"PUT a 1".to_vec(),
        });
        // Feed the pre-prepare to replica 1 only.
        let SmrOutput::Broadcast(pp) = &outs[0] else {
            panic!()
        };
        replicas[1].on_input(SmrInput::ReplicaMsg {
            from: 0,
            msg: pp.clone(),
        });
        // Forge prepares with a bogus digest from replicas 2 and 3.
        let bogus = Sha256::digest(b"bogus");
        for from in [2usize, 3] {
            let outs = replicas[1].on_input(SmrInput::ReplicaMsg {
                from,
                msg: SmrMsg::Prepare {
                    view: 0,
                    seq: 1,
                    digest: bogus,
                },
            });
            assert!(outs.is_empty(), "bogus prepare must not advance the slot");
        }
        assert_eq!(replicas[1].last_exec(), 0);
    }

    #[test]
    fn snapshot_offer_and_install() {
        let mut replicas = group(4, 1);
        submit(&mut replicas, 1, b"PUT a 1", &[3]);
        submit(&mut replicas, 2, b"PUT b 2", &[3]);
        // Replica 3 rejoins via snapshot from replica 0.
        let offer = replicas[0].snapshot_offer();
        let SmrMsg::SnapshotOffer { seq, digest, snapshot } = offer else {
            panic!()
        };
        replicas[3].install_snapshot(seq, digest, &snapshot).unwrap();
        assert_eq!(replicas[3].last_exec(), 2);
        assert_eq!(replicas[3].service().digest(), replicas[0].service().digest());
        // And it participates normally afterwards.
        let replies = submit(&mut replicas, 3, b"GET b", &[]);
        assert_eq!(replies.len(), 4);
        assert!(replies.iter().all(|r| r.reply.body == b"VALUE 2"));
    }

    #[test]
    fn install_snapshot_rejects_corruption() {
        let mut replicas = group(4, 1);
        submit(&mut replicas, 1, b"PUT a 1", &[]);
        let SmrMsg::SnapshotOffer { seq, digest, mut snapshot } = replicas[0].snapshot_offer()
        else {
            panic!()
        };
        snapshot[0] ^= 0xff;
        assert!(replicas[3].install_snapshot(seq, digest, &snapshot).is_err());
    }

    #[test]
    fn config_validation() {
        assert!(SmrConfig { n: 3, f: 1, leader_timeout: 1 }.validate().is_err());
        assert!(SmrConfig { n: 4, f: 1, leader_timeout: 1 }.validate().is_ok());
        assert_eq!(SmrConfig::default().quorum(), 3);
        let authority = KeyAuthority::with_seed(1);
        let signer = Signer::register("x", &authority);
        assert!(matches!(
            SmrReplica::new(SmrConfig::default(), 9, KvStore::new(), signer),
            Err(ReplicationError::BadReplicaIndex { .. })
        ));
    }

    #[test]
    fn snapshot_request_is_answered() {
        let mut replicas = group(4, 1);
        submit(&mut replicas, 1, b"PUT a 1", &[]);
        let outs = replicas[0].on_input(SmrInput::ReplicaMsg {
            from: 3,
            msg: SmrMsg::SnapshotRequest { last_exec: 0 },
        });
        assert!(matches!(
            &outs[..],
            [SmrOutput::ToReplica(3, SmrMsg::SnapshotOffer { seq: 1, .. })]
        ));
    }
}
