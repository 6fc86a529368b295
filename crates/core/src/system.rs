//! Full-system assembly of S0, S1 and S2 over the deterministic network.
//!
//! A [`Stack`] wires together, per the class under test (paper §4):
//!
//! * **S0** — 4 SMR replicas with **distinct** randomization keys; clients
//!   talk to all replicas directly; compromised when 2 replicas fall.
//! * **S1** — 3 PB replicas with **one shared** key; clients talk to all
//!   replicas directly; compromised when any replica falls.
//! * **S2** — FORTRESS: 3 proxies (distinct keys) in front of 3 PB servers
//!   (shared key); servers accept traffic **only from proxies**; the
//!   system is compromised when a server falls or all proxies fall.
//!
//! Every node is a [`ForkingDaemon`]-supervised randomized process: a
//! malicious request whose embedded exploit misses the key **crashes** the
//! child (peers observe the closed connection; the daemon restarts it), and
//! a correct guess **compromises** it. `end_step` applies the obfuscation
//! policy: PO re-randomizes with fresh keys (shared for the server group,
//! distinct for proxies, per §3), SO merely recovers.
//!
//! The stack exposes exactly the handles the attacker legitimately has —
//! client endpoints, proxy addresses, direct server addresses for 1-tier
//! classes, plus `submit_via_proxy` which *requires* the proxy to be
//! compromised (the launch-pad path of §3).
//!
//! # Transport genericity
//!
//! [`Stack`] is generic over the [`Transport`] it runs on, defaulting to
//! the deterministic [`SimNet`] (what every Monte-Carlo trial uses).
//! [`Stack::with_transport`] assembles the same system over any other
//! backend — the `failover` example drives a stack over
//! [`ThreadNet`](fortress_net::threaded::ThreadNet) while other threads
//! inject load. The drive loop ([`Stack::pump`]) is written purely
//! against the trait: batched [`Transport::drain_into`] with one reused
//! scratch buffer, [`Transport::broadcast`] over address lists cached at
//! assembly, and [`Transport::step`] for delivery progress.
//!
//! # Payload routing
//!
//! Every delivered payload is classified **once** through the typed
//! [`WireMsg`] envelope and routed by a single `match` — there are no
//! ordered try-decode chains. Frames that decode as no registered kind
//! are counted per endpoint ([`Stack::malformed_at`]) and in the
//! transport's [`NetStats::malformed`](fortress_net::NetStats) instead of
//! being silently dropped: an adversary throwing corrupted bytes is an
//! *event*, not noise.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use fortress_crypto::sig::Signer;
use fortress_crypto::KeyAuthority;
use fortress_net::addr::Addr;
use fortress_net::event::{NetEvent, NetStats};
use fortress_net::fault::{FaultPlan, FaultyTransport};
use fortress_net::sim::{SimConfig, SimNet};
use fortress_net::transport::{Transport, TrialReset};
use fortress_obf::daemon::ForkingDaemon;
use fortress_obf::keys::KeySpace;
use fortress_obf::process::ProbeOutcome;
use fortress_obf::schedule::{KeyAssignment, ObfuscationPolicy, Rerandomizer};
use fortress_obf::scheme::Scheme;
use fortress_replication::pb::{PbConfig, PbInput, PbOutput, PbReplica};
use fortress_replication::service::KvStore;
use fortress_replication::smr::{SmrConfig, SmrInput, SmrOutput, SmrReplica};
use fortress_replication::state_transfer::TransferScheduler;

use crate::error::FortressError;
use crate::messages::ClientRequest;
use crate::nameserver::{NameServer, ReplicationType};
use crate::probelog::SuspicionPolicy;
use crate::proxy::{Proxy, ProxyInput, ProxyOutput};
use crate::wire::WireMsg;

/// Which system class to assemble.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SystemClass {
    /// 4-replica SMR, clients direct (Definition 1).
    S0Smr,
    /// 3-replica PB, clients direct (Definition 2).
    S1Pb,
    /// FORTRESS: 3 proxies + 3 PB servers (Definition 3).
    S2Fortress,
}

/// Assembly-time configuration.
#[derive(Clone, Copy, Debug)]
pub struct StackConfig {
    /// System class.
    pub class: SystemClass,
    /// Randomization-key entropy in bits (the paper's χ = 2^16; protocol
    /// simulations use smaller spaces for runtime).
    pub entropy_bits: u32,
    /// Randomization scheme for every node.
    pub scheme: Scheme,
    /// Obfuscation policy (SO or PO).
    pub policy: ObfuscationPolicy,
    /// Proxy suspicion policy (S2 only).
    pub suspicion: SuspicionPolicy,
    /// Number of proxies `np` (S2 only; the paper uses 3).
    pub np: usize,
    /// Number of PB servers `ns` (S1/S2; the paper uses 3). S0 is fixed at
    /// `n = 3f + 1 = 4` by the SMR quorum arithmetic.
    pub ns: usize,
    /// Fortress-group index within a sharded fleet (0 for a standalone
    /// stack). Purely a *shape* tag: it changes no node behavior, but it
    /// keys trial-arena reuse so a cached fleet shell is only ever rewound
    /// into the same per-shard position it was assembled for.
    pub group: usize,
    /// Master seed: network latencies, key draws, principal keys.
    pub seed: u64,
}

impl Default for StackConfig {
    fn default() -> Self {
        StackConfig {
            class: SystemClass::S2Fortress,
            entropy_bits: 10,
            scheme: Scheme::Aslr,
            policy: ObfuscationPolicy::proactive_unit(),
            suspicion: SuspicionPolicy::default(),
            np: 3,
            ns: 3,
            group: 0,
            seed: 0,
        }
    }
}

impl StackConfig {
    /// Whether `other` assembles an identically-*shaped* stack: every
    /// knob equal except the seed. Two same-shaped configurations build
    /// stacks with the same node counts, names, registration order and
    /// policies, differing only in key material and network timing — so
    /// a stack built from one can be rewound to the other with
    /// [`Stack::reset`] instead of reassembled. The trial arena keys
    /// reuse on this predicate.
    pub fn same_shape(&self, other: &StackConfig) -> bool {
        self.class == other.class
            && self.entropy_bits == other.entropy_bits
            && self.scheme == other.scheme
            && self.policy == other.policy
            && self.suspicion == other.suspicion
            && self.np == other.np
            && self.ns == other.ns
            && self.group == other.group
    }
}

/// The failover timeout the assembled PB tiers run with
/// ([`PbConfig::default`]'s, which [`Stack`] never overrides) — the
/// closed-form availability predictions read it to bound how long a
/// primary outage keeps the tier down.
pub fn pb_failover_timeout() -> u64 {
    PbConfig::default().failover_timeout
}

/// Availability bookkeeping over the PB server tier, maintained by
/// [`Stack::end_step`] with **zero RNG consumption** (so enabling the
/// counters changed no existing trial's bits).
///
/// A step counts as *down* when no PB server is simultaneously up
/// (machine not taken down), uncompromised, and the primary of its view
/// — exactly the window the PB failover protocol exists to close. S0
/// deployments accumulate the same counters over the SMR quorum instead
/// — but only once SMR repair accounting is armed (the first
/// [`Stack::take_down_server`] against the tier, or
/// [`Stack::enable_smr_repair`]), so legacy S0 trials keep their
/// pre-repair bits. For S0 the failover fields measure *view-change*
/// windows: from losing the serving leader to a live quorum executing
/// under a new leader.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Availability {
    /// Unit time-steps observed (one per [`Stack::end_step`]).
    pub steps: u64,
    /// Steps with no live serving primary.
    pub down_steps: u64,
    /// Machine outages injected via [`Stack::take_down_server`].
    pub outages: u64,
    /// PB failovers observed (view adoptions across the live tier).
    pub failovers: u64,
    /// Total steps spent between losing the serving primary and a
    /// replica serving again, summed over completed failover windows.
    pub failover_latency_total: u64,
    /// Completed failover windows behind `failover_latency_total` (an
    /// outage that outlives the trial contributes to `down_steps` but
    /// completes no window).
    pub recoveries: u64,
    /// Deliveries dead-lettered while at least one server machine was
    /// down — client/proxy requests lost to the outage windows.
    pub lost_requests: u64,
    /// SMR view changes completed across the live tier (max installed
    /// view increments; S0 repair accounting only).
    pub view_changes: u64,
    /// State-transfer units paid by rejoining SMR replicas (S0 repair
    /// accounting only; see `TransferScheduler`).
    pub transfer_units: u64,
    /// Deepest state-transfer queue observed — the recovery-storm
    /// signature (S0 repair accounting only).
    pub peak_transfer_queue: u64,
}

impl Availability {
    /// Mean steps from losing the serving primary to serving again,
    /// over completed failover windows (`None` if none completed).
    pub fn mean_failover_latency(&self) -> Option<f64> {
        (self.recoveries > 0)
            .then(|| self.failover_latency_total as f64 / self.recoveries as f64)
    }
}

/// How (and whether) the system has been compromised.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CompromiseState {
    /// All compromise conditions unmet.
    Intact,
    /// A server replica is attacker-controlled (fatal for S1/S2; for S0,
    /// fatal once two are).
    ServerCompromised {
        /// How many server replicas are currently controlled.
        count: usize,
    },
    /// Every proxy is attacker-controlled (S2's second compromise path).
    AllProxiesCompromised,
}

struct ProxyNode {
    addr: Addr,
    daemon: ForkingDaemon,
    engine: Proxy,
}

struct PbNode {
    addr: Addr,
    daemon: ForkingDaemon,
    engine: PbReplica<KvStore>,
    /// Machine-level outage injected via [`Stack::take_down_server`]: the
    /// node neither ticks nor serves until brought back up (distinct from
    /// a child-process crash, which the forking daemon heals instantly).
    down: bool,
}

struct SmrNode {
    addr: Addr,
    daemon: ForkingDaemon,
    engine: SmrReplica<KvStore>,
    /// Machine-level outage injected via [`Stack::take_down_server`]: the
    /// node neither ticks nor serves until brought back up (distinct from
    /// a child-process crash, which the forking daemon heals instantly).
    down: bool,
    /// Brought back up but still paying divergence-priced state transfer
    /// through the [`TransferScheduler`]; excluded from the quorum until
    /// the transfer completes.
    catching_up: bool,
}

/// A fully wired S0/S1/S2 deployment over a [`Transport`] (the
/// deterministic [`SimNet`] by default). See the [module docs](self).
pub struct Stack<T: Transport = SimNet> {
    cfg: StackConfig,
    net: T,
    authority: Arc<KeyAuthority>,
    ns: NameServer,
    rng: rand::rngs::StdRng,
    proxies: Vec<ProxyNode>,
    pb_servers: Vec<PbNode>,
    smr_servers: Vec<SmrNode>,
    clients: HashMap<String, Addr>,
    proxy_rr: Option<Rerandomizer>,
    server_rr: Rerandomizer,
    step: u64,
    suspects: Vec<String>,
    /// Proxy-tier addresses, cached at assembly for broadcast dispatch.
    proxy_targets: Vec<Addr>,
    /// Server-tier addresses (PB or SMR per class), cached at assembly.
    server_targets: Vec<Addr>,
    /// Reused event buffer for the pump loop (no per-round allocation).
    scratch: Vec<NetEvent>,
    wire_buf: Vec<u8>,
    /// Second encode scratch for the nested reply inside a
    /// [`ProxyResponse`] (cycled like [`Stack::wire_buf`]).
    reply_buf: Vec<u8>,
    /// Malformed deliveries per endpoint address.
    malformed: HashMap<Addr, u64>,
    /// Availability counters over the PB tier (see [`Availability`]).
    avail: Availability,
    /// Step at which the serving primary was lost, while the outage is
    /// still open (drives `failover_latency_total`).
    primary_lost_at: Option<u64>,
    /// Highest PB view ever observed (drives the failover count). For S0
    /// under repair accounting: highest *installed* SMR view across the
    /// live tier (drives `view_changes`).
    views_seen: u64,
    /// Transport dead-letter count already attributed (drives
    /// `lost_requests` deltas).
    dead_lettered_seen: u64,
    /// Whether S0 repair accounting is armed (see [`Availability`]).
    /// Armed by the first SMR-tier [`Stack::take_down_server`] or by
    /// [`Stack::enable_smr_repair`]; never armed on legacy paths, so
    /// their availability bits are untouched.
    smr_repair: bool,
    /// Divergence-priced rejoin scheduler for the SMR tier: a replica
    /// brought back up owes transfer units proportional to its log
    /// divergence and stays out of the quorum until they are paid.
    transfer: TransferScheduler,
}

impl Stack<SimNet> {
    /// Assembles a stack over a fresh deterministic [`SimNet`] seeded
    /// from the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`FortressError`] when any component rejects the
    /// configuration (e.g. an inconsistent name-server topology).
    pub fn new(cfg: StackConfig) -> Result<Stack<SimNet>, FortressError> {
        Stack::with_transport(
            cfg,
            SimNet::new(SimConfig {
                seed: cfg.seed ^ 0x5eed,
                ..SimConfig::default()
            }),
        )
    }
}

impl Stack<FaultyTransport<SimNet>> {
    /// Assembles a stack over the same deterministic [`SimNet`] that
    /// [`Stack::new`] would build (identical seed derivation), wrapped
    /// in a [`FaultyTransport`] applying `plan`. `fault_stream_seed`
    /// seeds the decorator's dedicated SplitMix64 stream; trial drivers
    /// derive it per trial, like the outage stream. With
    /// [`FaultPlan::None`] the wrapped network is a byte-identical
    /// passthrough of the bare one.
    ///
    /// # Errors
    ///
    /// As for [`Stack::new`].
    pub fn new_faulty(
        cfg: StackConfig,
        plan: FaultPlan,
        fault_stream_seed: u64,
    ) -> Result<Stack<FaultyTransport<SimNet>>, FortressError> {
        let net = SimNet::new(SimConfig {
            seed: cfg.seed ^ 0x5eed,
            ..SimConfig::default()
        });
        Stack::with_transport(cfg, FaultyTransport::new(net, plan, fault_stream_seed))
    }
}

impl<T: Transport> Stack<T> {
    /// Assembles a stack over an existing transport — the generic
    /// constructor the threaded examples use.
    ///
    /// # Errors
    ///
    /// As for [`Stack::new`].
    pub fn with_transport(cfg: StackConfig, mut net: T) -> Result<Stack<T>, FortressError> {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
        let authority = Arc::new(KeyAuthority::with_seed(cfg.seed ^ 0xca11));
        let space = KeySpace::from_entropy_bits(cfg.entropy_bits);

        if cfg.ns == 0 || (cfg.class == SystemClass::S2Fortress && cfg.np == 0) {
            return Err(FortressError::BadAssembly {
                reason: "fleet sizes must be at least 1".into(),
            });
        }
        let (proxy_names, server_names, replication): (Vec<String>, Vec<String>, _) =
            match cfg.class {
                SystemClass::S0Smr => (
                    vec![],
                    (0..4).map(|i| format!("smr-{i}")).collect(),
                    ReplicationType::StateMachine { f: 1 },
                ),
                SystemClass::S1Pb => (
                    vec![],
                    (0..cfg.ns).map(|i| format!("pb-{i}")).collect(),
                    ReplicationType::PrimaryBackup,
                ),
                SystemClass::S2Fortress => (
                    (0..cfg.np).map(|i| format!("proxy-{i}")).collect(),
                    (0..cfg.ns).map(|i| format!("pb-{i}")).collect(),
                    ReplicationType::PrimaryBackup,
                ),
            };

        let mut ns_builder = NameServer::builder().replication(replication);
        for p in &proxy_names {
            ns_builder = ns_builder.proxy(p);
        }
        for s in &server_names {
            ns_builder = ns_builder.server(s);
        }
        let ns = ns_builder.build()?;

        // Key assignment per the FORTRESS prescription (§3): one shared key
        // for the server group (S1/S2), distinct keys for proxies and for
        // the diversely randomized S0 replicas.
        let server_assignment = match cfg.class {
            SystemClass::S0Smr => KeyAssignment::DistinctPerNode,
            _ => KeyAssignment::SharedAcrossGroup,
        };
        let server_rr = Rerandomizer::new(space, cfg.policy, server_assignment);
        let server_keys = server_rr.initial_keys(server_names.len(), &mut rng);
        let mut proxy_rr = (!proxy_names.is_empty())
            .then(|| Rerandomizer::new(space, cfg.policy, KeyAssignment::DistinctPerNode));
        let proxy_keys = proxy_rr
            .as_mut()
            .map(|rr| rr.initial_keys(proxy_names.len(), &mut rng))
            .unwrap_or_default();

        let mut proxies = Vec::new();
        for (i, name) in proxy_names.iter().enumerate() {
            let addr = net.register(name);
            let signer = Signer::register(name, &authority);
            let engine = Proxy::new(name, signer, Arc::clone(&authority), ns.clone(), cfg.suspicion);
            proxies.push(ProxyNode {
                addr,
                daemon: ForkingDaemon::boot(name, cfg.scheme, proxy_keys[i]),
                engine,
            });
        }

        let mut pb_servers = Vec::new();
        let mut smr_servers = Vec::new();
        match cfg.class {
            SystemClass::S0Smr => {
                for (i, name) in server_names.iter().enumerate() {
                    let addr = net.register(name);
                    let signer = Signer::register(name, &authority);
                    let engine = SmrReplica::new(
                        SmrConfig::default(),
                        i,
                        KvStore::new(),
                        signer,
                    )?;
                    smr_servers.push(SmrNode {
                        addr,
                        daemon: ForkingDaemon::boot(name, cfg.scheme, server_keys[i]),
                        engine,
                        down: false,
                        catching_up: false,
                    });
                }
            }
            SystemClass::S1Pb | SystemClass::S2Fortress => {
                for (i, name) in server_names.iter().enumerate() {
                    let addr = net.register(name);
                    let signer = Signer::register(name, &authority);
                    let pb_cfg = PbConfig {
                        n: server_names.len(),
                        ..PbConfig::default()
                    };
                    let engine = PbReplica::new(pb_cfg, i, KvStore::new(), signer);
                    pb_servers.push(PbNode {
                        addr,
                        daemon: ForkingDaemon::boot(name, cfg.scheme, server_keys[i]),
                        engine,
                        down: false,
                    });
                }
            }
        }

        // Address lists are fixed at assembly; cache them once so the
        // dispatch hot paths broadcast over slices instead of
        // re-collecting target vectors per call.
        let proxy_targets: Vec<Addr> = proxies.iter().map(|p| p.addr).collect();
        let server_targets: Vec<Addr> = match cfg.class {
            SystemClass::S0Smr => smr_servers.iter().map(|s| s.addr).collect(),
            _ => pb_servers.iter().map(|s| s.addr).collect(),
        };

        Ok(Stack {
            cfg,
            net,
            authority,
            ns,
            rng,
            proxies,
            pb_servers,
            smr_servers,
            clients: HashMap::new(),
            proxy_rr,
            server_rr,
            step: 0,
            suspects: Vec::new(),
            proxy_targets,
            server_targets,
            scratch: Vec::new(),
            wire_buf: Vec::new(),
            reply_buf: Vec::new(),
            malformed: HashMap::new(),
            avail: Availability::default(),
            primary_lost_at: None,
            views_seen: 0,
            dead_lettered_seen: 0,
            smr_repair: false,
            transfer: TransferScheduler::new(1),
        })
    }

    /// Rewinds an assembled stack to the state [`Stack::with_transport`]
    /// would produce for the same *shape* under master seed `seed` — the
    /// trial-arena reset path. Instead of reconstructing every node, the
    /// transport is rewound in place ([`TrialReset::trial_reset`], keeping
    /// the node endpoints), the authority re-derives its master from the
    /// same `seed ^ 0xca11` the constructor uses, and each daemon/engine
    /// is re-keyed and cleared. Key draws replay in assembly order
    /// (server keys, then proxy keys, from a fresh `StdRng(seed)`) and
    /// principals re-register in assembly order (proxies, then servers),
    /// so every key, address and RNG stream is **bit-for-bit identical**
    /// to a fresh [`Stack::with_transport`] build with the same
    /// configuration. Client endpoints are dropped; re-attached clients
    /// recycle the same addresses in attach order.
    pub fn reset(&mut self, seed: u64)
    where
        T: TrialReset,
    {
        let keep = self.node_endpoint_count();
        self.net.trial_reset(seed ^ 0x5eed, keep);
        self.reset_nodes(seed);
    }

    /// Number of node endpoints (proxies + servers) this stack registered
    /// on its transport — the per-group slice of a shared net's
    /// trial-reset watermark.
    pub fn node_endpoint_count(&self) -> usize {
        self.proxies.len() + self.pb_servers.len() + self.smr_servers.len()
    }

    /// The node-side half of [`Stack::reset`]: re-keys and clears every
    /// daemon, engine and counter exactly as `reset` does, **without**
    /// touching the transport. A standalone stack never calls this
    /// directly; a fleet does — its groups share one transport, which the
    /// fleet rewinds *once* (with the fleet-wide endpoint watermark)
    /// before resetting each group's nodes in registration order, so the
    /// combined replay is bit-identical to a fresh fleet assembly.
    pub fn reset_nodes(&mut self, seed: u64) {
        use rand::SeedableRng;
        self.cfg.seed = seed;
        self.rng = rand::rngs::StdRng::seed_from_u64(seed);
        self.authority.reset_with_seed(seed ^ 0xca11);

        let space = KeySpace::from_entropy_bits(self.cfg.entropy_bits);
        let server_assignment = match self.cfg.class {
            SystemClass::S0Smr => KeyAssignment::DistinctPerNode,
            _ => KeyAssignment::SharedAcrossGroup,
        };
        // Same RNG draw order as assembly: server keys first, then proxies.
        self.server_rr = Rerandomizer::new(space, self.cfg.policy, server_assignment);
        let n_servers = self.pb_servers.len() + self.smr_servers.len();
        let server_keys = self.server_rr.initial_keys(n_servers, &mut self.rng);
        self.proxy_rr = (!self.proxies.is_empty())
            .then(|| Rerandomizer::new(space, self.cfg.policy, KeyAssignment::DistinctPerNode));
        let proxy_keys = self
            .proxy_rr
            .as_mut()
            .map(|rr| rr.initial_keys(self.proxies.len(), &mut self.rng))
            .unwrap_or_default();

        // Same authority counter order as assembly: proxies, then servers.
        let authority = Arc::clone(&self.authority);
        for (i, p) in self.proxies.iter_mut().enumerate() {
            let signer = Signer::register(p.daemon.name(), &authority);
            p.engine.reset(signer);
            p.daemon.reset(proxy_keys[i]);
        }
        for (i, s) in self.pb_servers.iter_mut().enumerate() {
            let signer = Signer::register(s.daemon.name(), &authority);
            s.engine.reset(KvStore::new(), signer);
            s.daemon.reset(server_keys[i]);
            s.down = false;
        }
        for (i, s) in self.smr_servers.iter_mut().enumerate() {
            let signer = Signer::register(s.daemon.name(), &authority);
            s.engine.reset(KvStore::new(), signer);
            s.daemon.reset(server_keys[i]);
            s.down = false;
            s.catching_up = false;
        }

        self.clients.clear();
        self.step = 0;
        self.suspects.clear();
        self.scratch.clear();
        self.malformed.clear();
        self.avail = Availability::default();
        self.primary_lost_at = None;
        self.views_seen = 0;
        self.dead_lettered_seen = 0;
        self.smr_repair = false;
        self.transfer.reset();
    }

    /// The assembled class.
    pub fn class(&self) -> SystemClass {
        self.cfg.class
    }

    /// The full assembly-time configuration, read back for harnesses and
    /// reports that label results by the knobs a stack was built with.
    pub fn config(&self) -> StackConfig {
        self.cfg
    }

    /// Number of deployed proxies (0 for the 1-tier classes) — the bound
    /// the campaign strategies iterate when looking for a launch pad.
    pub fn proxy_count(&self) -> usize {
        self.proxies.len()
    }

    /// The trusted authority (clients share it, as they share the NS).
    pub fn authority(&self) -> Arc<KeyAuthority> {
        Arc::clone(&self.authority)
    }

    /// The trusted name server contents.
    pub fn ns(&self) -> &NameServer {
        &self.ns
    }

    /// Current unit time-step.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// The network's logical clock (ticks; one tick per hop at the default
    /// fixed latency; 0 on transports without one). Useful for
    /// hop-count/latency measurements.
    pub fn network_now(&self) -> u64 {
        self.net.now()
    }

    /// Takes server `i` off the network entirely (machine outage, not a
    /// child-process crash): connected peers observe the closure, and
    /// the node neither ticks nor serves until
    /// [`Stack::bring_up_server`]. For the PB tier this is the
    /// availability fault the failover protocol exists for — see
    /// `examples/failover.rs`. For S0 it arms SMR repair accounting and
    /// the crash becomes a *protocol event*: the surviving replicas'
    /// view timers expire and a VSR view change elects a new leader.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range index.
    pub fn take_down_server(&mut self, i: usize) {
        match self.cfg.class {
            SystemClass::S0Smr => {
                let addr = self.smr_servers[i].addr;
                if !self.smr_servers[i].down {
                    self.avail.outages += 1;
                }
                self.smr_servers[i].down = true;
                self.smr_repair = true;
                self.net.crash(addr);
            }
            _ => {
                let addr = self.pb_servers[i].addr;
                if !self.pb_servers[i].down {
                    self.avail.outages += 1;
                }
                self.pb_servers[i].down = true;
                self.net.crash(addr);
            }
        }
    }

    /// Brings a downed server back online with a clean connection table
    /// (state catch-up is the protocol's job, not the network's). A PB
    /// replica rejoins immediately. An SMR replica rejoins *catching
    /// up*: it owes the [`TransferScheduler`] transfer units
    /// proportional to its log divergence from the live tier's furthest
    /// execution point, and stays out of the quorum until they are paid
    /// — the repair-economics half of the view-change refactor.
    pub fn bring_up_server(&mut self, i: usize) {
        match self.cfg.class {
            SystemClass::S0Smr => {
                let addr = self.smr_servers[i].addr;
                self.net.restart(addr);
                self.smr_servers[i].down = false;
                let group_max = self
                    .smr_servers
                    .iter()
                    .filter(|s| !s.down && !s.catching_up)
                    .map(|s| s.engine.last_exec())
                    .max()
                    .unwrap_or(0);
                let divergence =
                    group_max.saturating_sub(self.smr_servers[i].engine.last_exec());
                self.transfer.enqueue(i, divergence);
                self.smr_servers[i].catching_up = true;
            }
            _ => {
                let addr = self.pb_servers[i].addr;
                self.net.restart(addr);
                self.pb_servers[i].down = false;
            }
        }
    }

    /// Whether server `i` is currently taken down (a catching-up SMR
    /// rejoiner is *up* — see [`Stack::server_is_catching_up`]).
    pub fn server_is_down(&self, i: usize) -> bool {
        match self.cfg.class {
            SystemClass::S0Smr => self.smr_servers[i].down,
            _ => self.pb_servers[i].down,
        }
    }

    /// Whether SMR server `i` is paying its rejoin state transfer (always
    /// false outside S0).
    pub fn server_is_catching_up(&self, i: usize) -> bool {
        self.smr_servers.get(i).is_some_and(|s| s.catching_up)
    }

    /// Whether any server machine is currently taken down or still
    /// paying its rejoin transfer — the outage signal an
    /// availability-aware adversary (or operator dashboard) can read
    /// without any key oracle: real outages are externally observable
    /// through error rates and health pages.
    pub fn any_server_down(&self) -> bool {
        self.pb_servers.iter().any(|s| s.down)
            || self.smr_servers.iter().any(|s| s.down || s.catching_up)
    }

    /// Number of server machines in the deployed tier — the SMR quorum
    /// arithmetic fixes S0 at 4 regardless of [`StackConfig::ns`], so
    /// outage schedules must size against this, not the config knob.
    pub fn server_count(&self) -> usize {
        match self.cfg.class {
            SystemClass::S0Smr => self.smr_servers.len(),
            _ => self.pb_servers.len(),
        }
    }

    /// Arms S0 repair accounting with an explicit state-transfer
    /// bandwidth budget (units per step shared by all concurrent
    /// rejoiners). Idempotent per trial; legacy paths never call it, so
    /// their availability bits are untouched.
    pub fn enable_smr_repair(&mut self, bandwidth: u64) {
        self.smr_repair = true;
        self.transfer = TransferScheduler::new(bandwidth);
    }

    /// Whether S0 repair accounting is armed (the gate on the SMR fields
    /// of [`Availability`]).
    pub fn smr_repair_tracked(&self) -> bool {
        self.smr_repair
    }

    /// The index of the replica the live SMR tier currently expects to
    /// lead: the highest installed view among live (up, not catching up,
    /// uncompromised) replicas, mapped through the round-robin leader
    /// rule. 0 when the tier is absent or fully dead — callers use this
    /// as a crash-targeting hint, not an oracle.
    pub fn smr_leader_hint(&self) -> usize {
        let n = self.smr_servers.len();
        if n == 0 {
            return 0;
        }
        self.smr_servers
            .iter()
            .filter(|s| !s.down && !s.catching_up && !s.daemon.is_compromised())
            .map(|s| s.engine.view())
            .max()
            .map(|v| (v % n as u64) as usize)
            .unwrap_or(0)
    }

    /// The index of the PB server currently *serving*: up,
    /// uncompromised, the primary of its view, **and** at the highest
    /// view any live replica has adopted — a repaired machine that
    /// rejoined with the stale view it crashed in still believes it is
    /// the primary of that old view, but serves nobody until it hears a
    /// heartbeat, so it must not count (it would mask real downtime in
    /// exactly the back-to-back-outage windows the availability axis
    /// measures). `None` when the tier is down or absent.
    pub fn pb_primary_index(&self) -> Option<usize> {
        let live_view_max = self
            .pb_servers
            .iter()
            .filter(|s| !s.down && !s.daemon.is_compromised())
            .map(|s| s.engine.view())
            .max()?;
        self.pb_servers.iter().position(|s| {
            !s.down
                && !s.daemon.is_compromised()
                && s.engine.view() == live_view_max
                && s.engine.is_primary()
        })
    }

    /// Whether some PB server is serving (see
    /// [`Stack::pb_primary_index`]). Vacuously true for deployments
    /// without a PB tier (S0).
    pub fn pb_primary_serving(&self) -> bool {
        if self.pb_servers.is_empty() {
            return true;
        }
        self.pb_primary_index().is_some()
    }

    /// Availability counters accumulated so far (see [`Availability`]).
    pub fn availability(&self) -> Availability {
        self.avail
    }

    /// Sources the proxy tier has flagged.
    pub fn suspects(&self) -> &[String] {
        &self.suspects
    }

    /// Transport counters (including the malformed-delivery total).
    pub fn net_stats(&self) -> NetStats {
        self.net.stats()
    }

    /// Malformed deliveries recorded at `addr` — the per-endpoint view of
    /// what used to be silently swallowed by the decode chain.
    pub fn malformed_at(&self, addr: Addr) -> u64 {
        self.malformed.get(&addr).copied().unwrap_or(0)
    }

    /// Malformed deliveries across all endpoints.
    pub fn malformed_total(&self) -> u64 {
        self.malformed.values().sum()
    }

    fn record_malformed(&mut self, at: Addr) {
        *self.malformed.entry(at).or_insert(0) += 1;
        self.net.note_malformed();
    }

    /// The key space in use.
    pub fn key_space(&self) -> KeySpace {
        self.server_rr.space()
    }

    /// Registers a client endpoint.
    pub fn add_client(&mut self, name: &str) -> Addr {
        let addr = self.net.register(name);
        self.clients.insert(name.to_owned(), addr);
        addr
    }

    /// Addresses of the proxy tier (published by the NS).
    pub fn proxy_addrs(&self) -> Vec<Addr> {
        self.proxy_targets.clone()
    }

    /// Addresses of the server tier. Published only for 1-tier classes; in
    /// S2 clients know server *indices*, not addresses — but even a leaked
    /// address is useless because servers drop non-proxy traffic.
    pub fn server_addrs(&self) -> Vec<Addr> {
        self.server_targets.clone()
    }

    /// Oracle access for the evaluation harness: the server group's current
    /// randomization key(s).
    pub fn server_keys(&self) -> Vec<fortress_obf::keys::RandomizationKey> {
        match self.cfg.class {
            SystemClass::S0Smr => self.smr_servers.iter().map(|s| s.daemon.key()).collect(),
            _ => self.pb_servers.iter().map(|s| s.daemon.key()).collect(),
        }
    }

    /// Oracle access: proxy keys.
    pub fn proxy_keys(&self) -> Vec<fortress_obf::keys::RandomizationKey> {
        self.proxies.iter().map(|p| p.daemon.key()).collect()
    }

    /// Whether proxy `i`'s process is attacker-controlled.
    pub fn proxy_is_compromised(&self, i: usize) -> bool {
        self.proxies[i].daemon.is_compromised()
    }

    /// Total restarts (≈ crashes) across the server tier.
    pub fn server_restarts(&self) -> u64 {
        match self.cfg.class {
            SystemClass::S0Smr => self.smr_servers.iter().map(|s| s.daemon.restarts()).sum(),
            _ => self.pb_servers.iter().map(|s| s.daemon.restarts()).sum(),
        }
    }

    /// Sends a client request from `client` toward the system's public
    /// tier: proxies for S2, servers for S0/S1.
    ///
    /// # Panics
    ///
    /// Panics if `client` was not registered with [`Stack::add_client`].
    pub fn submit(&mut self, client: &str, req: &ClientRequest) {
        let from = *self.clients.get(client).expect("client not registered");
        let buf = req.encode_reusing(std::mem::take(&mut self.wire_buf));
        let payload = Bytes::copy_from_slice(&buf);
        self.wire_buf = buf;
        let targets = match self.cfg.class {
            SystemClass::S2Fortress => &self.proxy_targets,
            _ => &self.server_targets,
        };
        self.net.broadcast(from, targets, payload);
    }

    /// Sends raw bytes from `client` to an arbitrary address (the attacker
    /// probing a proxy process, e.g. with [`ExploitPayload`](fortress_obf::scheme::ExploitPayload) bytes).
    ///
    /// # Panics
    ///
    /// Panics if `client` was not registered.
    pub fn send_raw(&mut self, client: &str, to: Addr, bytes: Vec<u8>) {
        let from = *self.clients.get(client).expect("client not registered");
        self.net.send(from, to, Bytes::from(bytes));
    }

    /// Sends the same raw bytes from `client` to every target, encoding
    /// into a shared buffer once — the broadcast-probe hot path (an
    /// attacker hammering the whole proxy tier with one guess).
    ///
    /// # Panics
    ///
    /// Panics if `client` was not registered.
    pub fn broadcast_raw(&mut self, client: &str, to: &[Addr], bytes: Vec<u8>) {
        let from = *self.clients.get(client).expect("client not registered");
        self.net.broadcast(from, to, Bytes::from(bytes));
    }

    /// Like [`Stack::broadcast_raw`], but borrowing the frame: short
    /// frames are copied inline into the shared payload with no heap
    /// allocation, so the probe hot loop can reuse one encode buffer.
    ///
    /// # Panics
    ///
    /// Panics if `client` was not registered.
    pub fn broadcast_frame(&mut self, client: &str, to: &[Addr], frame: &[u8]) {
        let from = *self.clients.get(client).expect("client not registered");
        self.net.broadcast(from, to, Bytes::copy_from_slice(frame));
    }

    /// Like [`Stack::send_raw`], but borrowing the frame (see
    /// [`Stack::broadcast_frame`]).
    ///
    /// # Panics
    ///
    /// Panics if `client` was not registered.
    pub fn send_frame(&mut self, client: &str, to: Addr, frame: &[u8]) {
        let from = *self.clients.get(client).expect("client not registered");
        self.net.send(from, to, Bytes::copy_from_slice(frame));
    }

    /// Launch-pad path: submit a request to the servers *from* proxy `i`.
    ///
    /// # Panics
    ///
    /// Panics unless proxy `i` is compromised — only an attacker holding
    /// the proxy can do this, and holding it is exactly what compromise
    /// means.
    pub fn submit_via_proxy(&mut self, proxy_index: usize, req: &ClientRequest) {
        assert!(
            self.proxies[proxy_index].daemon.is_compromised(),
            "launch-pad requires a compromised proxy"
        );
        let from = self.proxies[proxy_index].addr;
        let buf = req.encode_reusing(std::mem::take(&mut self.wire_buf));
        let payload = Bytes::copy_from_slice(&buf);
        self.wire_buf = buf;
        self.net.broadcast(from, &self.server_targets, payload);
    }

    /// Drains network events pending at a client endpoint.
    pub fn drain_client(&mut self, client: &str) -> Vec<NetEvent> {
        let mut out = Vec::new();
        self.drain_client_into(client, &mut out);
        out
    }

    /// [`Stack::drain_client`] appending into a caller-reused buffer —
    /// what a drive loop polling many clients every iteration uses to
    /// stay off the allocator.
    ///
    /// # Panics
    ///
    /// Panics if `client` was not registered.
    pub fn drain_client_into(&mut self, client: &str, out: &mut Vec<NetEvent>) {
        let addr = *self.clients.get(client).expect("client not registered");
        self.net.drain_into(addr, out);
    }

    /// Drains events at a compromised proxy (the attacker reads its inbox).
    ///
    /// # Panics
    ///
    /// Panics unless the proxy is compromised.
    pub fn drain_proxy_inbox(&mut self, proxy_index: usize) -> Vec<NetEvent> {
        assert!(
            self.proxies[proxy_index].daemon.is_compromised(),
            "only a compromised proxy leaks its inbox"
        );
        let addr = self.proxies[proxy_index].addr;
        let mut out = Vec::new();
        self.net.drain_into(addr, &mut out);
        out
    }

    /// Drains a client endpoint, returning only the count of closure
    /// events. This is the attacker's per-step observation: it drains
    /// through the stack's reused scratch buffer instead of returning a
    /// fresh `Vec` per call like [`Stack::drain_client`].
    ///
    /// # Panics
    ///
    /// Panics if `client` was not registered.
    pub fn drain_client_closures(&mut self, client: &str) -> u64 {
        let addr = *self.clients.get(client).expect("client not registered");
        self.drain_closures_at(addr)
    }

    /// Closure-count variant of [`Stack::drain_proxy_inbox`] (see
    /// [`Stack::drain_client_closures`]).
    ///
    /// # Panics
    ///
    /// Panics unless the proxy is compromised.
    pub fn drain_proxy_closures(&mut self, proxy_index: usize) -> u64 {
        assert!(
            self.proxies[proxy_index].daemon.is_compromised(),
            "only a compromised proxy leaks its inbox"
        );
        let addr = self.proxies[proxy_index].addr;
        self.drain_closures_at(addr)
    }

    fn drain_closures_at(&mut self, addr: Addr) -> u64 {
        self.net.drain_closure_count(addr)
    }

    /// Delivers all in-flight traffic, running node logic until quiescence.
    pub fn pump(&mut self) {
        loop {
            let worked = self.process_all_inboxes();
            let advanced = self.net.step();
            if !worked && !advanced {
                break;
            }
        }
    }

    /// Batch-drains every node inbox through one reused scratch buffer
    /// and dispatches each event through the [`WireMsg`] envelope.
    fn process_all_inboxes(&mut self) -> bool {
        let mut worked = false;
        // Take the scratch buffer so handlers may borrow `self` freely;
        // its capacity is given back (and kept) at the end.
        let mut scratch = std::mem::take(&mut self.scratch);
        for i in 0..self.proxies.len() {
            if !self.net.has_pending(self.proxies[i].addr) {
                continue;
            }
            scratch.clear();
            self.net.drain_into(self.proxies[i].addr, &mut scratch);
            for ev in scratch.drain(..) {
                worked = true;
                self.handle_proxy_event(i, ev);
            }
        }
        for i in 0..self.pb_servers.len() {
            if !self.net.has_pending(self.pb_servers[i].addr) {
                continue;
            }
            scratch.clear();
            self.net.drain_into(self.pb_servers[i].addr, &mut scratch);
            if self.pb_servers[i].down {
                // A downed machine consumes nothing; events already
                // dead-letter at the transport, this only covers a race
                // with take_down.
                scratch.clear();
                continue;
            }
            for ev in scratch.drain(..) {
                worked = true;
                self.handle_pb_event(i, ev);
            }
        }
        for i in 0..self.smr_servers.len() {
            if !self.net.has_pending(self.smr_servers[i].addr) {
                continue;
            }
            scratch.clear();
            self.net.drain_into(self.smr_servers[i].addr, &mut scratch);
            if self.smr_servers[i].down || self.smr_servers[i].catching_up {
                // A downed machine consumes nothing, and a rejoiner
                // replaying its state transfer is not yet listening;
                // events already dead-letter at the transport, this only
                // covers a race with take_down / bring_up.
                scratch.clear();
                continue;
            }
            for ev in scratch.drain(..) {
                worked = true;
                self.handle_smr_event(i, ev);
            }
        }
        scratch.clear();
        self.scratch = scratch;
        worked
    }

    fn server_index_by_addr(&self, addr: Addr) -> Option<usize> {
        self.pb_servers
            .iter()
            .position(|s| s.addr == addr)
            .or_else(|| self.smr_servers.iter().position(|s| s.addr == addr))
    }

    fn proxy_index_by_addr(&self, addr: Addr) -> Option<usize> {
        self.proxies.iter().position(|p| p.addr == addr)
    }

    /// Proxy endpoint dispatch — one [`WireMsg`] decode, one `match`.
    /// Proxies handle client requests, server replies and raw exploit
    /// probes; every other frame (well-formed but not proxy-facing, or
    /// undecodable) is recorded as malformed at this endpoint.
    fn handle_proxy_event(&mut self, i: usize, ev: NetEvent) {
        match ev {
            NetEvent::ConnectionClosed { peer, .. } => {
                if let Some(server_index) = self.server_index_by_addr(peer) {
                    let outs = self.proxies[i]
                        .engine
                        .on_input(ProxyInput::ServerClosed { server_index });
                    self.dispatch_proxy_outputs(i, outs);
                }
            }
            NetEvent::Message { payload, .. } => {
                if self.proxies[i].daemon.is_compromised() {
                    // The attacker holds this proxy; it serves no one.
                    return;
                }
                match WireMsg::decode(&payload) {
                    WireMsg::Exploit(exploit) => {
                        let addr = self.proxies[i].addr;
                        match self.proxies[i].daemon.deliver_exploit(exploit) {
                            ProbeOutcome::Crashed => {
                                // Peers see the closure; the forking daemon
                                // has already brought up a fresh same-key
                                // child.
                                self.net.crash(addr);
                                self.net.restart(addr);
                            }
                            ProbeOutcome::Compromised
                            | ProbeOutcome::Benign
                            | ProbeOutcome::Unserved => {}
                        }
                    }
                    WireMsg::ClientRequest(req) => {
                        self.proxies[i].daemon.deliver_benign();
                        // Borrow-through: the suspicion gate and the
                        // forwarding bookkeeping run on the borrowed view,
                        // and the verbatim wire bytes are re-broadcast
                        // (the canonical codec makes that byte-identical
                        // to decode-then-re-encode). No owned request, no
                        // output vector, no second encode.
                        if self.proxies[i].engine.should_forward(req.client, req.seq) {
                            let from = self.proxies[i].addr;
                            self.net
                                .broadcast(from, &self.server_targets, payload.clone());
                        }
                    }
                    WireMsg::SignedReply(reply) => {
                        self.proxies[i].daemon.deliver_benign();
                        let server_index = reply.server_index as usize;
                        let reply = reply.to_owned();
                        let outs = self.proxies[i].engine.on_input(ProxyInput::ServerReply {
                            server_index,
                            reply,
                        });
                        self.dispatch_proxy_outputs(i, outs);
                    }
                    WireMsg::ProxyResponse(_) | WireMsg::Pb(_) | WireMsg::Smr(_) => {
                        // Decodable, but not part of the proxy's interface:
                        // observably rejected rather than silently eaten.
                        self.record_malformed(self.proxies[i].addr);
                    }
                    WireMsg::Malformed(_) => {
                        self.record_malformed(self.proxies[i].addr);
                    }
                }
            }
        }
    }

    fn dispatch_proxy_outputs(&mut self, i: usize, outs: Vec<ProxyOutput>) {
        let from = self.proxies[i].addr;
        for out in outs {
            match out {
                ProxyOutput::ForwardToServers(req) => {
                    // Encode once into the cycled scratch; the transport
                    // shares the payload across the cached server targets.
                    let buf = req.encode_reusing(std::mem::take(&mut self.wire_buf));
                    let payload = Bytes::copy_from_slice(&buf);
                    self.wire_buf = buf;
                    self.net.broadcast(from, &self.server_targets, payload);
                }
                ProxyOutput::ToClient { client, response } => {
                    if let Some(addr) = self.clients.get(&client) {
                        let buf = response.encode_reusing(
                            std::mem::take(&mut self.wire_buf),
                            &mut self.reply_buf,
                        );
                        let payload = Bytes::copy_from_slice(&buf);
                        self.wire_buf = buf;
                        self.net.send(from, *addr, payload);
                    }
                }
                ProxyOutput::Suspect { source } => {
                    if !self.suspects.contains(&source) {
                        self.suspects.push(source);
                    }
                }
            }
        }
    }

    /// PB server dispatch. The exploit-probe hot path never copies the
    /// request: the borrowed [`WireMsg::ClientRequest`] view is sniffed
    /// in place and only benign requests are materialized for the engine.
    fn handle_pb_event(&mut self, i: usize, ev: NetEvent) {
        let NetEvent::Message { from, payload, .. } = ev else {
            return;
        };
        // Access control (§3): in S2, servers accept only proxy traffic.
        if self.cfg.class == SystemClass::S2Fortress
            && self.proxy_index_by_addr(from).is_none()
            && self.server_index_by_addr(from).is_none()
        {
            return;
        }
        if self.pb_servers[i].daemon.is_compromised() {
            return;
        }
        match WireMsg::decode(&payload) {
            WireMsg::ClientRequest(req) => {
                if let Some(exploit) = req.exploit() {
                    let addr = self.pb_servers[i].addr;
                    if self.pb_servers[i].daemon.deliver_exploit(exploit) == ProbeOutcome::Crashed
                    {
                        self.net.crash(addr);
                        self.net.restart(addr);
                    }
                    return;
                }
                self.pb_servers[i].daemon.deliver_benign();
                let outs = self.pb_servers[i].engine.on_input(PbInput::Request {
                    seq: req.seq,
                    client: req.client.to_owned(),
                    op: req.op.to_vec(),
                });
                self.dispatch_pb_outputs(i, outs);
            }
            WireMsg::Pb(msg) => {
                // Replica traffic is accepted only from group members.
                if let Some(sender) = self.server_index_by_addr(from) {
                    let outs = self.pb_servers[i]
                        .engine
                        .on_input(PbInput::ReplicaMsg { from: sender, msg });
                    self.dispatch_pb_outputs(i, outs);
                }
            }
            WireMsg::SignedReply(_) | WireMsg::ProxyResponse(_) | WireMsg::Smr(_)
            | WireMsg::Exploit(_) => {
                // Not part of a PB server's interface (raw exploits must
                // arrive wrapped in a request op to reach the vulnerable
                // parser): observably rejected.
                self.record_malformed(self.pb_servers[i].addr);
            }
            WireMsg::Malformed(_) => {
                self.record_malformed(self.pb_servers[i].addr);
            }
        }
    }

    fn dispatch_pb_outputs(&mut self, i: usize, outs: Vec<PbOutput>) {
        let from = self.pb_servers[i].addr;
        for out in outs {
            match out {
                PbOutput::Broadcast(msg) => {
                    // `broadcast` skips `from` itself, so the cached full
                    // group list is the right target slice. Heartbeats —
                    // the steady-state per-step frame — fit the payload
                    // inline cap, so this path is allocation-free.
                    let buf = msg.encode_reusing(std::mem::take(&mut self.wire_buf));
                    let payload = Bytes::copy_from_slice(&buf);
                    self.wire_buf = buf;
                    self.net.broadcast(from, &self.server_targets, payload);
                }
                PbOutput::Reply(reply) => {
                    let buf = reply.encode_reusing(std::mem::take(&mut self.wire_buf));
                    let payload = Bytes::copy_from_slice(&buf);
                    self.wire_buf = buf;
                    match self.cfg.class {
                        SystemClass::S2Fortress => {
                            // "returns the signed response to every proxy"
                            self.net.broadcast(from, &self.proxy_targets, payload);
                        }
                        _ => {
                            if let Some(addr) = self.clients.get(&reply.reply.client) {
                                self.net.send(from, *addr, payload);
                            }
                        }
                    }
                }
            }
        }
    }

    /// SMR replica dispatch — same single-match shape as the PB path.
    fn handle_smr_event(&mut self, i: usize, ev: NetEvent) {
        let NetEvent::Message { from, payload, .. } = ev else {
            return;
        };
        if self.smr_servers[i].daemon.is_compromised() {
            return;
        }
        match WireMsg::decode(&payload) {
            WireMsg::ClientRequest(req) => {
                if let Some(exploit) = req.exploit() {
                    let addr = self.smr_servers[i].addr;
                    if self.smr_servers[i].daemon.deliver_exploit(exploit)
                        == ProbeOutcome::Crashed
                    {
                        self.net.crash(addr);
                        self.net.restart(addr);
                    }
                    return;
                }
                self.smr_servers[i].daemon.deliver_benign();
                let outs = self.smr_servers[i].engine.on_input(SmrInput::Request {
                    seq: req.seq,
                    client: req.client.to_owned(),
                    op: req.op.to_vec(),
                });
                self.dispatch_smr_outputs(i, outs);
            }
            WireMsg::Smr(msg) => {
                if let Some(sender) = self.server_index_by_addr(from) {
                    let outs = self.smr_servers[i]
                        .engine
                        .on_input(SmrInput::ReplicaMsg { from: sender, msg });
                    self.dispatch_smr_outputs(i, outs);
                }
            }
            WireMsg::SignedReply(_) | WireMsg::ProxyResponse(_) | WireMsg::Pb(_)
            | WireMsg::Exploit(_) => {
                self.record_malformed(self.smr_servers[i].addr);
            }
            WireMsg::Malformed(_) => {
                self.record_malformed(self.smr_servers[i].addr);
            }
        }
    }

    fn dispatch_smr_outputs(&mut self, i: usize, outs: Vec<SmrOutput>) {
        let from = self.smr_servers[i].addr;
        for out in outs {
            match out {
                SmrOutput::Broadcast(msg) => {
                    let buf = msg.encode_reusing(std::mem::take(&mut self.wire_buf));
                    let payload = Bytes::copy_from_slice(&buf);
                    self.wire_buf = buf;
                    self.net.broadcast(from, &self.server_targets, payload);
                }
                SmrOutput::ToReplica(to, msg) => {
                    let addr = self.smr_servers[to].addr;
                    let buf = msg.encode_reusing(std::mem::take(&mut self.wire_buf));
                    let payload = Bytes::copy_from_slice(&buf);
                    self.wire_buf = buf;
                    self.net.send(from, addr, payload);
                }
                SmrOutput::Reply(reply) => {
                    if let Some(addr) = self.clients.get(&reply.reply.client) {
                        let buf = reply.encode_reusing(std::mem::take(&mut self.wire_buf));
                        let payload = Bytes::copy_from_slice(&buf);
                        self.wire_buf = buf;
                        self.net.send(from, *addr, payload);
                    }
                }
            }
        }
    }

    /// The compromise condition of the assembled class, evaluated *now*
    /// (call before [`Stack::end_step`], which may revoke footholds).
    pub fn compromise_state(&self) -> CompromiseState {
        match self.cfg.class {
            SystemClass::S0Smr => {
                let count = self
                    .smr_servers
                    .iter()
                    .filter(|s| s.daemon.is_compromised())
                    .count();
                if count >= 2 {
                    CompromiseState::ServerCompromised { count }
                } else {
                    CompromiseState::Intact
                }
            }
            SystemClass::S1Pb => {
                let count = self
                    .pb_servers
                    .iter()
                    .filter(|s| s.daemon.is_compromised())
                    .count();
                if count >= 1 {
                    CompromiseState::ServerCompromised { count }
                } else {
                    CompromiseState::Intact
                }
            }
            SystemClass::S2Fortress => {
                let servers = self
                    .pb_servers
                    .iter()
                    .filter(|s| s.daemon.is_compromised())
                    .count();
                if servers >= 1 {
                    return CompromiseState::ServerCompromised { count: servers };
                }
                if !self.proxies.is_empty()
                    && self.proxies.iter().all(|p| p.daemon.is_compromised())
                {
                    return CompromiseState::AllProxiesCompromised;
                }
                CompromiseState::Intact
            }
        }
    }

    /// Whether the compromise condition currently holds.
    pub fn is_compromised(&self) -> bool {
        self.compromise_state() != CompromiseState::Intact
    }

    /// Per-step availability accounting (see [`Availability`]). Pure
    /// observation: consumes no randomness and sends no traffic, so the
    /// counters are free for trials that never read them and existing
    /// seeded results are bit-identical with them enabled.
    fn track_availability(&mut self) {
        self.avail.steps += 1;
        if self.pb_servers.is_empty() {
            if self.smr_repair {
                self.track_smr_availability();
            }
            return;
        }
        if self.pb_primary_serving() {
            if let Some(lost) = self.primary_lost_at.take() {
                self.avail.failover_latency_total += self.step - lost;
                self.avail.recoveries += 1;
            }
        } else {
            self.avail.down_steps += 1;
            if self.primary_lost_at.is_none() {
                self.primary_lost_at = Some(self.step);
            }
        }
        let max_view = self
            .pb_servers
            .iter()
            .map(|s| s.engine.view())
            .max()
            .unwrap_or(0);
        if max_view > self.views_seen {
            self.avail.failovers += max_view - self.views_seen;
            self.views_seen = max_view;
        }
        let dead_lettered = self.net.stats().dead_lettered;
        if self.any_server_down() {
            self.avail.lost_requests += dead_lettered - self.dead_lettered_seen;
        }
        self.dead_lettered_seen = dead_lettered;
    }

    /// The S0 half of [`Stack::track_availability`], armed only under
    /// repair accounting (see [`Availability`]): the tier *serves* when
    /// a `2f+1` quorum of replicas is live (up, transfer paid,
    /// uncompromised) and the leader of the highest live installed view
    /// is itself live and in normal status. Down windows, view-change
    /// latency and the repair counters all derive from that predicate
    /// with zero RNG consumption.
    fn track_smr_availability(&mut self) {
        fn live(s: &SmrNode) -> bool {
            !s.down && !s.catching_up && !s.daemon.is_compromised()
        }
        let n = self.smr_servers.len();
        if n == 0 {
            return;
        }
        let quorum = 2 * ((n - 1) / 3) + 1;
        let live_count = self.smr_servers.iter().filter(|s| live(s)).count();
        let max_view = self
            .smr_servers
            .iter()
            .filter(|s| live(s))
            .map(|s| s.engine.view())
            .max();
        let serving = live_count >= quorum
            && max_view.is_some_and(|v| {
                let leader = &self.smr_servers[(v % n as u64) as usize];
                live(leader) && leader.engine.is_normal() && leader.engine.view() == v
            });
        if serving {
            if let Some(lost) = self.primary_lost_at.take() {
                self.avail.failover_latency_total += self.step - lost;
                self.avail.recoveries += 1;
            }
        } else {
            self.avail.down_steps += 1;
            if self.primary_lost_at.is_none() {
                self.primary_lost_at = Some(self.step);
            }
        }
        if let Some(v) = max_view {
            if v > self.views_seen {
                self.avail.view_changes += v - self.views_seen;
                self.views_seen = v;
            }
        }
        self.avail.transfer_units = self.transfer.units_paid();
        self.avail.peak_transfer_queue = self
            .avail
            .peak_transfer_queue
            .max(self.transfer.peak_queue() as u64);
        let dead_lettered = self.net.stats().dead_lettered;
        if self.any_server_down() {
            self.avail.lost_requests += dead_lettered - self.dead_lettered_seen;
        }
        self.dead_lettered_seen = dead_lettered;
    }

    /// Advances every engine's logical clock to the next unit time-step
    /// and dispatches whatever the timers produce (heartbeats, failovers,
    /// view changes).
    fn tick_engines(&mut self) {
        let now = self.step + 1;
        for i in 0..self.proxies.len() {
            let outs = self.proxies[i].engine.on_input(ProxyInput::Tick { now });
            self.dispatch_proxy_outputs(i, outs);
        }
        for i in 0..self.pb_servers.len() {
            if self.pb_servers[i].daemon.is_compromised() || self.pb_servers[i].down {
                continue;
            }
            let outs = self.pb_servers[i].engine.on_input(PbInput::Tick { now });
            self.dispatch_pb_outputs(i, outs);
        }
        for i in 0..self.smr_servers.len() {
            if self.smr_servers[i].daemon.is_compromised()
                || self.smr_servers[i].down
                || self.smr_servers[i].catching_up
            {
                continue;
            }
            let outs = self.smr_servers[i].engine.on_input(SmrInput::Tick { now });
            self.dispatch_smr_outputs(i, outs);
        }
        self.pump();
    }

    /// Ends the current unit time-step: applies end-of-step maintenance
    /// (PO: fresh keys, clearing footholds; SO: recovery with same keys)
    /// and advances the step counter. Returns the compromise state as it
    /// stood **before** maintenance — the quantity the paper's EL counts.
    pub fn end_step(&mut self) -> CompromiseState {
        if self.smr_repair {
            // Spend this step's state-transfer bandwidth; replicas whose
            // divergence is fully paid rejoin the quorum before the tick
            // so their first live step is this one.
            for id in self.transfer.step() {
                self.smr_servers[id].catching_up = false;
            }
        }
        self.tick_engines();
        let state = self.compromise_state();
        self.track_availability();
        let step = self.step;
        // Plan the maintenance decision first (RNG draws identical to
        // `Rerandomizer::end_of_step`), then apply it to the daemons in
        // place — they stay embedded in their nodes, with no per-step
        // clone-out/copy-back and no allocation.
        match self.cfg.class {
            SystemClass::S0Smr => {
                let n = self.smr_servers.len();
                if self.server_rr.plan_end_of_step(step, n, &mut self.rng) {
                    let keys = self.server_rr.planned_keys();
                    for (node, key) in self.smr_servers.iter_mut().zip(keys) {
                        node.daemon.rerandomize(*key);
                    }
                } else {
                    for node in &mut self.smr_servers {
                        Rerandomizer::recover(&mut node.daemon);
                    }
                }
            }
            _ => {
                let n = self.pb_servers.len();
                if self.server_rr.plan_end_of_step(step, n, &mut self.rng) {
                    let keys = self.server_rr.planned_keys();
                    for (node, key) in self.pb_servers.iter_mut().zip(keys) {
                        node.daemon.rerandomize(*key);
                    }
                } else {
                    for node in &mut self.pb_servers {
                        Rerandomizer::recover(&mut node.daemon);
                    }
                }
            }
        }
        if let Some(rr) = &mut self.proxy_rr {
            if rr.plan_end_of_step(step, self.proxies.len(), &mut self.rng) {
                for (node, key) in self.proxies.iter_mut().zip(rr.planned_keys()) {
                    node.daemon.rerandomize(*key);
                }
            } else {
                for node in &mut self.proxies {
                    Rerandomizer::recover(&mut node.daemon);
                }
            }
        }
        self.step += 1;
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{AcceptMode, DirectClient, FortressClient};
    use crate::messages::ProxyResponse;
    use fortress_obf::keys::RandomizationKey;
    use fortress_replication::message::SignedReply;

    fn exploit_request(seq: u64, client: &str, scheme: Scheme, guess: RandomizationKey) -> ClientRequest {
        ClientRequest {
            seq,
            client: client.into(),
            op: scheme.craft_exploit(guess).to_bytes(),
        }
    }

    /// Drives a stack through an adversarial workload — in- and
    /// out-of-space exploit guesses, crashes, restarts, re-randomization,
    /// suspicion flagging — appending every observable (response bytes,
    /// compromise state, availability, suspects) to `tag`.
    fn drive_fingerprint(stack: &mut Stack<SimNet>, tag: &mut Vec<u8>) {
        stack.add_client("mallory");
        let scheme = stack.config().scheme;
        for step in 0..80u64 {
            let req =
                exploit_request(step + 1, "mallory", scheme, RandomizationKey(step % 96));
            stack.submit("mallory", &req);
            stack.pump();
            for ev in stack.drain_client("mallory") {
                if let Some(p) = ev.payload() {
                    tag.extend_from_slice(p);
                }
                tag.push(0xEE);
            }
            let state = stack.end_step();
            tag.extend_from_slice(
                format!("{state:?}|{:?}|{:?}", stack.availability(), stack.suspects())
                    .as_bytes(),
            );
        }
    }

    #[test]
    fn reset_replays_fresh_build_bit_for_bit() {
        for class in [SystemClass::S2Fortress, SystemClass::S1Pb, SystemClass::S0Smr] {
            let cfg_a = StackConfig {
                class,
                seed: 41,
                entropy_bits: 6,
                ..StackConfig::default()
            };
            let cfg_b = StackConfig { seed: 1234, ..cfg_a };
            assert!(cfg_a.same_shape(&cfg_b));

            let mut fresh = Stack::new(cfg_b).unwrap();
            let mut fp_fresh = Vec::new();
            drive_fingerprint(&mut fresh, &mut fp_fresh);

            let mut reused = Stack::new(cfg_a).unwrap();
            let mut dirt = Vec::new();
            drive_fingerprint(&mut reused, &mut dirt); // dirty every component
            reused.reset(1234);
            let mut fp_reused = Vec::new();
            drive_fingerprint(&mut reused, &mut fp_reused);

            assert_eq!(
                fp_fresh, fp_reused,
                "reset diverged from a fresh build for {class:?}"
            );
        }
    }

    #[test]
    fn s2_round_trip_doubly_signed() {
        let mut stack = Stack::new(StackConfig::default()).unwrap();
        stack.add_client("alice");
        let mut client =
            FortressClient::new("alice", stack.authority(), stack.ns().clone());
        let req = client.request(b"PUT color teal");
        stack.submit("alice", &req);
        stack.pump();
        let events = stack.drain_client("alice");
        assert!(!events.is_empty(), "no responses reached the client");
        let mut accepted = None;
        for ev in events {
            if let Some(payload) = ev.payload() {
                let resp = ProxyResponse::decode(payload).unwrap();
                if let Some(got) = client.on_response(&resp).unwrap() {
                    accepted = Some(got);
                }
            }
        }
        let (seq, body) = accepted.expect("a doubly-signed response accepted");
        assert_eq!(seq, 1);
        assert_eq!(body, b"OK");
    }

    #[test]
    fn s1_round_trip_direct() {
        let mut stack = Stack::new(StackConfig {
            class: SystemClass::S1Pb,
            ..StackConfig::default()
        })
        .unwrap();
        stack.add_client("alice");
        let servers = stack.ns().servers().to_vec();
        let mut client = DirectClient::new(
            "alice",
            stack.authority(),
            servers,
            AcceptMode::AnyAuthentic,
        );
        let req = client.request(b"PUT k v");
        stack.submit("alice", &req);
        stack.pump();
        let mut accepted = None;
        for ev in stack.drain_client("alice") {
            if let Some(payload) = ev.payload() {
                let reply = SignedReply::decode(payload).unwrap();
                if let Some(got) = client.on_reply(&reply) {
                    accepted = Some(got);
                }
            }
        }
        assert_eq!(accepted, Some((1, b"OK".to_vec())));
    }

    #[test]
    fn s0_round_trip_needs_two_votes() {
        let mut stack = Stack::new(StackConfig {
            class: SystemClass::S0Smr,
            ..StackConfig::default()
        })
        .unwrap();
        stack.add_client("alice");
        let servers = stack.ns().servers().to_vec();
        let mut client = DirectClient::new(
            "alice",
            stack.authority(),
            servers,
            AcceptMode::MatchingVotes { f: 1 },
        );
        let req = client.request(b"PUT k v");
        stack.submit("alice", &req);
        stack.pump();
        let mut accepted = None;
        let mut votes = 0;
        for ev in stack.drain_client("alice") {
            if let Some(payload) = ev.payload() {
                let reply = SignedReply::decode(payload).unwrap();
                votes += 1;
                if let Some(got) = client.on_reply(&reply) {
                    accepted = Some(got);
                }
            }
        }
        assert!(votes >= 3, "expected a quorum of replies, got {votes}");
        assert_eq!(accepted, Some((1, b"OK".to_vec())));
    }

    #[test]
    fn wrong_key_probe_crashes_all_shared_key_servers_once() {
        let mut stack = Stack::new(StackConfig {
            class: SystemClass::S1Pb,
            seed: 9,
            ..StackConfig::default()
        })
        .unwrap();
        stack.add_client("mallory");
        let true_key = stack.server_keys()[0];
        let wrong = RandomizationKey(true_key.0 ^ 1);
        let req = exploit_request(1, "mallory", Scheme::Aslr, wrong);
        stack.submit("mallory", &req);
        stack.pump();
        assert_eq!(stack.server_restarts(), 3, "all three crashed and restarted");
        assert!(!stack.is_compromised());
        // The attacker observed the closures (its connections died).
        let closures = stack
            .drain_client("mallory")
            .iter()
            .filter(|e| e.is_closure())
            .count();
        assert!(closures >= 1, "attacker must observe the crash");
    }

    #[test]
    fn right_key_probe_compromises_s1() {
        let mut stack = Stack::new(StackConfig {
            class: SystemClass::S1Pb,
            seed: 9,
            ..StackConfig::default()
        })
        .unwrap();
        stack.add_client("mallory");
        let true_key = stack.server_keys()[0];
        let req = exploit_request(1, "mallory", Scheme::Aslr, true_key);
        stack.submit("mallory", &req);
        stack.pump();
        assert!(stack.is_compromised());
        assert!(matches!(
            stack.compromise_state(),
            CompromiseState::ServerCompromised { count: 3 }
        ));
    }

    #[test]
    fn s0_single_key_hit_is_not_fatal() {
        let mut stack = Stack::new(StackConfig {
            class: SystemClass::S0Smr,
            seed: 3,
            ..StackConfig::default()
        })
        .unwrap();
        stack.add_client("mallory");
        let keys = stack.server_keys();
        // Hit exactly replica 2's key: distinct keys mean only one falls.
        let req = exploit_request(1, "mallory", Scheme::Aslr, keys[2]);
        stack.submit("mallory", &req);
        stack.pump();
        assert!(!stack.is_compromised(), "1 of 4 is within tolerance");
        // A second distinct key falls: now it is fatal.
        let req = exploit_request(2, "mallory", Scheme::Aslr, keys[0]);
        stack.submit("mallory", &req);
        stack.pump();
        assert!(stack.is_compromised());
    }

    #[test]
    fn po_rerandomization_revokes_compromise_so_does_not() {
        for (policy, expect_clean) in [
            (ObfuscationPolicy::proactive_unit(), true),
            (ObfuscationPolicy::StartupOnly, false),
        ] {
            let mut stack = Stack::new(StackConfig {
                class: SystemClass::S1Pb,
                policy,
                seed: 5,
                ..StackConfig::default()
            })
            .unwrap();
            stack.add_client("mallory");
            let key = stack.server_keys()[0];
            let req = exploit_request(1, "mallory", Scheme::Aslr, key);
            stack.submit("mallory", &req);
            stack.pump();
            let state = stack.end_step();
            assert!(matches!(state, CompromiseState::ServerCompromised { .. }));
            // After maintenance: PO drew fresh keys and evicted the
            // attacker; SO kept the keys, so control persists.
            let keys_changed = stack.server_keys()[0] != key;
            assert_eq!(keys_changed, expect_clean, "policy {policy:?}");
            assert_eq!(
                stack.is_compromised(),
                !expect_clean,
                "PO evicts, SO cannot (policy {policy:?})"
            );
        }
    }

    #[test]
    fn s2_servers_reject_direct_client_traffic() {
        let mut stack = Stack::new(StackConfig {
            seed: 11,
            ..StackConfig::default()
        })
        .unwrap();
        stack.add_client("mallory");
        let true_key = stack.server_keys()[0];
        // The attacker somehow knows a server address AND the right key —
        // but servers drop non-proxy traffic, so nothing happens.
        let server = stack.server_addrs()[0];
        let req = exploit_request(1, "mallory", Scheme::Aslr, true_key);
        stack.send_raw("mallory", server, req.encode());
        stack.pump();
        assert!(!stack.is_compromised(), "direct server access must be blocked");
    }

    #[test]
    fn s2_proxy_probe_and_launch_pad() {
        let mut stack = Stack::new(StackConfig {
            seed: 13,
            ..StackConfig::default()
        })
        .unwrap();
        stack.add_client("mallory");
        // Compromise proxy 0 with its true key (oracle-assisted for the test).
        let pkey = stack.proxy_keys()[0];
        let proxy_addr = stack.proxy_addrs()[0];
        stack.send_raw("mallory", proxy_addr, Scheme::Aslr.craft_exploit(pkey).to_bytes());
        stack.pump();
        assert!(stack.proxy_is_compromised(0));
        assert!(!stack.is_compromised(), "one proxy is not system compromise");
        // Launch pad: full-rate probing of the servers from the proxy.
        let skey = stack.server_keys()[0];
        let req = exploit_request(1, "mallory", Scheme::Aslr, skey);
        stack.submit_via_proxy(0, &req);
        stack.pump();
        assert!(stack.is_compromised());
    }

    #[test]
    fn s2_all_proxies_compromised_is_fatal() {
        let mut stack = Stack::new(StackConfig {
            seed: 17,
            ..StackConfig::default()
        })
        .unwrap();
        stack.add_client("mallory");
        for i in 0..3 {
            let key = stack.proxy_keys()[i];
            let addr = stack.proxy_addrs()[i];
            stack.send_raw("mallory", addr, Scheme::Aslr.craft_exploit(key).to_bytes());
            stack.pump();
        }
        assert_eq!(
            stack.compromise_state(),
            CompromiseState::AllProxiesCompromised
        );
    }

    #[test]
    fn custom_fleet_sizes() {
        let mut stack = Stack::new(StackConfig {
            np: 5,
            ns: 2,
            seed: 23,
            ..StackConfig::default()
        })
        .unwrap();
        assert_eq!(stack.ns().np(), 5);
        assert_eq!(stack.ns().ns(), 2);
        stack.add_client("mallory");
        // All-proxies compromise now requires five proxies, not three.
        for i in 0..5 {
            let key = stack.proxy_keys()[i];
            let addr = stack.proxy_addrs()[i];
            stack.send_raw("mallory", addr, Scheme::Aslr.craft_exploit(key).to_bytes());
            stack.pump();
            let state = stack.compromise_state();
            if i < 4 {
                assert_eq!(state, CompromiseState::Intact, "proxy {i}");
            } else {
                assert_eq!(state, CompromiseState::AllProxiesCompromised);
            }
        }
    }

    #[test]
    fn zero_fleet_rejected() {
        assert!(Stack::new(StackConfig {
            np: 0,
            ..StackConfig::default()
        })
        .is_err());
        assert!(Stack::new(StackConfig {
            class: SystemClass::S1Pb,
            ns: 0,
            ..StackConfig::default()
        })
        .is_err());
    }

    #[test]
    fn garbage_probe_is_counted_not_swallowed() {
        let mut stack = Stack::new(StackConfig {
            seed: 29,
            ..StackConfig::default()
        })
        .unwrap();
        stack.add_client("fuzzer");
        let proxy = stack.proxy_addrs()[0];
        assert_eq!(stack.malformed_total(), 0);
        // Unregistered tag byte.
        stack.send_raw("fuzzer", proxy, vec![0x7f, 1, 2, 3]);
        // Registered kind, truncated body.
        let mut truncated = ClientRequest {
            seq: 1,
            client: "fuzzer".into(),
            op: b"GET k".to_vec(),
        }
        .encode();
        truncated.truncate(truncated.len() - 3);
        stack.send_raw("fuzzer", proxy, truncated);
        stack.pump();
        assert_eq!(stack.malformed_at(proxy), 2, "both frames observed");
        assert_eq!(stack.malformed_total(), 2);
        assert_eq!(stack.net_stats().malformed, 2);
        // The garbage neither compromised nor crashed anything.
        assert!(!stack.is_compromised());
        assert_eq!(stack.server_restarts(), 0);
    }

    #[test]
    fn s2_round_trip_runs_generically_on_threadnet() {
        // The same assembly + drive loop, compiled against ThreadNet:
        // the Transport trait is what makes this a one-liner, not a port.
        let net = fortress_net::threaded::ThreadNet::new();
        let mut stack = Stack::with_transport(StackConfig::default(), net).unwrap();
        stack.add_client("alice");
        let mut client = FortressClient::new("alice", stack.authority(), stack.ns().clone());
        let req = client.request(b"PUT color teal");
        stack.submit("alice", &req);
        stack.pump();
        let mut accepted = None;
        for ev in stack.drain_client("alice") {
            if let Some(payload) = ev.payload() {
                let resp = ProxyResponse::decode(payload).unwrap();
                if let Some(got) = client.on_response(&resp).unwrap() {
                    accepted = Some(got);
                }
            }
        }
        assert_eq!(accepted, Some((1, b"OK".to_vec())));
        // Probing works over the trait too: a wrong-key exploit crashes
        // the shared-key servers and the closure is observable.
        let wrong = RandomizationKey(stack.server_keys()[0].0 ^ 1);
        let probe = exploit_request(2, "alice", Scheme::Aslr, wrong);
        stack.submit("alice", &probe);
        stack.pump();
        // Each of the 3 proxies forwards one copy to each of the 3
        // shared-key servers: 9 child crashes, all healed by the daemons.
        assert_eq!(stack.server_restarts(), 9);
        assert!(!stack.is_compromised());
    }

    #[test]
    fn s2_round_trip_runs_generically_on_kernel_sockets() {
        // The same assembly and wire envelope, end-to-end through the
        // kernel: every proxy/server/nameserver hop below is a real
        // length-prefixed frame over a real socket.
        let mut nets = vec![fortress_net::sock::SockNet::tcp()];
        #[cfg(unix)]
        nets.push(fortress_net::sock::SockNet::uds());
        for net in nets {
            let kind = net.kind();
            let mut stack = Stack::with_transport(StackConfig::default(), net).unwrap();
            stack.add_client("alice");
            let mut client =
                FortressClient::new("alice", stack.authority(), stack.ns().clone());
            let req = client.request(b"PUT color teal");
            stack.submit("alice", &req);
            stack.pump();
            let mut accepted = None;
            for ev in stack.drain_client("alice") {
                if let Some(payload) = ev.payload() {
                    let resp = ProxyResponse::decode(payload).unwrap();
                    if let Some(got) = client.on_response(&resp).unwrap() {
                        accepted = Some(got);
                    }
                }
            }
            assert_eq!(accepted, Some((1, b"OK".to_vec())), "{kind:?}");
            // The crash observable survives the kernel boundary too: a
            // wrong-key exploit crashes the shared-key servers and the
            // closures arrive as real EOFs.
            let wrong = RandomizationKey(stack.server_keys()[0].0 ^ 1);
            let probe = exploit_request(2, "alice", Scheme::Aslr, wrong);
            stack.submit("alice", &probe);
            stack.pump();
            assert_eq!(stack.server_restarts(), 9, "{kind:?}");
            assert!(!stack.is_compromised());
        }
    }

    #[test]
    fn pb_failover_survives_a_downed_primary() {
        let mut stack = Stack::new(StackConfig {
            class: SystemClass::S1Pb,
            policy: ObfuscationPolicy::StartupOnly,
            seed: 41,
            ..StackConfig::default()
        })
        .unwrap();
        stack.add_client("alice");
        let mut alice = DirectClient::new(
            "alice",
            stack.authority(),
            stack.ns().servers().to_vec(),
            AcceptMode::AnyAuthentic,
        );
        let accept = |stack: &mut Stack, alice: &mut DirectClient| {
            let mut got = None;
            for ev in stack.drain_client("alice") {
                if let Some(payload) = ev.payload() {
                    if let WireMsg::SignedReply(reply) = WireMsg::decode(payload) {
                        if let Some(ok) = alice.on_reply(&reply.to_owned()) {
                            got = Some(ok);
                        }
                    }
                }
            }
            got
        };
        let req = alice.request(b"PUT leader replica-0");
        stack.submit("alice", &req);
        stack.pump();
        assert!(accept(&mut stack, &mut alice).is_some());

        // The primary's machine goes down; heartbeat silence promotes a
        // backup within the failover timeout (default 20 steps).
        stack.take_down_server(0);
        assert!(stack.server_is_down(0));
        for _ in 0..25 {
            stack.end_step();
        }
        let req = alice.request(b"GET leader");
        stack.submit("alice", &req);
        stack.pump();
        let (_, body) = accept(&mut stack, &mut alice).expect("a backup must take over");
        assert_eq!(
            body, b"VALUE replica-0",
            "state written under the old primary survived"
        );
        assert!(!stack.is_compromised(), "an outage is not an intrusion");
    }

    /// The availability counters around a primary outage: downtime is
    /// exactly the window between losing the primary and the backup's
    /// promotion, the failover is counted with its latency, and
    /// requests sent into the downed machine are recorded as lost.
    #[test]
    fn availability_counters_track_a_failover_window() {
        let mut stack = Stack::new(StackConfig {
            class: SystemClass::S1Pb,
            policy: ObfuscationPolicy::StartupOnly,
            seed: 43,
            ..StackConfig::default()
        })
        .unwrap();
        stack.add_client("alice");
        let mut alice = DirectClient::new(
            "alice",
            stack.authority(),
            stack.ns().servers().to_vec(),
            AcceptMode::AnyAuthentic,
        );
        // Healthy steps accumulate no downtime.
        for _ in 0..5 {
            stack.end_step();
        }
        assert!(stack.pb_primary_serving());
        let avail = stack.availability();
        assert_eq!((avail.steps, avail.down_steps, avail.outages), (5, 0, 0));
        assert_eq!(avail.failovers, 0);

        // The primary's machine goes down; requests sent meanwhile are
        // lost; the backup promotes within the failover timeout.
        stack.take_down_server(0);
        let req = alice.request(b"PUT k v");
        stack.submit("alice", &req);
        for _ in 0..30 {
            stack.end_step();
        }
        let avail = stack.availability();
        assert_eq!(avail.outages, 1);
        assert!(avail.failovers >= 1, "heartbeat silence must promote");
        assert!(
            avail.down_steps > 0 && avail.down_steps <= pb_failover_timeout() + 2,
            "downtime is the pre-promotion window, got {}",
            avail.down_steps
        );
        assert_eq!(avail.recoveries, 1);
        assert_eq!(
            avail.failover_latency_total, avail.down_steps,
            "one outage: latency equals the down window"
        );
        assert!(avail.mean_failover_latency().unwrap() > 0.0);
        assert!(
            avail.lost_requests > 0,
            "the request into the downed primary dead-letters as lost"
        );
        assert!(stack.pb_primary_serving(), "a backup serves again");
        // Repair closes the loop; no further downtime accumulates.
        stack.bring_up_server(0);
        let before = stack.availability().down_steps;
        for _ in 0..5 {
            stack.end_step();
        }
        assert_eq!(stack.availability().down_steps, before);
    }

    /// Crashing the S0 leader is a *protocol event*: the backups' view-change
    /// timers (leader_timeout = 30 steps) expire, the VSR-style
    /// StartViewChange / DoViewChange / StartView exchange elects a successor,
    /// and the availability counters record one view change whose latency is
    /// the view timer — measurably longer than the PB failover timeout (20).
    #[test]
    fn smr_outage_routes_through_a_view_change() {
        let mut stack = Stack::new(StackConfig {
            class: SystemClass::S0Smr,
            policy: ObfuscationPolicy::StartupOnly,
            seed: 47,
            ..StackConfig::default()
        })
        .unwrap();
        stack.add_client("alice");
        let servers = stack.ns().servers().to_vec();
        let mut client = DirectClient::new(
            "alice",
            stack.authority(),
            servers,
            AcceptMode::MatchingVotes { f: 1 },
        );
        // The VSR timers are request-driven: a benign probe per step keeps
        // every replica holding a pending request so silence is observable.
        let drive = |stack: &mut Stack, client: &mut DirectClient, steps: usize| {
            for _ in 0..steps {
                stack.drain_client("alice");
                let req = client.request(b"GET probe");
                stack.submit("alice", &req);
                stack.pump();
                stack.end_step();
            }
        };
        drive(&mut stack, &mut client, 5);
        let avail = stack.availability();
        assert_eq!((avail.down_steps, avail.view_changes), (0, 0));

        let leader = stack.smr_leader_hint();
        stack.take_down_server(leader);
        assert!(stack.smr_repair_tracked(), "an S0 crash arms repair tracking");
        drive(&mut stack, &mut client, 60);

        let avail = stack.availability();
        assert!(avail.view_changes >= 1, "the crash must force a view change");
        assert_eq!(avail.outages, 1);
        assert!(avail.recoveries >= 1, "a successor must resume service");
        let lat = avail.mean_failover_latency().expect("one completed window");
        assert!(
            lat > pb_failover_timeout() as f64,
            "view-change latency tracks the 30-step view timer, not the \
             20-step PB failover timeout; got {lat}"
        );
        assert!(
            (25.0..=45.0).contains(&lat),
            "latency should sit near leader_timeout = 30, got {lat}"
        );
        assert!(!stack.is_compromised(), "an outage is not an intrusion");
    }

    /// A rejoining S0 replica pays state transfer proportional to its log
    /// divergence: commits made while it was down become queued transfer
    /// units drained at the bounded bandwidth, and the replica only rejoins
    /// the quorum once the debt is paid.
    #[test]
    fn smr_rejoiner_pays_divergence_priced_transfer() {
        let mut stack = Stack::new(StackConfig {
            class: SystemClass::S0Smr,
            policy: ObfuscationPolicy::StartupOnly,
            seed: 48,
            ..StackConfig::default()
        })
        .unwrap();
        stack.add_client("alice");
        let servers = stack.ns().servers().to_vec();
        let mut client = DirectClient::new(
            "alice",
            stack.authority(),
            servers,
            AcceptMode::MatchingVotes { f: 1 },
        );
        let drive = |stack: &mut Stack, client: &mut DirectClient, steps: usize| {
            for _ in 0..steps {
                stack.drain_client("alice");
                let req = client.request(b"PUT k v");
                stack.submit("alice", &req);
                stack.pump();
                stack.end_step();
            }
        };
        drive(&mut stack, &mut client, 3);
        // Crash a follower: the remaining three replicas are exactly a
        // 2f+1 quorum, so commits continue and divergence accumulates.
        stack.take_down_server(3);
        drive(&mut stack, &mut client, 20);
        assert_eq!(
            stack.availability().down_steps,
            0,
            "three live replicas are still a serving quorum"
        );

        stack.bring_up_server(3);
        assert!(
            stack.server_is_catching_up(3),
            "a divergent rejoiner must queue for state transfer"
        );
        drive(&mut stack, &mut client, 40);
        assert!(
            !stack.server_is_catching_up(3),
            "the transfer debt is finite and must eventually be paid"
        );
        let avail = stack.availability();
        assert!(
            avail.transfer_units >= 10,
            "20 serving steps of commits price a real transfer, got {}",
            avail.transfer_units
        );
        assert_eq!(avail.down_steps, 0, "repair never cost availability here");
    }

    #[test]
    fn proxy_tier_flags_fast_prober() {
        let mut stack = Stack::new(StackConfig {
            seed: 19,
            suspicion: SuspicionPolicy {
                window: 1000,
                threshold: 3,
            },
            ..StackConfig::default()
        })
        .unwrap();
        stack.add_client("mallory");
        let true_key = stack.server_keys()[0];
        for seq in 1..=5u64 {
            let wrong = RandomizationKey(true_key.0 ^ seq); // all wrong guesses
            let req = exploit_request(seq, "mallory", Scheme::Aslr, wrong);
            stack.submit("mallory", &req);
            stack.pump();
        }
        assert!(
            stack.suspects().contains(&"mallory".to_string()),
            "proxies must flag the prober; suspects = {:?}",
            stack.suspects()
        );
        // Once flagged, further probes are not forwarded: restarts stop.
        let restarts_before = stack.server_restarts();
        let req = exploit_request(9, "mallory", Scheme::Aslr, RandomizationKey(true_key.0 ^ 9));
        stack.submit("mallory", &req);
        stack.pump();
        assert_eq!(stack.server_restarts(), restarts_before);
    }
}
