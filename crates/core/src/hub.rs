//! The cluster hub both real backends share: the parameter server, the
//! collectives, the δ-policy [`SignalBoard`], the round-boundary membership
//! barrier and the checkpoint gather-and-write.
//!
//! Every op reaches the hub as one [`HubCall`] served by [`HubService::call`].
//! The threaded driver builds one [`HubService`] and hands each worker thread a
//! [`LocalPort`] into it; the process backend serves the same hub over the
//! socket RPC surface, decoding each payload into the same call. Either way the
//! workers run the one round loop in [`crate::worker`], so both backends make
//! the same shared-state calls in the same order — only the carrier differs.

use crate::checkpoint::{self, Checkpoint, Section};
use crate::conditions::ClusterConditions;
use crate::config::{RejoinPull, TrainConfig};
use crate::hubcall::{HubCall, HubReply};
use crate::policy::{DeltaPolicy, PolicyState, RoundSignal};
use crate::worker::ClusterPort;
use parking_lot::{Condvar, Mutex, MutexGuard};
use selsync_comm::cluster::{make_handles, ClusterHandles};
use selsync_comm::ps::DEFAULT_SNAPSHOT_DEPTH;
use selsync_comm::socket::RpcService;
use selsync_nn::model::PaperModel;
use selsync_tracelog::{codec, Event, EventLog, TraceSink};
use std::collections::HashMap;

/// The cluster-level δ-policy shared by every worker — the counterpart of the
/// single policy instance the simulator's SelSync driver owns.
///
/// Observations are strictly ordered by round id: [`Self::observe`] may only ingest
/// the signals of the oldest active round not yet observed, and [`Self::delta_for`]
/// blocks until every active round before the asked one has been observed. Combined
/// with the rendezvous structure of a round (the status all-gather cannot complete
/// until every present worker has fetched its δ, and the observation is posted only
/// after that all-gather), this makes the policy's signal stream — and every
/// threshold it produces — a pure function of the schedule, independent of thread
/// interleaving.
struct SignalBoard {
    state: Mutex<BoardState>,
    cv: Condvar,
    /// The run's trace sink: regime switches are policy-internal transitions, visible
    /// only at the observation point, so the board is the one place that can log them.
    trace: TraceSink,
}

struct BoardState {
    policy: Box<dyn DeltaPolicy>,
    /// The oldest active (some-worker-present) round not yet observed; the iteration
    /// count once every active round has been observed.
    next_observe: usize,
}

impl SignalBoard {
    fn new(policy: Box<dyn DeltaPolicy>, first_active_round: usize, trace: TraceSink) -> Self {
        SignalBoard {
            state: Mutex::new(BoardState {
                policy,
                next_observe: first_active_round,
            }),
            cv: Condvar::new(),
            trace,
        }
    }

    /// Block until every active round before `iteration` has been observed (i.e. the
    /// policy state is exactly what the simulator's policy held entering that round).
    fn wait_caught_up(&self, iteration: usize) -> MutexGuard<'_, BoardState> {
        let mut s = self.state.lock();
        while s.next_observe < iteration {
            self.cv.wait(&mut s);
        }
        s
    }

    /// The δ in effect for the round at `iteration`. Blocks until the policy has
    /// observed every earlier active round; the round's own signals cannot have been
    /// observed yet (the observation is posted only after the round's status
    /// all-gather, which this call precedes on every present worker).
    fn delta_for(&self, iteration: usize) -> f32 {
        let s = self.wait_caught_up(iteration);
        assert_eq!(
            s.next_observe, iteration,
            "δ requested for a round whose signals were already observed"
        );
        s.policy.delta(iteration)
    }

    /// Ingest the completed round's cluster-level signals and advance the board to
    /// `next_round` (the next active round, or the iteration count). Called by exactly
    /// one worker per round — the lowest-ranked present one — strictly in round order.
    fn observe(&self, signal: RoundSignal, next_round: usize) {
        let mut s = self.state.lock();
        assert_eq!(
            s.next_observe, signal.iteration,
            "round signals observed out of order"
        );
        s.policy.observe(&signal);
        if self.trace.is_enabled() {
            if let Some(sw) = s.policy.last_switch() {
                // Same shape as the simulator driver's switch event: the trigger
                // state from the policy plus the observed cluster signals.
                self.trace.record(Event::RegimeSwitch {
                    round: signal.iteration,
                    exploit: sw.exploit,
                    loss_ewma: sw.loss_ewma,
                    delta_ewma: sw.delta_ewma,
                    mean_loss: signal.mean_loss,
                    max_delta: signal.max_delta,
                });
            }
        }
        s.next_observe = next_round;
        self.cv.notify_all();
    }
}

/// One worker's checkpoint deposit: its recovery section and, from a separate
/// process, its trace shard so far. In-process workers record into the hub's own
/// sink and deposit no events.
type Deposit = (Section, Vec<Event>);

/// The shared state of one cluster run, and the operations workers perform on it.
pub(crate) struct HubService {
    cfg: TrainConfig,
    /// The backend tag written into checkpoint images (`"threaded"`/`"process"`).
    tag: &'static str,
    fingerprint: u64,
    handles: ClusterHandles,
    board: SignalBoard,
    /// The *base* effective membership schedule (scheduled crashes plus
    /// compiled comm-fault evictions); runtime death evictions layer on top in
    /// the ledger, never mutating this.
    conditions: ClusterConditions,
    /// The first round this (possibly resumed) run executes; death evictions
    /// are never scheduled before it.
    first_round: usize,
    /// The image this run resumed from — protected from retention pruning.
    protect: Option<usize>,
    ledger: Mutex<Ledger>,
    cv: Condvar,
}

/// The hub's runtime membership + checkpoint bookkeeping, all under one lock
/// so a death atomically updates the barrier, the eviction list and any
/// in-flight checkpoint gather.
struct Ledger {
    /// Per worker: the newest round announced through [`HubService::round_begin`].
    last_begun: Vec<Option<usize>>,
    /// Per worker: whether its connection has terminated.
    dead: Vec<bool>,
    /// Death evictions in creation order: `(worker, first-absent round)`.
    evictions: Vec<(usize, usize)>,
    /// Per released round: the eviction count frozen at its barrier release —
    /// every `round_begin` reply for that round carries the identical prefix,
    /// keeping the folded membership a pure function of the round.
    released: HashMap<usize, usize>,
    /// The round currently gathering checkpoint deposits, if any.
    ckpt_round: Option<usize>,
    ckpt_deposits: Vec<Option<Deposit>>,
    /// The newest round whose checkpoint gate has released (written or voided).
    ckpt_released: Option<usize>,
}

impl HubService {
    /// Build the hub of a run of `cfg` whose PS starts from `proto`'s
    /// parameters, tagging its checkpoints `tag`, resumed from `resume` (any
    /// backend's image) if given. Rejects configurations outside
    /// [`crate::process::ensure_supported`]; a fresh run records the trace
    /// header, a resumed one preloads the image's trace prefix and restores the
    /// PS (global and snapshot ring) and the policy state.
    pub(crate) fn new(
        cfg: &TrainConfig,
        proto: &PaperModel,
        resume: Option<&Checkpoint>,
        tag: &'static str,
    ) -> Self {
        let (_delta, spec) =
            crate::process::ensure_supported(cfg).unwrap_or_else(|e| panic!("{e}"));
        let n = cfg.workers;
        let resume = resume.map(|ckpt| crate::resume::cluster_image(cfg, ckpt));
        let resume = resume.as_deref();
        let start = resume.map_or(0, |ckpt| ckpt.round + 1);
        match resume {
            Some(ckpt) if cfg.trace.is_enabled() => {
                // Workers re-emit nothing before `start`, so the final log is
                // exactly prefix + fresh suffix.
                let events = ckpt
                    .trace
                    .iter()
                    .map(|line| codec::decode_event(line).expect("checkpointed trace line decodes"))
                    .collect();
                cfg.trace.preload(events);
            }
            Some(_) => {}
            None => crate::tracing::emit_header(
                &cfg.trace,
                cfg,
                &crate::algorithms::selsync::algorithm_label(cfg),
                &spec.label(),
            ),
        }
        let handles = make_handles(n, proto.params_flat());
        if cfg.rejoin_pull == RejoinPull::Scheduled {
            // Deterministic rejoin pulls read the round-keyed snapshot ring
            // instead of the wall-clock PS state; enable it before any worker starts.
            handles
                .ps
                .enable_scheduled_snapshots(DEFAULT_SNAPSHOT_DEPTH);
        }
        // One cluster-level policy instance for the whole run, seeded at the
        // first active round the run executes.
        let mut policy = spec.build();
        if let Some(ckpt) = resume {
            handles
                .ps
                .restore_state(&crate::resume::read_ps_state(ckpt));
            let mut reader = ckpt.read_section("board");
            let ints = reader.ints();
            let floats = reader.f32s();
            reader.finish();
            policy.import_state(&PolicyState { ints, floats });
        }
        let conditions = cfg.effective_conditions();
        let board = SignalBoard::new(
            policy,
            conditions.next_active_iteration(n, start, cfg.iterations),
            cfg.trace.clone(),
        );
        if let Some(ck) = &cfg.checkpoint {
            ck.validate().expect("invalid checkpoint configuration");
        }
        HubService {
            cfg: cfg.clone(),
            tag,
            fingerprint: checkpoint::config_fingerprint(cfg),
            handles,
            board,
            conditions,
            first_round: start,
            protect: resume.map(|ckpt| ckpt.round),
            ledger: Mutex::new(Ledger {
                last_begun: vec![None; n],
                dead: vec![false; n],
                evictions: Vec::new(),
                released: HashMap::new(),
                ckpt_round: None,
                ckpt_deposits: (0..n).map(|_| None).collect(),
                ckpt_released: None,
            }),
            cv: Condvar::new(),
        }
    }

    /// Serve one call from `worker` at RPC round header `round` — the one place
    /// an op meets the PS, the collectives, the signal board or the ledger.
    pub(crate) fn call(&self, worker: usize, round: u64, call: HubCall) -> HubReply {
        let ps = &self.handles.ps;
        let collective = &self.handles.collective;
        match call {
            HubCall::Pull => HubReply::Vector(ps.pull()),
            HubCall::ScheduledGlobalBefore => HubReply::Vector(ps.scheduled_global_before(round)),
            HubCall::ScheduledRoundBefore => {
                HubReply::Round(ps.scheduled_round_before(round).map(|r| r as usize))
            }
            HubCall::SyncRound(expected, params) => {
                HubReply::Vector(ps.sync_round_owned(round, worker, params, expected))
            }
            HubCall::AllgatherFlags(flag, expected) => {
                HubReply::Flags(collective.allgather_flags_among(round, worker, flag, expected))
            }
            HubCall::AllreduceScalar(op, expected, value) => HubReply::Scalar(
                collective.allreduce_scalar_among(round, worker, value, expected, op),
            ),
            HubCall::AllreduceVec(op, expected, values) => HubReply::Vector(
                collective.allreduce_vec_among(round, worker, values, expected, op),
            ),
            HubCall::WaitCaughtUp(round) => {
                self.board.wait_caught_up(round);
                HubReply::Done
            }
            HubCall::DeltaFor(round) => HubReply::Scalar(self.board.delta_for(round)),
            HubCall::Observe(signal, next_round) => {
                self.board.observe(signal, next_round);
                HubReply::Done
            }
            HubCall::RoundBegin(round) => HubReply::Evictions(self.round_begin(worker, round)),
            HubCall::Deposit {
                round,
                fingerprint,
                section,
                trace,
            } => {
                assert!(
                    fingerprint == self.fingerprint && section.name == format!("worker{worker}"),
                    "worker {worker}'s deposit belongs to another configuration or worker"
                );
                self.deposit(worker, round, section, trace);
                HubReply::Done
            }
        }
    }

    /// The round-boundary membership barrier. A present worker announces round
    /// `it` before any other traffic of the round; the call blocks until every
    /// base-present worker of the round has either announced it or died, then
    /// returns the eviction prefix frozen at the barrier's release — identical
    /// for every present worker of the round.
    fn round_begin(&self, worker: usize, it: usize) -> Vec<(usize, usize)> {
        let n = self.cfg.workers;
        let mut s = self.ledger.lock();
        assert!(!s.dead[worker], "dead worker {worker} announced round {it}");
        assert!(
            s.last_begun[worker].is_none_or(|r| r < it),
            "worker {worker} announced round {it} out of order"
        );
        s.last_begun[worker] = Some(it);
        self.cv.notify_all();
        loop {
            // Released rounds stay on file: a parked waiter always finds its
            // round here first, even after faster workers advanced past it.
            if let Some(&frozen) = s.released.get(&it) {
                return s.evictions[..frozen].to_vec();
            }
            let complete = self
                .conditions
                .present_workers(n, it)
                .into_iter()
                .all(|w| s.dead[w] || s.last_begun[w].is_some_and(|r| r >= it));
            if complete {
                let frozen = s.evictions.len();
                s.released.insert(it, frozen);
                self.cv.notify_all();
                return s.evictions[..frozen].to_vec();
            }
            self.cv.wait(&mut s);
        }
    }

    /// A worker's connection terminated — cleanly or not. Record the death and
    /// schedule a deterministic eviction at the first round boundary the base
    /// schedule still expects it, so the surviving cluster folds the loss
    /// exactly like a scheduled no-rejoin crash. A clean run reaches this
    /// after the worker's last round, where the search finds no remaining
    /// present round and schedules nothing.
    fn worker_died(&self, worker: usize) {
        let mut s = self.ledger.lock();
        // Already dead, or a sender id outside the cluster.
        if s.dead.get(worker) != Some(&false) {
            return;
        }
        s.dead[worker] = true;
        let from = s.last_begun[worker].map_or(self.first_round, |r| r + 1);
        if let Some(round) =
            (from..self.cfg.iterations).find(|&r| self.conditions.is_present(worker, r))
        {
            s.evictions.push((worker, round));
        }
        self.cv.notify_all();
        let _s = self.finish_checkpoint_if_complete(s);
    }

    /// Gather one worker's checkpoint deposit for round `it` and park the
    /// caller until the round's image is written (or voided by a death) — the
    /// worker resumes only past the quiescent point.
    fn deposit(&self, worker: usize, it: usize, section: Section, trace: Vec<Event>) {
        let mut s = self.ledger.lock();
        assert!(
            s.ckpt_round.is_none_or(|r| r == it),
            "checkpoint rounds interleaved: deposit for {it} while gathering {:?}",
            s.ckpt_round
        );
        s.ckpt_round = Some(it);
        assert!(
            s.ckpt_deposits[worker].is_none(),
            "worker {worker} deposited twice for round {it}"
        );
        s.ckpt_deposits[worker] = Some((section, trace));
        let mut s = self.finish_checkpoint_if_complete(s);
        while s.ckpt_released.is_none_or(|r| r < it) {
            self.cv.wait(&mut s);
        }
    }

    /// If every live worker has deposited for the gathering round, write the
    /// image and release the gate — run by whichever caller completed the set.
    /// A worker death voids the in-flight image instead (the cluster state is
    /// no longer the uninterrupted run's) but still releases the survivors.
    fn finish_checkpoint_if_complete<'a>(
        &'a self,
        mut s: MutexGuard<'a, Ledger>,
    ) -> MutexGuard<'a, Ledger> {
        let Some(it) = s.ckpt_round else {
            return s;
        };
        if !(0..self.cfg.workers).all(|w| s.dead[w] || s.ckpt_deposits[w].is_some()) {
            return s;
        }
        let deposits: Option<Vec<Deposit>> = s.ckpt_deposits.iter_mut().map(Option::take).collect();
        s.ckpt_round = None;
        drop(s);
        match deposits {
            Some(deposits) => self.write_checkpoint(it, deposits),
            None => eprintln!(
                "checkpoint after round {it} voided: a worker died mid-run, so the cluster \
                 state no longer matches the uninterrupted run"
            ),
        }
        let mut s = self.ledger.lock();
        s.ckpt_released = Some(it);
        self.cv.notify_all();
        s
    }

    /// Assemble and write the full recovery image after round `it`: the PS state
    /// (global vector, newest-global guard, snapshot ring), the shared δ-policy
    /// state, every worker's section in worker order, and the canonical merge of
    /// the hub's trace with every deposited shard. Runs at the gate's quiescent
    /// point: every worker parked in its deposit, the round's signals observed,
    /// every event through `it` recorded.
    fn write_checkpoint(&self, it: usize, deposits: Vec<Deposit>) {
        let ck = self
            .cfg
            .checkpoint
            .as_ref()
            .expect("a deposit implies a checkpoint spec");
        let mut image = Checkpoint::new(self.tag, self.fingerprint, it);
        image.add_section(crate::resume::ps_section(&self.handles.ps.export_state()));
        let policy_state = self.board.state.lock().policy.export_state();
        let mut section = Section::new("board");
        section.push_ints(&policy_state.ints);
        section.push_f32s(&policy_state.floats);
        image.add_section(section);
        let mut shards = vec![self.cfg.trace.snapshot_log()];
        for (section, events) in deposits {
            image.add_section(section);
            shards.push(EventLog { events });
        }
        if self.cfg.trace.is_enabled() {
            image.trace = EventLog::merge(shards)
                .events
                .iter()
                .map(codec::encode_event)
                .collect();
        }
        let path = ck.path_for(it);
        image
            .write_file(&path)
            .unwrap_or_else(|err| panic!("failed to write checkpoint {}: {err}", path.display()));
        // Retention runs only after the newer image is durably on disk, and
        // never removes the image a resume started from.
        ck.prune(it, self.protect);
    }
}

/// A worker thread's port into an in-process [`HubService`]: every call goes
/// straight to [`HubService::call`], with two exceptions. The membership
/// barrier answers at once with no evictions: threads cannot die apart from
/// the process, so no death eviction ever exists and the barrier would only add
/// a rendezvous. Deposits move their section into the hub as it is and carry no
/// trace: the worker threads record into the hub's own sink.
pub(crate) struct LocalPort<'a> {
    pub(crate) hub: &'a HubService,
    pub(crate) worker: usize,
}

impl ClusterPort for LocalPort<'_> {
    fn call(&self, round: u64, call: HubCall) -> HubReply {
        match call {
            HubCall::RoundBegin(_) => HubReply::Evictions(Vec::new()),
            call => self.hub.call(self.worker, round, call),
        }
    }
}

/// The hub side of the RPC surface: decode the payload, dispatch it through
/// [`HubService::call`], encode the reply. Blocking rendezvous ops block the
/// calling connection's hub thread, which is exactly the rendezvous behaviour
/// worker threads get from blocking in-process calls.
///
/// Network input never panics the hub: a sender id outside the cluster is
/// ignored, a payload that fails to decode counts as the sender's death (a
/// deterministic eviction, like a dropped connection), and a worker already
/// dead gets an empty reply to anything it still sends.
impl RpcService for HubService {
    fn handle(&self, worker: u32, round: u64, request: &[u8]) -> Vec<u8> {
        let worker = worker as usize;
        if self.ledger.lock().dead.get(worker) != Some(&false) {
            return Vec::new();
        }
        match HubCall::decode(request) {
            Ok(call) => self.call(worker, round, call).encode(),
            Err(e) => {
                eprintln!("hub: malformed request from worker {worker} ({e}); evicting it");
                self.worker_died(worker);
                Vec::new()
            }
        }
    }

    fn connection_closed(&self, worker: u32) {
        self.worker_died(worker as usize);
    }
}
