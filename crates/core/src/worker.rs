//! The one SelSync/BSP worker round loop both real backends run (Alg. 1 per
//! worker), generic over the [`ClusterPort`] that carries its shared-state ops
//! to the hub: direct calls into an in-process hub for the threaded driver, RPCs
//! over a socket for the process backend.
//!
//! The loop mirrors the simulator's training semantics exactly: the same
//! synthetic datasets ([`sim::build_datasets`]), the same per-worker traversals
//! ([`sim::worker_traversal`]), the same optimizer and learning-rate schedule,
//! the same `Δ(g_i)` tracker configuration, and the same dropout-stream
//! positions (each worker seeks its model's stochastic layers to the canonical
//! global forward index, a pure function of the fault schedule).

use crate::checkpoint::{Checkpoint, Section};
use crate::conditions::{ClusterConditions, FaultEvent};
use crate::config::{RejoinPull, TrainConfig};
use crate::policy::{RoundSignal, SyncPolicy};
use crate::sim;
use crate::threaded::ThreadedWorkerReport;
use crate::tracker::{GradStatistic, GradientTracker, TrackerState};
use selsync_comm::faults::{CommFaultSchedule, PsFaultSchedule};
use selsync_comm::wire::MsgKind;
use selsync_comm::{MessageLayer, PsExchangeError, ScalarOp, Transport};
use selsync_data::Dataset;
use selsync_metrics::lssr::LssrCounter;
use selsync_nn::model::PaperModel;
use selsync_nn::OptimizerState;
use selsync_tracelog::{Event, PullKind};

/// A worker's view of the hub's shared state. Rounds key every rendezvous, so
/// skipping rounds (crash windows) is safe; worker-order folds happen hub-side.
pub(crate) trait ClusterPort {
    /// The PS's current global vector.
    fn pull(&self) -> Vec<f32>;
    /// The global of the last scheduled synchronization before `round`.
    fn scheduled_global_before(&self, round: usize) -> Vec<f32>;
    /// The round that global came from, if any synchronization preceded `round`.
    fn scheduled_round_before(&self, round: usize) -> Option<usize>;
    /// Push `params` into the elastic PS round and pull the worker-order average.
    fn sync_round(&self, round: usize, params: &[f32], expected: usize) -> Vec<f32>;
    /// The full-width status all-gather among `expected` present workers.
    fn allgather_flags(&self, round: usize, flag: bool, expected: usize) -> Vec<bool>;
    /// Worker-order scalar all-reduce among `expected` present workers.
    fn allreduce_scalar(&self, round: usize, value: f32, expected: usize, op: ScalarOp) -> f32;
    /// Worker-order elementwise all-reduce among `expected` present workers.
    fn allreduce_vec(
        &self,
        round: usize,
        values: Vec<f32>,
        expected: usize,
        op: ScalarOp,
    ) -> Vec<f32>;
    /// Block until the policy has observed every active round before `round`.
    fn wait_caught_up(&self, round: usize);
    /// The shared policy's δ for `round`.
    fn delta_for(&self, round: usize) -> f32;
    /// Post a round's cluster signal and advance the board to `next_round`.
    fn observe(&self, signal: RoundSignal, next_round: usize);
    /// Announce `round` at its boundary and return the hub's frozen prefix of
    /// death evictions as `(worker, first-absent round)` pairs.
    fn round_begin(&self, round: usize) -> Vec<(usize, usize)>;
    /// Hand the hub this worker's recovery section for the checkpoint after
    /// `round` and block until the image is written (or voided).
    fn deposit(&self, round: usize, section: Section);
}

/// The message layer a worker's control-plane envelopes ride over `transport`:
/// lossless (single attempt) without `[comm_faults]`, the retry/timeout/eviction
/// path under the seeded weather with it, plus the `[ps_faults]` availability gate.
pub(crate) fn message_layer(cfg: &TrainConfig, transport: Box<dyn Transport>) -> MessageLayer {
    let layer = match cfg.comm_faults.map(CommFaultSchedule::new) {
        Some(schedule) => MessageLayer::faulty_over(schedule, transport),
        None => MessageLayer::over(transport, 1),
    };
    match cfg.ps_fault_schedule() {
        Some(schedule) => layer.with_ps_outages(schedule),
        None => layer,
    }
}

/// What every worker of a run derives identically from the config, built once
/// per process and shared by reference across worker threads.
pub(crate) struct WorkerSetup {
    /// The *same* train split the simulator uses.
    train: Dataset,
    iid_order: Vec<usize>,
    /// The effective membership: scheduled crashes plus one no-rejoin crash per
    /// compiled comm-fault eviction.
    conditions: ClusterConditions,
    evictions: Vec<(usize, usize)>,
    ps_schedule: Option<PsFaultSchedule>,
    /// Whether the policy consumes round signals. Fixed and scheduled policies
    /// are pure functions of the iteration and discard their observations, so
    /// the per-round signal rendezvous are elided for them; the board still
    /// runs, because its round-ordered advancement is also what tells a
    /// scheduled rejoin pull that the snapshot ring is complete.
    exchange_signals: bool,
}

impl WorkerSetup {
    /// `proto` is the run's initial model, `PaperModel::build(cfg.model, cfg.seed)`.
    pub(crate) fn new(cfg: &TrainConfig, proto: &PaperModel) -> Self {
        let (_delta, spec) =
            crate::process::ensure_supported(cfg).unwrap_or_else(|e| panic!("{e}"));
        let (train, _test) = sim::build_datasets(cfg);
        let iid_order = sim::iid_sample_order(&train, &proto.task);
        WorkerSetup {
            train,
            iid_order,
            conditions: cfg.effective_conditions(),
            evictions: cfg.comm_fault_evictions(),
            ps_schedule: cfg.ps_fault_schedule(),
            exchange_signals: spec.consumes_round_signals(),
        }
    }
}

/// Run worker `worker`'s rounds against `port`, resuming from `resume` (a
/// real-backend image, see [`crate::resume::cluster_image`]) if given. With
/// `kill_at` the worker stops dead at the top of that round — no announce, no
/// final pull — and reports a NaN distance. Trace events go to `cfg.trace`.
pub(crate) fn run_worker<P: ClusterPort>(
    cfg: &TrainConfig,
    setup: &WorkerSetup,
    worker: usize,
    port: &P,
    layer: &MessageLayer,
    resume: Option<&Checkpoint>,
    kill_at: Option<usize>,
) -> ThreadedWorkerReport {
    let n = cfg.workers;
    let start = resume.map_or(0, |ckpt| ckpt.round + 1);
    let ps_schedule = &setup.ps_schedule;
    // Folded membership: starts as the compiled schedule and accrues the
    // hub-announced death evictions, so every live worker derives the same
    // round-keyed membership the reference run computes from a scheduled
    // no-rejoin crash.
    let mut conditions = setup.conditions.clone();
    let mut known_evictions = 0usize;

    let mut model = PaperModel::build(cfg.model, cfg.seed);
    // Every worker starts from the global state on the PS (pullFromPS, Alg. 1 line 3).
    let mut params = port.pull();
    model.set_params_flat(&params);
    // The simulator's circular traversal over this worker's data: its shuffled
    // IID partition, or its label shard on non-IID runs.
    let traversal = sim::worker_traversal(cfg, &setup.train, &setup.iid_order, worker);
    let mut cursor = 0usize;
    let new_tracker = || {
        GradientTracker::new(
            GradStatistic::SqNorm,
            (n as f32 / 100.0).clamp(0.01, 1.0),
            cfg.ewma_window,
        )
    };
    let mut tracker = new_tracker();
    let mut optimizer = cfg.optimizer.build();
    let mut counter = LssrCounter::new();
    let mut sync_rounds: Vec<usize> = Vec::new();
    let mut last_loss = 0.0f32;
    let mut was_present = true;
    // The canonical global forward counter of the simulator: rounds issue their
    // forwards in worker order over the present set, so the count *before* any
    // iteration — and this worker's position within it — is a pure function of
    // the fault schedule.
    let mut forwards_before = 0u64;
    if let Some(ckpt) = resume {
        // Durable per-worker state comes from the checkpoint; the schedule-pure
        // cursors (data traversal, forward counter, presence edge) are recomputed
        // from the same deterministic schedule the uninterrupted run walked.
        let mut reader = ckpt.read_section(&format!("worker{worker}"));
        params = reader.f32s();
        let t = reader.int();
        let buffer_count = reader.usize();
        let buffers = (0..buffer_count).map(|_| reader.f32s()).collect();
        optimizer.load_state(&OptimizerState { t, buffers });
        let tracker_state = TrackerState {
            ewma_history: reader.f32s(),
            ewma_smoothed: reader.opt_f32(),
            previous_smoothed: reader.opt_f32(),
            last_delta: reader.f32(),
            max_delta: reader.f32(),
            steps: reader.int(),
        };
        tracker.restore_state(&tracker_state);
        counter.sync_steps = reader.int();
        counter.local_steps = reader.int();
        sync_rounds = reader.ints().iter().map(|&r| r as usize).collect();
        last_loss = reader.f32();
        reader.finish();
        let done_rounds = (0..start)
            .filter(|&r| conditions.is_present(worker, r))
            .count();
        cursor = (done_rounds * cfg.batch_size) % traversal.len();
        forwards_before = (0..start)
            .map(|r| conditions.present_workers(n, r).len() as u64)
            .sum();
        was_present = conditions.is_present(worker, start - 1);
    }
    let mut indices = Vec::with_capacity(cfg.batch_size);
    // Control-plane exchange for one comm op: request envelope out, hub ack
    // back, bounded retry. A worker present at a round always lands within its
    // budget — exhaustion would have evicted it from this round's membership —
    // so an `Err` here is a schedule/layer disagreement, not a recoverable
    // condition. Returns the attempt count (shared by every op this worker
    // performs this round: link weather is per `(worker, round, attempt, leg)`,
    // not per message kind).
    let exchange = |round: usize, kind: MsgKind, payload: &[u8]| -> u32 {
        layer
            .exchange(worker, round as u64, kind, payload)
            .unwrap_or_else(|e| {
                panic!("present worker {worker} failed a comm op at round {round}: {e}")
            })
            .attempts
    };

    // Checkpoint-gate participation at the end of round `it`: every worker —
    // present or absent — deposits its recovery section when a checkpoint is due
    // and parks until the hub has written the image. Returns whether the run
    // halts after this round (the simulated kill switch).
    let end_of_round = |it: usize,
                        present: &[usize],
                        params: &[f32],
                        optimizer: &dyn selsync_nn::Optimizer,
                        tracker: &GradientTracker,
                        counter: &LssrCounter,
                        sync_rounds: &[usize],
                        last_loss: f32|
     -> bool {
        let Some(ck) = &cfg.checkpoint else {
            return false;
        };
        // The simulator writes nothing at whole-cluster-absent rounds; neither
        // do the real backends (and the kill switch cannot fire there).
        if present.is_empty() {
            return false;
        }
        if ck.due(it) || ck.halt_after == Some(it) {
            port.deposit(
                it,
                worker_section(
                    worker,
                    params,
                    optimizer,
                    tracker,
                    counter,
                    sync_rounds,
                    last_loss,
                ),
            );
        }
        ck.halt_after == Some(it)
    };

    let mut killed = false;
    for it in start..cfg.iterations {
        if kill_at == Some(it) {
            // Abrupt death: no announce, no farewell — the connection drops at
            // a frame boundary and the hub maps it to an eviction.
            killed = true;
            break;
        }
        if conditions.is_present(worker, it) {
            // Round-boundary barrier: announce the round, learn the frozen
            // eviction prefix, and fold any entry not seen yet. The recompute
            // keeps the forward counter a pure function of the (now extended)
            // fault schedule — evictions can land at rounds this worker sat
            // out, where it never saw a barrier.
            let evs = port.round_begin(it);
            if evs.len() > known_evictions {
                for &(w, r) in &evs[known_evictions..] {
                    conditions = conditions.with_fault(FaultEvent::Crash {
                        worker: w,
                        start: r,
                        rejoin: None,
                    });
                }
                known_evictions = evs.len();
                forwards_before = (0..it)
                    .map(|r| conditions.present_workers(n, r).len() as u64)
                    .sum();
            }
        }
        // Crash windows: an absent worker skips the round entirely — no compute,
        // no collectives. Every live worker derives the same membership from the
        // deterministic schedule, so the round-keyed rendezvous stays consistent.
        let present = conditions.present_workers(n, it);
        let Some(rank) = present.iter().position(|&p| p == worker) else {
            if setup.evictions.contains(&(worker, it)) {
                // This is the round the fault schedule drives this worker past
                // its retry budget. Run the doomed exchange for real — the layer
                // must agree with the precomputed membership — then log the
                // eviction and fall out of the cluster for good.
                let farewell = layer.exchange(worker, it as u64, MsgKind::Flags, &[0]);
                assert!(
                    farewell.is_err(),
                    "worker {worker} was precomputed as evicted at round {it} but its \
                     exchange succeeded"
                );
                cfg.trace.record(Event::CommEvict { round: it, worker });
            }
            was_present = false;
            forwards_before += present.len() as u64;
            if end_of_round(
                it,
                &present,
                &params,
                optimizer.as_ref(),
                &tracker,
                &counter,
                &sync_rounds,
                last_loss,
            ) {
                break;
            }
            continue;
        };
        let active = present.len();
        let forward_index = forwards_before + rank as u64;
        forwards_before += active as u64;
        if !was_present {
            // Rejoin: tracker and optimizer did not survive the crash (the
            // simulator restarts per-worker state the same way — its cluster-level
            // policy, like the shared board here, is untouched). The pull request
            // is an envelope on the message layer; the parameter pull itself (the
            // data plane) follows the configured semantics. At a PS-down round the
            // envelope is skipped — there is no server to ack it — while the data
            // plane (the schedule-pure snapshot lookup) and the event stay,
            // exactly like the simulator's rejoin path.
            if !layer.ps_down(it as u64) {
                exchange(it, MsgKind::Pull, &(it as u64).to_le_bytes());
            }
            params = match cfg.rejoin_pull {
                RejoinPull::WallClock => port.pull(),
                RejoinPull::Scheduled => {
                    // Wait until every active round before the rejoin has fully
                    // decided (the board advances only after a round's sync, so
                    // the ring then holds every scheduled global this lookup can
                    // need), then pull the last scheduled synchronization's
                    // global — the simulator's `global` entering this round.
                    port.wait_caught_up(it);
                    port.scheduled_global_before(it)
                }
            };
            if cfg.trace.is_enabled() {
                // Mirror the simulator's pull event: under scheduled pulls the
                // source is the ring's answer for this round; wall-clock pulls
                // have a timing-dependent source, recorded as `None` on every
                // backend so the logs stay byte-comparable.
                let (pull, from) = match cfg.rejoin_pull {
                    RejoinPull::Scheduled => (PullKind::Scheduled, port.scheduled_round_before(it)),
                    RejoinPull::WallClock => (PullKind::WallClock, None),
                };
                cfg.trace.record(Event::RejoinPull {
                    round: it,
                    worker,
                    pull,
                    from,
                });
            }
            tracker = new_tracker();
            optimizer = cfg.optimizer.build();
            was_present = true;
        }

        indices.clear();
        for _ in 0..cfg.batch_size {
            indices.push(traversal[cursor % traversal.len()]);
            cursor += 1;
        }
        cursor %= traversal.len();
        let (x, y) = setup.train.batch(&indices);
        model.set_params_flat(&params);
        model.seek_dropout(forward_index);
        let stats = model.forward_backward(&x, &y);
        last_loss = stats.loss;
        let grads = model.grads_flat();
        let delta_g = tracker.update(&grads);

        // Local update through the configured optimizer at the scheduled learning
        // rate (Alg. 1 line 9) — identical to the simulator's apply path.
        let lr = cfg.lr.lr_at(cfg.epoch_of(it), it);
        optimizer.step(&mut params, &grads, lr);

        // PS outage: the round degrades to forced-local. One probe envelope
        // discovers the outage and fails fast (no retry budget consumed); the
        // status all-gather, signal exchange and sync round — all PS-bound — are
        // skipped, and the worker keeps its local update. The δ policy is still
        // consulted and fed the lowest-ranked present worker's local signal, so
        // regime state stays coherent — bit-identical to the simulator's
        // degraded branch.
        if layer.ps_down(it as u64) {
            let probe =
                layer.ps_exchange(worker, it as u64, MsgKind::Pull, &(it as u64).to_le_bytes());
            assert!(
                matches!(probe, Err(PsExchangeError::Down { .. })),
                "the PS availability schedule and the layer's gate disagree at round {it}"
            );
            let sync_policy = SyncPolicy::new(port.delta_for(it));
            // A rendezvous that keeps the board's round-ordered observe behind
            // every present worker's δ fetch, exactly like the status all-gather
            // does on reachable rounds.
            port.allgather_flags(it, false, active);
            counter.record_local();
            if rank == 0 {
                if cfg.trace.is_enabled() {
                    crate::tracing::emit_round_context(&cfg.trace, &conditions, n, it, &present);
                    if ps_schedule
                        .as_ref()
                        .is_some_and(|s| s.outage_starts(it as u64))
                    {
                        cfg.trace.record(Event::PsDown { round: it });
                    }
                    cfg.trace.record(Event::DegradedRound {
                        round: it,
                        delta: sync_policy.delta,
                        loss: stats.loss,
                        delta_g,
                    });
                }
                port.observe(
                    RoundSignal {
                        iteration: it,
                        max_delta: delta_g,
                        mean_loss: stats.loss,
                        delta_mean: delta_g,
                        delta_sq_mean: delta_g * delta_g,
                        synced: false,
                    },
                    conditions.next_active_iteration(n, it + 1, cfg.iterations),
                );
            }
            if end_of_round(
                it,
                &present,
                &params,
                optimizer.as_ref(),
                &tracker,
                &counter,
                &sync_rounds,
                last_loss,
            ) {
                break;
            }
            continue;
        }
        // The first reachable round after an outage runs the catch-up sync: every
        // present worker forces its status bit, so the accumulated local-only
        // deltas reconcile through the ordinary elastic round.
        let catchup = ps_schedule
            .as_ref()
            .is_some_and(|s| s.outage_ends(it as u64));

        // Cluster-signal exchange among the live workers: the round's mean batch
        // loss and maximum Δ(g_i), combined in worker-id order — bit-identical to
        // the simulator's `RoundOutput::mean_loss` / `max_delta` folds.
        let (mean_loss, cluster_delta, moments) = if setup.exchange_signals {
            // Both scalars ride one envelope (the envelope id is
            // (kind, round, sender), so a second ScalarReduce from the same
            // worker in the same round would be dropped as a duplicate), and the
            // Δ-moment vector rides its own VecReduce envelope.
            let mut scalar_payload = [0u8; 8];
            scalar_payload[..4].copy_from_slice(&stats.loss.to_le_bytes());
            scalar_payload[4..].copy_from_slice(&delta_g.to_le_bytes());
            exchange(it, MsgKind::ScalarReduce, &scalar_payload);
            let mut vec_payload = [0u8; 8];
            vec_payload[..4].copy_from_slice(&delta_g.to_le_bytes());
            vec_payload[4..].copy_from_slice(&(delta_g * delta_g).to_le_bytes());
            exchange(it, MsgKind::VecReduce, &vec_payload);
            (
                port.allreduce_scalar(it, stats.loss, active, ScalarOp::Mean),
                port.allreduce_scalar(it, delta_g, active, ScalarOp::Max),
                port.allreduce_vec(it, vec![delta_g, delta_g * delta_g], active, ScalarOp::Mean),
            )
        } else {
            (stats.loss, delta_g, vec![delta_g, delta_g * delta_g])
        };

        // This round's δ from the *shared* cluster policy (Phase 0 of the
        // simulator driver); blocks until all earlier rounds' signals are in.
        let sync_policy = SyncPolicy::new(port.delta_for(it));

        // 1-bit status all-gather followed by the cluster decision (lines 10–13),
        // restricted to the live workers of this iteration. A catch-up round
        // forces every status bit.
        let wants_sync = catchup || sync_policy.worker_wants_sync(delta_g);
        let attempts = exchange(it, MsgKind::Flags, &[wants_sync as u8]);
        if attempts > 1 {
            // One retry event per (worker, round): every envelope this worker
            // sent this round shares the same attempt count.
            cfg.trace.record(Event::CommRetry {
                round: it,
                worker,
                attempts,
            });
        }
        let flags = port.allgather_flags(it, wants_sync, active);
        let synced = flags.iter().any(|&f| f);
        if synced {
            // Push local parameters, pull the average (lines 14–15). The elastic
            // round combines contributions in worker-id order, so the pulled
            // average equals the simulator's to the last bit. The control-plane
            // announcement (parameter byte count) is an envelope; the parameters
            // themselves move through the data-plane rendezvous.
            exchange(
                it,
                MsgKind::SyncRound,
                &((params.len() * 4) as u64).to_le_bytes(),
            );
            params = port.sync_round(it, &params, active);
            counter.record_sync();
            sync_rounds.push(it);
        } else {
            counter.record_local();
        }
        if rank == 0 {
            if cfg.trace.is_enabled() {
                // One emitter per round: the lowest-ranked present worker logs the
                // round's structural and decision events (canonical sorting erases
                // any interleaving with other rounds).
                crate::tracing::emit_round_context(&cfg.trace, &conditions, n, it, &present);
                if catchup {
                    let schedule = ps_schedule.as_ref().expect("catchup implies a schedule");
                    cfg.trace.record(Event::PsUp { round: it });
                    cfg.trace.record(Event::CatchupSync {
                        round: it,
                        behind: schedule.rounds_behind(it as u64) as usize,
                    });
                }
                if setup.exchange_signals {
                    cfg.trace.record(Event::Signal {
                        round: it,
                        mean_loss,
                        max_delta: cluster_delta,
                    });
                }
                cfg.trace.record(Event::Round {
                    round: it,
                    delta: sync_policy.delta,
                    // The gather is full-width (absent slots read false); the
                    // canonical event keeps present-worker order, matching the
                    // simulator's per-present-worker flag vector.
                    flags: present.iter().map(|&w| flags[w]).collect(),
                    synced,
                });
            }
            // The lowest-ranked present worker posts the round's cluster signal.
            // Every present worker has passed the status all-gather by now (it is
            // a rendezvous), so no one can still be waiting on this round's δ —
            // and if the round synchronized, its global is already in the
            // snapshot ring, so a scheduled rejoin pull unblocked by this
            // observation finds everything it needs.
            port.observe(
                RoundSignal {
                    iteration: it,
                    max_delta: cluster_delta,
                    mean_loss,
                    delta_mean: moments[0],
                    delta_sq_mean: moments[1],
                    synced,
                },
                conditions.next_active_iteration(n, it + 1, cfg.iterations),
            );
        }
        if end_of_round(
            it,
            &present,
            &params,
            optimizer.as_ref(),
            &tracker,
            &counter,
            &sync_rounds,
            last_loss,
        ) {
            break;
        }
    }

    // A killed worker dies right here — no final pull, so its distance has no
    // value.
    let distance: f32 = if killed {
        f32::NAN
    } else {
        let global = port.pull();
        params
            .iter()
            .zip(global.iter())
            .map(|(a, b)| (a - b).powi(2))
            .sum::<f32>()
            .sqrt()
    };
    ThreadedWorkerReport {
        worker,
        sync_steps: counter.sync_steps,
        local_steps: counter.local_steps,
        sync_rounds,
        final_loss: last_loss,
        distance_to_global: distance,
    }
}

/// One worker's durable recovery section: everything that cannot be recomputed
/// from the schedule — its parameter replica, optimizer and `Δ(g_i)` tracker state,
/// LSSR counters, synchronization history and last observed loss. The packing order
/// is the contract [`run_worker`]'s resume path reads back.
fn worker_section(
    worker: usize,
    params: &[f32],
    optimizer: &dyn selsync_nn::Optimizer,
    tracker: &GradientTracker,
    counter: &LssrCounter,
    sync_rounds: &[usize],
    last_loss: f32,
) -> Section {
    let mut section = Section::new(format!("worker{worker}"));
    section.push_f32s(params);
    let optimizer_state = optimizer.export_state();
    section.push_int(optimizer_state.t);
    section.push_usize(optimizer_state.buffers.len());
    for buffer in &optimizer_state.buffers {
        section.push_f32s(buffer);
    }
    let tracker_state = tracker.export_state();
    section.push_f32s(&tracker_state.ewma_history);
    section.push_opt_f32(tracker_state.ewma_smoothed);
    section.push_opt_f32(tracker_state.previous_smoothed);
    section.push_f32(tracker_state.last_delta);
    section.push_f32(tracker_state.max_delta);
    section.push_int(tracker_state.steps);
    section.push_int(counter.sync_steps);
    section.push_int(counter.local_steps);
    let rounds: Vec<u64> = sync_rounds.iter().map(|&r| r as u64).collect();
    section.push_ints(&rounds);
    section.push_f32(last_loss);
    section
}
