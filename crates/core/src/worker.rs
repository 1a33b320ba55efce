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
//!
//! Link weather (`[comm_faults]`) and PS availability (`[ps_faults]`) are
//! closed-form schedules, not traffic: the loop reads its retry count, its
//! eviction round and the PS-down rounds from [`CommFaultSchedule`] and
//! [`PsFaultSchedule`], exactly as the simulator does, and sends each op once
//! as a [`HubCall`].

use crate::checkpoint::{config_fingerprint, Checkpoint, Section};
use crate::conditions::{ClusterConditions, FaultEvent};
use crate::config::{RejoinPull, TrainConfig};
use crate::hubcall::{HubCall, HubReply, NO_ROUND};
use crate::policy::{RoundSignal, SyncPolicy};
use crate::sim;
use crate::threaded::ThreadedWorkerReport;
use crate::tracker::{GradStatistic, GradientTracker, TrackerState};
use selsync_comm::faults::{CommFaultSchedule, PsFaultSchedule};
use selsync_comm::ScalarOp;
use selsync_data::Dataset;
use selsync_metrics::lssr::LssrCounter;
use selsync_nn::model::PaperModel;
use selsync_nn::OptimizerState;
use selsync_tracelog::{Event, PullKind};

/// A worker's carrier to the hub's shared state: each op is one [`HubCall`]
/// at RPC round header `round`, answered as the hub's `HubService::call`
/// answers it. Rounds key every rendezvous, so skipping rounds (crash windows)
/// is safe; worker-order folds happen hub-side.
pub(crate) trait ClusterPort {
    fn call(&self, round: u64, call: HubCall) -> HubReply;
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
    /// The `[comm_faults]` link weather: a worker's attempt count at a round is
    /// `attempts_used(worker, round)`, the same closed form the simulator prices.
    comm_schedule: Option<CommFaultSchedule>,
    ps_schedule: Option<PsFaultSchedule>,
    /// Whether the policy consumes round signals. Fixed and scheduled policies
    /// are pure functions of the iteration and discard their observations, so
    /// the per-round signal rendezvous are elided for them; the board still
    /// runs, because its round-ordered advancement is also what tells a
    /// scheduled rejoin pull that the snapshot ring is complete.
    exchange_signals: bool,
    /// The run's configuration fingerprint, stamped on checkpoint deposits.
    fingerprint: u64,
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
            comm_schedule: cfg.comm_faults.map(CommFaultSchedule::new),
            ps_schedule: cfg.ps_fault_schedule(),
            exchange_signals: spec.consumes_round_signals(),
            fingerprint: config_fingerprint(cfg),
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
    let mut params = port.call(NO_ROUND, HubCall::Pull).vector();
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

    let mut killed = false;
    for it in start..cfg.iterations {
        let round = it as u64;
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
            let evs = port.call(round, HubCall::RoundBegin(it)).evictions();
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
        'round: {
            let Some(rank) = present.iter().position(|&p| p == worker) else {
                if setup.evictions.contains(&(worker, it)) {
                    // The fault schedule drives this worker past its retry budget
                    // at this round: log the eviction and fall out of the cluster
                    // for good.
                    cfg.trace.record(Event::CommEvict { round: it, worker });
                }
                was_present = false;
                forwards_before += present.len() as u64;
                break 'round;
            };
            let active = present.len();
            let forward_index = forwards_before + rank as u64;
            forwards_before += active as u64;
            if !was_present {
                // Rejoin: tracker and optimizer did not survive the crash (the
                // simulator restarts per-worker state the same way — its cluster-level
                // policy, like the shared board here, is untouched). The pull follows
                // the configured semantics, at PS-down rounds too (the scheduled
                // lookup is schedule-pure), exactly like the simulator's rejoin path.
                params = match cfg.rejoin_pull {
                    RejoinPull::WallClock => port.call(NO_ROUND, HubCall::Pull).vector(),
                    RejoinPull::Scheduled => {
                        // Wait until every active round before the rejoin has fully
                        // decided (the board advances only after a round's sync, so
                        // the ring then holds every scheduled global this lookup can
                        // need), then pull the last scheduled synchronization's
                        // global — the simulator's `global` entering this round.
                        port.call(round, HubCall::WaitCaughtUp(it));
                        port.call(round, HubCall::ScheduledGlobalBefore).vector()
                    }
                };
                if cfg.trace.is_enabled() {
                    // Mirror the simulator's pull event: under scheduled pulls the
                    // source is the ring's answer for this round; wall-clock pulls
                    // have a timing-dependent source, recorded as `None` on every
                    // backend so the logs stay byte-comparable.
                    let (pull, from) = match cfg.rejoin_pull {
                        RejoinPull::Scheduled => (
                            PullKind::Scheduled,
                            port.call(round, HubCall::ScheduledRoundBefore).round(),
                        ),
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

            // PS outage: the round degrades to forced-local. The signal exchange
            // and the sync round — both PS-bound — are skipped, every status bit
            // is forced off, and the worker keeps its local update. The δ policy
            // is still consulted and fed the lowest-ranked present worker's local
            // signal, so regime state stays coherent — bit-identical to the
            // simulator's degraded branch. The status all-gather still runs as
            // the rendezvous that keeps the board's round-ordered observe behind
            // every present worker's δ fetch.
            let ps_down = ps_schedule.as_ref().is_some_and(|s| s.down(round));
            // The first reachable round after an outage runs the catch-up sync: every
            // present worker forces its status bit, so the accumulated local-only
            // deltas reconcile through the ordinary elastic round.
            let catchup = ps_schedule.as_ref().is_some_and(|s| s.outage_ends(round));

            // Cluster-signal exchange among the live workers: the round's mean batch
            // loss and maximum Δ(g_i), combined in worker-id order — bit-identical to
            // the simulator's `RoundOutput::mean_loss` / `max_delta` folds.
            let (mean_loss, cluster_delta, moments) = if setup.exchange_signals && !ps_down {
                let moments = vec![delta_g, delta_g * delta_g];
                let moments = HubCall::AllreduceVec(ScalarOp::Mean, active, moments);
                let reduce =
                    |op, value| port.call(round, HubCall::AllreduceScalar(op, active, value));
                (
                    reduce(ScalarOp::Mean, stats.loss).scalar(),
                    reduce(ScalarOp::Max, delta_g).scalar(),
                    port.call(round, moments).vector(),
                )
            } else {
                (stats.loss, delta_g, vec![delta_g, delta_g * delta_g])
            };

            // This round's δ from the *shared* cluster policy (Phase 0 of the
            // simulator driver); blocks until all earlier rounds' signals are in.
            let sync_policy = SyncPolicy::new(port.call(round, HubCall::DeltaFor(it)).scalar());

            // 1-bit status all-gather followed by the cluster decision (lines 10–13),
            // restricted to the live workers of this iteration. A catch-up round
            // forces every status bit.
            let wants_sync = !ps_down && (catchup || sync_policy.worker_wants_sync(delta_g));
            // One retry event per (worker, round): link weather is keyed by
            // `(worker, round, attempt, leg)`, not by op, so every op this worker
            // sends this round shares one attempt count. A present worker always
            // lands within its budget — exhaustion would have evicted it. A
            // degraded round reaches no server, so it has no link weather.
            if let Some(schedule) = setup.comm_schedule.as_ref().filter(|_| !ps_down) {
                let attempts = schedule
                    .attempts_used(worker, round)
                    .expect("present workers complete within their retry budget");
                if attempts > 1 {
                    cfg.trace.record(Event::CommRetry {
                        round: it,
                        worker,
                        attempts,
                    });
                }
            }
            let flags = port
                .call(round, HubCall::AllgatherFlags(wants_sync, active))
                .flags();
            let synced = flags.iter().any(|&f| f);
            if synced {
                // Push local parameters, pull the average (lines 14–15). The elastic
                // round combines contributions in worker-id order, so the pulled
                // average equals the simulator's to the last bit.
                params = port
                    .call(round, HubCall::SyncRound(active, params))
                    .vector();
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
                    if ps_down {
                        if ps_schedule.as_ref().is_some_and(|s| s.outage_starts(round)) {
                            cfg.trace.record(Event::PsDown { round: it });
                        }
                        cfg.trace.record(Event::DegradedRound {
                            round: it,
                            delta: sync_policy.delta,
                            loss: stats.loss,
                            delta_g,
                        });
                    } else {
                        if catchup {
                            let schedule =
                                ps_schedule.as_ref().expect("catchup implies a schedule");
                            cfg.trace.record(Event::PsUp { round: it });
                            cfg.trace.record(Event::CatchupSync {
                                round: it,
                                behind: schedule.rounds_behind(round) as usize,
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
                }
                // The lowest-ranked present worker posts the round's cluster signal.
                // Every present worker has passed the status all-gather by now (it is
                // a rendezvous), so no one can still be waiting on this round's δ —
                // and if the round synchronized, its global is already in the
                // snapshot ring, so a scheduled rejoin pull unblocked by this
                // observation finds everything it needs.
                let signal = RoundSignal {
                    iteration: it,
                    max_delta: cluster_delta,
                    mean_loss,
                    delta_mean: moments[0],
                    delta_sq_mean: moments[1],
                    synced,
                };
                let next_round = conditions.next_active_iteration(n, it + 1, cfg.iterations);
                port.call(round, HubCall::Observe(signal, next_round));
            }
        }
        // Checkpoint-gate participation at the end of round `it`: every worker —
        // present or absent — deposits its recovery section when a checkpoint is
        // due and parks until the hub has written the image. The simulator writes
        // nothing at whole-cluster-absent rounds; neither do the real backends
        // (and the kill switch cannot fire there).
        if let Some(ck) = cfg.checkpoint.as_ref().filter(|_| !present.is_empty()) {
            if ck.due(it) || ck.halt_after == Some(it) {
                // The port attaches the trace shard, if its worker keeps its own.
                let section = worker_section(
                    worker,
                    &params,
                    optimizer.as_ref(),
                    &tracker,
                    &counter,
                    &sync_rounds,
                    last_loss,
                );
                let deposit = HubCall::Deposit {
                    round: it,
                    fingerprint: setup.fingerprint,
                    section,
                    trace: Vec::new(),
                };
                port.call(round, deposit);
            }
            if ck.halt_after == Some(it) {
                break;
            }
        }
    }

    // A killed worker dies right here — no final pull, so its distance has no
    // value.
    let distance: f32 = if killed {
        f32::NAN
    } else {
        let global = port.call(NO_ROUND, HubCall::Pull).vector();
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
