//! Thread-per-worker SelSync/BSP driver: the whole cluster in one process.
//!
//! Each worker runs on its own OS thread, and all of them share one in-process
//! hub (`crate::hub`): the [`selsync_comm`] parameter server and collectives,
//! the δ-policy board, and the checkpoint writer. A worker thread runs the
//! same round loop as a [`crate::process`] worker (`crate::worker`), calling
//! the hub directly instead of over a socket, and records into the run's one
//! trace sink. So the synchronization logic of Alg. 1 — the 1-bit status
//! all-gather, the blocking parameter-server round, the "any worker can force a
//! synchronization" rule — runs with real concurrency and blocking rendezvous,
//! without process or socket overhead. The wall-clock benchmark
//! (`wallbench`, workload `threaded-churn`) measures this backend.
//!
//! **Parity with the simulator.** Synchronization averages and signal
//! aggregates are combined in **worker-id order** by the round-keyed elastic
//! rendezvous ([`selsync_comm::rounds`]), bit-identical to the simulator's
//! folds, and every per-worker stream (data traversal, dropout position,
//! optimizer, `Δ(g_i)` tracker) is the simulator's. So the threaded cluster's
//! parameter stream, synchronization schedule and canonical event log equal the
//! simulator's: on crash-free schedules always, and on crash/rejoin schedules
//! under the deterministic [`crate::config::RejoinPull::Scheduled`] mode. A
//! rejoiner under the default wall-clock mode reads whatever the PS holds at
//! that moment, which is not deterministic. The scenario, trace and fault
//! parity suites pin this for fixed, scheduled and adaptive δ policies alike.
//!
//! **Checkpoints.** At a due round every thread deposits its recovery section
//! into the hub by value and parks; the hub writes the image (tag
//! `"threaded"`) with the shared sink's trace prefix. The process backend
//! writes the same layout, and [`run_threaded_selsync_resumed`] resumes images
//! from any backend.

use crate::checkpoint::Checkpoint;
use crate::config::TrainConfig;
use crate::hub::{HubService, LocalPort};
use crate::worker::{message_layer, run_worker, WorkerSetup};
use selsync_comm::LosslessTransport;
use selsync_nn::model::PaperModel;
use serde::{Deserialize, Serialize};

/// Result of a threaded run, per worker.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThreadedWorkerReport {
    /// Worker id.
    pub worker: usize,
    /// Steps that synchronized.
    pub sync_steps: u64,
    /// Steps that stayed local.
    pub local_steps: u64,
    /// The iterations at which this worker's rounds synchronized — the worker's view
    /// of the cluster synchronization schedule. Equal to the simulator's
    /// [`crate::report::RunReport::sync_rounds`] restricted to the rounds this worker
    /// was present at (so equal across workers, and to the simulator's schedule
    /// verbatim, on crash-free schedules) — for fixed, scheduled *and* adaptive δ
    /// policies, with crash/rejoin schedules covered under
    /// [`crate::config::RejoinPull::Scheduled`].
    pub sync_rounds: Vec<usize>,
    /// Final training loss observed by this worker.
    pub final_loss: f32,
    /// L2 distance between this worker's final parameters and the PS global vector
    /// (0 after a final synchronization under parameter aggregation).
    pub distance_to_global: f32,
}

/// Run SelSync (or BSP via δ=0) with one OS thread per worker over the real parameter
/// server and collectives. Returns one report per worker.
pub fn run_threaded_selsync(cfg: &TrainConfig) -> Vec<ThreadedWorkerReport> {
    run_threaded_inner(cfg, None)
}

/// Resume a threaded run from a durable checkpoint of the *same* configuration,
/// written by any backend. The PS (global + snapshot ring), the shared δ policy,
/// every worker's local state and the trace prefix are restored before any
/// thread spawns; the resumed cluster continues from `ckpt.round + 1` and
/// produces the byte-identical trace and reports of the uninterrupted run.
pub fn run_threaded_selsync_resumed(
    cfg: &TrainConfig,
    ckpt: &Checkpoint,
) -> Vec<ThreadedWorkerReport> {
    run_threaded_inner(cfg, Some(ckpt))
}

fn run_threaded_inner(cfg: &TrainConfig, resume: Option<&Checkpoint>) -> Vec<ThreadedWorkerReport> {
    // Translate once: the hub and every worker read the same image.
    let resume = resume.map(|ckpt| crate::resume::cluster_image(cfg, ckpt));
    let resume = resume.as_deref();
    let proto = PaperModel::build(cfg.model, cfg.seed);
    let hub = HubService::new(cfg, &proto, resume, "threaded");
    let setup = WorkerSetup::new(cfg, &proto);
    // One message layer for every thread, over the in-memory transport.
    let layer = message_layer(cfg, Box::new(LosslessTransport));
    let (hub, setup, layer) = (&hub, &setup, &layer);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..cfg.workers)
            .map(|worker| {
                scope.spawn(move || {
                    let port = LocalPort { hub, worker };
                    run_worker(cfg, setup, worker, &port, layer, resume, None)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("worker thread panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AlgorithmSpec;
    use crate::policy::PolicySpec;
    use selsync_nn::model::ModelKind;
    use selsync_tracelog::TraceSink;

    fn cfg(delta: f32, workers: usize) -> TrainConfig {
        let mut cfg = TrainConfig::small(ModelKind::ResNetLike, workers);
        cfg.iterations = 25;
        cfg.batch_size = 8;
        cfg.train_samples = 256;
        cfg.test_samples = 64;
        cfg.algorithm = AlgorithmSpec::selsync(delta);
        cfg
    }

    #[test]
    fn all_workers_agree_on_the_synchronization_schedule() {
        let reports = run_threaded_selsync(&cfg(0.05, 4));
        assert_eq!(reports.len(), 4);
        let first = (
            reports[0].sync_steps,
            reports[0].local_steps,
            reports[0].sync_rounds.clone(),
        );
        for r in &reports {
            assert_eq!(
                (r.sync_steps, r.local_steps, r.sync_rounds.clone()),
                first,
                "worker {} diverged",
                r.worker
            );
            assert_eq!(r.sync_steps + r.local_steps, 25);
            assert_eq!(r.sync_rounds.len() as u64, r.sync_steps);
        }
    }

    #[test]
    fn delta_zero_synchronizes_every_step_across_threads() {
        let mut c = cfg(0.0, 3);
        c.algorithm = AlgorithmSpec::Bsp;
        let reports = run_threaded_selsync(&c);
        for r in &reports {
            assert_eq!(r.sync_steps, 25);
            assert_eq!(r.local_steps, 0);
            assert_eq!(r.sync_rounds, (0..25).collect::<Vec<_>>());
            // After a final synchronization every worker equals the PS state.
            assert!(
                r.distance_to_global < 1e-4,
                "distance {}",
                r.distance_to_global
            );
        }
    }

    #[test]
    fn huge_delta_never_synchronizes_across_threads() {
        let reports = run_threaded_selsync(&cfg(1e9, 3));
        for r in &reports {
            assert_eq!(r.sync_steps, 0);
            assert_eq!(r.local_steps, 25);
            assert!(r.sync_rounds.is_empty());
        }
    }

    #[test]
    fn scheduled_policy_is_honoured_across_threads() {
        // δ = 0 for the first 10 iterations (every step synchronizes), then δ huge
        // (never again): the schedule is a pure function of the iteration, so every
        // worker replica agrees on it.
        let mut c = cfg(0.0, 3);
        c.delta_policy = Some(PolicySpec::Schedule {
            starts: vec![0, 10],
            deltas: vec![0.0, 1e9],
        });
        let reports = run_threaded_selsync(&c);
        for r in &reports {
            assert_eq!(r.sync_rounds, (0..10).collect::<Vec<_>>());
            assert_eq!(r.sync_steps, 10);
            assert_eq!(r.local_steps, 15);
        }
    }

    #[test]
    fn adaptive_policy_decisions_are_cluster_coherent_and_match_the_simulator() {
        // The shared signal board feeds the adaptive policy the same worker-order
        // cluster aggregates the simulator computes, so the threaded schedule equals
        // the simulator's even though the policy is stateful.
        let mut c = cfg(0.3, 4);
        c.iterations = 30;
        c.delta_policy = Some(PolicySpec::adaptive_default());
        let sim = crate::algorithms::run(&c);
        assert!(
            sim.sync_steps > 0 && sim.local_steps > 0,
            "the adaptive arm must produce a mixed schedule for this to be meaningful"
        );
        let reports = run_threaded_selsync(&c);
        for r in &reports {
            assert_eq!(
                r.sync_rounds, sim.sync_rounds,
                "worker {} diverged from the simulator's adaptive schedule",
                r.worker
            );
        }
    }

    #[test]
    fn scheduled_rejoin_pull_reproduces_the_simulator_on_a_crash_schedule() {
        use crate::conditions::{ClusterConditions, FaultEvent};
        use crate::config::RejoinPull;
        // δ > 0 (mixed schedule) with a crash window: under the scheduled rejoin-pull
        // mode the rejoiner reads the last scheduled global, so every worker's
        // schedule must equal the simulator's restricted to its present rounds.
        let mut c = cfg(0.05, 3);
        c.rejoin_pull = RejoinPull::Scheduled;
        c.conditions = ClusterConditions::uniform().with_fault(FaultEvent::Crash {
            worker: 2,
            start: 5,
            rejoin: Some(15),
        });
        let sim = crate::algorithms::run(&c);
        let reports = run_threaded_selsync(&c);
        for r in &reports {
            let expected: Vec<usize> = sim
                .sync_rounds
                .iter()
                .copied()
                .filter(|&round| c.conditions.is_present(r.worker, round))
                .collect();
            assert_eq!(
                r.sync_rounds, expected,
                "worker {} diverged from the simulator under crash/rejoin",
                r.worker
            );
        }
        // Determinism of the whole run: a rerun reproduces the same reports.
        let again = run_threaded_selsync(&c);
        for (a, b) in reports.iter().zip(again.iter()) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }

    #[test]
    fn crash_and_rejoin_across_threads_keeps_the_cluster_consistent() {
        use crate::conditions::{ClusterConditions, FaultEvent};
        // BSP (δ=0) with worker 2 crashed for iterations 5..15: the live workers keep
        // synchronizing among themselves, the crashed worker misses exactly 10 rounds,
        // and after its rejoin-pull everybody finishes on the PS state.
        let mut c = cfg(0.0, 3);
        c.algorithm = AlgorithmSpec::Bsp;
        c.conditions = ClusterConditions::uniform().with_fault(FaultEvent::Crash {
            worker: 2,
            start: 5,
            rejoin: Some(15),
        });
        let reports = run_threaded_selsync(&c);
        assert_eq!(reports[0].sync_steps, 25);
        assert_eq!(reports[1].sync_steps, 25);
        assert_eq!(reports[2].sync_steps, 15, "crashed worker misses 10 rounds");
        assert!(!reports[2].sync_rounds.contains(&7));
        for r in &reports {
            assert!(
                r.distance_to_global < 1e-4,
                "worker {} should end on the PS state, distance {}",
                r.worker,
                r.distance_to_global
            );
        }
    }

    #[test]
    fn ps_outage_schedule_matches_the_simulator_and_degrades_rounds() {
        use selsync_comm::faults::PsFaultSpec;
        use selsync_tracelog::TraceGranularity;
        // δ = 0 with an outage window: rounds 8..12 degrade to local in both
        // backends, the catch-up sync fires at 12, and the schedules agree.
        let mut c = cfg(0.0, 3);
        c.ps_faults = Some(PsFaultSpec {
            seed: 5,
            windows: vec![(8, 4)],
            flaky: 0.0,
        });
        c.trace = TraceSink::capture(TraceGranularity::Full);
        let sim = crate::algorithms::run(&c);
        let sim_trace = c.trace.take_log();
        c.trace = TraceSink::capture(TraceGranularity::Full);
        let reports = run_threaded_selsync(&c);
        let threaded_trace = c.trace.take_log();
        for r in &reports {
            assert_eq!(r.local_steps, 4, "worker {} outage rounds", r.worker);
            assert_eq!(
                r.sync_rounds, sim.sync_rounds,
                "worker {} diverged",
                r.worker
            );
        }
        assert_eq!(sim_trace.encode(), threaded_trace.encode());
    }

    #[test]
    fn threaded_kill_and_resume_reproduces_the_uninterrupted_run() {
        use crate::config::CheckpointSpec;
        use selsync_comm::faults::PsFaultSpec;
        use selsync_tracelog::TraceGranularity;
        let dir = std::env::temp_dir().join(format!(
            "selsync-threaded-resume-test-{}",
            std::process::id()
        ));
        let make = || {
            let mut c = cfg(0.05, 3);
            // The outage window straddles the kill round, and the adaptive policy
            // carries cross-round state through it.
            c.ps_faults = Some(PsFaultSpec {
                seed: 11,
                windows: vec![(9, 3)],
                flaky: 0.0,
            });
            c.delta_policy = Some(PolicySpec::adaptive_default());
            c.trace = TraceSink::capture(TraceGranularity::Full);
            c
        };
        let full_cfg = make();
        let full = run_threaded_selsync(&full_cfg);
        let full_trace = full_cfg.trace.take_log().encode();

        let mut killed_cfg = make();
        killed_cfg.checkpoint = Some(CheckpointSpec {
            every: 5,
            dir: dir.to_string_lossy().into_owned(),
            halt_after: Some(10),
            keep: None,
        });
        let _halted = run_threaded_selsync(&killed_cfg);
        let ckpt = Checkpoint::read_file(dir.join("ckpt-10")).expect("checkpoint reads back");
        assert_eq!(ckpt.backend, "threaded");
        assert!(dir.join("ckpt-4").exists(), "cadence checkpoint at round 4");

        let resumed_cfg = make();
        let resumed = run_threaded_selsync_resumed(&resumed_cfg, &ckpt);
        assert_eq!(resumed_cfg.trace.take_log().encode(), full_trace);
        for (a, b) in full.iter().zip(resumed.iter()) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A drop/corrupt schedule whose seed (searched deterministically) evicts
    /// exactly one worker strictly inside the run, so the pre- and post-eviction
    /// regimes are both exercised.
    fn mid_run_evicting_spec(c: &TrainConfig) -> selsync_comm::faults::CommFaultSpec {
        use selsync_comm::faults::CommFaultSpec;
        let spec_for = |seed| CommFaultSpec {
            seed,
            drop: 0.05,
            duplicate: 0.0,
            corrupt: 0.01,
            delay: 0.0,
            delay_rounds: 0,
            retry_budget: 2,
            timeout_s: 1e-3,
        };
        let seed = (0..500)
            .find(|&seed| {
                let mut probe = c.clone();
                probe.comm_faults = Some(spec_for(seed));
                let evictions = probe.comm_fault_evictions();
                evictions.len() == 1 && (3..20).contains(&evictions[0].1)
            })
            .expect("some seed in 0..500 evicts exactly one worker mid-run");
        spec_for(seed)
    }

    #[test]
    fn comm_fault_eviction_is_report_identical_to_the_equivalent_scheduled_crash() {
        // An eviction compiled from the fault schedule must behave exactly like a
        // scheduled no-rejoin crash at the same round: a run with the weather and
        // a fault-free run with the pre-compiled crash produce identical reports.
        let mut c = cfg(0.05, 3);
        c.comm_faults = Some(mid_run_evicting_spec(&c));
        let faulty = run_threaded_selsync(&c);
        let mut crashed = c.clone();
        crashed.conditions = c.effective_conditions();
        crashed.comm_faults = None;
        let clean = run_threaded_selsync(&crashed);
        for (a, b) in faulty.iter().zip(clean.iter()) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }

    #[test]
    fn duplicate_and_delay_weather_is_report_identical_to_lossless() {
        use selsync_comm::faults::CommFaultSpec;
        // Duplicates are absorbed by envelope-id dedupe and delays only reorder
        // delivery, so a drop/corrupt-free schedule changes nothing observable.
        let mut c = cfg(0.05, 3);
        c.comm_faults = Some(CommFaultSpec {
            seed: 9,
            drop: 0.0,
            duplicate: 0.4,
            corrupt: 0.0,
            delay: 0.3,
            delay_rounds: 0,
            retry_budget: 3,
            timeout_s: 1e-3,
        });
        assert!(c.comm_fault_evictions().is_empty());
        let faulty = run_threaded_selsync(&c);
        let mut lossless = c.clone();
        lossless.comm_faults = None;
        let clean = run_threaded_selsync(&lossless);
        for (a, b) in faulty.iter().zip(clean.iter()) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }

    #[test]
    fn faulty_runs_match_the_simulator_restricted_to_effective_presence() {
        let mut c = cfg(0.05, 3);
        c.comm_faults = Some(mid_run_evicting_spec(&c));
        let sim = crate::algorithms::run(&c);
        let reports = run_threaded_selsync(&c);
        let effective = c.effective_conditions();
        for r in &reports {
            let expected: Vec<usize> = sim
                .sync_rounds
                .iter()
                .copied()
                .filter(|&round| effective.is_present(r.worker, round))
                .collect();
            assert_eq!(
                r.sync_rounds, expected,
                "worker {} diverged from the simulator under comm faults",
                r.worker
            );
        }
        // Reruns reproduce the same reports bit-for-bit.
        let again = run_threaded_selsync(&c);
        for (a, b) in reports.iter().zip(again.iter()) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }
}
