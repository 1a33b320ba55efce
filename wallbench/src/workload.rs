//! The three benchmark workloads: which backend runs, on which training
//! configuration, and how the run's inputs follow from the `--seed` argument.

use selsync::config::{AlgorithmSpec, CheckpointSpec, RejoinPull, TrainConfig};
use selsync::policy::PolicySpec;
use selsync::{ClusterConditions, FaultEvent};
use selsync_nn::model::ModelKind;
use selsync_tracelog::{TraceGranularity, TraceSink};

/// Training seeds are `seed * SEED_STRIDE + j`, so runs with different
/// `--seed` never share one.
pub const SEED_STRIDE: u64 = 32;

/// Durable-checkpoint cadence of `threaded-churn`, in rounds.
pub const CKPT_EVERY: usize = 80;

/// Which driver executes the measured runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// `selsync::algorithms::run` in one process.
    Sim,
    /// `selsync::threaded::run_threaded_selsync`, one OS thread per worker.
    Threaded,
    /// One hub process plus one process per worker over a Unix socket.
    Process,
}

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SimSelsync,
    ClusterBsp,
    ThreadedChurn,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SimSelsync,
        Workload::ClusterBsp,
        Workload::ThreadedChurn,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::SimSelsync => "sim-selsync",
            Workload::ClusterBsp => "cluster-bsp",
            Workload::ThreadedChurn => "threaded-churn",
        }
    }

    pub fn backend(self) -> Backend {
        match self {
            Workload::SimSelsync => Backend::Sim,
            Workload::ClusterBsp => Backend::Process,
            Workload::ThreadedChurn => Backend::Threaded,
        }
    }

    pub fn workers(self) -> usize {
        match self {
            Workload::SimSelsync => 8,
            _ => 2,
        }
    }

    /// Training rounds of one measured run.
    pub fn rounds(self) -> usize {
        match self {
            Workload::SimSelsync => 240,
            Workload::ClusterBsp => 240,
            Workload::ThreadedChurn => 480,
        }
    }

    /// `SELSYNC_THREADS` of every compute process: the simulator gets the whole
    /// 2-thread pool, each real-backend role one thread, so total compute
    /// threads never exceed two.
    pub fn role_threads(self) -> usize {
        match self {
            Workload::SimSelsync => 2,
            _ => 1,
        }
    }

    /// The training seeds of a benchmark run seeded `seed`. Sync counts, wire
    /// bytes and accuracy are pure functions of the training seed and vary
    /// between seeds, so a run reports their mean over several seeds. The
    /// adaptive policy's sync count varies most (its standard deviation is
    /// about a quarter of its mean), and `threaded-churn`'s simulator
    /// references are cheap, so it takes the most; `cluster-bsp` syncs every
    /// round, so only its accuracy varies.
    pub fn train_seeds(self, seed: u64) -> Vec<u64> {
        let count = match self {
            Workload::SimSelsync => 8,
            Workload::ClusterBsp => 4,
            Workload::ThreadedChurn => 24,
        };
        (0..count).map(|j| seed * SEED_STRIDE + j).collect()
    }

    /// The full training configuration of one run of `rounds` rounds with
    /// training seed `train_seed`, capturing the canonical event log.
    /// `ckpt_dir` is where `threaded-churn` writes its durable checkpoints;
    /// `None` leaves checkpointing off (the event log does not record it).
    pub fn config(self, train_seed: u64, rounds: usize, ckpt_dir: Option<&str>) -> TrainConfig {
        let workers = self.workers();
        let mut cfg = TrainConfig::small(ModelKind::AlexLike, workers);
        cfg.batch_size = 16;
        cfg.iterations = rounds;
        cfg.seed = train_seed;
        // A larger held-out set than the default keeps the accuracy figure's
        // sampling error well under its seed-to-seed variation.
        cfg.test_samples = 1024;
        cfg.eval_samples = 1024;
        // On half the default training set, fixed-δ runs synchronize about
        // three times as often, so their sync count (and wire bytes) varies
        // less between seeds. The adaptive policy's varies more, so
        // `threaded-churn` keeps the default.
        if self != Workload::ThreadedChurn {
            cfg.train_samples = 1024;
        }
        // Evaluation runs only inside the simulator; the real backends report
        // the accuracy of their byte-identical simulator reference.
        cfg.eval_every = match self {
            Workload::SimSelsync => 24,
            _ => rounds,
        };
        cfg.algorithm = AlgorithmSpec::selsync(match self {
            Workload::ClusterBsp => 0.0,
            _ => 0.02,
        });
        if self == Workload::ThreadedChurn {
            cfg.delta_policy = Some(PolicySpec::adaptive_default());
            cfg.rejoin_pull = RejoinPull::Scheduled;
            let mut conditions = ClusterConditions::uniform();
            for (start, back) in [(120, 200), (300, 380)] {
                if start < rounds {
                    conditions = conditions.with_fault(FaultEvent::Crash {
                        worker: 1,
                        start,
                        rejoin: Some(back),
                    });
                }
            }
            cfg.conditions = conditions;
            cfg.checkpoint = ckpt_dir.map(|dir| CheckpointSpec::new(CKPT_EVERY, dir));
        }
        cfg.trace = TraceSink::capture(TraceGranularity::Full);
        cfg
    }

    /// Samples trained by present workers over the whole run.
    pub fn samples(cfg: &TrainConfig) -> u64 {
        let conditions = cfg.effective_conditions();
        let present: usize = (0..cfg.iterations)
            .map(|it| conditions.present_workers(cfg.workers, it).len())
            .sum();
        (present * cfg.batch_size) as u64
    }
}
