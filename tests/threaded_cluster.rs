//! Integration tests for the thread-per-worker driver: the real parameter server and the
//! 1-bit status all-gather must implement Alg. 1's coordination faithfully under actual
//! concurrency.

use selsync_repro::core::config::{AlgorithmSpec, TrainConfig};
use selsync_repro::core::threaded::run_threaded_selsync;
use selsync_repro::nn::model::ModelKind;

#[test]
fn threaded_selsync_workers_agree_on_every_decision() {
    let mut cfg = TrainConfig::small(ModelKind::ResNetLike, 6);
    cfg.iterations = 30;
    cfg.batch_size = 8;
    cfg.train_samples = 384;
    cfg.algorithm = AlgorithmSpec::selsync(0.1);
    let reports = run_threaded_selsync(&cfg);
    assert_eq!(reports.len(), 6);
    let schedule = (reports[0].sync_steps, reports[0].local_steps);
    for r in &reports {
        // The all-gather makes the decision global: every worker sees the same schedule.
        assert_eq!((r.sync_steps, r.local_steps), schedule);
        assert_eq!(r.sync_steps + r.local_steps, 30);
        assert!(r.final_loss.is_finite());
    }
}

#[test]
fn threaded_bsp_keeps_replicas_identical_to_the_global_model() {
    let mut cfg = TrainConfig::small(ModelKind::VggLike, 4);
    cfg.iterations = 20;
    cfg.batch_size = 8;
    cfg.train_samples = 256;
    cfg.algorithm = AlgorithmSpec::Bsp;
    let reports = run_threaded_selsync(&cfg);
    for r in &reports {
        assert_eq!(r.sync_steps, 20);
        assert!(
            r.distance_to_global < 1e-3,
            "worker {} distance {}",
            r.worker,
            r.distance_to_global
        );
    }
}
