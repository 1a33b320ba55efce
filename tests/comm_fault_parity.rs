//! Message-fault robustness acceptance suite (see `docs/COMM_FAULTS.md`).
//!
//! A seeded `[comm_faults]` schedule must leave both SelSync backends exactly as
//! deterministic as lossless links do: event logs stay byte-identical across the
//! simulator, the threaded cluster and every `SELSYNC_THREADS` setting; retry and
//! eviction events are pure functions of the schedule; duplicate/delay-only weather
//! is observationally indistinguishable from lossless links; and a worker that
//! exhausts its retry budget leaves the run precisely like a scheduled no-rejoin
//! crash at the same round.

use selsync_repro::comm::faults::CommFaultSpec;
use selsync_repro::core::algorithms;
use selsync_repro::core::config::{AlgorithmSpec, TrainConfig};
use selsync_repro::core::threaded::run_threaded_selsync;
use selsync_repro::nn::model::ModelKind;
use selsync_repro::scenario::{builtin, sweep};
use selsync_repro::tensor::par;
use selsync_repro::tracelog::{
    explain, first_divergence, Event, EventLog, TraceGranularity, TraceSink,
};

/// Run the simulator with a fresh full-granularity sink and return the encoded log.
fn sim_trace(cfg: &TrainConfig) -> String {
    let mut cfg = cfg.clone();
    cfg.trace = TraceSink::capture(TraceGranularity::Full);
    algorithms::run(&cfg);
    cfg.trace.take_log().encode()
}

/// Run the threaded cluster with a fresh full-granularity sink and return the encoded log.
fn threaded_trace(cfg: &TrainConfig) -> String {
    let mut cfg = cfg.clone();
    cfg.trace = TraceSink::capture(TraceGranularity::Full);
    run_threaded_selsync(&cfg);
    cfg.trace.take_log().encode()
}

/// Decode both logs and panic with the trace-diff explanation when they differ.
fn assert_logs_equal(left: &str, right: &str, left_label: &str, right_label: &str, ctx: &str) {
    if left == right {
        return;
    }
    let a = EventLog::decode(left).expect("left log decodes");
    let b = EventLog::decode(right).expect("right log decodes");
    match first_divergence(&a, &b) {
        Some(div) => panic!(
            "{ctx}: event logs diverged\n{}",
            explain(&div, left_label, right_label)
        ),
        None => panic!("{ctx}: logs differ as text but not as events — codec drift?"),
    }
}

/// A small direct config with a mixed δ schedule, the shape the threaded unit
/// tests use: 3 workers, 25 rounds, signal-exchanging fixed policy.
fn base_cfg() -> TrainConfig {
    let mut cfg = TrainConfig::small(ModelKind::ResNetLike, 3);
    cfg.iterations = 25;
    cfg.batch_size = 8;
    cfg.train_samples = 256;
    cfg.test_samples = 64;
    cfg.algorithm = AlgorithmSpec::selsync(0.05);
    cfg
}

/// Deterministically search for weather that evicts exactly one worker strictly
/// inside the run, so the pre- and post-eviction regimes are both exercised.
fn mid_run_evicting_spec(cfg: &TrainConfig) -> CommFaultSpec {
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
            let mut probe = cfg.clone();
            probe.comm_faults = Some(spec_for(seed));
            let evictions = probe.comm_fault_evictions();
            evictions.len() == 1 && (3..20).contains(&evictions[0].1)
        })
        .expect("some seed in 0..500 evicts exactly one worker mid-run");
    spec_for(seed)
}

/// The `flaky-links` built-in at smoke scale: lossy enough to retry constantly
/// within 30 rounds, with a budget deep enough that nobody is evicted.
fn flaky_links_cfg() -> TrainConfig {
    let mut s = builtin("flaky-links").expect("built-in scenario");
    sweep::rescale_fault_windows(&mut s, 30);
    s.eval_every = 10;
    s.train_samples = 512;
    s.test_samples = 128;
    s.eval_samples = 128;
    s.batch_size = 8;
    s.sweep = None;
    s.train_config(AlgorithmSpec::selsync(0.055))
}

#[test]
fn flaky_links_trace_is_byte_identical_across_backends_and_thread_counts() {
    let cfg = flaky_links_cfg();
    let (sim_ref, thr_ref) = par::with_threads(1, || (sim_trace(&cfg), threaded_trace(&cfg)));
    assert!(
        sim_ref.contains("\"comm_retry\""),
        "the built-in weather must force retries at smoke scale"
    );
    assert_logs_equal(&sim_ref, &thr_ref, "simulator", "threaded", "flaky-links");
    for threads in [2usize, 4] {
        let (sim, thr) = par::with_threads(threads, || (sim_trace(&cfg), threaded_trace(&cfg)));
        assert_eq!(
            sim, sim_ref,
            "flaky-links: simulator log at {threads} threads"
        );
        assert_eq!(
            thr, thr_ref,
            "flaky-links: threaded log at {threads} threads"
        );
    }
}

#[test]
fn eviction_equals_a_scheduled_crash_modulo_comm_events() {
    let mut cfg = base_cfg();
    cfg.comm_faults = Some(mid_run_evicting_spec(&cfg));
    let faulty = sim_trace(&cfg);
    assert!(
        faulty.contains("\"comm_evict\""),
        "the searched weather must evict"
    );
    // Both backends tell the same eviction story.
    assert_logs_equal(
        &faulty,
        &threaded_trace(&cfg),
        "simulator",
        "threaded",
        "evicting weather",
    );
    // A fault-free run with the eviction pre-compiled as a no-rejoin crash emits
    // the exact same log minus the comm events: membership edges, round decisions
    // and signals are untouched by *how* the worker left.
    let mut crashed = cfg.clone();
    crashed.conditions = cfg.effective_conditions();
    crashed.comm_faults = None;
    let clean = sim_trace(&crashed);
    let filtered = EventLog {
        events: EventLog::decode(&faulty)
            .expect("faulty log decodes")
            .events
            .into_iter()
            .filter(|e| !matches!(e, Event::CommRetry { .. } | Event::CommEvict { .. }))
            .collect(),
    };
    assert_logs_equal(
        &filtered.encode(),
        &clean,
        "faulty-minus-comm",
        "scheduled-crash",
        "evicting weather",
    );
    // The synchronization schedule is identical too.
    let a = algorithms::run(&cfg);
    let b = algorithms::run(&crashed);
    assert_eq!(a.sync_rounds, b.sync_rounds);
    assert_eq!((a.sync_steps, a.local_steps), (b.sync_steps, b.local_steps));
}

#[test]
fn duplicate_and_delay_weather_is_indistinguishable_from_lossless() {
    // Duplicated and delayed legs still deliver, so they never cost an attempt:
    // a drop/corrupt-free schedule must be a perfect no-op, with identical logs
    // *and* identical reports (no retry pricing).
    let mut cfg = base_cfg();
    cfg.comm_faults = Some(CommFaultSpec {
        seed: 9,
        drop: 0.0,
        duplicate: 0.4,
        corrupt: 0.0,
        delay: 0.3,
        delay_rounds: 0,
        retry_budget: 3,
        timeout_s: 5e-3,
    });
    assert!(cfg.comm_fault_evictions().is_empty());
    let mut lossless = cfg.clone();
    lossless.comm_faults = None;
    assert_eq!(sim_trace(&cfg), sim_trace(&lossless));
    assert_eq!(threaded_trace(&cfg), threaded_trace(&lossless));
    let a = algorithms::run(&cfg);
    let b = algorithms::run(&lossless);
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

#[test]
fn retries_terminate_within_budget_and_are_priced_into_the_report() {
    let mut cfg = base_cfg();
    let budget = 5;
    cfg.comm_faults = Some(CommFaultSpec {
        seed: 42,
        drop: 0.08,
        duplicate: 0.04,
        corrupt: 0.02,
        delay: 0.06,
        delay_rounds: 0,
        retry_budget: budget,
        timeout_s: 5e-3,
    });
    assert!(cfg.comm_fault_evictions().is_empty());
    let log = EventLog::decode(&sim_trace(&cfg)).expect("log decodes");
    let retries: Vec<u32> = log
        .events
        .iter()
        .filter_map(|e| match e {
            Event::CommRetry { attempts, .. } => Some(*attempts),
            _ => None,
        })
        .collect();
    assert!(!retries.is_empty(), "this weather must retry in 25 rounds");
    assert!(
        retries.iter().all(|&a| a > 1 && a <= budget),
        "every retried op terminates within its budget: {retries:?}"
    );
    // The weather is visible in the cost model (retry backoff + re-sent frames,
    // on top of the δ-signal exchange both runs price), but not in the schedule.
    let mut lossless = cfg.clone();
    lossless.comm_faults = None;
    let faulty_report = algorithms::run(&cfg);
    let clean_report = algorithms::run(&lossless);
    assert_eq!(faulty_report.sync_rounds, clean_report.sync_rounds);
    assert!(faulty_report.bytes_communicated > clean_report.bytes_communicated);
    assert!(faulty_report.sim_time_s > clean_report.sim_time_s);
}
