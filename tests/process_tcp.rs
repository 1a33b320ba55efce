//! The process backend over TCP: a hub and two workers on loopback, under
//! `[comm_faults]` weather that forces retries, must produce the simulator's
//! event log byte for byte once their trace shards are merged.

use selsync_repro::comm::faults::CommFaultSpec;
use selsync_repro::comm::socket::SocketAddrSpec;
use selsync_repro::core::algorithms;
use selsync_repro::core::config::{AlgorithmSpec, TrainConfig};
use selsync_repro::core::process::{run_process_hub_with, run_process_worker_with, WorkerOptions};
use selsync_repro::nn::model::ModelKind;
use selsync_repro::tracelog::{Event, EventLog, TraceGranularity, TraceSink};

fn flaky_cfg() -> TrainConfig {
    let mut cfg = TrainConfig::small(ModelKind::ResNetLike, 2);
    cfg.iterations = 20;
    cfg.batch_size = 8;
    cfg.train_samples = 256;
    cfg.test_samples = 64;
    cfg.algorithm = AlgorithmSpec::selsync(0.05);
    cfg.comm_faults = Some(CommFaultSpec {
        seed: 5,
        drop: 0.15,
        duplicate: 0.05,
        corrupt: 0.0,
        delay: 0.05,
        delay_rounds: 0,
        retry_budget: 6,
        timeout_s: 1e-3,
    });
    cfg
}

/// A loopback address with a port no one was listening on a moment ago.
fn free_loopback_addr() -> SocketAddrSpec {
    let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = probe.local_addr().expect("local address");
    SocketAddrSpec::Tcp(addr.to_string())
}

#[test]
fn tcp_cluster_under_link_weather_matches_the_simulator_byte_for_byte() {
    let cfg = flaky_cfg();
    let sim_log = {
        let mut sim = cfg.clone();
        sim.trace = TraceSink::capture(TraceGranularity::Full);
        algorithms::run(&sim);
        sim.trace.take_log().encode()
    };

    let addr = free_loopback_addr();
    let traced = || {
        let mut c = cfg.clone();
        c.trace = TraceSink::capture(TraceGranularity::Full);
        c
    };
    let shards: Vec<String> = std::thread::scope(|scope| {
        let (hub_cfg, hub_addr) = (traced(), addr.clone());
        let hub = scope.spawn(move || run_process_hub_with(&hub_cfg, &hub_addr, None));
        let workers: Vec<_> = (0..cfg.workers)
            .map(|w| {
                let (worker_cfg, worker_addr) = (traced(), addr.clone());
                scope.spawn(move || {
                    run_process_worker_with(&worker_cfg, w, &worker_addr, WorkerOptions::default())
                        .1
                })
            })
            .collect();
        let mut shards: Vec<String> = workers
            .into_iter()
            .map(|w| w.join().expect("worker thread"))
            .collect();
        shards.push(hub.join().expect("hub thread"));
        shards
    });
    let merged = EventLog::merge(
        shards
            .iter()
            .map(|s| EventLog::decode(s).expect("shard decodes")),
    );

    assert!(
        merged
            .events
            .iter()
            .any(|e| matches!(e, Event::CommRetry { .. })),
        "the weather must force at least one retry, or the check is vacuous"
    );
    assert_eq!(
        merged.encode(),
        sim_log,
        "TCP cluster diverged from the simulator"
    );
}
