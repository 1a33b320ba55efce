//! Process-per-worker SelSync/BSP driver over a UDS or TCP socket — the third
//! backend, closing the simulator → threads → processes ladder.
//!
//! The cluster is a star of OS processes: one **hub** ([`run_process_hub`]) owns
//! the parameter server, the collectives and the shared δ-policy board; each
//! **worker** ([`run_process_worker`]) owns its model replica, data traversal,
//! optimizer and `Δ(g_i)` tracker, and reaches the hub over one
//! [`selsync_comm::socket`] connection (UDS by default, TCP by address). The
//! `scenario_cluster` bench binary is the orchestrator: it spawns the processes,
//! collects each one's trace shard and merges them with
//! [`selsync_tracelog::EventLog::merge`].
//!
//! **One loop, one hub.** A worker process runs the same round loop as a
//! [`crate::threaded`] worker thread (`crate::worker`), and the hub process
//! serves the same hub the threaded driver shares in memory (`crate::hub`).
//! This module is only the carrier between them. Every shared-state touch is
//! one blocking RPC ([`selsync_comm::HubClient`]) whose payload is the encoded
//! [`HubCall`]; the hub decodes it and serves it through the very dispatcher an
//! in-process worker calls. A payload that fails to decode counts as the
//! sender's death, so no input from the network can panic the hub. Nothing
//! else rides the socket: the [`crate::config::TrainConfig::comm_faults`]
//! weather is a closed-form schedule every worker reads locally (see
//! `crate::worker`), as the simulator and the threaded driver do.
//!
//! Worker-order folds, round-keyed rendezvous and the board's round-ordered
//! observation stream are all hub-side, so the multi-process cluster's
//! parameter stream, synchronization schedule and canonical event log are
//! byte-identical to the threaded driver's — and therefore to the simulator's.
//! The `tests/process_parity.rs` suite pins merged-trace byte-identity against
//! the simulator across worker counts.
//!
//! Each process records its own trace shard: the hub owns the header and the
//! policy's regime switches, the lowest-ranked present worker owns a round's
//! structural events, and each worker owns its own retry/eviction/rejoin
//! events — every canonical event is emitted by exactly one process, so the
//! sorted concatenation of shards is the single-process log.
//!
//! **Durable checkpoints.** At every due round each live worker ships its
//! recovery section and trace-shard prefix to the hub as one RPC deposit
//! ([`HubCall::Deposit`]) and parks; once every deposit is in, the hub writes the
//! image — the threaded driver's layout, tagged `"process"` — and releases the
//! cluster. Either real backend resumes either tag, and [`crate::resume`]
//! translates to and from the simulator's layout, so a run checkpointed on one
//! backend resumes on any other byte for byte.
//!
//! **Worker death.** A connection that terminates after identification —
//! clean EOF or broken pipe alike — is mapped by the hub to a deterministic
//! eviction at the dead worker's next scheduled-present round, published to
//! the survivors through the per-round [`HubCall::RoundBegin`] barrier: every
//! present worker of a round folds the identical frozen eviction prefix, so
//! membership stays a pure function of the round and the surviving cluster
//! continues exactly as if the schedule had carried a no-rejoin crash at that
//! round. Out of contract: a death mid-round after the worker announced it
//! (in-flight rendezvous may hang), the death of a round's sole present
//! worker, and a death racing an in-flight checkpoint (that image is voided,
//! not written).
//!
//! Unsupported configurations are reported as a structured
//! [`UnsupportedConfig`] from [`ensure_supported`], so orchestrators print a
//! one-line diagnosis instead of surfacing an opaque child panic.

use crate::checkpoint::Checkpoint;
use crate::config::{AlgorithmSpec, TrainConfig};
use crate::hub::HubService;
use crate::hubcall::{HubCall, HubReply};
use crate::policy::PolicySpec;
use crate::threaded::ThreadedWorkerReport;
use crate::worker::{run_worker, ClusterPort, WorkerSetup};
use selsync_comm::socket::{HubClient, HubServer, SocketAddrSpec, SocketConn};
use selsync_nn::model::PaperModel;
use selsync_tracelog::TraceSink;
use std::sync::Arc;
use std::time::Duration;

/// How long a worker keeps retrying its initial connect while the hub binds.
pub const CONNECT_RETRY: Duration = Duration::from_secs(30);

/// Worker-side port into the hub process: each call is one blocking RPC
/// whose payload is the call's encoding.
struct RemoteCluster {
    client: HubClient,
    /// This worker's trace shard, shipped with each checkpoint deposit.
    trace: TraceSink,
}

impl ClusterPort for RemoteCluster {
    fn call(&self, round: u64, mut call: HubCall) -> HubReply {
        if let HubCall::Deposit { trace, .. } = &mut call {
            *trace = self.trace.snapshot_log().events;
        }
        let reply = self.client.rpc(round, call.encode());
        HubReply::decode(&call, &reply).unwrap_or_else(|e| panic!("malformed hub reply: {e}"))
    }
}

/// A configuration the process backend cannot run, naming the offending
/// scenario key so orchestrators can print a one-line diagnosis instead of a
/// panic backtrace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnsupportedConfig {
    /// The scenario key (or key path) that selects the unsupported feature.
    pub key: &'static str,
    /// Why the real backends reject it.
    pub message: String,
}

impl std::fmt::Display for UnsupportedConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unsupported by the process backend ({}): {}",
            self.key, self.message
        )
    }
}

impl std::error::Error for UnsupportedConfig {}

/// The configuration envelope both real backends support; building their
/// shared hub rejects everything else through this check. The unsupported
/// shapes are non-SelSync/BSP algorithms and data-injection over non-IID
/// shards (whose injection draws ride the simulator's cluster RNG); both stay
/// simulator-only.
pub fn ensure_supported(cfg: &TrainConfig) -> Result<(f32, PolicySpec), UnsupportedConfig> {
    let delta = match cfg.algorithm {
        AlgorithmSpec::SelSync { delta, .. } => delta,
        AlgorithmSpec::Bsp => 0.0,
        _ => {
            return Err(UnsupportedConfig {
                key: "scenario.algorithm",
                message: format!(
                    "the threaded and process backends run SelSync and BSP only; {} is \
                     simulator-only",
                    cfg.algorithm.name()
                ),
            })
        }
    };
    if let AlgorithmSpec::SelSync {
        injection: Some(_), ..
    } = cfg.algorithm
    {
        if cfg.non_iid_labels_per_worker.is_some() {
            return Err(UnsupportedConfig {
                key: "scenario.non_iid_labels_per_worker",
                message: "data-injection over non-IID shards draws from the simulator's \
                          cluster RNG and stays simulator-only"
                    .to_string(),
            });
        }
    }
    let spec = match cfg.algorithm {
        AlgorithmSpec::SelSync { .. } => cfg
            .delta_policy
            .clone()
            .unwrap_or(PolicySpec::Fixed { delta }),
        _ => PolicySpec::Fixed { delta },
    };
    if let Err(e) = spec.validate() {
        return Err(UnsupportedConfig {
            key: "policy",
            message: e,
        });
    }
    Ok((delta, spec))
}

/// Run the hub process: bind `addr`, serve one connection per worker until all
/// of them hang up, and return the hub's trace shard (the run header plus the
/// shared policy's regime-switch events) in encoded form.
pub fn run_process_hub(cfg: &TrainConfig, addr: &SocketAddrSpec) -> String {
    run_process_hub_with(cfg, addr, None)
}

/// [`run_process_hub`] with an optional recovery image to resume from — any
/// backend's (see [`crate::resume`]). A resumed hub's shard carries the image's
/// merged trace prefix; workers re-emit nothing before the resume round.
pub fn run_process_hub_with(
    cfg: &TrainConfig,
    addr: &SocketAddrSpec,
    resume: Option<&Checkpoint>,
) -> String {
    let proto = PaperModel::build(cfg.model, cfg.seed);
    let service = HubService::new(cfg, &proto, resume, "process");
    let server = HubServer::bind(addr).unwrap_or_else(|e| panic!("hub failed to bind {addr}: {e}"));
    server
        .serve(cfg.workers, Arc::new(service))
        .unwrap_or_else(|e| panic!("hub serve failed: {e}"));
    cfg.trace.take_log().encode()
}

/// Per-worker knobs for [`run_process_worker_with`] beyond the shared config.
#[derive(Default)]
pub struct WorkerOptions<'a> {
    /// Recovery image to resume from (any backend, like the hub's).
    pub resume: Option<&'a Checkpoint>,
    /// Die abruptly at the top of this round — no announce, no farewell — to
    /// exercise the hub's worker-death eviction path deterministically.
    pub kill_at: Option<usize>,
}

/// Run one worker process: connect to the hub at `addr` and execute worker
/// `worker`'s rounds — the round loop of a threaded worker, with shared-state
/// touches carried by the socket. Returns the worker's report and its trace
/// shard in encoded form.
pub fn run_process_worker(
    cfg: &TrainConfig,
    worker: usize,
    addr: &SocketAddrSpec,
) -> (ThreadedWorkerReport, String) {
    run_process_worker_with(cfg, worker, addr, WorkerOptions::default())
}

/// [`run_process_worker`] with resume / kill options. A killed worker's report
/// never reaches an orchestrator (the process is gone); its distance is NaN.
pub fn run_process_worker_with(
    cfg: &TrainConfig,
    worker: usize,
    addr: &SocketAddrSpec,
    opts: WorkerOptions<'_>,
) -> (ThreadedWorkerReport, String) {
    let setup = WorkerSetup::new(cfg, &PaperModel::build(cfg.model, cfg.seed));
    let resume = opts
        .resume
        .map(|ckpt| crate::resume::cluster_image(cfg, ckpt));
    let conn = SocketConn::connect(addr, CONNECT_RETRY)
        .unwrap_or_else(|e| panic!("worker {worker} failed to connect to {addr}: {e}"));
    let port = RemoteCluster {
        client: conn.client(worker as u32),
        trace: cfg.trace.clone(),
    };
    let report = run_worker(cfg, &setup, worker, &port, resume.as_deref(), opts.kill_at);
    (report, cfg.trace.take_log().encode())
}

/// Serialize a worker report to one deterministic text line (floats as raw bit
/// patterns, so the round trip is exact). The orchestrator reads these back
/// from each worker process's output file.
pub fn encode_worker_report(report: &ThreadedWorkerReport) -> String {
    let rounds = if report.sync_rounds.is_empty() {
        "-".to_string()
    } else {
        report
            .sync_rounds
            .iter()
            .map(|r| r.to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    format!(
        "worker {} sync_steps {} local_steps {} sync_rounds {} final_loss {:08x} distance {:08x}",
        report.worker,
        report.sync_steps,
        report.local_steps,
        rounds,
        report.final_loss.to_bits(),
        report.distance_to_global.to_bits(),
    )
}

/// Inverse of [`encode_worker_report`].
pub fn decode_worker_report(line: &str) -> Result<ThreadedWorkerReport, String> {
    let fields: Vec<&str> = line.split_whitespace().collect();
    let expect = |at: usize, key: &str| -> Result<&str, String> {
        if fields.get(at) != Some(&key) {
            return Err(format!("report line field {at} is not {key:?}: {line:?}"));
        }
        fields
            .get(at + 1)
            .copied()
            .ok_or_else(|| format!("report line missing a value for {key}: {line:?}"))
    };
    let parse_u64 = |s: &str, key: &str| -> Result<u64, String> {
        s.parse().map_err(|_| format!("bad {key}: {s:?}"))
    };
    let worker = parse_u64(expect(0, "worker")?, "worker")? as usize;
    let sync_steps = parse_u64(expect(2, "sync_steps")?, "sync_steps")?;
    let local_steps = parse_u64(expect(4, "local_steps")?, "local_steps")?;
    let rounds_text = expect(6, "sync_rounds")?;
    let sync_rounds = if rounds_text == "-" {
        Vec::new()
    } else {
        rounds_text
            .split(',')
            .map(|r| r.parse().map_err(|_| format!("bad sync round {r:?}")))
            .collect::<Result<Vec<usize>, String>>()?
    };
    let final_loss = f32::from_bits(
        u32::from_str_radix(expect(8, "final_loss")?, 16)
            .map_err(|_| format!("bad final_loss bits: {line:?}"))?,
    );
    let distance_to_global = f32::from_bits(
        u32::from_str_radix(expect(10, "distance")?, 16)
            .map_err(|_| format!("bad distance bits: {line:?}"))?,
    );
    Ok(ThreadedWorkerReport {
        worker,
        sync_steps,
        local_steps,
        sync_rounds,
        final_loss,
        distance_to_global,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conditions::FaultEvent;
    use crate::threaded::{run_threaded_selsync, run_threaded_selsync_resumed};
    use selsync_nn::model::ModelKind;
    use selsync_tracelog::{EventLog, TraceGranularity, TraceSink};

    fn cfg(delta: f32, workers: usize) -> TrainConfig {
        let mut c = TrainConfig::small(ModelKind::ResNetLike, workers);
        c.iterations = 20;
        c.batch_size = 8;
        c.train_samples = 256;
        c.test_samples = 64;
        c.algorithm = AlgorithmSpec::selsync(delta);
        c
    }

    fn run_in_process_cluster(c: &TrainConfig, tag: &str) -> (Vec<ThreadedWorkerReport>, String) {
        run_in_process_cluster_with(c, tag, None, None)
    }

    fn run_in_process_cluster_with(
        c: &TrainConfig,
        tag: &str,
        resume: Option<&Checkpoint>,
        kill: Option<(usize, usize)>,
    ) -> (Vec<ThreadedWorkerReport>, String) {
        // In-process harness for the process drivers: the hub on one thread,
        // each worker on its own, all over a real UDS. The scenario_cluster
        // binary runs the same entry points in separate OS processes.
        let addr = SocketAddrSpec::Unix(
            std::env::temp_dir().join(format!("selsync-process-test-{tag}-{}", std::process::id())),
        );
        let mut shards = Vec::new();
        let mut reports = Vec::new();
        std::thread::scope(|scope| {
            let hub_cfg = {
                let mut h = c.clone();
                h.trace = TraceSink::capture(TraceGranularity::Full);
                h
            };
            let hub_addr = addr.clone();
            let hub_resume = resume.cloned();
            let hub =
                scope.spawn(move || run_process_hub_with(&hub_cfg, &hub_addr, hub_resume.as_ref()));
            let workers: Vec<_> = (0..c.workers)
                .map(|w| {
                    let worker_cfg = {
                        let mut wc = c.clone();
                        wc.trace = TraceSink::capture(TraceGranularity::Full);
                        wc
                    };
                    let worker_addr = addr.clone();
                    let worker_resume = resume.cloned();
                    scope.spawn(move || {
                        let opts = WorkerOptions {
                            resume: worker_resume.as_ref(),
                            kill_at: kill.and_then(|(kw, r)| (kw == w).then_some(r)),
                        };
                        run_process_worker_with(&worker_cfg, w, &worker_addr, opts)
                    })
                })
                .collect();
            for handle in workers {
                let (report, shard) = handle.join().expect("worker thread");
                reports.push(report);
                shards.push(shard);
            }
            shards.push(hub.join().expect("hub thread"));
        });
        if let SocketAddrSpec::Unix(path) = &addr {
            let _ = std::fs::remove_file(path);
        }
        reports.sort_by_key(|r| r.worker);
        let merged = EventLog::merge(
            shards
                .iter()
                .map(|s| EventLog::decode(s).expect("shard decodes")),
        );
        (reports, merged.encode())
    }

    #[test]
    fn process_cluster_matches_the_threaded_driver_and_simulator_trace() {
        let mut c = cfg(0.05, 3);
        c.trace = TraceSink::capture(TraceGranularity::Full);
        let sim_report = crate::algorithms::run(&c);
        let sim_trace = c.trace.take_log().encode();
        c.trace = TraceSink::disabled();
        let threaded = run_threaded_selsync(&c);

        let (reports, merged) = run_in_process_cluster(&c, "basic");
        assert_eq!(
            merged, sim_trace,
            "merged shard log diverged from the simulator"
        );
        for (p, t) in reports.iter().zip(threaded.iter()) {
            assert_eq!(p.sync_rounds, t.sync_rounds, "worker {}", p.worker);
            assert_eq!(p.sync_steps, t.sync_steps);
            assert_eq!(p.local_steps, t.local_steps);
            assert_eq!(p.final_loss.to_bits(), t.final_loss.to_bits());
        }
        assert_eq!(reports[0].sync_rounds, sim_report.sync_rounds);
    }

    #[test]
    fn process_cluster_composes_comm_faults_over_the_socket() {
        use selsync_comm::faults::CommFaultSpec;
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
        let threaded = run_threaded_selsync(&c);
        let (reports, _merged) = run_in_process_cluster(&c, "weather");
        for (p, t) in reports.iter().zip(threaded.iter()) {
            assert_eq!(format!("{p:?}"), format!("{t:?}"), "worker {}", p.worker);
        }
    }

    #[test]
    fn process_cluster_runs_non_iid_shards_byte_identical_to_the_simulator() {
        let mut c = cfg(0.05, 3);
        c.non_iid_labels_per_worker = Some(4);
        c.trace = TraceSink::capture(TraceGranularity::Full);
        let _sim_report = crate::algorithms::run(&c);
        let sim_trace = c.trace.take_log().encode();
        c.trace = TraceSink::disabled();
        let threaded = run_threaded_selsync(&c);

        let (reports, merged) = run_in_process_cluster(&c, "noniid");
        assert_eq!(
            merged, sim_trace,
            "non-IID merged shard log diverged from the simulator"
        );
        for (p, t) in reports.iter().zip(threaded.iter()) {
            assert_eq!(format!("{p:?}"), format!("{t:?}"), "worker {}", p.worker);
        }
    }

    #[test]
    fn worker_death_is_trace_identical_to_the_equivalent_scheduled_crash() {
        use crate::conditions::ClusterConditions;
        let killed_worker = 2;
        let kill_round = 10;
        // Reference: the same cluster where the death is a *scheduled* no-rejoin
        // crash at the kill round. The hub must map the abrupt connection drop
        // to exactly this membership schedule.
        let mut reference = cfg(0.05, 3);
        reference.conditions = ClusterConditions::uniform().with_fault(FaultEvent::Crash {
            worker: killed_worker,
            start: kill_round,
            rejoin: None,
        });
        reference.trace = TraceSink::capture(TraceGranularity::Full);
        let _ = crate::algorithms::run(&reference);
        let sim_trace = reference.trace.take_log().encode();
        reference.trace = TraceSink::disabled();
        let threaded = run_threaded_selsync(&reference);

        let c = cfg(0.05, 3);
        let (reports, merged) =
            run_in_process_cluster_with(&c, "kill", None, Some((killed_worker, kill_round)));
        assert_eq!(
            merged, sim_trace,
            "worker-death eviction diverged from the scheduled-crash reference"
        );
        for (p, t) in reports.iter().zip(threaded.iter()) {
            assert_eq!(p.sync_rounds, t.sync_rounds, "worker {}", p.worker);
            assert_eq!(p.sync_steps, t.sync_steps);
            assert_eq!(p.local_steps, t.local_steps);
            assert_eq!(p.final_loss.to_bits(), t.final_loss.to_bits());
            if p.worker != killed_worker {
                // The killed worker dies before its final pull, so its distance
                // is the one report field with no reference counterpart.
                assert_eq!(
                    p.distance_to_global.to_bits(),
                    t.distance_to_global.to_bits()
                );
            }
        }
    }

    #[test]
    fn process_checkpoint_and_resume_reproduce_the_uninterrupted_run() {
        use crate::config::CheckpointSpec;
        use selsync_comm::faults::PsFaultSpec;
        let dir = std::env::temp_dir().join(format!(
            "selsync-process-resume-test-{}",
            std::process::id()
        ));
        let make = || {
            let mut c = cfg(0.05, 3);
            // The outage window straddles the halt round, and the adaptive policy
            // carries cross-round state through it.
            c.ps_faults = Some(PsFaultSpec {
                seed: 11,
                windows: vec![(9, 3)],
                flaky: 0.0,
            });
            c.delta_policy = Some(PolicySpec::adaptive_default());
            c
        };
        let full_cfg = make();
        let (full_reports, full_trace) = run_in_process_cluster(&full_cfg, "resume-full");

        let mut halted_cfg = make();
        halted_cfg.checkpoint = Some(CheckpointSpec {
            every: 5,
            dir: dir.to_string_lossy().into_owned(),
            halt_after: Some(10),
            keep: Some(1),
        });
        let _halted = run_in_process_cluster_with(&halted_cfg, "resume-halt", None, None);
        let ckpt = Checkpoint::read_file(dir.join("ckpt-10")).expect("halt image reads back");
        assert_eq!(ckpt.backend, "process");
        assert!(
            !dir.join("ckpt-4").exists() && !dir.join("ckpt-9").exists(),
            "keep = 1 prunes the cadence images once the halt image is durable"
        );

        let resumed_cfg = make();
        let (resumed_reports, resumed_trace) =
            run_in_process_cluster_with(&resumed_cfg, "resume-rest", Some(&ckpt), None);
        assert_eq!(
            resumed_trace, full_trace,
            "resumed merged trace diverged from the uninterrupted run"
        );
        for (a, b) in full_reports.iter().zip(resumed_reports.iter()) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The configuration of the cross-backend resume tests: an adaptive policy
    /// carrying cross-round state through a PS outage that straddles the halt.
    fn cross_backend_cfg() -> TrainConfig {
        use selsync_comm::faults::PsFaultSpec;
        let mut c = cfg(0.05, 3);
        c.ps_faults = Some(PsFaultSpec {
            seed: 11,
            windows: vec![(9, 3)],
            flaky: 0.0,
        });
        c.delta_policy = Some(PolicySpec::adaptive_default());
        c
    }

    fn halt_at_10(c: &mut TrainConfig, dir: &std::path::Path) {
        c.checkpoint = Some(crate::config::CheckpointSpec {
            every: 5,
            dir: dir.to_string_lossy().into_owned(),
            halt_after: Some(10),
            keep: None,
        });
    }

    #[test]
    fn threaded_halt_image_resumes_on_the_socket_cluster() {
        let dir = std::env::temp_dir().join(format!(
            "selsync-threaded-to-process-test-{}",
            std::process::id()
        ));
        let (full_reports, full_trace) = run_in_process_cluster(&cross_backend_cfg(), "t2p-full");

        let mut halted_cfg = cross_backend_cfg();
        halted_cfg.trace = TraceSink::capture(TraceGranularity::Full);
        halt_at_10(&mut halted_cfg, &dir);
        run_threaded_selsync(&halted_cfg);
        let ckpt = Checkpoint::read_file(dir.join("ckpt-10")).expect("halt image reads back");
        assert_eq!(ckpt.backend, "threaded");

        let (resumed_reports, resumed_trace) =
            run_in_process_cluster_with(&cross_backend_cfg(), "t2p-rest", Some(&ckpt), None);
        assert_eq!(
            resumed_trace, full_trace,
            "threaded image resumed on the socket cluster diverged from the uninterrupted run"
        );
        for (a, b) in full_reports.iter().zip(resumed_reports.iter()) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn process_halt_image_resumes_on_the_threaded_driver() {
        let dir = std::env::temp_dir().join(format!(
            "selsync-process-to-threaded-test-{}",
            std::process::id()
        ));
        let (full_reports, full_trace) = run_in_process_cluster(&cross_backend_cfg(), "p2t-full");

        let mut halted_cfg = cross_backend_cfg();
        halt_at_10(&mut halted_cfg, &dir);
        let _halted = run_in_process_cluster_with(&halted_cfg, "p2t-halt", None, None);
        let ckpt = Checkpoint::read_file(dir.join("ckpt-10")).expect("halt image reads back");
        assert_eq!(ckpt.backend, "process");

        let mut resumed_cfg = cross_backend_cfg();
        resumed_cfg.trace = TraceSink::capture(TraceGranularity::Full);
        let resumed_reports = run_threaded_selsync_resumed(&resumed_cfg, &ckpt);
        assert_eq!(
            resumed_cfg.trace.take_log().encode(),
            full_trace,
            "process image resumed on the threaded driver diverged from the uninterrupted run"
        );
        for (a, b) in full_reports.iter().zip(resumed_reports.iter()) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ensure_supported_names_the_offending_scenario_key() {
        let mut c = cfg(0.05, 3);
        c.algorithm = AlgorithmSpec::selsync_injected(0.5, 0.5, 0.3);
        c.non_iid_labels_per_worker = Some(4);
        let err = ensure_supported(&c).expect_err("injection over non-IID is simulator-only");
        assert_eq!(err.key, "scenario.non_iid_labels_per_worker");
        assert!(err
            .to_string()
            .starts_with("unsupported by the process backend"));

        // Plain non-IID, checkpoints and BSP all run natively now.
        let mut c = cfg(0.05, 3);
        c.non_iid_labels_per_worker = Some(4);
        assert!(ensure_supported(&c).is_ok());
        let mut c = cfg(0.05, 3);
        c.algorithm = AlgorithmSpec::Bsp;
        assert!(ensure_supported(&c).is_ok());
    }

    /// Little-endian bytes of `values`: the wire form of every f32 vector.
    fn le_f32s(values: &[f32]) -> Vec<u8> {
        values.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    /// The hub configuration of the golden RPC exchange: two workers, SelSync at
    /// δ = 0.05, scheduled rejoin pulls (so the snapshot ring answers).
    fn golden_cfg() -> TrainConfig {
        let mut c = cfg(0.05, 2);
        c.rejoin_pull = crate::config::RejoinPull::Scheduled;
        c
    }

    /// The RPC byte format, one `(round header, request payload, reply payload)`
    /// per exchange, in the order a hub of [`golden_cfg`] answers them for
    /// worker 0 after worker 1 hung up before round 0. Every one of the twelve
    /// ops appears at least once; vectors are `le_f32s` of the model-sized
    /// values, everything else is literal.
    fn golden_rpc_table(c: &TrainConfig) -> Vec<(u64, Vec<u8>, Vec<u8>)> {
        use crate::checkpoint::{config_fingerprint, Checkpoint, Section};
        let proto = PaperModel::build(c.model, c.seed);
        let init = le_f32s(&proto.params_flat());
        let pushed: Vec<f32> = (0..proto.param_count()).map(|i| i as f32 * 0.5).collect();
        let pushed = le_f32s(&pushed);
        let cat = |parts: &[&[u8]]| parts.concat();
        let mut deposit = Checkpoint::new("deposit", config_fingerprint(c), 0);
        deposit.add_section(Section::new("worker0"));
        let observe: &[u8] = &[
            10, // op
            0, 0, 0, 0, 0, 0, 0, 0, // iteration (u64)
            0x00, 0x00, 0x80, 0x3f, // max_delta 1.0
            0x00, 0x00, 0x00, 0x40, // mean_loss 2.0
            0x00, 0x00, 0x00, 0xbf, // delta_mean -0.5
            0x00, 0x00, 0x80, 0x3e, // delta_sq_mean 0.25
            1,    // synced
            1, 0, 0, 0, 0, 0, 0, 0, // next_round (u64)
        ];
        vec![
            // PULL (the round header is unused: u64::MAX).
            (u64::MAX, vec![1], init.clone()),
            // ROUND_BEGIN 0: one eviction, (worker 1 as u32, round 0 as u64).
            (
                0,
                vec![11, 0, 0, 0, 0, 0, 0, 0, 0],
                vec![1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            ),
            // BOARD_WAIT_CAUGHT_UP 0.
            (0, vec![8, 0, 0, 0, 0, 0, 0, 0, 0], vec![]),
            // BOARD_DELTA_FOR 0: δ = 0.05f32.
            (
                0,
                vec![9, 0, 0, 0, 0, 0, 0, 0, 0],
                vec![0xcd, 0xcc, 0x4c, 0x3d],
            ),
            // ALLGATHER_FLAGS: flag 1, expected 1 → the full-width gather.
            (0, vec![5, 1, 1, 0, 0, 0], vec![1, 0]),
            // ALLREDUCE_SCALAR: Max, expected 1, value 1.5.
            (
                0,
                vec![6, 2, 1, 0, 0, 0, 0x00, 0x00, 0xc0, 0x3f],
                vec![0x00, 0x00, 0xc0, 0x3f],
            ),
            // ALLREDUCE_VEC: Mean, expected 1, [-0.0, 2.0] → [0.0, 2.0].
            (
                0,
                vec![7, 1, 1, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0, 0x40],
                vec![0, 0, 0, 0, 0, 0, 0, 0x40],
            ),
            // SCHED_ROUND_BEFORE 0: no synchronization yet.
            (0, vec![3], vec![0]),
            // SCHED_GLOBAL_BEFORE 0: the initial global.
            (0, vec![2], init),
            // SYNC_ROUND 0: expected 1, then the parameters.
            (0, cat(&[&[4, 1, 0, 0, 0], &pushed]), pushed.clone()),
            // BOARD_OBSERVE round 0 → next round 1.
            (0, observe.to_vec(), vec![]),
            // SCHED_ROUND_BEFORE 1: round 0 synchronized.
            (1, vec![3], vec![1, 0, 0, 0, 0, 0, 0, 0, 0]),
            // SCHED_GLOBAL_BEFORE 1: round 0's global.
            (1, vec![2], pushed.clone()),
            // PULL after the synchronization.
            (u64::MAX, vec![1], pushed),
            // CKPT_DEPOSIT 0: round, then the encoded "deposit" image.
            (
                0,
                cat(&[&[12, 0, 0, 0, 0, 0, 0, 0, 0], deposit.encode().as_bytes()]),
                vec![],
            ),
        ]
    }

    #[test]
    fn hub_rpc_bytes_are_pinned_for_every_op() {
        use selsync_comm::socket::RpcService;
        let c = golden_cfg();
        let hub = crate::hub::HubService::new(&c, &PaperModel::build(c.model, c.seed), None, "t");
        hub.connection_closed(1);
        let table = golden_rpc_table(&c);
        let mut ops: Vec<u8> = table.iter().map(|(_, request, _)| request[0]).collect();
        ops.sort_unstable();
        ops.dedup();
        assert_eq!(ops, (1..=12).collect::<Vec<u8>>(), "every op is pinned");
        for (round, request, reply) in table {
            assert_eq!(
                hub.handle(0, round, &request),
                reply,
                "reply to op {} at round header {round}",
                request[0]
            );
        }
    }

    /// The typed codec writes exactly the pinned bytes: every golden exchange
    /// as a `HubCall` and its `HubReply`, encoded, and decoded back from the
    /// golden bytes.
    #[test]
    fn typed_hub_calls_encode_to_the_pinned_bytes() {
        use crate::checkpoint::{config_fingerprint, Section};
        use crate::policy::RoundSignal;
        use selsync_comm::ScalarOp;
        let c = golden_cfg();
        let proto = PaperModel::build(c.model, c.seed);
        let init = proto.params_flat();
        let pushed: Vec<f32> = (0..proto.param_count()).map(|i| i as f32 * 0.5).collect();
        let signal = RoundSignal {
            iteration: 0,
            max_delta: 1.0,
            mean_loss: 2.0,
            delta_mean: -0.5,
            delta_sq_mean: 0.25,
            synced: true,
        };
        let typed = vec![
            (HubCall::Pull, HubReply::Vector(init.clone())),
            (HubCall::RoundBegin(0), HubReply::Evictions(vec![(1, 0)])),
            (HubCall::WaitCaughtUp(0), HubReply::Done),
            (HubCall::DeltaFor(0), HubReply::Scalar(0.05)),
            (
                HubCall::AllgatherFlags(true, 1),
                HubReply::Flags(vec![true, false]),
            ),
            (
                HubCall::AllreduceScalar(ScalarOp::Max, 1, 1.5),
                HubReply::Scalar(1.5),
            ),
            (
                HubCall::AllreduceVec(ScalarOp::Mean, 1, vec![-0.0, 2.0]),
                HubReply::Vector(vec![0.0, 2.0]),
            ),
            (HubCall::ScheduledRoundBefore, HubReply::Round(None)),
            (HubCall::ScheduledGlobalBefore, HubReply::Vector(init)),
            (
                HubCall::SyncRound(1, pushed.clone()),
                HubReply::Vector(pushed.clone()),
            ),
            (HubCall::Observe(signal, 1), HubReply::Done),
            (HubCall::ScheduledRoundBefore, HubReply::Round(Some(0))),
            (
                HubCall::ScheduledGlobalBefore,
                HubReply::Vector(pushed.clone()),
            ),
            (HubCall::Pull, HubReply::Vector(pushed)),
            (
                HubCall::Deposit {
                    round: 0,
                    fingerprint: config_fingerprint(&c),
                    section: Section::new("worker0"),
                    trace: Vec::new(),
                },
                HubReply::Done,
            ),
        ];
        let table = golden_rpc_table(&c);
        assert_eq!(table.len(), typed.len());
        for ((_, request, reply), (call, answer)) in table.iter().zip(&typed) {
            let op = request[0];
            assert!(call.encode() == *request, "request bytes of op {op}");
            assert!(answer.encode() == *reply, "reply bytes of op {op}");
            let decoded = HubCall::decode(request).expect("golden request decodes");
            assert!(decoded.encode() == *request, "op {op} re-encodes");
            let back = HubReply::decode(&decoded, reply).expect("golden reply decodes");
            assert!(back == *answer, "reply of op {op} decodes");
        }
    }

    #[test]
    fn worker_report_text_codec_round_trips() {
        let report = ThreadedWorkerReport {
            worker: 3,
            sync_steps: 7,
            local_steps: 13,
            sync_rounds: vec![0, 4, 9],
            final_loss: 1.25e-3,
            distance_to_global: 0.0,
        };
        let line = encode_worker_report(&report);
        let back = decode_worker_report(&line).expect("decodes");
        assert_eq!(format!("{back:?}"), format!("{report:?}"));
        let empty = ThreadedWorkerReport {
            sync_rounds: vec![],
            ..report
        };
        let back = decode_worker_report(&encode_worker_report(&empty)).expect("decodes");
        assert!(back.sync_rounds.is_empty());
    }
}
