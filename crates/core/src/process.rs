//! Process-per-worker SelSync/BSP driver over the socket transport — the third
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
//! This module is only the carrier between them. Every shared-state touch
//! becomes either
//!
//! * a control-plane envelope on the [`MessageLayer`](selsync_comm::MessageLayer)
//!   riding the [`SocketTransport`](selsync_comm::SocketTransport) (the hub echoes
//!   frames verbatim, so retry/dedupe/eviction semantics — and the
//!   [`crate::config::TrainConfig::comm_faults`] weather composed *over* the
//!   socket — are bit-identical to the in-memory transports), or
//! * a blocking RPC ([`selsync_comm::HubClient`]) that the hub's
//!   [`RpcService`] dispatches to the very call an in-process worker makes.
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
//! (`op::CKPT_DEPOSIT`) and parks; once every deposit is in, the hub writes the
//! image — the threaded driver's layout, tagged `"process"` — and releases the
//! cluster. Either real backend resumes either tag, and [`crate::resume`]
//! translates to and from the simulator's layout, so a run checkpointed on one
//! backend resumes on any other byte for byte.
//!
//! **Worker death.** A connection that terminates after identification —
//! clean EOF or broken pipe alike — is mapped by the hub to a deterministic
//! eviction at the dead worker's next scheduled-present round, published to
//! the survivors through the per-round `op::ROUND_BEGIN` barrier: every
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

use crate::checkpoint::{config_fingerprint, Checkpoint, Section};
use crate::config::{AlgorithmSpec, TrainConfig};
use crate::hub::HubService;
use crate::policy::{PolicySpec, RoundSignal};
use crate::threaded::ThreadedWorkerReport;
use crate::worker::{message_layer, run_worker, ClusterPort, WorkerSetup};
use selsync_comm::socket::{HubClient, HubServer, RpcService, SocketAddrSpec, SocketConn};
use selsync_comm::ScalarOp;
use selsync_nn::model::PaperModel;
use selsync_tracelog::{codec, TraceSink};
use std::sync::Arc;
use std::time::Duration;

/// How long a worker keeps retrying its initial connect while the hub binds.
pub const CONNECT_RETRY: Duration = Duration::from_secs(30);

/// RPC operation tags (first payload byte; arguments follow, little-endian).
mod op {
    pub const PULL: u8 = 1;
    pub const SCHED_GLOBAL_BEFORE: u8 = 2;
    pub const SCHED_ROUND_BEFORE: u8 = 3;
    pub const SYNC_ROUND: u8 = 4;
    pub const ALLGATHER_FLAGS: u8 = 5;
    pub const ALLREDUCE_SCALAR: u8 = 6;
    pub const ALLREDUCE_VEC: u8 = 7;
    pub const BOARD_WAIT_CAUGHT_UP: u8 = 8;
    pub const BOARD_DELTA_FOR: u8 = 9;
    pub const BOARD_OBSERVE: u8 = 10;
    pub const ROUND_BEGIN: u8 = 11;
    pub const CKPT_DEPOSIT: u8 = 12;
}

fn f32s_to_bytes(values: &[f32]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn bytes_to_f32s(bytes: &[u8]) -> Vec<f32> {
    assert!(bytes.len().is_multiple_of(4), "f32 payload length");
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

fn scalar_op_tag(op: ScalarOp) -> u8 {
    match op {
        ScalarOp::Sum => 0,
        ScalarOp::Mean => 1,
        ScalarOp::Max => 2,
    }
}

fn scalar_op_from_tag(tag: u8) -> ScalarOp {
    match tag {
        0 => ScalarOp::Sum,
        1 => ScalarOp::Mean,
        2 => ScalarOp::Max,
        other => panic!("unknown scalar-op tag {other}"),
    }
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

fn read_f32(bytes: &[u8], at: usize) -> f32 {
    f32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

/// Reply wire shape of `op::ROUND_BEGIN`: count, then `(worker, round)` pairs.
fn encode_evictions(evictions: &[(usize, usize)]) -> Vec<u8> {
    let mut out = (evictions.len() as u32).to_le_bytes().to_vec();
    for &(worker, round) in evictions {
        out.extend((worker as u32).to_le_bytes());
        out.extend((round as u64).to_le_bytes());
    }
    out
}

/// The hub side of the RPC surface: decodes each worker request into the call
/// an in-process worker makes on the same [`HubService`]. Blocking rendezvous
/// ops block the calling connection's hub thread, which is exactly the
/// rendezvous behaviour worker threads get from blocking in-process calls.
impl RpcService for HubService {
    fn handle(&self, worker: u32, round: u64, request: &[u8]) -> Vec<u8> {
        let worker = worker as usize;
        let args = &request[1..];
        match request[0] {
            op::PULL => f32s_to_bytes(&self.handles.ps.pull()),
            op::SCHED_GLOBAL_BEFORE => {
                f32s_to_bytes(&self.handles.ps.scheduled_global_before(round))
            }
            op::SCHED_ROUND_BEFORE => match self.handles.ps.scheduled_round_before(round) {
                Some(r) => {
                    let mut out = vec![1u8];
                    out.extend_from_slice(&r.to_le_bytes());
                    out
                }
                None => vec![0u8],
            },
            op::SYNC_ROUND => {
                let expected = read_u32(args, 0) as usize;
                let params = bytes_to_f32s(&args[4..]);
                f32s_to_bytes(
                    &self
                        .handles
                        .ps
                        .sync_round_elastic(round, worker, &params, expected),
                )
            }
            op::ALLGATHER_FLAGS => {
                let flag = args[0] != 0;
                let expected = read_u32(args, 1) as usize;
                self.handles
                    .collective
                    .allgather_flags_among(round, worker, flag, expected)
                    .into_iter()
                    .map(u8::from)
                    .collect()
            }
            op::ALLREDUCE_SCALAR => {
                let op = scalar_op_from_tag(args[0]);
                let expected = read_u32(args, 1) as usize;
                let value = read_f32(args, 5);
                self.handles
                    .collective
                    .allreduce_scalar_among(round, worker, value, expected, op)
                    .to_le_bytes()
                    .to_vec()
            }
            op::ALLREDUCE_VEC => {
                let op = scalar_op_from_tag(args[0]);
                let expected = read_u32(args, 1) as usize;
                let values = bytes_to_f32s(&args[5..]);
                f32s_to_bytes(
                    &self
                        .handles
                        .collective
                        .allreduce_vec_among(round, worker, values, expected, op),
                )
            }
            op::BOARD_WAIT_CAUGHT_UP => {
                self.board.wait_caught_up(read_u64(args, 0) as usize);
                Vec::new()
            }
            op::BOARD_DELTA_FOR => self
                .board
                .delta_for(read_u64(args, 0) as usize)
                .to_le_bytes()
                .to_vec(),
            op::BOARD_OBSERVE => {
                let signal = RoundSignal {
                    iteration: read_u64(args, 0) as usize,
                    max_delta: read_f32(args, 8),
                    mean_loss: read_f32(args, 12),
                    delta_mean: read_f32(args, 16),
                    delta_sq_mean: read_f32(args, 20),
                    synced: args[24] != 0,
                };
                let next_round = read_u64(args, 25) as usize;
                self.board.observe(signal, next_round);
                Vec::new()
            }
            op::ROUND_BEGIN => {
                encode_evictions(&self.round_begin(worker, read_u64(args, 0) as usize))
            }
            op::CKPT_DEPOSIT => {
                let it = read_u64(args, 0) as usize;
                let image =
                    std::str::from_utf8(&args[8..]).expect("checkpoint deposit payload is UTF-8");
                let deposit = Checkpoint::decode(image).unwrap_or_else(|e| {
                    panic!("worker {worker}'s checkpoint deposit fails to decode: {e}")
                });
                assert_eq!(deposit.backend, "deposit", "worker {worker}'s deposit tag");
                assert_eq!(deposit.round, it, "worker {worker}'s deposit round");
                assert_eq!(
                    deposit.fingerprint, self.fingerprint,
                    "worker {worker}'s deposit belongs to a different configuration"
                );
                let name = format!("worker{worker}");
                let section = deposit
                    .sections
                    .into_iter()
                    .find(|section| section.name == name)
                    .unwrap_or_else(|| panic!("worker {worker}'s deposit is missing its section"));
                let trace = deposit
                    .trace
                    .iter()
                    .map(|line| codec::decode_event(line).expect("deposited trace line decodes"))
                    .collect();
                self.deposit(worker, it, section, trace);
                Vec::new()
            }
            other => panic!("unknown rpc op {other} from worker {worker}"),
        }
    }

    fn connection_closed(&self, worker: u32) {
        self.worker_died(worker as usize);
    }
}

/// Worker-side port into the hub process: each op is one blocking RPC whose
/// argument shape matches the in-process call it stands in for.
struct RemoteCluster {
    client: HubClient,
    fingerprint: u64,
    /// This worker's trace shard, shipped with each checkpoint deposit.
    trace: TraceSink,
}

impl RemoteCluster {
    fn request(&self, round: u64, op: u8, args: &[u8]) -> Vec<u8> {
        let mut payload = Vec::with_capacity(1 + args.len());
        payload.push(op);
        payload.extend_from_slice(args);
        self.client.rpc(round, payload)
    }
}

impl ClusterPort for RemoteCluster {
    fn pull(&self) -> Vec<f32> {
        bytes_to_f32s(&self.request(u64::MAX, op::PULL, &[]))
    }

    fn scheduled_global_before(&self, round: usize) -> Vec<f32> {
        bytes_to_f32s(&self.request(round as u64, op::SCHED_GLOBAL_BEFORE, &[]))
    }

    fn scheduled_round_before(&self, round: usize) -> Option<usize> {
        let reply = self.request(round as u64, op::SCHED_ROUND_BEFORE, &[]);
        (reply[0] != 0).then(|| read_u64(&reply, 1) as usize)
    }

    fn sync_round(&self, round: usize, params: &[f32], expected: usize) -> Vec<f32> {
        let mut args = (expected as u32).to_le_bytes().to_vec();
        args.extend(f32s_to_bytes(params));
        bytes_to_f32s(&self.request(round as u64, op::SYNC_ROUND, &args))
    }

    fn allgather_flags(&self, round: usize, flag: bool, expected: usize) -> Vec<bool> {
        let mut args = vec![flag as u8];
        args.extend((expected as u32).to_le_bytes());
        self.request(round as u64, op::ALLGATHER_FLAGS, &args)
            .into_iter()
            .map(|b| b != 0)
            .collect()
    }

    fn allreduce_scalar(&self, round: usize, value: f32, expected: usize, op_: ScalarOp) -> f32 {
        let mut args = vec![scalar_op_tag(op_)];
        args.extend((expected as u32).to_le_bytes());
        args.extend(value.to_le_bytes());
        read_f32(&self.request(round as u64, op::ALLREDUCE_SCALAR, &args), 0)
    }

    fn allreduce_vec(
        &self,
        round: usize,
        values: Vec<f32>,
        expected: usize,
        op_: ScalarOp,
    ) -> Vec<f32> {
        let mut args = vec![scalar_op_tag(op_)];
        args.extend((expected as u32).to_le_bytes());
        args.extend(f32s_to_bytes(&values));
        bytes_to_f32s(&self.request(round as u64, op::ALLREDUCE_VEC, &args))
    }

    fn wait_caught_up(&self, round: usize) {
        let round = round as u64;
        self.request(round, op::BOARD_WAIT_CAUGHT_UP, &round.to_le_bytes());
    }

    fn delta_for(&self, round: usize) -> f32 {
        let round = round as u64;
        read_f32(
            &self.request(round, op::BOARD_DELTA_FOR, &round.to_le_bytes()),
            0,
        )
    }

    fn observe(&self, signal: RoundSignal, next_round: usize) {
        let mut args = (signal.iteration as u64).to_le_bytes().to_vec();
        args.extend(signal.max_delta.to_le_bytes());
        args.extend(signal.mean_loss.to_le_bytes());
        args.extend(signal.delta_mean.to_le_bytes());
        args.extend(signal.delta_sq_mean.to_le_bytes());
        args.push(signal.synced as u8);
        args.extend((next_round as u64).to_le_bytes());
        self.request(signal.iteration as u64, op::BOARD_OBSERVE, &args);
    }

    fn round_begin(&self, round: usize) -> Vec<(usize, usize)> {
        let round = round as u64;
        let reply = self.request(round, op::ROUND_BEGIN, &round.to_le_bytes());
        let count = read_u32(&reply, 0) as usize;
        (0..count)
            .map(|i| {
                let at = 4 + i * 12;
                (
                    read_u32(&reply, at) as usize,
                    read_u64(&reply, at + 4) as usize,
                )
            })
            .collect()
    }

    /// The deposit crosses the socket as an encoded `"deposit"` image carrying
    /// the section and this worker's trace shard so far.
    fn deposit(&self, round: usize, section: Section) {
        let mut deposit = Checkpoint::new("deposit", self.fingerprint, round);
        deposit.add_section(section);
        if self.trace.is_enabled() {
            let log = self.trace.snapshot_log();
            deposit.trace = log.events.iter().map(codec::encode_event).collect();
        }
        let mut args = (round as u64).to_le_bytes().to_vec();
        args.extend_from_slice(deposit.encode().as_bytes());
        self.request(round as u64, op::CKPT_DEPOSIT, &args);
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
    // The message layer rides the real socket: the hub echoes every non-RPC
    // frame verbatim, so retries, dedupe and evictions behave exactly as over
    // the in-memory transports — including with the fault decorator composed
    // over the socket.
    let layer = message_layer(cfg, Box::new(conn.transport()));
    let port = RemoteCluster {
        client: conn.client(worker as u32),
        fingerprint: config_fingerprint(cfg),
        trace: cfg.trace.clone(),
    };
    let report = run_worker(
        cfg,
        &setup,
        worker,
        &port,
        &layer,
        resume.as_deref(),
        opts.kill_at,
    );
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
