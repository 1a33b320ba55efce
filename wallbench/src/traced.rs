//! The traced run: per-layer numbers from spans around calls into each
//! layer's public functions, with the workload's shapes and its reference
//! round schedule.
//!
//! Phases, each with its own span recorder:
//!
//! 1. one untraced run of the real backend (the coverage denominator);
//! 2. the simulator replay: `selsync::sim::Simulator` driven round by round
//!    through its public API, following the reference schedule;
//! 3. the worker replay: one lane per worker doing `data` → `nn` → `tracker`
//!    → optimizer steps, with the backend's communication — sockets to an
//!    in-process `HubServer` for the process backend, in-process
//!    `ParameterServer`/`Collective` calls for the threaded backend, none for
//!    the simulator;
//! 4. a communication-only socket replay, for workloads whose phase 3 left a
//!    communication metric unmeasured;
//! 5. kernel, wire, aggregation, event-log and checkpoint probes.

use crate::measure::{run_once, Reference, Rep, SETUP_REPS};
use crate::span::{median, percentile, self_times, tail_percentile, Recorder, Span};
use crate::workload::{Backend, Workload, CKPT_EVERY};
use crate::Metrics;
use selsync::checkpoint::{config_fingerprint, Checkpoint};
use selsync::config::TrainConfig;
use selsync::sim::{self, Simulator, WorkerStep};
use selsync::tracker::{GradStatistic, GradientTracker};
use selsync_comm::cluster::{make_handles, ClusterHandles};
use selsync_comm::wire::frame_len;
use selsync_comm::{
    Envelope, HubClient, HubServer, MsgKind, RpcService, ScalarOp, SocketAddrSpec, SocketConn,
};
use selsync_data::Dataset;
use selsync_nn::model::PaperModel;
use selsync_nn::{loss, Layer, Optimizer};
use selsync_tensor::{ops, par, Tensor};
use selsync_tracelog::EventLog;
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every per-layer metric, with its unit.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("tensor.matmul_gflops", "GFLOP/s"),
    ("tensor.matmul_bt_gflops", "GFLOP/s"),
    ("tensor.matmul_at_gflops", "GFLOP/s"),
    ("nn.forward_us", "us"),
    ("nn.backward_us", "us"),
    ("nn.optim_us", "us"),
    ("data.batch_us", "us"),
    ("tracker.delta_us", "us"),
    ("sim.round_ms_p50", "ms"),
    ("sim.round_ms_p95", "ms"),
    ("sim.apply_ms", "ms"),
    ("sim.eval_ms", "ms"),
    ("sim.new_ms", "ms"),
    ("socket.connect_ms", "ms"),
    ("ps.sync_round_us", "us"),
    ("aggregation.average_us", "us"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.frame_bytes", "B"),
    ("socket.rpc_vec_us_p50", "us"),
    ("socket.rpc_vec_us_p95", "us"),
    ("socket.rpc_small_us_p50", "us"),
    ("socket.rpc_small_us_p95", "us"),
    ("collective.allgather_flags_us", "us"),
    ("collective.allreduce_scalar_us", "us"),
    ("hub.bytes_in_per_round", "B"),
    ("hub.bytes_out_per_round", "B"),
    ("tracelog.encode_us", "us"),
    ("tracelog.merge_ms", "ms"),
    ("checkpoint.encode_ms", "ms"),
    ("checkpoint.write_ms", "ms"),
    ("checkpoint.decode_ms", "ms"),
    ("checkpoint.bytes", "B"),
    ("trace.coverage", "ratio"),
];

/// Rounds of the communication-only socket probe.
const PROBE_ROUNDS: usize = 120;

/// Spans left out of `trace.coverage`: `sim.round` only groups other spans,
/// and the other two are set-up, not training time.
const NOT_TRAINING: [&str; 3] = ["sim.round", "sim.new", "socket.connect"];

fn unit_of(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .expect("metric is listed in PER_LAYER")
}

/// Durations in µs of the spans named `name`.
fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect()
}

/// Collected metrics plus notes on how tail figures were taken.
#[derive(Default)]
struct Sink {
    metrics: Metrics,
    notes: Vec<String>,
}

impl Sink {
    /// Record `value` unless an earlier phase already measured `name`.
    fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.entry(name).or_insert((value, unit_of(name)));
    }

    fn has(&self, name: &str) -> bool {
        self.metrics.contains_key(name)
    }

    /// Median duration of the spans named `span`, scaled from µs.
    fn median_of(&mut self, spans: &[Span], span: &str, name: &'static str, scale: f64) {
        let d = durations_us(spans, span);
        if !d.is_empty() {
            self.put(name, median(&d) * scale);
        }
    }

    /// Median and tail of the spans named `span`, scaled from µs. The tail
    /// is the 95th percentile when at least 200 samples exist, otherwise the
    /// highest percentile with ten samples beyond it.
    fn p50_p95(&mut self, spans: &[Span], span: &str, names: [&'static str; 2], scale: f64) {
        let [p50, p95] = names;
        let d = durations_us(spans, span);
        if d.is_empty() || self.has(p50) {
            return;
        }
        let p = tail_percentile(d.len(), 95);
        self.put(p50, median(&d) * scale);
        self.put(p95, percentile(&d, p as f64) * scale);
        self.notes
            .push(format!("\"{p95}\": \"p{p} of {}\"", d.len()));
    }
}

// ---------------------------------------------------------------- phase 2

/// Drive the simulator through the reference schedule; returns the replay's
/// final test metric, its sync rounds and a recovery image of its end state.
fn sim_replay(
    rec: &Recorder,
    cfg: &TrainConfig,
    reference: &Reference,
) -> (f32, Vec<usize>, Checkpoint) {
    let sync: BTreeSet<usize> = reference.report.sync_rounds.iter().copied().collect();
    let mut sim = rec.span("sim.new", || Simulator::new(cfg));
    let mut global = sim.workers[0].params.clone();
    let mut avg = Vec::new();
    let mut steps: Vec<WorkerStep> = Vec::new();
    for it in 0..cfg.iterations {
        rec.span("sim.round", || {
            let lr = sim.lr_at(it);
            let (present, rejoin_s, rejoin_bytes) = sim.begin_round(it, &global);
            if present.is_empty() {
                sim.account_step(0.0, 0.0, 0, false);
                return;
            }
            rec.span("sim.plan", || sim.plan_round(&present, &mut steps));
            let round = rec.span("sim.compute", || sim.run_round(&steps));
            let synced = sync.contains(&it);
            rec.span("sim.apply", || {
                sim.apply_round_own(&steps, lr);
                if synced {
                    sim.average_params_of_into(&present, &mut avg);
                    sim.set_params_of(&present, &avg);
                    global.copy_from_slice(&avg);
                }
            });
            let compute = sim.round_compute_seconds(it);
            sim.account_step(compute, rejoin_s, rejoin_bytes, synced);
            if sim.should_eval(it) {
                rec.span("sim.eval", || {
                    sim.average_params_of_into(&present, &mut avg);
                    let snapshot = std::mem::take(&mut avg);
                    sim.record_eval(it, &snapshot, round.max_delta);
                    avg = snapshot;
                });
            }
        });
    }
    let mut image = Checkpoint::new("sim", config_fingerprint(cfg), cfg.iterations - 1);
    sim.export_checkpoint_sections(&mut image);
    let report = sim.finalize("replay".into());
    (report.final_metric, report.sync_rounds, image)
}

// ---------------------------------------------------------------- phase 3

/// RPC operation tags of the benchmark's hub service.
mod op {
    pub const SMALL: u8 = 1;
    pub const FLAGS: u8 = 2;
    pub const SCALAR: u8 = 3;
    pub const SYNC: u8 = 4;
}

/// Benchmark-owned hub service: calls the real parameter server and
/// collectives with the payloads the workers send, and counts frame bytes.
struct BenchService {
    handles: ClusterHandles,
    rec: Arc<Recorder>,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
}

fn f32s_to_bytes(values: &[f32]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn bytes_to_f32s(bytes: &[u8]) -> Vec<f32> {
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

impl RpcService for BenchService {
    fn handle(&self, worker: u32, round: u64, request: &[u8]) -> Vec<u8> {
        self.bytes_in
            .fetch_add(frame_len(request.len()) as u64, Ordering::Relaxed);
        let w = worker as usize;
        let expected =
            u32::from_le_bytes([request[1], request[2], request[3], request[4]]) as usize;
        let args = &request[5..];
        let reply = match request[0] {
            op::SMALL => 0u32.to_le_bytes().to_vec(),
            op::FLAGS => self.rec.span("collective.allgather_flags", || {
                let flags =
                    self.handles
                        .collective
                        .allgather_flags_among(round, w, args[0] != 0, expected);
                flags.into_iter().map(u8::from).collect()
            }),
            op::SCALAR => self.rec.span("collective.allreduce_scalar", || {
                let reduce = if args[0] == 0 {
                    ScalarOp::Mean
                } else {
                    ScalarOp::Max
                };
                let value = bytes_to_f32s(&args[1..])[0];
                self.handles
                    .collective
                    .allreduce_scalar_among(round, w, value, expected, reduce)
                    .to_le_bytes()
                    .to_vec()
            }),
            op::SYNC => self.rec.span("ps.sync_round", || {
                let params = bytes_to_f32s(args);
                f32s_to_bytes(
                    &self
                        .handles
                        .ps
                        .sync_round_elastic(round, w, &params, expected),
                )
            }),
            other => panic!("unknown benchmark rpc {other}"),
        };
        self.bytes_out
            .fetch_add(frame_len(reply.len()) as u64, Ordering::Relaxed);
        reply
    }
}

/// How a lane reaches its peers.
enum Comm<'a> {
    /// The simulator: replicas share one process and exchange nothing.
    Local,
    /// The threaded backend: direct calls into the shared PS and collectives.
    InProc(&'a ClusterHandles),
    /// The process backend: blocking RPCs over a socket to the hub.
    Socket(HubClient),
}

impl Comm<'_> {
    fn request(client: &HubClient, round: u64, op: u8, expected: usize, args: &[u8]) -> Vec<u8> {
        let mut payload = vec![op];
        payload.extend((expected as u32).to_le_bytes());
        payload.extend_from_slice(args);
        client.rpc(round, payload)
    }

    /// A small control round trip (round-begin barrier, δ fetch, observe).
    fn small(&self, rec: &Recorder, it: usize) {
        if let Comm::Socket(c) = self {
            rec.span("socket.rpc_small", || {
                Self::request(c, it as u64, op::SMALL, 0, &[])
            });
        }
    }

    fn flags(&self, rec: &Recorder, it: usize, w: usize, flag: bool, expected: usize) -> bool {
        match self {
            Comm::Local => flag,
            Comm::InProc(h) => rec
                .span("collective.allgather_flags", || {
                    h.collective
                        .allgather_flags_among(it as u64, w, flag, expected)
                })
                .contains(&true),
            Comm::Socket(c) => rec
                .span("socket.rpc_small", || {
                    Self::request(c, it as u64, op::FLAGS, expected, &[flag as u8])
                })
                .contains(&1),
        }
    }

    /// One scalar all-reduce; `reduce` is `Mean` or `Max`, each at most once
    /// per round.
    fn scalar(
        &self,
        rec: &Recorder,
        it: usize,
        w: usize,
        value: f32,
        expected: usize,
        reduce: ScalarOp,
    ) {
        match self {
            Comm::Local => {}
            Comm::InProc(h) => {
                rec.span("collective.allreduce_scalar", || {
                    h.collective
                        .allreduce_scalar_among(it as u64, w, value, expected, reduce)
                });
            }
            Comm::Socket(c) => {
                let mut args = vec![u8::from(reduce != ScalarOp::Mean)];
                args.extend(value.to_le_bytes());
                rec.span("socket.rpc_small", || {
                    Self::request(c, it as u64, op::SCALAR, expected, &args)
                });
            }
        }
    }

    fn sync(&self, rec: &Recorder, it: usize, w: usize, params: &mut Vec<f32>, expected: usize) {
        match self {
            Comm::Local => {}
            Comm::InProc(h) => {
                *params = rec.span("ps.sync_round", || {
                    h.ps.sync_round_elastic(it as u64, w, params, expected)
                });
            }
            Comm::Socket(c) => {
                let reply = rec.span("socket.rpc_vec", || {
                    Self::request(c, it as u64, op::SYNC, expected, &f32s_to_bytes(params))
                });
                *params = bytes_to_f32s(&reply);
            }
        }
    }
}

/// One worker's model replica, data stream, tracker and optimizer.
struct Lane {
    worker: usize,
    model: PaperModel,
    params: Vec<f32>,
    optimizer: Box<dyn Optimizer>,
    tracker: GradientTracker,
    traversal: Vec<usize>,
    cursor: usize,
    indices: Vec<usize>,
    x: Tensor,
    y: Vec<usize>,
    grads: Vec<f32>,
}

impl Lane {
    fn new(cfg: &TrainConfig, train: &Dataset, iid_order: &[usize], worker: usize) -> Lane {
        let model = PaperModel::build(cfg.model, cfg.seed);
        Lane {
            worker,
            params: model.params_flat(),
            model,
            optimizer: cfg.optimizer.build(),
            tracker: new_tracker(cfg),
            traversal: sim::worker_traversal(cfg, train, iid_order, worker),
            cursor: 0,
            indices: Vec::new(),
            x: Tensor::zeros(1, 1),
            y: Vec::new(),
            grads: Vec::new(),
        }
    }

    /// One training step; returns the step's loss and `Δ(g)`.
    fn step(
        &mut self,
        rec: &Recorder,
        cfg: &TrainConfig,
        train: &Dataset,
        forward_index: u64,
        it: usize,
    ) -> (f32, f32) {
        rec.span("data.batch", || {
            self.indices.clear();
            for _ in 0..cfg.batch_size {
                self.indices
                    .push(self.traversal[self.cursor % self.traversal.len()]);
                self.cursor += 1;
            }
            train.batch_into(&self.indices, &mut self.x, &mut self.y);
        });
        let grad = rec.span("nn.forward", || {
            self.model.set_params_flat(&self.params);
            self.model.seek_dropout(forward_index);
            let net = self.model.network_mut();
            net.zero_grads();
            let logits = net.forward(&self.x, true);
            loss::softmax_cross_entropy(&logits, &self.y)
        });
        rec.span("nn.backward", || {
            black_box(self.model.network_mut().backward(&grad.1));
            self.model.grads_flat_into(&mut self.grads);
        });
        let delta = rec.span("tracker.delta", || self.tracker.update(&self.grads));
        let lr = cfg.lr.lr_at(cfg.epoch_of(it), it);
        rec.span("nn.optim", || {
            self.optimizer.step(&mut self.params, &self.grads, lr)
        });
        (grad.0, delta)
    }
}

fn new_tracker(cfg: &TrainConfig) -> GradientTracker {
    GradientTracker::new(
        GradStatistic::SqNorm,
        (cfg.workers as f32 / 100.0).clamp(0.01, 1.0),
        cfg.ewma_window,
    )
}

/// A recovery image written every `every` rounds to `path` by the round's
/// first present worker.
struct CkptWrites<'a> {
    image: &'a Checkpoint,
    every: usize,
    path: &'a Path,
}

/// Replay the reference schedule with one lane per worker. `lanes_per_thread`
/// lanes share a thread; with `compute` off the lanes only communicate.
#[allow(clippy::too_many_arguments)]
fn lane_replay<'a>(
    rec: &Recorder,
    cfg: &TrainConfig,
    sync_rounds: &BTreeSet<usize>,
    signals: bool,
    compute: bool,
    rounds: usize,
    lanes_per_thread: usize,
    comm_for: &(dyn Fn(usize) -> Comm<'a> + Sync),
    ckpt: Option<&CkptWrites>,
) -> Option<u32> {
    let (train, _test) = sim::build_datasets(cfg);
    let proto = PaperModel::build(cfg.model, cfg.seed);
    let iid_order = sim::iid_sample_order(&train, &proto.task);
    let conditions = cfg.effective_conditions();
    let n = cfg.workers;
    let present: Vec<Vec<usize>> = (0..rounds)
        .map(|it| conditions.present_workers(n, it))
        .collect();
    let forwards_before: Vec<u64> = present
        .iter()
        .scan(0u64, |acc, p| {
            let before = *acc;
            *acc += p.len() as u64;
            Some(before)
        })
        .collect();
    let lane0_thread = AtomicU64::new(u64::MAX);
    std::thread::scope(|scope| {
        for first in (0..n).step_by(lanes_per_thread) {
            let (train, iid_order, present, forwards_before) =
                (&train, &iid_order, &present, &forwards_before);
            let lane0_thread = &lane0_thread;
            scope.spawn(move || {
                let workers: Vec<usize> = (first..(first + lanes_per_thread).min(n)).collect();
                if workers.contains(&0) {
                    lane0_thread.store(rec.thread_id() as u64, Ordering::Relaxed);
                }
                let mut lanes: Vec<(Lane, Comm, bool)> = workers
                    .iter()
                    .map(|&w| (Lane::new(cfg, train, iid_order, w), comm_for(w), true))
                    .collect();
                for it in 0..rounds {
                    for (lane, comm, was_present) in lanes.iter_mut() {
                        let w = lane.worker;
                        let Some(rank) = present[it].iter().position(|&p| p == w) else {
                            *was_present = false;
                            continue;
                        };
                        let active = present[it].len();
                        comm.small(rec, it);
                        if !*was_present {
                            lane.tracker = new_tracker(cfg);
                            lane.optimizer = cfg.optimizer.build();
                            *was_present = true;
                        }
                        let (loss, delta) = if compute {
                            lane.step(rec, cfg, train, forwards_before[it] + rank as u64, it)
                        } else {
                            (1.0, 0.0)
                        };
                        if signals {
                            comm.scalar(rec, it, w, loss, active, ScalarOp::Mean);
                            comm.scalar(rec, it, w, delta, active, ScalarOp::Max);
                        }
                        comm.small(rec, it);
                        let synced = comm.flags(rec, it, w, sync_rounds.contains(&it), active);
                        if synced {
                            comm.sync(rec, it, w, &mut lane.params, active);
                        }
                        if rank == 0 {
                            comm.small(rec, it);
                            if let Some(c) = ckpt.filter(|c| (it + 1) % c.every == 0) {
                                rec.span("checkpoint.write", || {
                                    c.image.write_file(c.path).expect("write replay checkpoint")
                                });
                            }
                        }
                    }
                }
            });
        }
    });
    match lane0_thread.load(Ordering::Relaxed) {
        u64::MAX => None,
        t => Some(t as u32),
    }
}

/// Phase 3/4 over sockets: an in-process hub serving `BenchService`, one
/// client connection per worker. Returns (lane-0 thread, bytes in, bytes out).
fn socket_replay(
    rec: &Arc<Recorder>,
    cfg: &TrainConfig,
    sync_rounds: &BTreeSet<usize>,
    signals: bool,
    compute: bool,
    rounds: usize,
    socket: &Path,
) -> (Option<u32>, u64, u64) {
    let n = cfg.workers;
    let proto = PaperModel::build(cfg.model, cfg.seed);
    let service = Arc::new(BenchService {
        handles: make_handles(n, proto.params_flat()),
        rec: Arc::clone(rec),
        bytes_in: AtomicU64::new(0),
        bytes_out: AtomicU64::new(0),
    });
    let addr = SocketAddrSpec::parse(&socket.to_string_lossy());
    let server = HubServer::bind(&addr).expect("bind the benchmark hub socket");
    let lane0 = std::thread::scope(|scope| {
        let svc: Arc<dyn RpcService> = service.clone();
        let hub = scope.spawn(|| server.serve(n, svc));
        let comm_for = |w: usize| {
            let conn = rec.span("socket.connect", || {
                SocketConn::connect(&addr, Duration::from_secs(30))
                    .expect("connect to the benchmark hub")
            });
            Comm::Socket(conn.client(w as u32))
        };
        let lane0 = lane_replay(
            rec,
            cfg,
            sync_rounds,
            signals,
            compute,
            rounds,
            1,
            &comm_for,
            None,
        );
        hub.join()
            .expect("benchmark hub thread")
            .expect("benchmark hub serve");
        lane0
    });
    (
        lane0,
        service.bytes_in.load(Ordering::Relaxed),
        service.bytes_out.load(Ordering::Relaxed),
    )
}

// ---------------------------------------------------------------- phase 5

/// Median µs of `reps` calls of `f`.
fn time_us<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// GFLOP/s of `matmul`, `matmul_bt` and `matmul_at` on the model's Linear
/// shapes at the workload's batch size.
fn kernel_probe(sink: &mut Sink, cfg: &TrainConfig) {
    let model = PaperModel::build(cfg.model, cfg.seed);
    let b = cfg.batch_size;
    let shapes: Vec<(usize, usize)> = model
        .network()
        .layers()
        .iter()
        .filter_map(|l| l.params().first().map(|w| w.shape()))
        .filter(|&(r, c)| r > 1 && c > 1)
        .collect();
    let fill = |r: usize, c: usize| {
        Tensor::from_fn(r, c, |i, j| ((i * 31 + j * 17) % 13) as f32 / 13.0 - 0.5)
    };
    let mut totals = [(0.0f64, 0.0f64); 3];
    for &(k, n) in &shapes {
        let (x, w, g) = (fill(b, k), fill(k, n), fill(b, n));
        let flops = 2.0 * (b * k * n) as f64;
        for (slot, total) in totals.iter_mut().enumerate() {
            let mut reps = 0usize;
            let t = Instant::now();
            while t.elapsed() < Duration::from_millis(60) {
                match slot {
                    0 => black_box(ops::matmul(&x, &w).expect("matmul shape")),
                    1 => black_box(ops::matmul_bt(&g, &w).expect("matmul_bt shape")),
                    _ => black_box(ops::matmul_at(&x, &g).expect("matmul_at shape")),
                };
                reps += 1;
            }
            total.0 += flops * reps as f64;
            total.1 += t.elapsed().as_secs_f64();
        }
    }
    for (name, (flops, secs)) in [
        "tensor.matmul_gflops",
        "tensor.matmul_bt_gflops",
        "tensor.matmul_at_gflops",
    ]
    .into_iter()
    .zip(totals)
    {
        sink.put(name, flops / secs / 1e9);
    }
}

fn wire_probe(sink: &mut Sink, cfg: &TrainConfig) {
    let dim = PaperModel::build(cfg.model, cfg.seed).param_count();
    let envelope = Envelope {
        kind: MsgKind::Rpc,
        round: 1,
        sender: 0,
        payload: vec![7u8; 5 + dim * 4],
    };
    let frame = envelope.encode();
    sink.put("wire.encode_us", time_us(30, || envelope.encode()));
    sink.put(
        "wire.decode_us",
        time_us(30, || Envelope::decode(&frame).expect("frame decodes")),
    );
    sink.put("wire.frame_bytes", frame.len() as f64);
    let vectors: Vec<Vec<f32>> = (0..cfg.workers).map(|w| vec![w as f32; dim]).collect();
    sink.put(
        "aggregation.average_us",
        time_us(30, || selsync::aggregation::average(&vectors)),
    );
}

/// Encode the reference log, and merge it back from one shard per role.
fn tracelog_probe(sink: &mut Sink, cfg: &TrainConfig, reference: &Reference) {
    let log = EventLog::decode(&reference.log).expect("reference log decodes");
    sink.put("tracelog.encode_us", time_us(10, || log.encode()));
    let roles = cfg.workers + 1;
    let shards = || {
        let mut shards = vec![EventLog::default(); roles];
        for e in &log.events {
            let role = e.round().map_or(0, |r| 1 + r % cfg.workers);
            shards[role].events.push(e.clone());
        }
        shards
    };
    let samples: Vec<f64> = (0..10)
        .map(|_| {
            let s = shards();
            let t = Instant::now();
            black_box(EventLog::merge(s));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    sink.put("tracelog.merge_ms", median(&samples));
}

fn checkpoint_probe(sink: &mut Sink, image: &Checkpoint, dir: &Path) {
    let text = image.encode();
    let path = dir.join("probe-ckpt");
    sink.put("checkpoint.encode_ms", time_us(3, || image.encode()) / 1e3);
    sink.put(
        "checkpoint.write_ms",
        time_us(3, || {
            image.write_file(&path).expect("write probe checkpoint")
        }) / 1e3,
    );
    sink.put(
        "checkpoint.decode_ms",
        time_us(3, || {
            Checkpoint::decode(&text).expect("probe checkpoint decodes")
        }) / 1e3,
    );
    sink.put("checkpoint.bytes", text.len() as f64);
    let _ = std::fs::remove_file(path);
}

/// A real recovery image of the threaded backend, for `threaded-churn`.
fn threaded_image(cfg: &TrainConfig) -> Option<Checkpoint> {
    let spec = cfg.checkpoint.clone()?;
    selsync::threaded::run_threaded_selsync(cfg);
    let last = (0..cfg.iterations).rev().find(|&r| spec.due(r))?;
    let image = Checkpoint::read_file(spec.path_for(last)).ok();
    let _ = std::fs::remove_dir_all(&spec.dir);
    image
}

/// Layer self time of training spans on `thread` (all threads when `None`).
fn layer_self_ns(spans: &[Span], thread: Option<u32>) -> u64 {
    let st = self_times(spans);
    spans
        .iter()
        .filter(|s| thread.is_none_or(|t| s.thread == t) && !NOT_TRAINING.contains(&s.name))
        .map(|s| st[&s.id])
        .sum()
}

pub type Outcome = (bool, usize, usize, Metrics, Vec<(&'static str, String)>);

pub fn run(workload: Workload, seed: u64, rounds: usize, dir: &Path) -> Outcome {
    let train_seed = workload.train_seeds(seed)[0];
    let reference = Reference::compute(workload, train_seed, rounds);
    let cut_reference = Reference::compute(workload, train_seed, 1);

    // Phase 1: the untraced real run.
    let mut runs: Vec<Rep> = (0..SETUP_REPS)
        .map(|i| run_once(workload, train_seed, 1, &cut_reference, dir, i, false))
        .collect();
    let setup_s = median(&runs.iter().map(|r| r.train_s).collect::<Vec<_>>());
    runs.push(run_once(
        workload, train_seed, rounds, &reference, dir, SETUP_REPS, false,
    ));
    let untraced_train_s = runs[SETUP_REPS].train_s - setup_s;
    let mut failed: usize = runs.iter().map(|r| r.failed_rounds).sum();
    let attempted: usize = runs.iter().map(|r| r.rounds).sum();

    let cfg = workload.config(train_seed, rounds, None);
    let sync_rounds: BTreeSet<usize> = reference.report.sync_rounds.iter().copied().collect();
    let signals = cfg
        .delta_policy
        .as_ref()
        .is_some_and(|p| p.consumes_round_signals());
    let mut sink = Sink::default();

    // Phase 2: the simulator replay.
    let sim_rec = Recorder::default();
    let t = Instant::now();
    let (final_metric, replay_syncs, sim_image) =
        par::with_threads(Workload::SimSelsync.role_threads(), || {
            sim_replay(&sim_rec, &cfg, &reference)
        });
    let sim_replay_s = t.elapsed().as_secs_f64();
    if final_metric != reference.report.final_metric || replay_syncs != reference.report.sync_rounds
    {
        eprintln!("error: the simulator replay departed from the reference run");
        failed += rounds;
    }
    let sim_spans = sim_rec.spans();
    sink.p50_p95(
        &sim_spans,
        "sim.round",
        ["sim.round_ms_p50", "sim.round_ms_p95"],
        1e-3,
    );
    let per_round =
        |name: &str| durations_us(&sim_spans, name).iter().sum::<f64>() / 1e3 / rounds as f64;
    sink.put("sim.apply_ms", per_round("sim.apply"));
    sink.median_of(&sim_spans, "sim.eval", "sim.eval_ms", 1e-3);
    sink.median_of(&sim_spans, "sim.new", "sim.new_ms", 1e-3);

    // A real image of the threaded backend, which its replay writes at the
    // workload's checkpoint cadence.
    let image = match workload {
        Workload::ThreadedChurn => {
            let ckpt_dir = dir.join("trace-ckpt").to_string_lossy().into_owned();
            threaded_image(&workload.config(train_seed, rounds, Some(&ckpt_dir)))
        }
        _ => None,
    };
    let replay_ckpt = dir.join("replay-ckpt");

    // Phase 3: the worker replay with the backend's communication.
    let lane_rec = Arc::new(Recorder::default());
    let t = Instant::now();
    let (lane0, hub_bytes) = par::with_threads(1, || match workload.backend() {
        Backend::Sim => {
            let threads = workload.role_threads();
            let per_thread = cfg.workers.div_ceil(threads);
            let lane0 = lane_replay(
                &lane_rec,
                &cfg,
                &sync_rounds,
                signals,
                true,
                rounds,
                per_thread,
                &|_| Comm::Local,
                None,
            );
            (lane0, None)
        }
        Backend::Threaded => {
            let proto = PaperModel::build(cfg.model, cfg.seed);
            let handles = make_handles(cfg.workers, proto.params_flat());
            let writes = image.as_ref().map(|image| CkptWrites {
                image,
                every: CKPT_EVERY,
                path: &replay_ckpt,
            });
            let lane0 = lane_replay(
                &lane_rec,
                &cfg,
                &sync_rounds,
                signals,
                true,
                rounds,
                1,
                &|_| Comm::InProc(&handles),
                writes.as_ref(),
            );
            (lane0, None)
        }
        Backend::Process => {
            let (lane0, bin, bout) = socket_replay(
                &lane_rec,
                &cfg,
                &sync_rounds,
                signals,
                true,
                rounds,
                &dir.join("trace-hub.sock"),
            );
            (lane0, Some((bin, bout)))
        }
    });
    let lane_replay_s = t.elapsed().as_secs_f64();
    let lane_spans = lane_rec.spans();
    for (span, name) in [
        ("nn.forward", "nn.forward_us"),
        ("nn.backward", "nn.backward_us"),
        ("nn.optim", "nn.optim_us"),
        ("data.batch", "data.batch_us"),
        ("tracker.delta", "tracker.delta_us"),
        ("ps.sync_round", "ps.sync_round_us"),
        (
            "collective.allgather_flags",
            "collective.allgather_flags_us",
        ),
        (
            "collective.allreduce_scalar",
            "collective.allreduce_scalar_us",
        ),
    ] {
        sink.median_of(&lane_spans, span, name, 1.0);
    }
    sink.median_of(&lane_spans, "socket.connect", "socket.connect_ms", 1e-3);
    sink.median_of(&lane_spans, "checkpoint.write", "checkpoint.write_ms", 1e-3);
    let _ = std::fs::remove_file(&replay_ckpt);
    sink.p50_p95(
        &lane_spans,
        "socket.rpc_vec",
        ["socket.rpc_vec_us_p50", "socket.rpc_vec_us_p95"],
        1.0,
    );
    sink.p50_p95(
        &lane_spans,
        "socket.rpc_small",
        ["socket.rpc_small_us_p50", "socket.rpc_small_us_p95"],
        1.0,
    );
    if let Some((bin, bout)) = hub_bytes {
        sink.put("hub.bytes_in_per_round", bin as f64 / rounds as f64);
        sink.put("hub.bytes_out_per_round", bout as f64 / rounds as f64);
    }

    // Phase 4: socket traffic for workloads whose own replay has none.
    let comm_metrics = [
        "socket.connect_ms",
        "socket.rpc_vec_us_p50",
        "socket.rpc_small_us_p50",
        "ps.sync_round_us",
        "collective.allgather_flags_us",
        "collective.allreduce_scalar_us",
        "hub.bytes_in_per_round",
    ];
    let unmeasured: Vec<&str> = comm_metrics.into_iter().filter(|m| !sink.has(m)).collect();
    if !unmeasured.is_empty() {
        let probe_rec = Arc::new(Recorder::default());
        // Every round synchronizes so the vector path has samples.
        let probe_rounds = rounds.min(PROBE_ROUNDS);
        let all: BTreeSet<usize> = (0..probe_rounds).collect();
        let (_, bin, bout) = par::with_threads(1, || {
            socket_replay(
                &probe_rec,
                &cfg,
                &all,
                true,
                false,
                probe_rounds,
                &dir.join("probe-hub.sock"),
            )
        });
        let spans = probe_rec.spans();
        sink.median_of(&spans, "socket.connect", "socket.connect_ms", 1e-3);
        sink.p50_p95(
            &spans,
            "socket.rpc_vec",
            ["socket.rpc_vec_us_p50", "socket.rpc_vec_us_p95"],
            1.0,
        );
        sink.p50_p95(
            &spans,
            "socket.rpc_small",
            ["socket.rpc_small_us_p50", "socket.rpc_small_us_p95"],
            1.0,
        );
        for (span, name) in [
            ("ps.sync_round", "ps.sync_round_us"),
            (
                "collective.allgather_flags",
                "collective.allgather_flags_us",
            ),
            (
                "collective.allreduce_scalar",
                "collective.allreduce_scalar_us",
            ),
        ] {
            sink.median_of(&spans, span, name, 1.0);
        }
        sink.put("hub.bytes_in_per_round", bin as f64 / probe_rounds as f64);
        sink.put("hub.bytes_out_per_round", bout as f64 / probe_rounds as f64);
        sink.notes.push(format!(
            "\"socket_probe\": \"{probe_rounds} rounds, all synced, no compute, for {}\"",
            unmeasured.join(" ")
        ));
    }

    // Phase 5: probes.
    par::with_threads(workload.role_threads(), || kernel_probe(&mut sink, &cfg));
    wire_probe(&mut sink, &cfg);
    tracelog_probe(&mut sink, &cfg, &reference);
    checkpoint_probe(&mut sink, image.as_ref().unwrap_or(&sim_image), dir);

    // Coverage: how much of the untraced training time the layer spans of
    // the backend's own replay explain.
    let (covered_ns, replay_s) = match workload.backend() {
        Backend::Sim => (layer_self_ns(&sim_spans, None), sim_replay_s),
        _ => (layer_self_ns(&lane_spans, lane0), lane_replay_s),
    };
    sink.put("trace.coverage", covered_ns as f64 / 1e9 / untraced_train_s);

    let missing: Vec<&str> = PER_LAYER
        .iter()
        .map(|(n, _)| *n)
        .filter(|n| !sink.has(n))
        .collect();
    if !missing.is_empty() {
        eprintln!(
            "error: per-layer metrics not measured: {}",
            missing.join(", ")
        );
    }
    let notes = BTreeMap::from([
        ("untraced_train_s", format!("{untraced_train_s}")),
        ("traced_replay_s", format!("{replay_s}")),
        ("tail_percentiles", format!("{{{}}}", sink.notes.join(", "))),
    ]);
    (
        failed == 0 && missing.is_empty(),
        attempted,
        failed,
        sink.metrics,
        notes.into_iter().collect(),
    )
}
