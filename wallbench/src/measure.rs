//! The untraced run: spawn the workload's role processes, time them from the
//! outside, and gate every run on byte-identity with the simulator reference.

use crate::roles::{RoleArgs, RoleOutput};
use crate::span::median;
use crate::workload::{Backend, Workload, CKPT_EVERY};
use selsync::checkpoint::Checkpoint;
use selsync::report::RunReport;
use selsync_tracelog::{codec, EventLog};
use std::io::{Read, Write};
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Runs of the one-round cut whose median is `setup_s`.
pub const SETUP_REPS: usize = 9;
/// Timed runs made however short `--seconds` is.
const MIN_TIMED_RUNS: usize = 3;
/// A run whose roles have not all exited by then is killed and counted failed.
const ROLE_DEADLINE: Duration = Duration::from_secs(120);

/// Scratch directory of one benchmark invocation, inside the working
/// directory; removed when dropped.
pub struct RunDir(pub PathBuf);

impl RunDir {
    pub fn create() -> Result<RunDir, String> {
        let path = PathBuf::from(".wallbench-run").join(std::process::id().to_string());
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(RunDir(path))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave the parent only if another invocation still uses it.
        let _ = std::fs::remove_dir(".wallbench-run");
    }
}

/// The sequential simulator's run of one configuration: the correctness oracle.
pub struct Reference {
    pub log: String,
    pub report: RunReport,
}

impl Reference {
    pub fn compute(workload: Workload, train_seed: u64, rounds: usize) -> Reference {
        let cfg = workload.config(train_seed, rounds, None);
        let report = match workload.backend() {
            // The measured simulator runs its worker-parallel rounds; the
            // oracle is the sequential single-engine path.
            Backend::Sim => selsync::sim::with_sequential_rounds(|| selsync::algorithms::run(&cfg)),
            _ => selsync::algorithms::run(&cfg),
        };
        Reference {
            log: cfg.trace.take_log().encode(),
            report,
        }
    }
}

/// Byte-counting relay between the workers and the hub.
///
/// Rust's socket streams move data with `send`/`recv`, which the kernel does
/// not count in `/proc/self/io`, so the wire bytes of the process backend are
/// counted here: workers connect to the relay, which forwards every byte to
/// the hub with plain `read`/`write`. The extra hop costs time, so runs
/// through the relay count bytes only and are left out of every timing.
struct Relay {
    bytes: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    acceptor: JoinHandle<Vec<JoinHandle<()>>>,
}

impl Relay {
    fn start(front: &Path, hub: &Path, connections: usize) -> std::io::Result<Relay> {
        let listener = UnixListener::bind(front)?;
        // Polled, so a run whose workers never connect cannot hang the relay.
        listener.set_nonblocking(true)?;
        let bytes = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let (counter, stopped) = (Arc::clone(&bytes), Arc::clone(&stop));
        let hub = hub.to_path_buf();
        let acceptor = std::thread::spawn(move || {
            let mut pumps = Vec::new();
            let mut accepted = 0;
            while accepted < connections && !stopped.load(Ordering::Relaxed) {
                let worker = match listener.accept() {
                    Ok((worker, _)) => worker,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(1));
                        continue;
                    }
                    Err(_) => break,
                };
                accepted += 1;
                let Some(upstream) = connect_retry(&hub, &stopped) else {
                    break;
                };
                let pairs = [
                    (worker.try_clone(), upstream.try_clone()),
                    (Ok(upstream), Ok(worker)),
                ];
                for (from, to) in pairs {
                    let (Ok(from), Ok(to)) = (from, to) else {
                        continue;
                    };
                    let counter = Arc::clone(&counter);
                    pumps.push(std::thread::spawn(move || pump(from, to, &counter)));
                }
            }
            pumps
        });
        Ok(Relay {
            bytes,
            stop,
            acceptor,
        })
    }

    /// Stop accepting, join every relay thread and return the bytes
    /// forwarded. Call once the role processes have exited.
    fn finish(self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        if let Ok(pumps) = self.acceptor.join() {
            for p in pumps {
                let _ = p.join();
            }
        }
        self.bytes.load(Ordering::Relaxed)
    }
}

fn connect_retry(path: &Path, stop: &AtomicBool) -> Option<UnixStream> {
    loop {
        match UnixStream::connect(path) {
            Ok(s) => return Some(s),
            Err(_) if !stop.load(Ordering::Relaxed) => std::thread::sleep(Duration::from_millis(1)),
            Err(_) => return None,
        }
    }
}

fn pump(mut from: UnixStream, mut to: UnixStream, counter: &AtomicU64) {
    let mut buf = vec![0u8; 256 * 1024];
    loop {
        match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                if to.write_all(&buf[..n]).is_err() {
                    break;
                }
                counter.fetch_add(n as u64, Ordering::Relaxed);
            }
        }
    }
    let _ = to.shutdown(Shutdown::Write);
    let _ = from.shutdown(Shutdown::Read);
}

/// The references of every training seed, two at a time: they are not timed,
/// so they use both CPUs, one single-threaded simulator each.
fn references(workload: Workload, seeds: &[u64], rounds: usize) -> Vec<Reference> {
    const THREADS: usize = 2;
    selsync_tensor::par::with_threads(1, || {
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    scope.spawn(move || {
                        seeds
                            .iter()
                            .skip(t)
                            .step_by(THREADS)
                            .map(|&s| Reference::compute(workload, s, rounds))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let mut done: Vec<_> = workers
                .into_iter()
                .map(|w| w.join().expect("reference thread").into_iter())
                .collect();
            (0..seeds.len())
                .map(|j| done[j % THREADS].next().expect("one reference per seed"))
                .collect()
        })
    })
}

/// One measured run of the workload's real backend.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Spawn to the exit of the last role process.
    pub train_s: f64,
    /// Spawn to the merged, decoded result in hand.
    pub total_s: f64,
    pub rss_mb: f64,
    /// Bytes the roles passed through `read`/`write` (files and pipes; not
    /// their own output file).
    pub io_bytes: u64,
    /// Bytes between workers and hub, both ways, when the run went through
    /// the counting relay.
    pub hub_bytes: Option<u64>,
    pub rounds: usize,
    /// Rounds the correctness gate rejected.
    pub failed_rounds: usize,
}

/// Rounds after the first event where `got` departs from `want` (all rounds
/// when the logs differ only in length past the last round).
pub fn failed_rounds(got: &str, want: &str, rounds: usize) -> usize {
    if got == want {
        return 0;
    }
    let diverged = got
        .lines()
        .zip(want.lines())
        .find(|(a, b)| a != b)
        .and_then(|(_, b)| codec::decode_event(b).ok()?.round());
    rounds - diverged.unwrap_or(0).min(rounds)
}

fn spawn(role: &RoleArgs, threads: usize) -> std::io::Result<Child> {
    Command::new(std::env::current_exe()?)
        .args(role.to_args())
        .env("SELSYNC_THREADS", threads.to_string())
        .stdout(Stdio::null())
        .spawn()
}

/// Wait for every child; a watchdog kills them all if they are not done by
/// the deadline. Returns whether all exited successfully.
fn wait_all(children: &mut [Child]) -> bool {
    let pids: Vec<String> = children.iter().map(|c| c.id().to_string()).collect();
    let (done, finished) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || {
        if finished.recv_timeout(ROLE_DEADLINE) == Err(RecvTimeoutError::Timeout) {
            eprintln!("error: role processes still running after {ROLE_DEADLINE:?}; killing them");
            let _ = Command::new("kill").arg("-9").args(&pids).status();
        }
    });
    let mut ok = true;
    for child in children.iter_mut() {
        ok &= child.wait().is_ok_and(|s| s.success());
    }
    drop(done);
    let _ = watchdog.join();
    ok
}

/// Run the workload once with `rounds` rounds on training seed `train_seed`
/// and check it against `reference`. `count_bytes` routes a process-backend
/// run through the byte-counting relay.
pub fn run_once(
    workload: Workload,
    train_seed: u64,
    rounds: usize,
    reference: &Reference,
    dir: &Path,
    tag: usize,
    count_bytes: bool,
) -> Rep {
    let socket = dir.join(format!("hub{tag}.sock"));
    let relay_socket = dir.join(format!("relay{tag}.sock"));
    let relay = match (workload.backend(), count_bytes) {
        (Backend::Process, true) => {
            match Relay::start(&relay_socket, &socket, workload.workers()) {
                Ok(r) => Some(r),
                Err(e) => {
                    eprintln!("error: cannot start the byte-counting relay: {e}");
                    None
                }
            }
        }
        _ => None,
    };
    let ckpt_dir = (workload == Workload::ThreadedChurn).then(|| {
        dir.join(format!("ckpt{tag}"))
            .to_string_lossy()
            .into_owned()
    });
    let role = |role: &str, index: usize| RoleArgs {
        role: role.into(),
        workload,
        train_seed,
        rounds,
        index,
        out: dir
            .join(format!("{role}{index}-{tag}.out"))
            .to_string_lossy()
            .into_owned(),
        socket: if relay.is_some() && role != "hub" {
            &relay_socket
        } else {
            &socket
        }
        .to_string_lossy()
        .into_owned(),
        ckpt_dir: ckpt_dir.clone(),
    };
    let roles: Vec<RoleArgs> = match workload.backend() {
        Backend::Sim => vec![role("sim", 0)],
        Backend::Threaded => vec![role("threaded", 0)],
        Backend::Process => std::iter::once(role("hub", 0))
            .chain((0..workload.workers()).map(|w| role("worker", w)))
            .collect(),
    };

    let start = Instant::now();
    let mut children = Vec::new();
    let mut spawned = true;
    for r in &roles {
        match spawn(r, workload.role_threads()) {
            Ok(child) => children.push(child),
            Err(e) => {
                eprintln!("error: cannot spawn the {} role: {e}", r.role);
                spawned = false;
                break;
            }
        }
    }
    if !spawned {
        for child in &mut children {
            let _ = child.kill();
        }
    }
    let exited_ok = wait_all(&mut children) && spawned;
    let train_s = start.elapsed().as_secs_f64();
    let hub_bytes = relay.map(Relay::finish);
    let uncounted = count_bytes && workload.backend() == Backend::Process && hub_bytes.is_none();

    let outputs: Result<Vec<RoleOutput>, String> = roles
        .iter()
        .map(|r| RoleOutput::read(Path::new(&r.out)))
        .collect();
    let merged = outputs.as_ref().ok().and_then(|outs| {
        let shards: Result<Vec<EventLog>, String> =
            outs.iter().map(|o| EventLog::decode(&o.payload)).collect();
        Some(EventLog::merge(shards.ok()?).encode())
    });
    let total_s = start.elapsed().as_secs_f64();

    // The correctness gate, outside the timed region.
    let mut failed = match (&merged, exited_ok && !uncounted) {
        (Some(log), true) => failed_rounds(log, &reference.log, rounds),
        _ => rounds,
    };
    if let Err(e) = &outputs {
        eprintln!("error: {e}");
    }
    if let Some(dir) = &ckpt_dir {
        for round in (0..rounds).filter(|r| (r + 1) % CKPT_EVERY == 0) {
            let path = Path::new(dir).join(format!("ckpt-{round}"));
            match Checkpoint::read_file(&path) {
                Ok(ck) if ck.round == round => {}
                Ok(ck) => {
                    eprintln!("error: {} holds round {}", path.display(), ck.round);
                    failed += CKPT_EVERY;
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    failed += CKPT_EVERY;
                }
            }
        }
        let _ = std::fs::remove_dir_all(dir);
    }
    if failed > 0 {
        eprintln!(
            "error: {} run (train seed {train_seed}, {rounds} rounds) failed its correctness gate",
            workload.name()
        );
    }
    let outs = outputs.unwrap_or_default();
    for r in &roles {
        let _ = std::fs::remove_file(&r.out);
    }
    Rep {
        train_s,
        total_s,
        rss_mb: outs.iter().map(|o| o.vmhwm_kb as f64 / 1024.0).sum(),
        io_bytes: outs.iter().map(|o| o.rchar + o.wchar).sum(),
        hub_bytes,
        rounds,
        failed_rounds: failed.min(rounds),
    }
}

/// Payload bytes the reference schedule moves through the parameter server
/// and the status all-gather: the wire figure of the in-process backends.
pub fn schedule_bytes(workload: Workload, rounds: usize, reference: &Reference) -> u64 {
    // Membership and model shape do not depend on the training seed.
    let cfg = workload.config(0, rounds, None);
    let conditions = cfg.effective_conditions();
    let param_bytes = selsync_nn::model::PaperModel::build(cfg.model, 0).param_count() as u64 * 4;
    let present = |it: usize| conditions.present_workers(cfg.workers, it).len() as u64;
    let flags: u64 = (0..rounds).map(present).sum();
    let syncs: u64 = reference
        .report
        .sync_rounds
        .iter()
        .map(|&it| 2 * present(it) * param_bytes)
        .sum();
    flags + syncs
}

/// Everything the untraced run measured.
pub struct Measured {
    pub setup: Vec<Rep>,
    /// Process-backend runs through the byte-counting relay (untimed).
    pub counted: Vec<Rep>,
    pub reps: Vec<Rep>,
    pub references: Vec<Reference>,
    /// Per training seed: the run's wire bytes (hub socket bytes on the
    /// process backend, schedule payload bytes otherwise).
    pub wire_bytes: Vec<u64>,
    pub samples_full: u64,
    pub samples_cut: u64,
}

impl Measured {
    fn all_runs(&self) -> impl Iterator<Item = &Rep> {
        self.setup.iter().chain(&self.counted).chain(&self.reps)
    }

    pub fn attempted_rounds(&self) -> usize {
        self.all_runs().map(|r| r.rounds).sum()
    }

    pub fn failed_rounds(&self) -> usize {
        self.all_runs().map(|r| r.failed_rounds).sum()
    }

    /// Median of `f` over the timed runs.
    pub fn median_over_runs(&self, f: impl Fn(&Rep) -> f64) -> f64 {
        median(&self.reps.iter().map(f).collect::<Vec<_>>())
    }

    pub fn setup_s(&self) -> f64 {
        median(&self.setup.iter().map(|r| r.train_s).collect::<Vec<_>>())
    }

    /// Training throughput of each full run: the samples beyond the one-round
    /// cut over the time beyond it, so process start, dataset and model build
    /// and teardown cancel out.
    pub fn samples_per_s(&self) -> Vec<f64> {
        let setup = self.setup_s();
        self.reps
            .iter()
            .map(|r| {
                let extra_s = r.train_s - setup;
                let extra_samples = (self.samples_full - self.samples_cut) as f64;
                if extra_s > 0.0 {
                    extra_samples / extra_s
                } else {
                    self.samples_full as f64 / r.train_s
                }
            })
            .collect()
    }

    pub fn wire_bytes_per_sample(&self) -> f64 {
        let mean = self.wire_bytes.iter().sum::<u64>() as f64 / self.wire_bytes.len() as f64;
        mean / self.samples_full as f64
    }

    pub fn final_test_acc(&self) -> f64 {
        self.references
            .iter()
            .map(|r| r.report.final_metric as f64)
            .sum::<f64>()
            / self.references.len() as f64
    }
}

/// The untraced run: references first, then the one-round cut, then (process
/// backend) one byte-counting run per training seed, then full runs cycling
/// through the training seeds until `seconds` have passed.
pub fn measure(workload: Workload, seed: u64, rounds: usize, seconds: f64, dir: &Path) -> Measured {
    let seeds = workload.train_seeds(seed);
    let references = references(workload, &seeds, rounds);
    let cut_reference = Reference::compute(workload, seeds[0], 1);
    let mut tag = 0;
    let mut next_tag = || {
        tag += 1;
        tag
    };
    let setup: Vec<Rep> = (0..SETUP_REPS)
        .map(|_| {
            run_once(
                workload,
                seeds[0],
                1,
                &cut_reference,
                dir,
                next_tag(),
                false,
            )
        })
        .collect();
    let mut counted = Vec::new();
    let wire_bytes: Vec<u64> = match workload.backend() {
        Backend::Process => seeds
            .iter()
            .zip(&references)
            .map(|(&s, reference)| {
                let rep = run_once(workload, s, rounds, reference, dir, next_tag(), true);
                let bytes = rep.hub_bytes.unwrap_or(0);
                counted.push(rep);
                bytes
            })
            .collect(),
        _ => references
            .iter()
            .map(|r| schedule_bytes(workload, rounds, r))
            .collect(),
    };

    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_TIMED_RUNS || start.elapsed().as_secs_f64() < seconds {
        let j = reps.len() % seeds.len();
        reps.push(run_once(
            workload,
            seeds[j],
            rounds,
            &references[j],
            dir,
            next_tag(),
            false,
        ));
    }
    let full_cfg = workload.config(seeds[0], rounds, None);
    let cut_cfg = workload.config(seeds[0], 1, None);
    Measured {
        setup,
        counted,
        reps,
        references,
        wire_bytes,
        samples_full: Workload::samples(&full_cfg),
        samples_cut: Workload::samples(&cut_cfg),
    }
}
