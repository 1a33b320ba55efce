//! Role processes: the benchmark binary re-invoked as one simulator, threaded
//! or cluster process, so each measured run's memory and I/O are its own.
//!
//! A role writes one output file: a first line `rchar wchar vmhwm_kb`, read
//! from `/proc/self` before the file is written (so its own output is not
//! counted), then the role's event log or trace shard.

use crate::workload::Workload;
use selsync::process::{run_process_hub_with, run_process_worker_with, WorkerOptions};
use selsync_comm::SocketAddrSpec;
use std::path::Path;

/// Bytes the process passed through `read`/`write` calls so far.
pub fn proc_io() -> Result<(u64, u64), String> {
    let text =
        std::fs::read_to_string("/proc/self/io").map_err(|e| format!("/proc/self/io: {e}"))?;
    let field = |key: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(key)?.trim().parse::<u64>().ok())
            .ok_or_else(|| format!("/proc/self/io has no {key}"))
    };
    Ok((field("rchar:")?, field("wchar:")?))
}

/// Peak resident set size of this process, in kB.
pub fn vm_hwm_kb() -> Result<u64, String> {
    let text = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    text.lines()
        .find_map(|l| {
            l.strip_prefix("VmHWM:")?
                .trim()
                .strip_suffix("kB")?
                .trim()
                .parse()
                .ok()
        })
        .ok_or_else(|| "/proc/self/status has no VmHWM".to_string())
}

/// What one role process reported.
#[derive(Debug, Clone)]
pub struct RoleOutput {
    pub rchar: u64,
    pub wchar: u64,
    pub vmhwm_kb: u64,
    pub payload: String,
}

impl RoleOutput {
    pub fn read(path: &Path) -> Result<RoleOutput, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let (stats, payload) = text.split_once('\n').unwrap_or((&text, ""));
        let nums: Vec<u64> = stats
            .split_whitespace()
            .map(|v| v.parse().map_err(|e| format!("{}: {e}", path.display())))
            .collect::<Result<_, _>>()?;
        let [rchar, wchar, vmhwm_kb] = nums[..] else {
            return Err(format!(
                "{}: malformed stats line {stats:?}",
                path.display()
            ));
        };
        Ok(RoleOutput {
            rchar,
            wchar,
            vmhwm_kb,
            payload: payload.to_string(),
        })
    }
}

/// Arguments of a role invocation.
pub struct RoleArgs {
    pub role: String,
    pub workload: Workload,
    pub train_seed: u64,
    pub rounds: usize,
    pub index: usize,
    pub out: String,
    pub socket: String,
    pub ckpt_dir: Option<String>,
}

impl RoleArgs {
    pub fn to_args(&self) -> Vec<String> {
        let mut args = vec![
            "--role".into(),
            self.role.clone(),
            "--workload".into(),
            self.workload.name().into(),
            "--train-seed".into(),
            self.train_seed.to_string(),
            "--rounds".into(),
            self.rounds.to_string(),
            "--index".into(),
            self.index.to_string(),
            "--out".into(),
            self.out.clone(),
            "--socket".into(),
            self.socket.clone(),
        ];
        if let Some(dir) = &self.ckpt_dir {
            args.extend(["--ckpt-dir".into(), dir.clone()]);
        }
        args
    }

    fn parse(args: &[String]) -> Result<RoleArgs, String> {
        let get = |flag: &str| {
            args.iter()
                .position(|a| a == flag)
                .and_then(|i| args.get(i + 1))
                .cloned()
        };
        let need = |flag: &str| get(flag).ok_or_else(|| format!("role needs {flag}"));
        let num = |flag: &str| -> Result<u64, String> {
            need(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
        };
        let name = need("--workload")?;
        Ok(RoleArgs {
            role: need("--role")?,
            workload: Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?,
            train_seed: num("--train-seed")?,
            rounds: num("--rounds")? as usize,
            index: num("--index")? as usize,
            out: need("--out")?,
            socket: need("--socket")?,
            ckpt_dir: get("--ckpt-dir"),
        })
    }
}

/// Child entry point: run one role and exit.
pub fn run_role(args: &[String]) -> ! {
    let outcome = RoleArgs::parse(args).and_then(|role| {
        let payload = execute(&role)?;
        let (rchar, wchar) = proc_io()?;
        let hwm = vm_hwm_kb()?;
        std::fs::write(&role.out, format!("{rchar} {wchar} {hwm}\n{payload}"))
            .map_err(|e| format!("{}: {e}", role.out))
    });
    match outcome {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("error: role failed: {e}");
            std::process::exit(1);
        }
    }
}

fn execute(role: &RoleArgs) -> Result<String, String> {
    let cfg = role
        .workload
        .config(role.train_seed, role.rounds, role.ckpt_dir.as_deref());
    let addr = SocketAddrSpec::parse(&role.socket);
    Ok(match role.role.as_str() {
        "sim" => {
            selsync::algorithms::run(&cfg);
            cfg.trace.take_log().encode()
        }
        "threaded" => {
            selsync::threaded::run_threaded_selsync(&cfg);
            cfg.trace.take_log().encode()
        }
        "hub" => run_process_hub_with(&cfg, &addr, None),
        "worker" => run_process_worker_with(&cfg, role.index, &addr, WorkerOptions::default()).1,
        other => return Err(format!("unknown role {other:?}")),
    })
}
