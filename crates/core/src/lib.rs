//! # selsync
//!
//! A Rust reproduction of **"Accelerating Distributed ML Training via Selective
//! Synchronization"** (Tyagi & Swany, IEEE CLUSTER 2023).
//!
//! SelSync is a semi-synchronous data-parallel training scheme: on every iteration each
//! worker measures how much its gradient is changing (the relative gradient change
//! `Δ(g_i)`, Eqn. 2 of the paper) and the cluster synchronizes **only** on the
//! iterations where at least one worker's change exceeds a threshold `δ`; all other
//! iterations apply purely local SGD updates. Combined with parameter (rather than
//! gradient) aggregation and the SelDP circular-queue data partitioning, this converges
//! to BSP-level accuracy while eliminating most of the communication.
//!
//! Crate layout:
//!
//! * [`tracker`] — the per-worker `Δ(g_i)` tracker (EWMA-smoothed gradient statistic).
//! * [`policy`] — the `δ` decision rule (Fig. 6): `Δ(g_i) ≥ δ` ⇒ synchronize — plus
//!   the [`policy::DeltaPolicy`] trait choosing δ itself (fixed, scheduled, or a
//!   Sync-Switch-style adaptive policy that relaxes δ once gradients settle).
//! * [`conditions`] — cluster imperfections: device heterogeneity profiles and timed
//!   fault schedules (stragglers, crashes, network degradation) shared by every driver.
//! * [`aggregation`] — parameter vs gradient aggregation (§III-C).
//! * [`config`] — experiment configuration: model, cluster, algorithm, schedules.
//! * [`report`] — per-run results (LSSR, accuracy/perplexity, simulated time, history).
//! * [`sim`] — the deterministic single-process cluster simulator that all algorithm
//!   drivers share (compute is real, communication time comes from the cost model).
//! * [`algorithms`] — training drivers: BSP, local SGD, FedAvg, SSP and SelSync.
//! * [`threaded`] — a thread-per-worker SelSync/BSP driver: worker threads over one
//!   in-process hub (the real parameter server and collectives of `selsync-comm`).
//! * [`process`] — a process-per-worker SelSync/BSP driver over the socket transport:
//!   hub and worker entry points the `scenario_cluster` orchestrator spawns, with
//!   per-process trace shards that merge into the canonical event log. Both real
//!   backends run one worker round loop against one hub implementation.
//! * [`resume`] — cross-backend checkpoint translation: resume a simulator
//!   checkpoint on a real backend and vice versa.
//! * [`tracing`] — shared emission helpers for the deterministic run-trace layer
//!   (`selsync-tracelog`): both SelSync drivers log the same canonical event stream.
//!
//! # Quickstart
//!
//! ```
//! use selsync::config::{AlgorithmSpec, TrainConfig};
//! use selsync::algorithms::run;
//! use selsync_nn::model::ModelKind;
//!
//! // A small SelSync run: 4 workers, δ = 0.3, parameter aggregation, SelDP.
//! let mut cfg = TrainConfig::small(ModelKind::ResNetLike, 4);
//! cfg.algorithm = AlgorithmSpec::selsync(0.3);
//! cfg.iterations = 120;
//! let report = run(&cfg);
//! assert_eq!(report.iterations, 120);
//! ```

pub mod aggregation;
pub mod algorithms;
pub mod checkpoint;
pub mod conditions;
pub mod config;
mod hub;
pub mod policy;
pub mod process;
pub mod report;
pub mod resume;
pub mod sim;
pub mod threaded;
pub mod tracing;
pub mod tracker;
mod worker;

pub use aggregation::AggregationMode;
pub use checkpoint::Checkpoint;
pub use conditions::{ClusterConditions, FaultEvent};
pub use config::{AlgorithmSpec, CheckpointSpec, TrainConfig};
pub use policy::{
    AdaptiveDelta, DeltaPolicy, PolicySpec, PolicyState, RoundSignal, SwitchRecord, SyncDecision,
    SyncPolicy, VarianceDelta,
};
pub use report::RunReport;
pub use tracker::{GradientTracker, TrackerState};
