//! # selsync-repro
//!
//! Facade crate for the SelSync reproduction workspace. It re-exports every workspace
//! crate under one roof so examples, integration tests and downstream users can depend
//! on a single package:
//!
//! * [`core`] (`selsync`) — the paper's contribution: the `Δ(g_i)` tracker, the δ
//!   policy, and the BSP / FedAvg / SSP / local-SGD / SelSync training drivers.
//! * [`tensor`], [`nn`], [`data`], [`comm`] — the substrates (dense math, neural
//!   networks, datasets/partitioning, parameter server + collectives + network model).
//! * [`hessian`], [`metrics`] — second-order diagnostics, and metrics/reporting.
//!
//! `docs/` holds the subsystem guides (transport, recovery, scenarios, event log,
//! comm faults, performance); `ROADMAP.md` records what is done and what is open.

/// The paper's contribution: selective synchronization (re-export of the `selsync` crate).
pub use selsync as core;

/// Dense tensor substrate.
pub use selsync_tensor as tensor;

/// Neural-network substrate (layers, models, losses, optimizers, schedules).
pub use selsync_nn as nn;

/// Data substrate (synthetic datasets, DefDP/SelDP partitioning, non-IID splits,
/// data-injection).
pub use selsync_data as data;

/// Communication substrate (parameter server, collectives, network cost model).
pub use selsync_comm as comm;

/// Deterministic run-trace layer (typed event stream, line codec, trace diff).
pub use selsync_tracelog as tracelog;

/// Second-order diagnostics (Hessian-vector products, power iteration, gradient variance).
pub use selsync_hessian as hessian;

/// Metrics and reporting (EWMA, KDE, LSSR, throughput, tables).
pub use selsync_metrics as metrics;

/// Declarative, deterministic scenario & fault-injection subsystem (TOML scenario
/// files, built-in scenario library, fault injector, comparison runner).
pub use selsync_scenario as scenario;

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_are_wired() {
        // Touch one item from each re-export to ensure the facade compiles against them.
        let _ = crate::core::SyncPolicy::bsp();
        let _ = crate::tensor::Tensor::zeros(1, 1);
        let _ = crate::nn::model::ModelKind::all();
        let _ = crate::data::partition::PartitionScheme::SelDp;
        let _ = crate::comm::NetworkModel::paper_5gbps();
        let _ = crate::tracelog::TraceSink::disabled();
        let _ = crate::hessian::variance::gradient_variance(&[1.0]);
        let _ = crate::metrics::Ewma::new(0.5, 5);
        let _ = crate::scenario::library::builtin("steady");
    }
}
