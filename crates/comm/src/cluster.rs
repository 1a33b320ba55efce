//! The shared state of one cluster run.
//!
//! The `selsync` crate's hub builds the parameter server and the collectives group
//! its workers share with [`make_handles`].

use crate::collective::Collective;
use crate::ps::ParameterServer;
use std::sync::Arc;

/// Shared handles to a run's parameter server and collectives group.
#[derive(Clone)]
pub struct ClusterHandles {
    /// The parameter server shared by all workers.
    pub ps: Arc<ParameterServer>,
    /// The collectives group (status all-gather and all-reduces).
    pub collective: Arc<Collective>,
}

/// Build cluster handles for `world_size` workers around an initial global vector.
pub fn make_handles(world_size: usize, initial_global: Vec<f32>) -> ClusterHandles {
    ClusterHandles {
        ps: Arc::new(ParameterServer::new(initial_global)),
        collective: Arc::new(Collective::new(world_size)),
    }
}
