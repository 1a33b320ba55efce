//! Worker-thread cluster harness.
//!
//! Spawns one OS thread per worker, hands each a worker id plus shared handles (the
//! parameter server and the collectives group), and collects the per-worker results.
//! The `selsync` crate's hub builds its shared state with [`make_handles`]; the tests
//! here use [`run_cluster`] to exercise the real blocking/rendezvous code paths.

use crate::collective::Collective;
use crate::ps::ParameterServer;
use std::sync::Arc;

/// Shared handles every worker thread receives.
#[derive(Clone)]
pub struct ClusterHandles {
    /// The parameter server shared by all workers.
    pub ps: Arc<ParameterServer>,
    /// The collectives group (status all-gather, all-reduce, barrier).
    pub collective: Arc<Collective>,
    /// Total number of workers.
    pub world_size: usize,
}

/// Build cluster handles for `world_size` workers around an initial global vector.
pub fn make_handles(world_size: usize, initial_global: Vec<f32>) -> ClusterHandles {
    ClusterHandles {
        ps: Arc::new(ParameterServer::new(initial_global)),
        collective: Arc::new(Collective::new(world_size)),
        world_size,
    }
}

/// Run `f(worker_id, handles)` on `world_size` OS threads and return the results in
/// worker order. Panics in any worker propagate to the caller.
pub fn run_cluster<T, F>(world_size: usize, initial_global: Vec<f32>, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, ClusterHandles) -> T + Send + Sync,
{
    let handles = make_handles(world_size, initial_global);
    std::thread::scope(|scope| {
        let joins: Vec<_> = (0..world_size)
            .map(|w| {
                let h = handles.clone();
                let f = &f;
                scope.spawn(move || f(w, h))
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("worker thread panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_cluster_returns_results_in_worker_order() {
        let out = run_cluster(4, vec![0.0; 1], |w, _| w * 10);
        assert_eq!(out, vec![0, 10, 20, 30]);
    }

    #[test]
    fn workers_share_the_parameter_server() {
        let out = run_cluster(4, vec![0.0; 2], |w, h| {
            let avg = h.ps.sync_round(&[w as f32, 1.0], h.world_size);
            avg[0]
        });
        assert!(out.iter().all(|&x| (x - 1.5).abs() < 1e-6));
    }

    #[test]
    fn workers_share_the_collective() {
        let out = run_cluster(3, vec![], |w, h| h.collective.allgather_flags(w, w == 1));
        for flags in out {
            assert_eq!(flags, vec![false, true, false]);
        }
    }
}
