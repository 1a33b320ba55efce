//! # selsync-comm
//!
//! Communication substrate for the SelSync reproduction.
//!
//! The paper's system runs 16 GPU workers and one parameter-server process connected by
//! a 5 Gbps NIC, using PyTorch RPC. Here the *control flow* is executed for real between
//! OS threads inside one process, and the *duration* of each transfer is supplied by an
//! analytical cost model:
//!
//! * [`ps`] — an in-memory parameter server holding the flat global parameter vector,
//!   with blocking round-keyed aggregation rounds (BSP / SelSync) and a snapshot ring
//!   for deterministic rejoin pulls.
//! * [`collective`] — round-keyed collectives: the 1-bit-per-worker `all-gather`
//!   used by SelSync's synchronization-status exchange (Alg. 1, line 12) and the
//!   scalar and vector all-reduces of the cluster signals.
//! * [`netmodel`] — the analytical network cost model (bandwidth, latency, PS incast,
//!   ring all-reduce) that converts nominal transfer sizes into simulated seconds. All
//!   throughput/speedup numbers in the benchmark harness come from this model, with the
//!   same accounting applied to every algorithm.
//! * [`rounds`] — the round-keyed elastic rendezvous skeleton behind every
//!   parameter-server round and collective: contributions are keyed by worker id
//!   and combined in worker order, so deterministic combines stay deterministic
//!   under any thread scheduling.
//! * [`cluster`] — the shared handles (parameter server plus collectives) of one
//!   cluster run.
//! * [`wire`] — serialized, length-prefixed wire messages: every frame is an
//!   [`wire::Envelope`] with kind/round/sender ids and a checksum.
//! * [`faults`] — the deterministic per-link fault schedule (`[comm_faults]`):
//!   per-leg fates as a pure hash of `(seed, worker, round, attempt, leg)`, whose
//!   closed form gives every `(worker, round)` its attempt count or its eviction,
//!   plus the `[ps_faults]` availability schedule. Every backend reads these
//!   schedules; no message carries them.
//! * [`socket`] — the hub-side frame server and blocking RPC channel the
//!   multi-process backend runs on, over Unix domain sockets by default or TCP by
//!   address.

pub mod cluster;
pub mod collective;
pub mod faults;
pub mod netmodel;
pub mod ps;
pub mod rounds;
pub mod socket;
pub mod wire;

pub use collective::{Collective, ScalarOp};
pub use faults::{CommFaultSchedule, CommFaultSpec, PsFaultSchedule, PsFaultSpec};
pub use netmodel::NetworkModel;
pub use ps::ParameterServer;
pub use socket::{HubClient, HubServer, RpcService, SocketAddrSpec, SocketConn};
pub use wire::{Envelope, MsgKind, WireError, HUB_SENDER};
