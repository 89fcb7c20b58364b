//! Distributed IR execution (§3.4, Table 3).
//!
//! "Text retrieval lends itself well for distributed execution, as we can
//! easily split up the document collection into N partitions, and let each
//! partition be indexed by its own server node. An incoming query can then
//! be broadcast to all indexing nodes, with each of them returning its local
//! top-N documents for that query. These per-node results can then be merged
//! into a global top-N."
//!
//! The paper's cluster was 8 physical machines on a LAN; ours is simulated
//! in two layers (see "Substitutions vs the paper" in
//! `docs/ARCHITECTURE.md`):
//!
//! * **Compute is real** — [`cluster::SimulatedCluster`] builds one genuine
//!   [`x100_ir::InvertedIndex`] per partition and *measures* each query's
//!   per-partition execution time by running it.
//! * **The network and queueing are modeled** — [`schedule`] replays those
//!   measured times through a deterministic discrete-event simulation with
//!   per-request dispatch jitter, reproducing the two phenomena Table 3
//!   demonstrates: load imbalance capping latency speedup (the slowest of N
//!   servers gates the query), and concurrent query streams restoring
//!   linear *throughput* scaling even as per-query latency degrades.

//!
//! A third layer promotes the simulation to real sockets: [`net`] serves
//! each partition from a TCP endpoint and scatter-gathers with per-node
//! deadlines, hedged retries, and replica failover, using the in-process
//! cluster as its bit-identical differential oracle.

#![warn(clippy::undocumented_unsafe_blocks)]

pub mod cluster;
pub mod net;
pub mod partition;
pub mod schedule;
pub mod serve;

pub use cluster::{
    ClusterError, MergedResult, Node, NodeTiming, ScatterResponse, SimulatedCluster,
};
pub use net::{
    Coordinator, CoordinatorConfig, CoordinatorStats, Fault, NetCluster, NetError,
    NetSearchOutcome, NodeServer, PartitionAttempt, PartitionServeStats,
};
pub use partition::partition_of;
pub use schedule::{simulate_run, JitterModel, RunConfig, RunStats};
pub use serve::{
    run_closed_loop, run_open_loop, Lane, LatencyHistogram, QueryOutcome, QueryService,
    ServeConfig, ServeReport, ServedQuery, TwoLaneQueue,
};
