//! On-line reconfiguration scheduling for Virtual Bit-Streams.
//!
//! The paper's run-time contribution is a *primitive*: one compressed,
//! position-independent stream per task that can be de-virtualized anywhere
//! the task fits. This crate builds the *system* on top of that primitive —
//! the layer a multi-tenant deployment needs once many tasks contend for one
//! fabric:
//!
//! * [`Scheduler`] — a prioritized request queue (load / unload / relocate
//!   with deadlines) over the runtime [`vbs_runtime::TaskManager`];
//! * [`EvictionPolicy`] — who leaves when the fabric is full ([`LruEviction`],
//!   [`PriorityEviction`]); eviction is cheap here because re-loading a task
//!   is just another de-virtualization;
//! * compaction — [`Scheduler::compact`] relocates resident tasks toward the
//!   bottom-left corner to fight external fragmentation, exercising the
//!   paper's fast-relocation use case at scale;
//! * [`DecodeCache`] — a byte-budgeted cache of decoded
//!   [`vbs_bitstream::TaskBitstream`]s keyed by `(task, spec)`, so repeated
//!   loads skip de-virtualization; arenas it displaces recycle into the
//!   [`vbs_runtime::ScratchPool`] of the fabric's own controller, which
//!   every decode there checks out of, so steady-state decoding allocates
//!   nothing;
//! * [`Trace`] / [`replay`] — a deterministic trace format, a seeded
//!   synthetic workload generator and a simulator reporting acceptance
//!   rate, fragmentation, decode time, cache hit rate and relocations;
//! * [`MultiFabricScheduler`] — one request stream sharded over K fabrics
//!   through a pluggable [`ShardPolicy`] ([`RoundRobin`], [`LeastLoaded`],
//!   [`CacheAffinity`]), with cross-fabric migration of capacity-rejected
//!   loads; a round runs each busy fabric's queue in turn on the caller's
//!   thread. Shards queue every request under the fleet-global id
//!   [`MultiFabricScheduler::submit`] returned, so their residents,
//!   outcomes and events name the job as the fleet does — there is no id
//!   translation; [`replay_multi`] replays traces against a fleet.
//!
//! # One load path
//!
//! A load is always the same three steps: look the task up in the decode
//! cache (on a miss or a warm hit, de-virtualize it on the fabric
//! controller), pick a region (compacting and evicting if
//! the placement policy finds none), and write the decoded image through
//! the controller's fault-gated `load_decoded`. The fleet adds routing and
//! migration around that, nothing inside it. Two alternatives used to sit
//! beside it, each behind a configuration flag: a *streaming* mode that
//! wrote frames while the decode was still running, and a fleet pipeline
//! that decoded a round's streams on extra worker threads and handed them
//! to the fabrics through channels. Both were proven bit-identical to
//! this path by differentials, and neither moved a number the repository
//! benchmark (`bash benchmark/run.sh`, seed 2015, 2 vCPUs) can see. With
//! both streaming defaults on, `ops_per_s` read −2.4 % on `hot_replay`,
//! +1.4 % on `churn_replay` and −6.7 % on `fleet_replay` over two
//! alternating 6 s pairs, all inside the parent's own run-to-run spread.
//! With both deleted, ten alternating 20 s pairs read `fleet_replay`
//! 26.1 k → 27.1 k loads/s (parent quartiles 25.9–26.6 k, run-to-run range
//! 8 %), `hot_replay` 63.8 k → 64.2 k, `churn_replay` 222.6 k → 222.3 k:
//! unresolved, far inside the 25 % bound, every scheduling verdict exactly
//! equal. So both are gone, and with them the only way a failed load could
//! leave a region half written.
//!
//! Placement is pluggable through [`vbs_runtime::PlacementPolicy`]
//! (first-fit, best-fit, bottom-left skyline) on the manager the scheduler
//! is built over.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod corpus;
mod evict;
mod fault;
mod multi;
mod scheduler;
mod shard;
mod sim;
mod trace;

pub use cache::{CacheBudget, CacheLookup, CacheStats, DecodeCache, InsertOutcome};
pub use corpus::{CorpusError, CorpusTask, McncCorpus};
pub use evict::{EvictionPolicy, LruEviction, PriorityEviction, ResidentInfo};
pub use fault::{FaultInjector, FaultKind, FaultPlan, FaultPlanError, Outage};
pub use multi::{MultiFabricScheduler, MultiMetrics};
pub use scheduler::{
    EvacuatedJob, Outcome, RejectReason, Request, SchedMetrics, Scheduler, SchedulerConfig,
};
pub use shard::{
    shard_policy_by_name, CacheAffinity, FabricStatus, LeastLoaded, RoundRobin, ShardPolicy,
    SHARD_POLICY_NAMES,
};
pub use sim::{replay, replay_multi, FabricReport, MultiSimReport, ReplayTarget, SimReport};
pub use trace::{Trace, TraceError, TraceEvent, TraceOp, VariantSwapSpec, WorkloadSpec};
