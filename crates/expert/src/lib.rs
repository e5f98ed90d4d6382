//! Expert sourcing — Data Tamer's "unique expert-sourcing mechanism for
//! obtaining human guidance".
//!
//! Suggestions falling between the escalation and acceptance thresholds are
//! packaged as tasks, queued by priority, routed to (simulated) domain
//! experts, and resolved by weighted vote:
//!
//! * [`task`] — task kinds (schema-match confirmation, duplicate
//!   confirmation), ids, priorities.
//! * [`queue`] — a priority task queue.
//! * [`oracle`] — simulated experts with configurable accuracy and response
//!   cost, answering from generator ground truth.
//! * [`resolve`] — weighted-majority aggregation of expert responses.

pub mod oracle;
pub mod queue;
pub mod resolve;
pub mod task;

pub use oracle::SimulatedExpert;
pub use queue::ExpertQueue;
pub use resolve::{resolve_votes, Vote};
pub use task::{ExpertTask, TaskId, TaskKind};
