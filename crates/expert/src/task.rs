//! Expert task definitions.

/// Task identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u64);

/// What the expert is being asked.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskKind {
    /// "Does source attribute `source_attr` map to global attribute
    /// `candidate`?" (score attached for context, as in Fig 2's drop-down).
    SchemaMatch { source_attr: String, candidate: String, score: f64 },
    /// "Do these two surface forms denote the same entity?"
    DupConfirm { a: String, b: String },
}

/// A queued expert task.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpertTask {
    /// Unique id.
    pub id: TaskId,
    /// The question.
    pub kind: TaskKind,
    /// Priority; higher pops first. Integration sets priority by how close
    /// the score sits to the acceptance threshold (most ambiguous first).
    pub priority: u32,
}

impl ExpertTask {
    /// Create a task.
    pub fn new(id: TaskId, kind: TaskKind, priority: u32) -> Self {
        ExpertTask { id, kind, priority }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction() {
        let t = ExpertTask::new(TaskId(1), TaskKind::DupConfirm { a: "x".into(), b: "y".into() }, 7);
        assert_eq!(t.id, TaskId(1));
        assert_eq!(t.priority, 7);
    }
}
