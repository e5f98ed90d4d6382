//! Priority task queue.

use std::collections::BinaryHeap;

use crate::task::{ExpertTask, TaskId, TaskKind};

#[derive(Debug, PartialEq, Eq)]
struct QueueEntry {
    priority: u32,
    // Reverse insertion tiebreak: FIFO among equal priorities.
    seq: std::cmp::Reverse<u64>,
    id: TaskId,
}

impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.priority.cmp(&other.priority).then_with(|| self.seq.cmp(&other.seq))
    }
}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A queue of expert tasks, popped highest-priority first (FIFO on ties).
#[derive(Debug, Default)]
pub struct ExpertQueue {
    heap: BinaryHeap<QueueEntry>,
    tasks: std::collections::HashMap<TaskId, ExpertTask>,
    next_id: u64,
    next_seq: u64,
}

impl ExpertQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pending tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Submit a task; the queue assigns the id.
    pub fn submit(&mut self, kind: TaskKind, priority: u32) -> TaskId {
        let id = TaskId(self.next_id);
        self.next_id += 1;
        let task = ExpertTask::new(id, kind, priority);
        self.heap.push(QueueEntry { priority, seq: std::cmp::Reverse(self.next_seq), id });
        self.next_seq += 1;
        self.tasks.insert(id, task);
        id
    }

    /// Pop the highest-priority pending task.
    pub fn pop(&mut self) -> Option<ExpertTask> {
        let entry = self.heap.pop()?;
        self.tasks.remove(&entry.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dup(a: &str) -> TaskKind {
        TaskKind::DupConfirm { a: a.into(), b: "x".into() }
    }

    #[test]
    fn pops_by_priority_then_fifo() {
        let mut q = ExpertQueue::new();
        q.submit(dup("low"), 1);
        q.submit(dup("high"), 9);
        q.submit(dup("mid_first"), 5);
        q.submit(dup("mid_second"), 5);
        let order: Vec<String> = std::iter::from_fn(|| q.pop())
            .map(|t| match t.kind {
                TaskKind::DupConfirm { a, .. } => a,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec!["high", "mid_first", "mid_second", "low"]);
        assert!(q.is_empty());
    }
}
