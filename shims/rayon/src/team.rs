//! The persistent helper team behind every parallel call.
//!
//! A call publishes one job — a count of chunks and a borrowed closure over
//! chunk indexes — and wakes up to `width − 1` parked helpers. The caller
//! and the woken helpers claim chunk indexes from one atomic counter until
//! none are left, so a chunk that costs more than its neighbours delays only
//! the thread that claimed it. Helpers are spawned lazily, the first time a
//! call needs them, and then park on a condition variable between jobs: the
//! team grows to the widest call's `width − 1` helpers and never shrinks.
//! Helpers are never joined; like real rayon's global pool they live until
//! the process exits.
//!
//! One job runs at a time. A caller that finds the team busy with another
//! thread's job runs its chunks inline instead of queueing, so no call ever
//! waits for another call and none can deadlock.
//!
//! A panic in any chunk — on a helper or on the caller — stops further
//! claims and is re-raised on the caller, but only after every helper has
//! left the job.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// The team every parallel call in the process shares.
static TEAM: Team = Team::new();

/// Run `work(k)` once for every `k` in `0..chunks`, spread over the caller
/// and up to `width − 1` helpers of the process-wide team.
pub(crate) fn run(width: usize, chunks: usize, work: &(dyn Fn(usize) + Sync)) {
    TEAM.run(width, chunks, work);
}

pub(crate) struct Team {
    state: Mutex<State>,
    /// Parked helpers wait here for a job.
    wake: Condvar,
    /// A caller waits here for the last helper to leave its job.
    left: Condvar,
}

struct State {
    /// The published job's claim loop; `None` between jobs and from the
    /// moment its caller has finished claiming.
    job: Option<&'static (dyn Fn() + Sync)>,
    /// Helpers still invited into `job`.
    seats: usize,
    /// Helpers running `job` right now.
    inside: usize,
    /// Set from publishing a job until its last helper has left it.
    busy: bool,
    /// Helpers spawned so far.
    helpers: usize,
}

impl Team {
    pub(crate) const fn new() -> Self {
        Team {
            state: Mutex::new(State { job: None, seats: 0, inside: 0, busy: false, helpers: 0 }),
            wake: Condvar::new(),
            left: Condvar::new(),
        }
    }

    /// Lock the state. No code panics while holding the lock, and user
    /// code never runs under it, so a poisoned lock still guards a
    /// consistent state.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of helpers this team has spawned.
    #[cfg(test)]
    pub(crate) fn helpers(&self) -> usize {
        self.lock().helpers
    }

    /// See [`run`].
    pub(crate) fn run(&'static self, width: usize, chunks: usize, work: &(dyn Fn(usize) + Sync)) {
        let wanted = width.saturating_sub(1).min(chunks.saturating_sub(1));
        let mut state = self.lock();
        let seats = if state.busy {
            0
        } else {
            self.grow(&mut state, wanted);
            wanted.min(state.helpers)
        };
        if seats == 0 {
            drop(state);
            (0..chunks).for_each(work);
            return;
        }

        // The counter only hands out chunk indexes. What a chunk writes is
        // published to the caller through its own storage and through
        // `state`'s lock, which every helper takes on leaving the job.
        let next = AtomicUsize::new(0);
        let panicked: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        let claim_loop: &(dyn Fn() + Sync) = &|| loop {
            let k = next.fetch_add(1, Ordering::Relaxed);
            if k >= chunks {
                break;
            }
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| work(k))) {
                next.store(chunks, Ordering::Relaxed);
                panicked.lock().unwrap_or_else(PoisonError::into_inner).get_or_insert(payload);
            }
        };
        // SAFETY: only the lifetime is erased; the type is unchanged. The
        // `'static` reference is stored in `state.job` alone, and a helper
        // copies it out only under the lock, in the same critical section
        // that counts it into `state.inside`. `finish` is declared after the
        // closure and the locals it borrows (`next`, `panicked`, `work`), so
        // it drops before them whether `run` returns or unwinds, and on
        // return it is dropped before `panicked` is read. Its drop clears
        // `state.job` under the lock, then waits until `state.inside` is 0:
        // from then on no helper holds the reference or can obtain it.
        let job = unsafe {
            std::mem::transmute::<&(dyn Fn() + Sync + '_), &'static (dyn Fn() + Sync)>(claim_loop)
        };
        state.job = Some(job);
        state.seats = seats;
        state.busy = true;
        let finish = Finish(self);
        drop(state);
        for _ in 0..seats {
            self.wake.notify_one();
        }

        // Nested parallel calls made by the caller's chunks run inline, as
        // they do on the helpers.
        crate::ThreadPool { width: 1 }.install(claim_loop);
        drop(finish);
        if let Some(payload) = panicked.into_inner().unwrap_or_else(PoisonError::into_inner) {
            panic::resume_unwind(payload);
        }
    }

    /// Spawn helpers until the team has `wanted` of them. A failed spawn
    /// stops the growth; the job then runs on the helpers there are.
    fn grow(&'static self, state: &mut State, wanted: usize) {
        while state.helpers < wanted {
            let spawned = std::thread::Builder::new()
                .name(format!("rayon-shim-{}", state.helpers + 1))
                .spawn(move || self.help());
            if spawned.is_err() {
                break;
            }
            state.helpers += 1;
        }
    }

    /// A helper's life: take a seat in each job it is woken for, run the
    /// job's claim loop, and park again.
    fn help(&self) {
        // A parallel call made inside a job runs inline on the thread that
        // makes it: the team is already at work.
        crate::INSTALLED_WIDTH.with(|width| width.set(1));
        let mut state = self.lock();
        loop {
            match state.job {
                Some(job) if state.seats > 0 => {
                    state.seats -= 1;
                    state.inside += 1;
                    drop(state);
                    job();
                    state = self.lock();
                    state.inside -= 1;
                    if state.inside == 0 {
                        self.left.notify_one();
                    }
                }
                _ => state = self.wake.wait(state).unwrap_or_else(PoisonError::into_inner),
            }
        }
    }
}

/// Withdraws the published job and waits for every helper inside it to
/// leave; the team is then free for the next caller.
struct Finish(&'static Team);

impl Drop for Finish {
    fn drop(&mut self) {
        let mut state = self.0.lock();
        state.job = None;
        state.seats = 0;
        while state.inside > 0 {
            state = self.0.left.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
        state.busy = false;
    }
}
