//! The persistent worker pool under [`crate::sched::BatchScheduler`] — and
//! one of the workspace's two `unsafe`s (the other: `udf_gp`'s AVX2 row map):
//! a lifetime erasure that hands a borrowed task to long-lived threads, sound
//! because [`WorkerPool::run`] does not return until every thread it
//! dispatched to has reported back.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use udf_obs::Histogram;

/// A lifetime-erased pointer to the task a [`WorkerPool`] broadcast runs.
///
/// Safety: [`WorkerPool::run`] does not return until every worker that
/// received the pointer has reported completion, so the borrow it erases
/// outlives every dereference.
struct TaskRef(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared calls are safe) and `WorkerPool::run`
// bounds the pointer's use to the lifetime of the borrow it was cast from.
unsafe impl Send for TaskRef {}

/// One broadcast job: the task plus the completion channel.
struct Job {
    task: TaskRef,
    /// Reports `Ok` when the task ran to completion, or the panic message.
    done: mpsc::Sender<std::result::Result<(), String>>,
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "<non-string panic payload>".to_string(),
        },
    }
}

/// Persistent worker threads, spawned once and reused across batches.
///
/// A pool of capacity `workers` owns `workers - 1` threads; the thread that
/// calls [`run`](WorkerPool::run) participates as the final worker, so
/// `workers == 1` degenerates to a plain inline call with no thread or
/// channel traffic at all.
pub(crate) struct WorkerPool {
    txs: Vec<mpsc::Sender<Job>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    pub(crate) workers: usize,
}

impl WorkerPool {
    pub(crate) fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let mut txs = Vec::with_capacity(workers - 1);
        let mut handles = Vec::with_capacity(workers - 1);
        for id in 0..workers - 1 {
            let (tx, rx) = mpsc::channel::<Job>();
            txs.push(tx);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("udf-sched-{id}"))
                    .spawn(move || worker_loop(id, rx))
                    .expect("spawn scheduler worker"),
            );
        }
        WorkerPool {
            txs,
            handles,
            workers,
        }
    }

    /// Run `task(worker_id)` on up to `helpers` pool threads plus the
    /// caller, and wait for all of them. Dispatching fewer jobs than pool
    /// threads lets a small batch (fewer steal-able chunks than workers)
    /// skip waking threads that would find the steal counter exhausted.
    /// Returns the first panic message when any invocation panicked.
    pub(crate) fn run(
        &self,
        task: &(dyn Fn(usize) + Sync),
        helpers: usize,
        queue_wait: &Histogram,
    ) -> std::result::Result<(), String> {
        let caller_run =
            || catch_unwind(AssertUnwindSafe(|| task(self.workers - 1))).map_err(panic_message);
        if self.txs.is_empty() || helpers == 0 {
            return caller_run();
        }
        let (done_tx, done_rx) = mpsc::channel();
        // SAFETY: erases the borrow's lifetime. The wait loop below blocks
        // until every dispatched job has reported done, so no worker touches
        // the pointer after this function returns.
        let erased: &'static (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(task) };
        let mut sent = 0usize;
        for tx in self.txs.iter().take(helpers) {
            let job = Job {
                task: TaskRef(erased as *const _),
                done: done_tx.clone(),
            };
            if tx.send(job).is_ok() {
                sent += 1;
            }
        }
        drop(done_tx);
        // The caller is the last worker; catch its panic too so we never
        // unwind past the wait below while threads still hold the task.
        let mut res = caller_run();
        // Straggler wait: how long the caller blocks on pool threads after
        // finishing its own share (load-imbalance signal).
        let _wait = queue_wait.span();
        for _ in 0..sent {
            match done_rx.recv() {
                Ok(Ok(())) => {}
                Ok(err) => res = res.and(err),
                Err(_) => {
                    res = res.and(Err("scheduler worker died mid-batch".to_string()));
                }
            }
        }
        res
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.txs.clear(); // closes every job channel; workers exit their loop
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(id: usize, rx: mpsc::Receiver<Job>) {
    while let Ok(job) = rx.recv() {
        // SAFETY: see `TaskRef` — the broadcaster is blocked until `done`
        // reports, so the pointee is alive for the whole call.
        let task = unsafe { &*job.task.0 };
        let res = catch_unwind(AssertUnwindSafe(|| task(id))).map_err(panic_message);
        let _ = job.done.send(res);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// The borrow that `run` erases must outlive every use of it, also when
    /// tasks panic mid-broadcast: each round's task borrows a stack-local
    /// `Vec` that is dropped as soon as `run` returns, so every dispatched
    /// invocation has to be over by then.
    #[test]
    fn no_worker_outlives_the_borrow_when_tasks_panic_mid_broadcast() {
        const WORKERS: usize = 8;
        let caller = WORKERS - 1;
        let pool = WorkerPool::new(WORKERS);
        let wait = Histogram::disabled();
        for round in 0..500usize {
            let (caller_panics, helper_panics) = (round % 4 == 1 || round % 4 == 3, round % 4 >= 2);
            let helpers = 1 + round % (WORKERS - 1);
            let bad_helper = round % helpers;
            let (res, hits) = {
                let hits: Vec<AtomicUsize> = (0..WORKERS).map(|_| AtomicUsize::new(0)).collect();
                let task = |id: usize| {
                    hits[id].fetch_add(1, Ordering::SeqCst);
                    if (caller_panics && id == caller) || (helper_panics && id == bad_helper) {
                        panic!("boom {round}/{id}");
                    }
                };
                let res = pool.run(&task, helpers, &wait);
                let seen: Vec<usize> = hits.iter().map(|h| h.load(Ordering::SeqCst)).collect();
                (res, seen)
            };
            for (id, &n) in hits.iter().enumerate() {
                let dispatched = id < helpers || id == caller;
                assert_eq!(n, usize::from(dispatched), "round {round}: worker {id}");
            }
            match res {
                Ok(()) => assert!(
                    !caller_panics && !helper_panics,
                    "round {round}: panic lost"
                ),
                Err(message) => {
                    assert!(caller_panics || helper_panics, "round {round}: {message}");
                    let from = if caller_panics { caller } else { bad_helper };
                    assert_eq!(message, format!("boom {round}/{from}"));
                }
            }
        }
        // The pool is still whole after 375 contained panics.
        let ran = AtomicUsize::new(0);
        let task = |_id: usize| {
            ran.fetch_add(1, Ordering::SeqCst);
        };
        assert_eq!(pool.run(&task, WORKERS - 1, &wait), Ok(()));
        assert_eq!(ran.load(Ordering::SeqCst), WORKERS);
    }
}
