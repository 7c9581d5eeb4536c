//! Intra-machine worker pool for the engines' local computation stages.
//!
//! Each simulated machine owns one `ThreadPool` and fans its block-chunked
//! local work out over it. Determinism is the whole point of the design:
//! [`ThreadPool::map`] consumes an ordered list of work items and returns
//! the results **in item order**, no matter how many threads executed them
//! or how the items interleaved at runtime. Engines put one vertex block
//! per item and merge the per-block outputs in block-index order, which
//! makes every run bitwise-identical at any thread count (the two-level
//! threading model documented in DESIGN.md).
//!
//! The pool keeps `threads − 1` persistent workers (the machine thread
//! itself is the last executor) so per-subround dispatch costs two
//! condvar hops, not a thread spawn.

use std::cell::UnsafeCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::error::CommError;

/// Type-erased handle to one in-flight `map` call. `run` drains the item
/// counter of the job context behind `ctx`; the pointer stays valid until
/// the publishing `map` call observes every worker's completion.
#[derive(Clone, Copy)]
struct JobRef {
    run: unsafe fn(*const ()),
    ctx: *const (),
}

// The pointers reference a stack frame that provably outlives the job
// (map() blocks until every worker checks out), and the pointee is Sync.
unsafe impl Send for JobRef {}

struct PoolState {
    /// Bumped once per published job; workers run each epoch exactly once.
    epoch: u64,
    job: Option<JobRef>,
    /// Workers that have not yet finished the current epoch's job.
    active: usize,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Signals a new epoch (or shutdown) to workers.
    job_ready: Condvar,
    /// Signals `active == 0` back to the publisher.
    all_done: Condvar,
}

/// A deterministic fork-join pool; see the module docs.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

/// Shared context of one `map` call, monomorphised per (T, R).
struct JobCtx<T, R, F> {
    items: Vec<UnsafeCell<Option<T>>>,
    slots: Vec<UnsafeCell<Option<R>>>,
    next: AtomicUsize,
    poisoned: AtomicBool,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    f: F,
}

// Workers hand each UnsafeCell slot to exactly one executor (the atomic
// `next` counter is the arbiter), so concurrent shared access never
// aliases a cell.
unsafe impl<T: Send, R: Send, F: Sync> Sync for JobCtx<T, R, F> {}

impl<T, R, F: Fn(T) -> R> JobCtx<T, R, F> {
    /// Claims and runs items until the counter drains. Runs on workers and
    /// on the publishing thread alike.
    fn work(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.items.len() {
                return;
            }
            // Sole owner of cell `i` by the fetch_add above.
            #[expect(
                clippy::expect_used,
                reason = "the fetch_add above gives this thread sole ownership of cell i"
            )]
            let item = unsafe { (*self.items[i].get()).take() }.expect("item claimed twice");
            if self.poisoned.load(Ordering::Relaxed) {
                continue; // a sibling panicked; drain without running
            }
            match catch_unwind(AssertUnwindSafe(|| (self.f)(item))) {
                Ok(r) => unsafe { *self.slots[i].get() = Some(r) },
                Err(payload) => {
                    self.poisoned.store(true, Ordering::Relaxed);
                    let mut slot = self.panic.lock().unwrap_or_else(|e| e.into_inner());
                    if slot.is_none() {
                        *slot = Some(payload);
                    }
                }
            }
        }
    }
}

unsafe fn run_erased<T, R, F: Fn(T) -> R>(ctx: *const ()) {
    unsafe { (*(ctx as *const JobCtx<T, R, F>)).work() }
}

impl ThreadPool {
    /// A pool executing on `threads` threads total: `threads − 1` workers
    /// plus the calling thread. `threads <= 1` spawns nothing and makes
    /// [`map`](Self::map) run inline. Fails, with the workers already
    /// started joined again, when the host refuses a thread.
    pub fn new(threads: usize) -> Result<Self, CommError> {
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                epoch: 0,
                job: None,
                active: 0,
                shutdown: false,
            }),
            job_ready: Condvar::new(),
            all_done: Condvar::new(),
        });
        // Built first so that an early return drops — shuts down and
        // joins — the workers spawned so far.
        let mut pool = ThreadPool { shared, workers: Vec::new() };
        // One worker at a time: each reports in before the next is spawned.
        // A thread the runtime has created but not yet set up still needs
        // memory of its own (its signal stack), and a spawn racing ahead
        // could take that memory and abort the process instead of failing
        // the next spawn, which is a typed error.
        let (started_tx, started) = std::sync::mpsc::channel::<()>();
        for i in 1..threads {
            let (shared, started_tx) = (pool.shared.clone(), started_tx.clone());
            #[expect(
                clippy::disallowed_methods,
                reason = "the pool's workers outlive any one scope; \
                          Drop shuts them down and joins them"
            )]
            let worker = std::thread::Builder::new()
                .name(format!("lazygraph-pool-{i}"))
                .spawn(move || {
                    let _ = started_tx.send(());
                    worker_loop(shared)
                })
                .map_err(|e| CommError::PoolSpawn {
                    detail: format!("thread {i} of {threads}: {e}"),
                })?;
            pool.workers.push(worker);
            let _ = started.recv();
        }
        Ok(pool)
    }

    /// Total executing threads (workers + caller).
    pub fn threads(&self) -> usize {
        self.workers.len() + 1
    }

    /// Runs `f` over every item, returning results in item order. Items are
    /// claimed dynamically by whichever thread is free; the order-preserving
    /// result slots are what keep the outcome independent of the schedule.
    /// A panicking `f` propagates to the caller after the job drains.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        if self.workers.is_empty() || items.len() <= 1 {
            return items.into_iter().map(f).collect();
        }
        let n = items.len();
        let ctx = JobCtx {
            items: items.into_iter().map(|t| UnsafeCell::new(Some(t))).collect(),
            slots: (0..n).map(|_| UnsafeCell::new(None)).collect(),
            next: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            panic: Mutex::new(None),
            f,
        };
        let job = JobRef {
            run: run_erased::<T, R, F>,
            ctx: &ctx as *const _ as *const (),
        };
        {
            let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            // Invariant: `run` returns only after every worker checked out.
            debug_assert_eq!(st.active, 0, "previous job still draining");
            st.epoch += 1;
            st.job = Some(job);
            st.active = self.workers.len();
            self.shared.job_ready.notify_all();
        }
        ctx.work();
        // Wait for every worker to check out before the stack frame holding
        // `ctx` can be reused.
        let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        while st.active > 0 {
            st = self
                .shared
                .all_done
                .wait(st)
                .unwrap_or_else(|e| e.into_inner());
        }
        st.job = None;
        drop(st);
        if let Some(payload) = ctx.panic.lock().unwrap_or_else(|e| e.into_inner()).take() {
            resume_unwind(payload);
        }
        ctx.slots
            .into_iter()
            .map(
                #[expect(
                    clippy::expect_used,
                    reason = "the epoch protocol fills every slot before join returns"
                )]
                |c| c.into_inner().expect("unfilled result slot"),
            )
            .collect()
    }
}

fn worker_loop(shared: Arc<Shared>) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch > seen_epoch {
                    seen_epoch = st.epoch;
                    #[expect(
                        clippy::expect_used,
                        reason = "the submitter stores the job before bumping the epoch"
                    )]
                    break st.job.expect("epoch bumped without a job");
                }
                st = shared
                    .job_ready
                    .wait(st)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        unsafe { (job.run)(job.ctx) };
        let mut st = shared.state.lock().unwrap_or_else(|e| e.into_inner());
        st.active -= 1;
        if st.active == 0 {
            shared.all_done.notify_all();
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            st.shutdown = true;
            self.shared.job_ready.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order_at_every_width() {
        let expected: Vec<usize> = (0..1000).map(|i| i * i).collect();
        for threads in [1, 2, 3, 8] {
            let pool = ThreadPool::new(threads).expect("spawn pool");
            let got = pool.map((0..1000).collect::<Vec<usize>>(), |i| i * i);
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn map_is_reusable_and_handles_empty() {
        let pool = ThreadPool::new(4).expect("spawn pool");
        assert_eq!(pool.map(Vec::<u32>::new(), |x| x), Vec::<u32>::new());
        for round in 0..50u32 {
            let got = pool.map(vec![round, round + 1], |x| x * 2);
            assert_eq!(got, vec![round * 2, round * 2 + 2]);
        }
    }

    #[test]
    fn owned_items_pass_through() {
        let pool = ThreadPool::new(3).expect("spawn pool");
        let items: Vec<Vec<u32>> = (0..10).map(|i| vec![i; i as usize]).collect();
        let lens = pool.map(items, |v| v.len());
        assert_eq!(lens, (0..10usize).collect::<Vec<_>>());
    }

    #[test]
    fn panics_propagate() {
        let pool = ThreadPool::new(4).expect("spawn pool");
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.map((0..64).collect::<Vec<u32>>(), |i| {
                if i == 13 {
                    panic!("unlucky");
                }
                i
            })
        }));
        assert!(result.is_err());
        // Pool survives a panicked job.
        assert_eq!(pool.map(vec![1, 2, 3], |x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn single_thread_runs_inline() {
        let pool = ThreadPool::new(1).expect("spawn pool");
        assert_eq!(pool.threads(), 1);
        let tid = std::thread::current().id();
        let ids = pool.map(vec![(); 8], |()| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == tid));
    }
}
