//! The executor's one fan-out primitive: a persistent worker pool.
//!
//! A [`WorkerPool`] keeps helper threads parked between jobs, each on a
//! condvar of its own. [`WorkerPool::run`] spreads the `n` items of one job over them: item 0
//! runs on the calling thread, items `1..n` are queued for the helpers, and
//! once the caller is free it claims back every queued item no helper has
//! started. A caller therefore never waits on an item nobody runs: a small
//! job finishes on its caller before a helper wakes, a pool with fewer
//! helpers than items (none, even) still completes every item, and callers
//! sharing one pool cannot deadlock one another. A one-item job never
//! touches the pool.
//!
//! Jobs are `'static`: they own what they work on (`Arc`s of a pipeline,
//! its morsels, its sink and the [`crate::ExecContext`]). A helper lets go
//! of the job before it counts its item done, so when `run` returns nothing
//! in the pool refers to the job and the caller's `Arc`s are its own again.
//!
//! Helpers are started with [`std::thread::Builder::spawn`]: when the OS
//! refuses a thread, the pool keeps the helpers it has and stops asking,
//! and the items go to the helpers it has and to the caller.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use bfq_common::{BfqError, Result};
use parking_lot::{Condvar, Mutex};

/// A job with its result slots bound in: runs one item, never unwinds.
type Job = Arc<dyn Fn(usize) + Send + Sync>;

/// One queued item of a job.
struct Task {
    job: Job,
    item: usize,
    batch: Arc<Batch>,
}

/// The items of one job not yet done (queued or running), and the condvar
/// its caller waits on.
struct Batch {
    left: Mutex<usize>,
    done: Condvar,
}

impl Batch {
    /// Count one item done. Its runner lets go of the job first, so by the
    /// time the caller sees its batch finished, no task holds its job.
    fn finish_one(&self) {
        let mut left = self.left.lock();
        *left -= 1;
        if *left == 0 {
            self.done.notify_one();
        }
    }
}

/// What the helpers and the callers share.
struct Queue {
    tasks: VecDeque<Task>,
    /// Parked helpers, each by the condvar it waits on, the most recently
    /// parked last.
    parked: Vec<Arc<Condvar>>,
    /// Helpers awake and not running an item: they look at the queue
    /// before they park. A job wakes parked helpers only for the tasks
    /// these will not take, and from the top of the stack, so a pool with
    /// more helpers than its jobs need keeps handing work to the same few
    /// (and their allocator arenas) instead of rotating through all.
    searching: usize,
    /// Set when the pool drops: helpers exit once the queue is empty.
    shutdown: bool,
}

struct PoolShared {
    queue: Mutex<Queue>,
}

/// A set of parked helper threads that run the items of fan-out jobs
/// alongside their callers. See the [module docs](self).
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// Helpers started (`handles.len()`), readable without the lock.
    started: AtomicUsize,
    /// Helpers the pool may start on demand: none beyond its initial ones
    /// for [`WorkerPool::new`], any number for [`WorkerPool::lazy`] until
    /// the OS refuses a thread.
    limit: AtomicUsize,
}

impl WorkerPool {
    /// A pool that starts `helpers` threads now (fewer if the OS refuses
    /// some) and never more.
    pub fn new(helpers: usize) -> WorkerPool {
        let pool = WorkerPool::lazy();
        pool.grow(helpers);
        pool.limit
            .store(pool.started.load(Ordering::Acquire), Ordering::Release);
        pool
    }

    /// A pool that starts no thread until a job asks for one, then grows
    /// to the widest job run on it (`n − 1` helpers for `n` items).
    pub(crate) fn lazy() -> WorkerPool {
        WorkerPool {
            shared: Arc::new(PoolShared {
                queue: Mutex::new(Queue {
                    tasks: VecDeque::new(),
                    parked: Vec::new(),
                    searching: 0,
                    shutdown: false,
                }),
            }),
            handles: Mutex::new(Vec::new()),
            started: AtomicUsize::new(0),
            limit: AtomicUsize::new(usize::MAX),
        }
    }

    /// Helper threads currently started.
    pub(crate) fn helpers(&self) -> usize {
        self.started.load(Ordering::Acquire)
    }

    /// Apply `f` to each index `0..n`, collecting the results in order:
    /// item 0 on the calling thread, the others on parked helpers or, when
    /// no helper has started them by the time the caller is free, on the
    /// caller. The first error in item order is returned; a panicking
    /// item, the inline one included, surfaces as an execution error and
    /// leaves the pool whole.
    pub fn run<T, F>(&self, n: usize, f: F) -> Result<Vec<T>>
    where
        T: Send + 'static,
        F: Fn(usize) -> Result<T> + Send + Sync + 'static,
    {
        if n <= 1 {
            return (0..n).map(|i| guarded(&f, i)).collect();
        }
        self.grow(n - 1);
        let slots: Arc<Vec<Mutex<Option<Result<T>>>>> =
            Arc::new((0..n).map(|_| Mutex::new(None)).collect());
        let job: Job = {
            let slots = Arc::clone(&slots);
            Arc::new(move |i| *slots[i].lock() = Some(guarded(&f, i)))
        };
        let batch = Arc::new(Batch {
            left: Mutex::new(n - 1),
            done: Condvar::new(),
        });
        let woken = {
            let mut queue = self.shared.queue.lock();
            queue.tasks.extend((1..n).map(|item| Task {
                job: Arc::clone(&job),
                item,
                batch: Arc::clone(&batch),
            }));
            let wanted = queue.tasks.len().saturating_sub(queue.searching);
            let keep = queue.parked.len().saturating_sub(wanted);
            let woken = queue.parked.split_off(keep);
            queue.searching += woken.len();
            woken
        };
        for helper in woken {
            helper.notify_one();
        }
        job(0);
        drop(job);
        while let Some(Task { job, item, batch }) = self.claim(&batch) {
            job(item);
            drop(job);
            batch.finish_one();
        }
        let mut left = batch.left.lock();
        while *left > 0 {
            batch.done.wait(&mut left);
        }
        drop(left);
        slots
            .iter()
            .map(|slot| {
                slot.lock()
                    .take()
                    .unwrap_or_else(|| Err(BfqError::internal("a pool item never ran")))
            })
            .collect()
    }

    /// Take back one of `batch`'s items that no helper has started.
    fn claim(&self, batch: &Arc<Batch>) -> Option<Task> {
        let mut queue = self.shared.queue.lock();
        let at = queue
            .tasks
            .iter()
            .position(|t| Arc::ptr_eq(&t.batch, batch))?;
        queue.tasks.remove(at)
    }

    /// Start helpers until there are `want` (capped by the pool's limit).
    /// A refused spawn caps the pool at the helpers it has.
    fn grow(&self, want: usize) {
        let started = self.started.load(Ordering::Acquire);
        if want <= started || started >= self.limit.load(Ordering::Acquire) {
            return;
        }
        let mut handles = self.handles.lock();
        let want = want.min(self.limit.load(Ordering::Acquire));
        while handles.len() < want {
            // A new helper searches before it first parks.
            self.shared.queue.lock().searching += 1;
            let shared = Arc::clone(&self.shared);
            let spawned = std::thread::Builder::new()
                .name("bfq-worker".into())
                .spawn(move || helper(&shared));
            match spawned {
                Ok(handle) => handles.push(handle),
                Err(_) => {
                    self.shared.queue.lock().searching -= 1;
                    self.limit.store(handles.len(), Ordering::Release);
                    break;
                }
            }
        }
        self.started.store(handles.len(), Ordering::Release);
    }
}

/// A helper's life: take the oldest queued item and run it, park while
/// there is none (until a job or the pool's drop takes it off the parked
/// stack, counting it searching), exit once the pool is dropped.
fn helper(shared: &PoolShared) {
    let me = Arc::new(Condvar::new());
    let mut queue = shared.queue.lock();
    loop {
        if let Some(Task { job, item, batch }) = queue.tasks.pop_front() {
            queue.searching -= 1;
            drop(queue);
            job(item);
            drop(job);
            // Searching again before the item counts as done: the caller's
            // next job finds this helper on its way back to the queue.
            queue = shared.queue.lock();
            queue.searching += 1;
            batch.finish_one();
        } else if queue.shutdown {
            return;
        } else {
            queue.searching -= 1;
            queue.parked.push(Arc::clone(&me));
            while queue.parked.iter().any(|p| Arc::ptr_eq(p, &me)) {
                me.wait(&mut queue);
            }
        }
    }
}

/// `f(i)`, with a panic turned into an execution error.
fn guarded<T>(f: &impl Fn(usize) -> Result<T>, i: usize) -> Result<T> {
    catch_unwind(AssertUnwindSafe(|| f(i)))
        .unwrap_or_else(|_| Err(BfqError::Execution("worker thread panicked".into())))
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        let parked = {
            let mut queue = self.shared.queue.lock();
            queue.shutdown = true;
            std::mem::take(&mut queue.parked)
        };
        for helper in parked {
            helper.notify_one();
        }
        let me = std::thread::current().id();
        for handle in self.handles.get_mut().drain(..) {
            // A helper never holds the pool itself, but should it ever drop
            // the last handle, it must not wait for its own exit.
            if handle.thread().id() != me {
                let _ = handle.join();
            }
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("helpers", &self.helpers())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;
    use std::time::Duration;

    /// A small deterministic generator (xorshift64*), so the randomized
    /// tests replay exactly.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) % n
        }
    }

    #[test]
    fn maps_in_order() {
        let pool = WorkerPool::new(3);
        let out = pool.run(8, |i| Ok(i * 2)).unwrap();
        assert_eq!(out, vec![0, 2, 4, 6, 8, 10, 12, 14]);
    }

    #[test]
    fn propagates_errors() {
        let pool = WorkerPool::new(2);
        let out = pool.run(4, |i| {
            if i == 2 {
                Err(BfqError::Execution(format!("boom {i}")))
            } else {
                Ok(i)
            }
        });
        assert!(matches!(out, Err(BfqError::Execution(m)) if m == "boom 2"));
    }

    #[test]
    fn a_zero_helper_pool_completes_every_item_in_order_on_its_caller() {
        // What a pool is left with when the OS refuses every thread.
        let pool = WorkerPool::new(0);
        let caller = std::thread::current().id();
        let out = pool
            .run(6, move |i| {
                assert_eq!(std::thread::current().id(), caller);
                Ok(i + 1)
            })
            .unwrap();
        assert_eq!(out, vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(pool.helpers(), 0, "a fixed pool never grows");
    }

    #[test]
    fn panics_inline_and_on_a_helper_are_errors_and_leave_the_pool_whole() {
        let pool = WorkerPool::new(1);
        let inline = pool.run(3, |i| {
            if i == 0 {
                panic!("item 0 fails on the calling thread");
            }
            Ok(i)
        });
        assert!(matches!(inline, Err(BfqError::Execution(_))));
        assert_eq!(pool.run(5, Ok).unwrap(), vec![0, 1, 2, 3, 4]);

        // The caller holds item 0 until the helper has started item 1, so
        // the helper is the thread that unwinds.
        let started = Arc::new(AtomicBool::new(false));
        let seen = Arc::clone(&started);
        let on_helper = pool.run(2, move |i| {
            if i == 0 {
                while !seen.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                return Ok(i);
            }
            seen.store(true, Ordering::Release);
            panic!("item 1 fails on a helper");
        });
        assert!(matches!(on_helper, Err(BfqError::Execution(_))));

        assert_eq!(pool.helpers(), 1, "no helper was lost or replaced");
        assert_eq!(pool.run(5, Ok).unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn zero_and_one() {
        let pool = WorkerPool::lazy();
        assert_eq!(pool.run(0, |_| Ok(1)).unwrap(), Vec::<i32>::new());
        assert_eq!(pool.run(1, |i| Ok(i + 1)).unwrap(), vec![1]);
        assert_eq!(pool.helpers(), 0, "a one-item job never touches the pool");
    }

    #[test]
    fn a_lazy_pool_grows_to_the_widest_job() {
        let pool = WorkerPool::lazy();
        pool.run(3, Ok).unwrap();
        assert_eq!(pool.helpers(), 2);
        pool.run(2, Ok).unwrap();
        assert_eq!(pool.helpers(), 2);
    }

    #[test]
    fn the_job_is_released_when_run_returns() {
        let pool = WorkerPool::new(2);
        let owned = Arc::new(());
        let held = Arc::clone(&owned);
        pool.run(3, move |_| Ok(Arc::strong_count(&held))).unwrap();
        assert_eq!(Arc::strong_count(&owned), 1);
    }

    #[test]
    fn actually_parallel() {
        let pool = WorkerPool::new(3);
        let peak = Arc::new(AtomicUsize::new(0));
        let live = Arc::new(AtomicUsize::new(0));
        let (p, l) = (Arc::clone(&peak), Arc::clone(&live));
        pool.run(4, move |_| {
            let now = l.fetch_add(1, Ordering::SeqCst) + 1;
            p.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(30));
            l.fetch_sub(1, Ordering::SeqCst);
            Ok(())
        })
        .unwrap();
        assert!(peak.load(Ordering::SeqCst) >= 2, "no observed concurrency");
    }

    #[test]
    fn a_caller_never_waits_on_an_item_a_busy_helper_has_not_started() {
        // Job A holds the only helper on a barrier that opens only after
        // job B, submitted from another thread, has completed. B's items
        // must therefore all run on B's caller.
        let pool = Arc::new(WorkerPool::new(1));
        let gate = Arc::new(Barrier::new(2));
        let helper_busy = Arc::new(AtomicBool::new(false));

        let a = {
            let (pool, gate, busy) = (
                Arc::clone(&pool),
                Arc::clone(&gate),
                Arc::clone(&helper_busy),
            );
            std::thread::spawn(move || {
                let inner_busy = Arc::clone(&busy);
                pool.run(2, move |i| {
                    if i == 0 {
                        // Hold the caller until the helper has item 1.
                        while !inner_busy.load(Ordering::Acquire) {
                            std::thread::yield_now();
                        }
                    } else {
                        inner_busy.store(true, Ordering::Release);
                        gate.wait();
                    }
                    Ok(i)
                })
            })
        };
        while !helper_busy.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        let b = pool.run(4, |i| Ok(i * 10)).unwrap();
        assert_eq!(b, vec![0, 10, 20, 30]);
        gate.wait();
        assert_eq!(a.join().unwrap().unwrap(), vec![0, 1]);
    }

    /// `maps` random-size maps from each of `submitters` threads onto a
    /// pool of `helpers`, with an error injected into one item in
    /// `fail_one_in` and a panic into one in `panic_one_in` (0: never);
    /// every answer is checked exactly.
    fn stress(helpers: usize, submitters: u64, maps: usize, fail_one_in: u64, panic_one_in: u64) {
        let pool = Arc::new(WorkerPool::new(helpers));
        let threads: Vec<_> = (0..submitters)
            .map(|s| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    let mut rng = Rng(0x9e37_79b9_7f4a_7c15 ^ (s + 1));
                    for _ in 0..maps {
                        let n = rng.below(9) as usize;
                        let base = rng.below(1_000_000);
                        let fail = (fail_one_in > 0 && n > 0 && rng.below(fail_one_in) == 0)
                            .then(|| rng.below(n as u64) as usize);
                        let panic = (panic_one_in > 0 && n > 0 && rng.below(panic_one_in) == 0)
                            .then(|| rng.below(n as u64) as usize);
                        let out = pool.run(n, move |i| {
                            if panic == Some(i) {
                                panic!("injected panic");
                            }
                            if fail == Some(i) {
                                return Err(BfqError::Execution(format!("injected {i}")));
                            }
                            Ok(base + i as u64 * 3)
                        });
                        let first_bad = [fail, panic].into_iter().flatten().min();
                        match (out, first_bad) {
                            (Ok(values), None) => {
                                let want: Vec<u64> = (0..n as u64).map(|i| base + i * 3).collect();
                                assert_eq!(values, want);
                            }
                            (Err(BfqError::Execution(m)), Some(i)) => {
                                if panic == Some(i) {
                                    assert_eq!(m, "worker thread panicked");
                                } else {
                                    assert_eq!(m, format!("injected {i}"));
                                }
                            }
                            (other, bad) => panic!("map of {n} (bad {bad:?}) gave {other:?}"),
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(pool.helpers(), helpers);
    }

    #[test]
    fn concurrent_submitters_get_exact_results() {
        stress(1, 4, 200, 0, 0);
    }

    #[test]
    #[ignore = "long run: 20 000 maps from 4 submitters with errors and panics (~seconds in release)"]
    fn long_run_with_errors_and_panics() {
        // Injected panics would print a message each; keep the output short.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        stress(2, 4, 5_000, 10, 25);
        std::panic::set_hook(hook);
    }
}
