//! Type-erased, run-once job objects stored in the work-stealing deques.
//!
//! A deque slot holds a thin `*mut Job` pointer. `Job` is the common header
//! of two concrete layouts:
//!
//! * [`StackJob`] — lives in the stack frame of a `join`; holds the closure
//!   and a slot for its result. The frame outlives the job because `join`
//!   does not return until the job's `done` flag is set.
//! * [`HeapJob`] — boxed closure spawned into a [`crate::scope`]; frees
//!   itself after running and decrements the scope's pending counter.
//!
//! Execution goes through an erased `unsafe fn(*const Job)` stored in the
//! header (a hand-rolled single-method vtable, so deque slots stay one word
//! wide — the layout the paper's C++ `Task*` arrays use).
//!
//! Panic discipline: job bodies run under `catch_unwind`. A `StackJob`
//! parks the payload for the joining worker to rethrow; a `HeapJob` hands it
//! to its scope. Workers themselves never unwind across the steal loop.

use std::any::Any;
use std::cell::UnsafeCell;
use std::panic::{self, AssertUnwindSafe};
use std::ptr;
use std::sync::atomic::Ordering;

use crate::hb::{self, shim::AtomicBool, shim::AtomicPtr, shim::AtomicU32};

/// Sentinel for [`Job`]'s waiter slot: no worker registered for a
/// completion wake.
pub(crate) const NO_WAITER: u32 = u32::MAX;

/// Common header of every job. Must be the first field of each concrete
/// job type so a `*mut Job` can be recovered from the concrete pointer.
#[repr(C)]
pub struct Job {
    /// Erased entry point; takes the header pointer and runs the job once.
    run_fn: unsafe fn(*const Job),
    /// Set (release) after the job body finished — successfully or by
    /// panicking. Waiters acquire-load it before touching the result.
    done: AtomicBool,
    /// Intrusive link for the global injector's incoming stack; null while
    /// the job is not enqueued there (deque-resident jobs never use it).
    next: AtomicPtr<Job>,
    /// Worker index of a join waiter registered for a targeted completion
    /// wake, or [`NO_WAITER`]. Read by the executor immediately *before*
    /// publishing `done` — once `done` is visible the waiter may return and
    /// free the job, so the executor must never touch the header after that
    /// store (see [`Job::mark_done`]).
    waiter: AtomicU32,
}

impl Job {
    fn new(run_fn: unsafe fn(*const Job)) -> Job {
        Job {
            run_fn,
            done: AtomicBool::new(false),
            next: AtomicPtr::new(ptr::null_mut()),
            waiter: AtomicU32::new(NO_WAITER),
        }
    }

    /// Execute the job.
    ///
    /// # Safety
    /// `ptr` must point to a live, not-yet-executed job of the concrete type
    /// `run_fn` expects, and no other thread may execute it concurrently
    /// (deque ownership transfer guarantees this).
    #[inline]
    pub unsafe fn execute(ptr: *const Job) {
        ((*ptr).run_fn)(ptr)
    }

    /// Has the job finished running?
    #[inline]
    pub fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// Publish completion and return the waiter registered for a targeted
    /// wake (or [`NO_WAITER`]).
    ///
    /// The waiter slot is loaded **before** the `done` store on purpose: a
    /// joiner that observes `done` may immediately return and pop the
    /// `StackJob`'s frame (or a `HeapJob` free itself), so this is the last
    /// instant the header is guaranteed alive. The caller delivers the wake
    /// through pool state, never through the job. A registration landing
    /// after this load and before the waiter's park-recheck can miss both
    /// signals; the waiter's timed backstop bounds that window (see
    /// `crate::sleep`).
    fn mark_done(&self) -> u32 {
        let waiter = self.waiter.load(Ordering::SeqCst);
        // `done_store_order()` is a compile-time `Release` unless an hb
        // negative test deliberately weakens it to demonstrate the checker
        // catches the severed result-publication edge.
        self.done.store(true, hb::negative::done_store_order());
        waiter
    }

    /// The completion-wake registration slot a waiter parks behind (see
    /// `crate::worker::Wait::Nested`).
    #[inline]
    pub(crate) fn waiter(&self) -> &AtomicU32 {
        &self.waiter
    }

    /// Intrusive injector link (crate-internal; used only while the job
    /// sits in the global injector's incoming stack).
    #[inline]
    pub(crate) fn next_ptr(&self) -> &AtomicPtr<Job> {
        &self.next
    }
}

/// Result of a completed job body: the value, or the panic payload.
type JobResult<R> = Result<R, Box<dyn Any + Send + 'static>>;

/// A run-once job allocated in the caller's stack frame (used by `join`).
///
/// The lifetime contract is enforced by the caller: `join` keeps the frame
/// alive until [`Job::is_done`] is observed true.
#[repr(C)]
pub struct StackJob<F, R> {
    job: Job,
    func: UnsafeCell<Option<F>>,
    result: UnsafeCell<Option<JobResult<R>>>,
}

impl<F, R> StackJob<F, R>
where
    F: FnOnce() -> R,
{
    /// Wrap `func` into a pushable job.
    pub fn new(func: F) -> Self {
        StackJob {
            job: Job::new(Self::run_erased),
            func: UnsafeCell::new(Some(func)),
            result: UnsafeCell::new(None),
        }
    }

    /// Header pointer to push into a deque.
    ///
    /// Doubles as the checker's record of the owner's pre-publication
    /// writes to the closure/result cells: it runs on the settled stack
    /// binding (unlike `new`, whose local may still move) and immediately
    /// precedes the deque push that publishes them.
    pub fn as_job_ptr(&self) -> *mut Job {
        hb::on_write(self.func.get() as usize, "StackJob::func (pre-publish)");
        hb::on_write(self.result.get() as usize, "StackJob::result (pre-publish)");
        &self.job as *const Job as *mut Job
    }

    /// Whether the job body has completed (panicked counts as completed).
    #[inline]
    pub fn is_done(&self) -> bool {
        self.job.is_done()
    }

    unsafe fn run_erased(ptr: *const Job) {
        let this = ptr as *const StackJob<F, R>;
        // Ownership: exactly one executor reaches this point (the deque hands
        // a task to exactly one taker), so the closure slot is uncontended.
        hb::on_read((*this).func.get() as usize, "StackJob::func (run_erased)");
        let func = (*(*this).func.get())
            .take()
            .expect("StackJob executed twice");
        let result = panic::catch_unwind(AssertUnwindSafe(func));
        hb::on_write(
            (*this).result.get() as usize,
            "StackJob::result (run_erased)",
        );
        *(*this).result.get() = Some(result.map_err(|e| e as Box<dyn Any + Send>));
        // `mark_done` may be the frame's last valid access (the joiner can
        // return as soon as `done` is visible); the wake goes through pool
        // state only.
        let waiter = (*this).job.mark_done();
        crate::worker::wake_waiter(waiter);
    }

    /// Take the result after observing `is_done()`, rethrowing a panic from
    /// the job body on the joining thread.
    ///
    /// # Safety
    /// Must be called at most once, only after `is_done()` returned true.
    pub unsafe fn take_result(&self) -> R {
        debug_assert!(self.is_done());
        hb::on_read(self.result.get() as usize, "StackJob::result (take_result)");
        match (*self.result.get()).take().expect("result taken twice") {
            Ok(r) => r,
            Err(payload) => panic::resume_unwind(payload),
        }
    }

    /// Run the job inline on the current thread (the "pop it back" path of
    /// `join`) and return its result directly.
    ///
    /// # Safety
    /// Same contract as [`Job::execute`]: sole ownership, not yet executed.
    pub unsafe fn run_inline(&self) -> R {
        Job::execute(self.as_job_ptr());
        self.take_result()
    }
}

// The job is handed between threads through the deque; the closure and its
// result must therefore be sendable. The pointer-based handoff is what makes
// this `unsafe impl` necessary.
unsafe impl<F: Send, R: Send> Sync for StackJob<F, R> {}

impl<F, R> Drop for StackJob<F, R> {
    fn drop(&mut self) {
        // The frame is about to be reused (same thread, or a respawned
        // worker mapped onto the dead worker's stack range); drop the
        // checker's access history for it.
        hb::forget_range(self as *const _ as usize, std::mem::size_of::<Self>());
    }
}

/// A boxed, self-freeing job used by [`crate::scope`] spawns.
#[repr(C)]
pub struct HeapJob<F> {
    job: Job,
    func: Option<F>,
}

impl<F> HeapJob<F>
where
    F: FnOnce() + Send,
{
    /// Box `func` and leak it as a job pointer; the job frees itself when
    /// executed. The caller must guarantee it *is* eventually executed
    /// (the scheduler runs every pushed job before a pool run completes).
    pub fn push_new(func: F) -> *mut Job {
        let boxed = Box::new(HeapJob {
            job: Job::new(Self::run_erased),
            func: Some(func),
        });
        hb::on_write(&boxed.func as *const _ as usize, "HeapJob::func (push_new)");
        Box::into_raw(boxed) as *mut Job
    }

    unsafe fn run_erased(ptr: *const Job) {
        // Reclaim the box; the closure runs (and is dropped) before the
        // allocation is freed at the end of this scope.
        let mut this = Box::from_raw(ptr as *mut HeapJob<F>);
        hb::on_read(
            &this.func as *const _ as usize,
            "HeapJob::func (run_erased)",
        );
        let func = this.func.take().expect("HeapJob executed twice");
        // Scope-level panic bookkeeping is handled inside `func` itself
        // (see `scope`); an unwind past this frame would abort, so `func`
        // is always a non-unwinding wrapper.
        func();
        let waiter = this.job.mark_done();
        // The allocation dies here; drop the checker's state for it so a
        // later job reusing the address is not misread as racing this one.
        hb::forget_range(
            &*this as *const _ as usize,
            std::mem::size_of::<HeapJob<F>>(),
        );
        drop(this);
        crate::worker::wake_waiter(waiter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn stack_job_runs_once_and_yields_result() {
        let job = StackJob::new(|| 21 * 2);
        assert!(!job.is_done());
        unsafe { Job::execute(job.as_job_ptr()) };
        assert!(job.is_done());
        assert_eq!(unsafe { job.take_result() }, 42);
    }

    #[test]
    fn stack_job_run_inline() {
        let job = StackJob::new(|| String::from("hi"));
        assert_eq!(unsafe { job.run_inline() }, "hi");
    }

    #[test]
    fn stack_job_captures_panic() {
        let job: StackJob<_, ()> = StackJob::new(|| panic!("boom"));
        unsafe { Job::execute(job.as_job_ptr()) };
        assert!(job.is_done(), "panicking jobs still complete");
        let caught = panic::catch_unwind(AssertUnwindSafe(|| unsafe { job.take_result() }));
        assert!(caught.is_err(), "take_result rethrows the payload");
    }

    #[test]
    fn heap_job_runs_and_frees() {
        static RAN: AtomicUsize = AtomicUsize::new(0);
        let ptr = HeapJob::push_new(|| {
            RAN.fetch_add(1, Ordering::SeqCst);
        });
        unsafe { Job::execute(ptr) };
        assert_eq!(RAN.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn done_flag_is_acquire_visible_across_threads() {
        let job = StackJob::new(|| vec![1, 2, 3]);
        std::thread::scope(|s| {
            let job_ref = &job;
            s.spawn(move || unsafe { Job::execute(job_ref.as_job_ptr()) });
            while !job.is_done() {
                std::hint::spin_loop();
            }
        });
        assert_eq!(unsafe { job.take_result() }, vec![1, 2, 3]);
    }
}
