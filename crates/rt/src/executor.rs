//! A deterministic single-threaded executor over non-`Send` futures.
//!
//! Tasks are polled from a FIFO ready queue. When the queue drains, the
//! executor advances the [`VirtualClock`] to the
//! earliest pending timer and continues; when there are neither ready tasks
//! nor timers, `run` returns. The executor is lifetime-parameterised so
//! spawned futures may borrow from the caller's scope — service drivers
//! exploit this to hand each client task a `&mut Participant` without any
//! `'static` gymnastics.

use crate::clock::VirtualClock;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};

#[derive(Default)]
struct ReadyQueue {
    queue: Mutex<VecDeque<usize>>,
}

impl ReadyQueue {
    fn push(&self, task: usize) {
        self.queue.lock().expect("ready queue").push_back(task);
    }

    fn pop(&self) -> Option<usize> {
        self.queue.lock().expect("ready queue").pop_front()
    }
}

/// The waker only needs the task index and the ready queue, both of which
/// are `Send + Sync` — the futures themselves never cross a thread.
struct TaskWaker {
    task: usize,
    ready: Arc<ReadyQueue>,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.ready.push(self.task);
    }
}

type LocalFuture<'a> = Pin<Box<dyn Future<Output = ()> + 'a>>;

/// A deterministic single-threaded executor bound to a [`VirtualClock`].
pub struct LocalExecutor<'a> {
    tasks: Vec<Option<LocalFuture<'a>>>,
    ready: Arc<ReadyQueue>,
    clock: VirtualClock,
}

impl<'a> LocalExecutor<'a> {
    /// An executor driving the given clock.
    pub fn new(clock: VirtualClock) -> LocalExecutor<'a> {
        LocalExecutor { tasks: Vec::new(), ready: Arc::new(ReadyQueue::default()), clock }
    }

    /// The executor's clock handle.
    pub fn clock(&self) -> VirtualClock {
        self.clock.clone()
    }

    /// Spawns a task; it becomes ready immediately and runs when
    /// [`run`](LocalExecutor::run) is (or already is) draining the queue.
    pub fn spawn(&mut self, future: impl Future<Output = ()> + 'a) {
        let id = self.tasks.len();
        self.tasks.push(Some(Box::pin(future)));
        self.ready.push(id);
    }

    /// Runs until no task is ready and no timer is pending. Returns the
    /// number of tasks that never completed (blocked forever on a channel or
    /// waker that nothing will fire) — `0` means every spawned task ran to
    /// completion.
    pub fn run(&mut self) -> usize {
        loop {
            while let Some(id) = self.ready.pop() {
                // A completed (or spuriously re-woken) task leaves a `None`
                // slot; duplicate queue entries are harmless.
                let Some(task) = self.tasks[id].as_mut() else {
                    continue;
                };
                let waker =
                    Waker::from(Arc::new(TaskWaker { task: id, ready: Arc::clone(&self.ready) }));
                let mut cx = Context::from_waker(&waker);
                if task.as_mut().poll(&mut cx).is_ready() {
                    self.tasks[id] = None;
                }
            }
            if !self.clock.fire_next() {
                break;
            }
        }
        self.tasks.iter().filter(|t| t.is_some()).count()
    }
}

/// Cooperatively yields once: the current task re-queues itself behind every
/// task already ready, then resumes.
pub fn yield_now() -> YieldNow {
    YieldNow { yielded: false }
}

/// Future returned by [`yield_now`].
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn tasks_run_to_completion_in_spawn_order() {
        let clock = VirtualClock::new();
        let order = RefCell::new(Vec::new());
        let mut ex = LocalExecutor::new(clock);
        for i in 0..3u32 {
            let order = &order;
            ex.spawn(async move {
                order.borrow_mut().push(i);
            });
        }
        assert_eq!(ex.run(), 0);
        drop(ex);
        assert_eq!(order.into_inner(), vec![0, 1, 2]);
    }

    #[test]
    fn yielding_interleaves_tasks_fairly() {
        let clock = VirtualClock::new();
        let order = RefCell::new(Vec::new());
        let mut ex = LocalExecutor::new(clock);
        for i in 0..2u32 {
            let order = &order;
            ex.spawn(async move {
                for step in 0..3u32 {
                    order.borrow_mut().push((i, step));
                    yield_now().await;
                }
            });
        }
        assert_eq!(ex.run(), 0);
        drop(ex);
        assert_eq!(order.into_inner(), vec![(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)],);
    }

    #[test]
    fn tasks_may_borrow_from_the_spawning_scope() {
        let clock = VirtualClock::new();
        let mut counter = 0u32;
        {
            let mut ex = LocalExecutor::new(clock);
            let counter = &mut counter;
            ex.spawn(async move {
                *counter += 41;
                yield_now().await;
                *counter += 1;
            });
            assert_eq!(ex.run(), 0);
        }
        assert_eq!(counter, 42);
    }

    #[test]
    fn blocked_forever_tasks_are_reported() {
        let clock = VirtualClock::new();
        let mut ex = LocalExecutor::new(clock);
        let (_tx, rx) = crate::oneshot::<u32>();
        ex.spawn(async move {
            // The sender is alive but never sends: nothing will ever wake us.
            let _ = rx.await;
        });
        ex.spawn(async {});
        assert_eq!(ex.run(), 1);
    }
}
