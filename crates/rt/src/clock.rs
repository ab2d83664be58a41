//! Virtual time: a discrete-event clock with timer futures.
//!
//! The clock never waits. [`VirtualClock::sleep_us`] registers a `(deadline,
//! waker)` pair; when the executor finds every task blocked it calls
//! [`VirtualClock::fire_next`], which jumps `now` to the earliest pending
//! deadline and wakes everything due. Ties fire in creation order, so runs
//! are deterministic.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

struct TimerEntry {
    deadline_us: u64,
    seq: u64,
    waker: Waker,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.deadline_us == other.deadline_us && self.seq == other.seq
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deadline_us, self.seq).cmp(&(other.deadline_us, other.seq))
    }
}

#[derive(Default)]
struct ClockState {
    now_us: u64,
    next_seq: u64,
    timers: BinaryHeap<Reverse<TimerEntry>>,
    /// `Send + Sync` mirror of `now_us`, updated whenever time advances, so
    /// observers on other threads (or behind `Send` bounds, like a tracer's
    /// time source) can read virtual time without holding the `Rc` clock.
    shared_now: Arc<AtomicU64>,
}

/// A shared handle to the virtual clock. Cloning is cheap; all clones view
/// the same time.
#[derive(Clone, Default)]
pub struct VirtualClock {
    state: Rc<RefCell<ClockState>>,
}

impl VirtualClock {
    /// A fresh clock at virtual time zero.
    pub fn new() -> VirtualClock {
        VirtualClock::default()
    }

    /// The current virtual time in microseconds.
    pub fn now_us(&self) -> u64 {
        self.state.borrow().now_us
    }

    /// A future that resolves once virtual time has advanced by `us`
    /// microseconds. `sleep_us(0)` resolves on first poll.
    pub fn sleep_us(&self, us: u64) -> Sleep {
        let deadline_us = self.state.borrow().now_us.saturating_add(us);
        Sleep { clock: self.clone(), deadline_us }
    }

    /// A `Send + Sync` cell that mirrors the current virtual time. Updated
    /// every time the clock advances; intended for observers that cannot
    /// hold the (thread-local) clock itself, e.g. a tracer's time source.
    pub fn shared_now(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.state.borrow().shared_now)
    }

    /// Advances virtual time to the earliest pending deadline and wakes every
    /// timer due at that instant. Returns `false` when no timers are pending
    /// (time does not move).
    pub fn fire_next(&self) -> bool {
        let mut state = self.state.borrow_mut();
        let Some(Reverse(first)) = state.timers.pop() else {
            return false;
        };
        // Timers register strictly in the future, but a woken-then-re-polled
        // sleep can leave a stale entry at or below `now`; never step back.
        state.now_us = state.now_us.max(first.deadline_us);
        state.shared_now.store(state.now_us, Ordering::Relaxed);
        let now = state.now_us;
        let mut due = vec![first.waker];
        while let Some(Reverse(next)) = state.timers.peek() {
            if next.deadline_us > now {
                break;
            }
            due.push(state.timers.pop().expect("peeked timer").0.waker);
        }
        drop(state);
        for waker in due {
            waker.wake();
        }
        true
    }

    fn register(&self, deadline_us: u64, waker: Waker) {
        let mut state = self.state.borrow_mut();
        let seq = state.next_seq;
        state.next_seq += 1;
        state.timers.push(Reverse(TimerEntry { deadline_us, seq, waker }));
    }
}

/// Future returned by [`VirtualClock::sleep_us`].
pub struct Sleep {
    clock: VirtualClock,
    deadline_us: u64,
}

impl Future for Sleep {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.clock.now_us() >= self.deadline_us {
            Poll::Ready(())
        } else {
            self.clock.register(self.deadline_us, cx.waker().clone());
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::LocalExecutor;
    use std::cell::RefCell;

    #[test]
    fn time_starts_at_zero_and_only_fires_forward() {
        let clock = VirtualClock::new();
        assert_eq!(clock.now_us(), 0);
        assert!(!clock.fire_next());
        assert_eq!(clock.now_us(), 0);
    }

    #[test]
    fn sleeps_resolve_in_deadline_order() {
        let clock = VirtualClock::new();
        let order = RefCell::new(Vec::new());
        let mut ex = LocalExecutor::new(clock.clone());
        ex.spawn(async {
            clock.sleep_us(300).await;
            order.borrow_mut().push((3u32, clock.now_us()));
        });
        ex.spawn(async {
            clock.sleep_us(100).await;
            order.borrow_mut().push((1, clock.now_us()));
            clock.sleep_us(100).await;
            order.borrow_mut().push((2, clock.now_us()));
        });
        ex.run();
        drop(ex);
        assert_eq!(order.into_inner(), vec![(1, 100), (2, 200), (3, 300)]);
        assert_eq!(clock.now_us(), 300);
    }

    #[test]
    fn simultaneous_deadlines_fire_in_creation_order() {
        let clock = VirtualClock::new();
        let order = RefCell::new(Vec::new());
        let mut ex = LocalExecutor::new(clock.clone());
        for i in 0..4u32 {
            let clock = clock.clone();
            let order = &order;
            ex.spawn(async move {
                clock.sleep_us(50).await;
                order.borrow_mut().push(i);
            });
        }
        ex.run();
        drop(ex);
        assert_eq!(order.into_inner(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn shared_now_mirrors_virtual_time_across_advances() {
        let clock = VirtualClock::new();
        let cell = clock.shared_now();
        assert_eq!(cell.load(std::sync::atomic::Ordering::Relaxed), 0);
        let mut ex = LocalExecutor::new(clock.clone());
        ex.spawn(async {
            clock.sleep_us(250).await;
            clock.sleep_us(250).await;
        });
        ex.run();
        drop(ex);
        assert_eq!(cell.load(std::sync::atomic::Ordering::Relaxed), 500);
        assert_eq!(clock.now_us(), 500);
    }

    #[test]
    fn zero_sleep_is_ready_immediately() {
        let clock = VirtualClock::new();
        let done = RefCell::new(false);
        let mut ex = LocalExecutor::new(clock.clone());
        ex.spawn(async {
            clock.sleep_us(0).await;
            *done.borrow_mut() = true;
        });
        ex.run();
        drop(ex);
        assert!(done.into_inner());
        assert_eq!(clock.now_us(), 0);
    }
}
