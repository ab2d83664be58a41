//! Scheduled auto-pruning of converged history.
//!
//! PR 5 added bounded-memory retention —
//! [`prune_to_horizon`](crate::StoreCatalog::prune_to_horizon) drops history
//! every reconciled participant has converged past — but left *when* to
//! prune to the caller. The
//! [`AutoPruner`] runs that call on a background thread at a fixed interval,
//! so long-lived stores stay bounded without the application threading
//! pruning through its own control flow.
//!
//! The pruner is deliberately closure-based: it captures whatever pruning
//! entry point fits the deployment (a `CentralStore` behind an `Arc`, a
//! `DhtStore`, a bare catalogue) rather than imposing a store type. Shutdown
//! is clean and prompt — dropping the pruner wakes the thread through a
//! condvar and joins it, so no prune runs after the handle is gone.

use orchestra_obs::Obs;
use orchestra_storage::{PruneReport, Result};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Shared stop flag: the mutex guards the flag, the condvar wakes the
/// sleeper early on stop.
struct Signal {
    stopped: Mutex<bool>,
    wake: Condvar,
}

/// What the pruning thread has done so far, in constant space: the pruner
/// exists to bound memory, so it keeps a count and the latest report, not a
/// history.
#[derive(Debug, Default)]
struct Progress {
    rounds: AtomicUsize,
    last: Mutex<Option<Result<PruneReport>>>,
}

/// A background thread that prunes converged history on a fixed interval.
///
/// ```no_run
/// use orchestra_store::{AutoPruner, CentralStore, RetentionPolicy, UpdateStore};
/// use orchestra_model::Schema;
/// use std::sync::Arc;
/// use std::time::Duration;
///
/// let store = Arc::new(CentralStore::new(Schema::new()));
/// store.set_retention(RetentionPolicy::KeepLastN(64));
/// let pruner = {
///     let store = Arc::clone(&store);
///     AutoPruner::spawn(Duration::from_secs(30), move || store.prune_to_horizon())
/// };
/// // ... publish / reconcile ...
/// drop(pruner); // stops the thread and waits for it
/// ```
#[derive(Debug)]
pub struct AutoPruner {
    signal: Arc<Signal>,
    thread: Option<JoinHandle<()>>,
    progress: Arc<Progress>,
}

impl std::fmt::Debug for Signal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Signal")
            .field("stopped", &*self.stopped.lock().expect("pruner stop flag"))
            .finish_non_exhaustive()
    }
}

impl AutoPruner {
    /// Spawns the pruning thread: every `interval` it runs `prune` (e.g.
    /// `move || store.prune_to_horizon()`, which advances the convergence
    /// horizon under the store's [`orchestra_storage::RetentionPolicy`] and
    /// prunes to it). The first run happens one full interval after spawn.
    pub fn spawn(
        interval: Duration,
        mut prune: impl FnMut() -> Result<PruneReport> + Send + 'static,
    ) -> AutoPruner {
        let signal = Arc::new(Signal { stopped: Mutex::new(false), wake: Condvar::new() });
        let progress = Arc::new(Progress::default());
        let thread_signal = Arc::clone(&signal);
        let thread_progress = Arc::clone(&progress);
        let thread = std::thread::Builder::new()
            .name("orchestra-auto-pruner".to_string())
            .spawn(move || loop {
                let stopped = thread_signal.stopped.lock().expect("pruner stop flag");
                let (stopped, timeout) = thread_signal
                    .wake
                    .wait_timeout_while(stopped, interval, |stopped| !*stopped)
                    .expect("pruner stop flag");
                if *stopped {
                    return;
                }
                drop(stopped);
                if timeout.timed_out() {
                    let report = prune();
                    *thread_progress.last.lock().expect("pruner report") = Some(report);
                    // After the report: a reader that saw round `n` counted
                    // finds a report at least that recent.
                    thread_progress.rounds.fetch_add(1, Ordering::SeqCst);
                }
            })
            .expect("spawn auto-pruner thread");
        AutoPruner { signal, thread: Some(thread), progress }
    }

    /// [`AutoPruner::spawn`] with observability: every round runs under a
    /// `prune` trace span and bumps `pruner.rounds` (plus `pruner.errors`
    /// when the closure fails). The tracer is `Send`, so the background
    /// thread traces into the same sink as the simulated work.
    pub fn spawn_observed(
        interval: Duration,
        obs: &Obs,
        mut prune: impl FnMut() -> Result<PruneReport> + Send + 'static,
    ) -> AutoPruner {
        let rounds = obs.metrics.counter("pruner.rounds");
        let errors = obs.metrics.counter("pruner.errors");
        let tracer = obs.tracer.clone();
        AutoPruner::spawn(interval, move || {
            let _span = tracer.span("prune", &[]);
            let report = prune();
            rounds.inc();
            if report.is_err() {
                errors.inc();
            }
            report
        })
    }

    /// Number of prune rounds completed so far (including failed ones).
    pub fn rounds(&self) -> usize {
        self.progress.rounds.load(Ordering::SeqCst)
    }

    /// The report of the most recent completed round (an error too, so an
    /// operator can notice a failing prune); `None` before the first round.
    pub fn last_report(&self) -> Option<Result<PruneReport>> {
        self.progress.last.lock().expect("pruner report").clone()
    }
}

impl Drop for AutoPruner {
    /// Stops the thread and waits for it: any in-flight prune finishes, no
    /// new one starts.
    fn drop(&mut self) {
        let Some(thread) = self.thread.take() else { return };
        *self.signal.stopped.lock().expect("pruner stop flag") = true;
        self.signal.wake.notify_all();
        thread.join().expect("auto-pruner thread panicked");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prunes_repeatedly_until_stopped() {
        let runs = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&runs);
        let pruner = AutoPruner::spawn(Duration::from_millis(5), move || {
            counter.fetch_add(1, Ordering::SeqCst);
            Ok(PruneReport::default())
        });
        while runs.load(Ordering::SeqCst) < 3 {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(pruner.rounds() >= 1);
        drop(pruner);
        let after_stop = runs.load(Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(25));
        assert_eq!(runs.load(Ordering::SeqCst), after_stop, "no prune after stop");
    }

    #[test]
    fn stop_is_prompt_even_with_a_long_interval() {
        let pruner = AutoPruner::spawn(Duration::from_secs(3600), || Ok(PruneReport::default()));
        let start = std::time::Instant::now();
        drop(pruner); // Drop path: wakes the hour-long sleep immediately.
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn observed_pruner_counts_rounds_and_traces_them() {
        let obs = Obs::enabled();
        let pruner = AutoPruner::spawn_observed(Duration::from_millis(3), &obs, || {
            Ok(PruneReport::default())
        });
        while pruner.rounds() < 2 {
            std::thread::sleep(Duration::from_millis(2));
        }
        drop(pruner);
        assert!(obs.metrics.counter("pruner.rounds").get() >= 2);
        assert_eq!(obs.metrics.counter("pruner.errors").get(), 0);
        assert!(obs.tracer.export().contains("prune"), "rounds must run under a prune span");
    }

    #[test]
    fn rounds_keep_counting_after_the_report_is_read() {
        let pruner = AutoPruner::spawn(Duration::from_millis(3), || {
            Ok(PruneReport { horizon: orchestra_model::Epoch(7), ..PruneReport::default() })
        });
        assert!(pruner.last_report().is_none(), "no round has run yet");
        while pruner.rounds() < 2 {
            std::thread::sleep(Duration::from_millis(2));
        }
        let report = pruner.last_report().expect("two rounds completed").expect("prune succeeds");
        assert_eq!(report.horizon, orchestra_model::Epoch(7));
        // Reading the report consumes nothing: the count only grows.
        let seen = pruner.rounds();
        assert!(seen >= 2);
        while pruner.rounds() == seen {
            std::thread::sleep(Duration::from_millis(2));
        }
        drop(pruner);
    }
}
