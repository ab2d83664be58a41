//! Minimal hand-rolled async runtime for the Orchestra store service.
//!
//! The service layer multiplexes thousands of reconciliation sessions onto a
//! bounded worker pool. An OS thread per session would defeat the point, and
//! this build environment has no crates.io access, so the runtime is built
//! from the standard library alone:
//!
//! * [`LocalExecutor`] — a deterministic single-threaded executor over
//!   non-`Send` futures. Tasks may borrow from the spawning scope (the
//!   executor is lifetime-parameterised), which is what lets service clients
//!   hold `&mut Participant` across await points.
//! * [`VirtualClock`] — a discrete-event timer wheel. There is no IO and no
//!   wall clock: when every task is blocked, the executor advances virtual
//!   time to the earliest pending timer and fires it. Simulated network and
//!   store latencies become [`sleep_us`](VirtualClock::sleep_us) awaits, so
//!   latency *overlaps* across sessions exactly as it would in a real async
//!   server, and measured p50/p99 session latencies are deterministic.
//! * [`channel()`] / [`oneshot`] — single-threaded channels. The bounded mpsc
//!   channel is the service's backpressure primitive: `send` on a full inbox
//!   parks the sender until the worker drains, so admission control is real
//!   rather than simulated.
//!
//! Determinism: the ready queue is FIFO, timers fire in `(deadline, creation
//! order)` order, and nothing consults the wall clock or an RNG. Two runs of
//! the same task set interleave identically.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod channel;
pub mod clock;
pub mod executor;

pub use channel::{channel, oneshot, OneshotReceiver, OneshotSender, Receiver, SendError, Sender};
pub use clock::{Sleep, VirtualClock};
pub use executor::{yield_now, LocalExecutor};
