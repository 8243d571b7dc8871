//! Time a closure by the calling thread's own run time, for doubling
//! tests that compare `n` against `2n` on a machine shared with other
//! test threads.
//!
//! Wall-clock timing charges a thread for every moment it sat runnable
//! while another thread held the core, so a busy neighbour can make
//! the `2n` run look quadratic. On Linux, `/proc/thread-self/schedstat`
//! reports that wait (its second field, updated at every context
//! switch); subtracting it from the wall time leaves the time the
//! thread ran (or blocked on I/O, which these tests do not do). The
//! first field, on-CPU nanoseconds, is not used: it advances only at
//! scheduler ticks, coarser than the work being timed.

use std::time::{Duration, Instant};

/// Run `f` and return its result with the time the calling thread
/// spent in it, less any time it waited for a core. Falls back to the
/// wall time where the scheduler statistics cannot be read.
pub fn time_on_cpu<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    // The wall clock brackets both reads: a wait the second read counts
    // can fall anywhere between them, including just before `f` starts.
    let start = Instant::now();
    let waited_before = run_queue_wait();
    let out = f();
    let waited = match (waited_before, run_queue_wait()) {
        (Some(a), Some(b)) => Duration::from_nanos(b.saturating_sub(a)),
        _ => Duration::ZERO,
    };
    (out, start.elapsed().saturating_sub(waited))
}

/// Nanoseconds this thread has spent runnable but not running.
fn run_queue_wait() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    stat.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_time_is_positive_and_within_the_wall_time() {
        let start = Instant::now();
        let (sum, ran) = time_on_cpu(|| {
            (0..1_000_000u64).fold(0u64, |acc, i| std::hint::black_box(acc.wrapping_add(i)))
        });
        assert_eq!(sum, 499_999_500_000);
        assert!(ran > Duration::ZERO);
        assert!(ran <= start.elapsed());
    }
}
