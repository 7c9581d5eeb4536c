//! Machine-thread spawning.
//!
//! Each simulated machine runs on its own OS thread with exclusively-owned
//! per-machine state (its shard, its mesh endpoint, its vertex arrays);
//! shared state is limited to the [`crate::Collective`], [`crate::NetStats`]
//! counters, and the termination detector. This mirrors a real cluster's
//! share-nothing structure and lets the borrow checker prove the engines
//! race-free.

/// Runs one closure per machine, each consuming its own worker state, and
/// returns the per-machine results in machine order. Panics in any machine
/// propagate.
pub fn run_machines<W, R, F>(workers: Vec<W>, f: F) -> Vec<R>
where
    W: Send,
    R: Send,
    F: Fn(W) -> R + Sync,
{
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = workers
            .into_iter()
            .map(|w| s.spawn(move || f(w)))
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                // Re-raise the machine's own panic payload on the caller.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    })
}

/// Fallible variant of [`run_machines`]: every machine returns a `Result`,
/// and the first error (in machine order) is propagated to the caller.
///
/// A machine that errors drops its mesh endpoint on the way out, which
/// surfaces as [`crate::CommError`] on every peer still exchanging with it,
/// so an error tears the whole run down instead of wedging it.
pub fn try_run_machines<W, R, E, F>(workers: Vec<W>, f: F) -> Result<Vec<R>, E>
where
    W: Send,
    R: Send,
    E: Send,
    F: Fn(W) -> Result<R, E> + Sync,
{
    run_machines(workers, f).into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_machine_order() {
        let workers: Vec<usize> = (0..8).collect();
        let results = run_machines(workers, |w| w * 2);
        assert_eq!(results, vec![0, 2, 4, 6, 8, 10, 12, 14]);
    }

    #[test]
    fn owned_state_moves_in() {
        let workers: Vec<Vec<u64>> = (0..4).map(|i| vec![i; 10]).collect();
        let sums = run_machines(workers, |v| v.iter().sum::<u64>());
        assert_eq!(sums, vec![0, 10, 20, 30]);
    }

    #[test]
    fn errors_propagate_in_machine_order() {
        let workers: Vec<usize> = (0..4).collect();
        let r: Result<Vec<usize>, String> = try_run_machines(workers, |w| {
            if w % 2 == 1 {
                Err(format!("machine {w} failed"))
            } else {
                Ok(w)
            }
        });
        assert_eq!(r, Err("machine 1 failed".to_string()));
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn panics_propagate() {
        run_machines(vec![0, 1], |w| {
            if w == 1 {
                panic!("boom");
            }
            w
        });
    }
}
