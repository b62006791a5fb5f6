//! Deterministic fork-join parallelism for the profit-mining workspace.
//!
//! The container image bakes no external crates, so instead of `rayon`
//! this crate provides the one primitive the miners and the evaluation
//! harness need: an **order-preserving** parallel map over an index
//! range, built on [`std::thread::scope`]. Work items are claimed
//! dynamically through an atomic counter (good load balance for skewed
//! per-anchor costs), but every result reaches the caller in index
//! order, so the output is byte-identical at any thread count — the
//! property the §3.2 generation-order tie-break depends on.
//!
//! There is one pool, [`par_map_into`], which hands each result to a
//! caller's sink in index order; [`par_map`] collects them. A thread
//! count of `0` means "all available cores"; `1` runs the jobs inline on
//! the calling thread, each result reaching the sink before the next
//! job starts.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of hardware threads available, at least 1.
pub fn max_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolve a requested thread count: `0` → all cores; an explicit
/// request passes through unchanged.
pub fn resolve(threads: usize) -> usize {
    if threads == 0 {
        max_threads()
    } else {
        threads
    }
}

/// Apply `f` to every index in `0..n` and collect the results **in index
/// order**, fanning the calls out over up to `threads` worker threads
/// (`0` = all cores). `f` must be deterministic per index; the output is
/// then independent of the thread count and of OS scheduling.
///
/// Panics in `f` are propagated to the caller.
pub fn par_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out = Vec::with_capacity(n);
    par_map_into(n, threads, || (), |_, i| f(i), |_, v| out.push(v));
    out
}

/// Apply `f` to every index in `0..n` over up to `threads` worker
/// threads (`0` = all cores) and hand each result to `sink(i, result)`
/// on the calling thread, **in index order**.
///
/// `init` runs once per worker, and its state is threaded through every
/// call that worker claims: scratch buffers reused across jobs (the
/// miner's per-anchor rule emitter). The order `sink` sees is fixed as
/// long as `f` is deterministic per index for a fresh *or* a used state,
/// i.e. the state is scratch, not an accumulator.
///
/// At one thread the jobs run inline and result `i` reaches the sink
/// before job `i + 1` starts, so a sink that appends results holds at
/// most one unmerged result. With more threads a result waits until
/// every lower index has reached the sink.
///
/// Panics in `f` are propagated to the caller.
pub fn par_map_into<S, T, G, F, K>(n: usize, threads: usize, init: G, f: F, mut sink: K)
where
    T: Send,
    G: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
    K: FnMut(usize, T),
{
    let threads = resolve(threads).min(n);
    if threads <= 1 {
        let mut state = init();
        for i in 0..n {
            sink(i, f(&mut state, i));
        }
        return;
    }
    let next = AtomicUsize::new(0);
    let (init, f) = (&init, &f);
    std::thread::scope(|s| {
        let (tx, rx) = std::sync::mpsc::channel();
        for _ in 0..threads {
            let (tx, next) = (tx.clone(), &next);
            s.spawn(move || {
                let mut state = init();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n || tx.send((i, f(&mut state, i))).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        // Park each result until every lower index has been delivered.
        // A worker panic ends the stream early with a gap the sink never
        // crosses, and the scope re-raises the panic here.
        let mut parked: Vec<Option<T>> = (0..n).map(|_| None).collect();
        let mut due = 0;
        for (i, v) in rx {
            parked[i] = Some(v);
            while let Some(v) = parked.get_mut(due).and_then(Option::take) {
                sink(due, v);
                due += 1;
            }
        }
    });
}

/// Split `0..n` into at most `chunks` contiguous ranges of near-equal
/// length (the last chunks are one shorter when `n % chunks != 0`).
/// Returns an empty vector for `n == 0`.
pub fn even_chunks(n: usize, chunks: usize) -> Vec<std::ops::Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let chunks = chunks.clamp(1, n);
    let base = n / chunks;
    let extra = n % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0;
    for c in 0..chunks {
        let len = base + usize::from(c < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_at_any_thread_count() {
        let expect: Vec<usize> = (0..1000).map(|i| i * i).collect();
        for threads in [0, 1, 2, 3, 8, 33] {
            assert_eq!(
                par_map(1000, threads, |i| i * i),
                expect,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(par_map(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(par_map(1, 4, |i| i + 7), vec![7]);
    }

    /// Every result reaches the sink exactly once and in index order,
    /// even when a later result arrives first. With more than one
    /// thread, job 0 holds its worker until job `threads` starts: the
    /// other workers then claimed `threads` jobs between them, so one
    /// of them finished a job after 0 before job 0 returns.
    #[test]
    fn sink_receives_every_result_once_in_index_order() {
        use std::sync::atomic::AtomicBool;
        for threads in [1usize, 2, 4] {
            let late = AtomicBool::new(false);
            let mut seen = Vec::new();
            par_map_into(
                200,
                threads,
                || (),
                |_, i| {
                    if i == threads {
                        late.store(true, Ordering::SeqCst);
                    }
                    while i == 0 && threads > 1 && !late.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    i * 3
                },
                |i, v| seen.push((i, v)),
            );
            let expect: Vec<_> = (0..200).map(|i| (i, i * 3)).collect();
            assert_eq!(seen, expect, "threads={threads}");
        }
    }

    /// At one thread, result `i` reaches the sink before job `i + 1`
    /// starts, so a sink that appends results never holds a backlog.
    #[test]
    fn one_thread_delivers_each_result_before_the_next_job() {
        let events = std::sync::Mutex::new(Vec::new());
        par_map_into(
            50,
            1,
            || (),
            |_, i| events.lock().unwrap().push(("job", i)),
            |i, ()| events.lock().unwrap().push(("sink", i)),
        );
        let expect: Vec<_> = (0..50).flat_map(|i| [("job", i), ("sink", i)]).collect();
        assert_eq!(events.into_inner().unwrap(), expect);
    }

    #[test]
    fn init_runs_once_per_worker_and_state_is_reused() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let inits = AtomicUsize::new(0);
        for threads in [1usize, 2, 4] {
            inits.store(0, Ordering::SeqCst);
            let mut out = Vec::new();
            par_map_into(
                100,
                threads,
                || {
                    inits.fetch_add(1, Ordering::SeqCst);
                    Vec::<usize>::new()
                },
                |scratch, i| {
                    scratch.push(i);
                    i * 3
                },
                |_, v| out.push(v),
            );
            assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
            assert!(inits.load(Ordering::SeqCst) <= threads);
        }
    }

    #[test]
    fn resolve_semantics() {
        assert_eq!(resolve(1), 1);
        assert_eq!(resolve(5), 5);
        assert_eq!(resolve(0), max_threads());
    }

    #[test]
    fn even_chunks_partition() {
        for n in [0usize, 1, 7, 64, 100] {
            for c in [1usize, 2, 3, 8] {
                let chunks = even_chunks(n, c);
                let total: usize = chunks.iter().map(|r| r.len()).sum();
                assert_eq!(total, n, "n={n} c={c}");
                let mut prev = 0;
                for r in &chunks {
                    assert_eq!(r.start, prev);
                    assert!(!r.is_empty());
                    prev = r.end;
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn worker_panic_propagates() {
        let _ = par_map(8, 2, |i| {
            if i == 5 {
                panic!("boom");
            }
            i
        });
    }
}
