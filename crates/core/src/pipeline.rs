//! Deterministic parallel execution of independent per-item jobs.
//!
//! The primitives here — [`run_ordered`], [`try_run_ordered`], the
//! budget-splitting [`try_run_nested`] and the 2-D [`try_run_grid`] — run a
//! batch of independent jobs on a shared work queue drained by
//! [`std::thread::scope`] workers and reassemble the results **in item
//! order**, which makes the parallel output bit-identical to a serial run:
//! every job's work happens on exactly one thread with exactly the same
//! inputs regardless of the worker count, and only the reassembly order is
//! fixed, not the completion order. Four subsystems ride this queue:
//! whole-network compression (`network::compress_network`, one job per
//! layer), trace generation (`se-models`), the five-accelerator simulation
//! grid (`se-serve`'s `BatchEngine`, behind `se-bench`'s comparison
//! figures), and `se-bench`'s recorded serving runs (one job per
//! `se cluster` lane).
//!
//! The worker count comes from [`SeConfig::parallelism`] (default: all
//! available cores); `parallelism = 1` degenerates to an inline loop with
//! no thread spawned at all. When each job is itself parallel (a layer's
//! decomposition splits its units across threads),
//! [`try_run_nested`] owns the split of that one thread budget between the
//! two levels.
//!
//! # Error determinism
//!
//! A serial run reports the error of the *first* failing item. Workers
//! here publish the lowest failing index seen so far and skip queued jobs
//! behind it; because a job is only skipped when a *lower* index has
//! already failed, the minimal failing index is always computed, and the
//! error returned is exactly the one the serial run reports.
//!
//! # Examples
//!
//! ```
//! use se_core::{pipeline, CoreError, SeConfig};
//!
//! # fn main() -> Result<(), CoreError> {
//! let items: Vec<u64> = (0..16).collect();
//! let root = |_: usize, &x: &u64| (x as f64).sqrt();
//! assert_eq!(pipeline::run_ordered(&items, 1, root), pipeline::run_ordered(&items, 4, root));
//!
//! // Two jobs share a budget of four threads: each runs with two inside.
//! let cfg = SeConfig::default().with_parallelism(4)?;
//! let inner = pipeline::try_run_nested(&["a", "b"], &cfg, |_, _, inner: &SeConfig| {
//!     Ok::<_, CoreError>(inner.parallelism())
//! })?;
//! assert_eq!(inner, [2, 2]);
//! # Ok(())
//! # }
//! ```

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use crate::SeConfig;

/// Runs `f` over every item of `items`, spreading the calls across up to
/// `workers` scoped threads, and returns the outputs **in item order**.
///
/// This is the deterministic work-queue primitive behind the compression
/// pipeline (and the trace generators in `se-models`): each item is
/// processed exactly once on exactly one thread, so any per-item
/// computation — floating-point included — is bit-identical to a serial
/// loop; only wall-clock time depends on `workers`.
///
/// `workers` is clamped to `[1, items.len()]`; `workers <= 1` runs inline
/// without spawning.
pub fn run_ordered<I, O, F>(items: &[I], workers: usize, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(usize, &I) -> O + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, n);
    if workers == 1 {
        return items.iter().enumerate().map(|(i, item)| f(i, item)).collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<O>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = f(i, &items[i]);
                *slots[i].lock().expect("result slot never poisoned") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot never poisoned")
                .expect("every queue index was drained exactly once")
        })
        .collect()
}

/// Fallible [`run_ordered`]: runs `f` over every item and returns outputs
/// in item order, or the failure of the **lowest-indexed** failing item —
/// the same error a serial in-order run reports. Items queued behind an
/// already-failed index are skipped (their results could never be
/// observed); the minimal failing index is always computed because an item
/// is only skipped when a *lower* index has already failed.
///
/// Generic over the error type so any subsystem (compression, trace
/// generation, simulation) can put its own jobs on the queue.
///
/// # Errors
///
/// The lowest-indexed failure of `f`.
pub fn try_run_ordered<I, O, E, F>(
    items: &[I],
    workers: usize,
    f: F,
) -> std::result::Result<Vec<O>, E>
where
    I: Sync,
    O: Send,
    E: Send,
    F: Fn(usize, &I) -> std::result::Result<O, E> + Sync,
{
    // Lowest failing index observed so far; items behind it are skipped.
    let failed_at = AtomicUsize::new(usize::MAX);
    let results = run_ordered(items, workers, |i, item| {
        if i > failed_at.load(Ordering::Relaxed) {
            return None;
        }
        let out = f(i, item);
        if out.is_err() {
            failed_at.fetch_min(i, Ordering::Relaxed);
        }
        Some(out)
    });
    let mut done = Vec::with_capacity(items.len());
    for out in results {
        match out {
            Some(Ok(v)) => done.push(v),
            // The lowest-indexed error: everything before it succeeded.
            Some(Err(e)) => return Err(e),
            // Skipped behind a failure; the error above is reached first.
            None => unreachable!("skipped item precedes the failing index"),
        }
    }
    Ok(done)
}

/// Fans a 2-D grid of jobs — every `(item, lane)` pair — onto the work
/// queue and reassembles the outputs **item-major** (`out[i][l]` is item
/// `i` through lane `l`). This is the five-accelerator simulation shape:
/// items are layer traces, lanes are accelerators, and every job is
/// independent of every other, so results are bit-identical for every
/// worker count.
///
/// Items are pulled from `source` as the queue drains, not collected up
/// front. The calling thread is one of the `workers` and the only one
/// that pulls, so `source` need not be `Send`: before it runs a job it
/// pulls the next item if fewer than `lanes` jobs are queued, and it
/// pulls whenever it finds the queue empty; the other workers wait on an
/// empty queue. Producing an item (decoding it, say) thus overlaps the
/// jobs of the item before it, and an item is dropped once its last lane
/// has run, so at most `workers + 2` items are alive at once. A slice is
/// the source `items.iter().map(Ok)`.
///
/// # Errors
///
/// The failure of the lowest `(item, lane)` coordinate in item-major
/// order — the same error a serial item-then-lane loop reports. A source
/// error in pulling item `i` sits before every lane of `i` and after every
/// lane of the items before it; nothing is pulled after it.
pub fn try_run_grid<I, O, E, S, F>(
    source: S,
    lanes: usize,
    workers: usize,
    f: F,
) -> std::result::Result<Vec<Vec<O>>, E>
where
    S: IntoIterator<Item = std::result::Result<I, E>>,
    I: Send + Sync,
    O: Send,
    E: Send,
    F: Fn(usize, &I, usize) -> std::result::Result<O, E> + Sync,
{
    let source = source.into_iter();
    if lanes == 0 {
        return source.map(|item| item.map(|_| Vec::new())).collect();
    }
    if workers <= 1 {
        let mut out = Vec::new();
        for (i, item) in source.enumerate() {
            let item = item?;
            out.push((0..lanes).map(|l| f(i, &item, l)).collect::<std::result::Result<_, _>>()?);
        }
        return Ok(out);
    }

    let grid =
        Mutex::new(Grid { jobs: VecDeque::new(), rows: Vec::new(), failed: None, spent: false });
    // Wakes the workers waiting on an empty queue.
    let queued = Condvar::new();
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(|| work(&grid, &queued, lanes, &f, None::<std::iter::Empty<_>>));
        }
        work(&grid, &queued, lanes, &f, Some(source));
    });
    let grid = grid.into_inner().expect("grid never poisoned");
    if let Some((_, e)) = grid.failed {
        return Err(e);
    }
    Ok(grid
        .rows
        .into_iter()
        .map(|row| row.into_iter().map(|o| o.expect("every job ran")).collect())
        .collect())
}

/// An `(item, lane)` coordinate; item-major order is tuple order.
type Coord = (usize, usize);

/// One worker of [`try_run_grid`]: runs queued jobs until the source is
/// spent (or a job has failed) and the queue is empty. The worker given
/// the source (the calling thread) also pulls from it, one item ahead:
/// before a job, when fewer than one item's jobs are queued, and whenever
/// the queue is empty. The others wait for jobs on an empty queue.
fn work<I, O, E>(
    grid: &Mutex<Grid<I, O, E>>,
    queued: &Condvar,
    lanes: usize,
    f: &impl Fn(usize, &I, usize) -> std::result::Result<O, E>,
    mut source: Option<impl Iterator<Item = std::result::Result<I, E>>>,
) {
    let _stop = Stop { grid, queued };
    let mut done: Option<(Coord, std::result::Result<O, E>)> = None;
    let mut g = grid.lock().expect("grid never poisoned");
    loop {
        if let Some((at, out)) = done.take() {
            g.record(at, out);
        }
        let job = g.next_job();
        if let Some(source) = source.as_mut() {
            let below = if job.is_some() { lanes } else { 1 };
            if g.open() && g.jobs.len() < below {
                drop(g);
                let next = source.next();
                g = grid.lock().expect("grid never poisoned");
                g.push(next, lanes);
                queued.notify_all();
            }
        }
        match job {
            Some((at, item)) => {
                drop(g);
                done = Some((at, f(at.0, &item, at.1)));
                drop(item);
                g = grid.lock().expect("grid never poisoned");
            }
            None if !g.jobs.is_empty() => {}
            // Only a worker without the source waits: the puller has just
            // pulled, so an empty queue means the source is closed.
            None if g.open() => g = queued.wait(g).expect("grid never poisoned"),
            None => break,
        }
    }
}

/// Marks the source spent and wakes the waiting workers when a worker
/// stops: normally (once the source is closed, so this changes nothing) or
/// by a panic in the source or a job, when taking the lock while unwinding
/// poisons the grid, so that the others stop instead of waiting forever.
struct Stop<'a, I, O, E> {
    grid: &'a Mutex<Grid<I, O, E>>,
    queued: &'a Condvar,
}

impl<I, O, E> Drop for Stop<'_, I, O, E> {
    fn drop(&mut self) {
        let mut g = self.grid.lock().unwrap_or_else(PoisonError::into_inner);
        g.spent = true;
        self.queued.notify_all();
    }
}

/// The state [`try_run_grid`]'s workers share: queued jobs, one output
/// row per pulled item, the lowest failure seen, and whether the source
/// is spent.
struct Grid<I, O, E> {
    jobs: VecDeque<(Coord, Arc<I>)>,
    rows: Vec<Vec<Option<O>>>,
    failed: Option<(Coord, E)>,
    spent: bool,
}

impl<I, O, E> Grid<I, O, E> {
    /// Whether items may still arrive: the source is not spent and
    /// nothing has failed (every later item would sit behind the failure).
    fn open(&self) -> bool {
        !self.spent && self.failed.is_none()
    }

    fn record(&mut self, at: Coord, out: std::result::Result<O, E>) {
        match out {
            Ok(o) => self.rows[at.0][at.1] = Some(o),
            Err(e) => {
                if self.before_failure(at) {
                    self.failed = Some((at, e));
                }
            }
        }
    }

    /// Queues one job per lane of a pulled item; a source error is the
    /// failure of the item it was pulling, before any of its lanes.
    fn push(&mut self, next: Option<std::result::Result<I, E>>, lanes: usize) {
        let index = self.rows.len();
        match next {
            Some(Ok(item)) => {
                let item = Arc::new(item);
                self.jobs.extend((0..lanes).map(|l| ((index, l), Arc::clone(&item))));
                self.rows.push((0..lanes).map(|_| None).collect());
            }
            Some(Err(e)) => {
                self.spent = true;
                self.record((index, 0), Err(e));
            }
            None => self.spent = true,
        }
    }

    /// The next queued job, dropping those behind a failure (their
    /// results could never be observed).
    fn next_job(&mut self) -> Option<(Coord, Arc<I>)> {
        while let Some((at, item)) = self.jobs.pop_front() {
            if self.before_failure(at) {
                return Some((at, item));
            }
        }
        None
    }

    /// Whether `at` precedes every failure recorded so far.
    fn before_failure(&self, at: Coord) -> bool {
        self.failed.as_ref().is_none_or(|(first, _)| at < *first)
    }
}

/// Runs `f` over every item of `items` like [`try_run_ordered`] on
/// `cfg.parallelism()` workers, handing each call the configuration its
/// own inner work runs with: the one thread budget `cfg.parallelism()` is
/// split between the job queue and the threads inside each job (the
/// per-layer decomposition of `crate::layer` reads `parallelism`), so
/// nesting never oversubscribes. With more items than budget the inner
/// level runs inline; with a few big items the leftover budget goes
/// inside.
///
/// # Errors
///
/// The lowest-indexed failure of `f`, as [`try_run_ordered`].
pub fn try_run_nested<I, O, E, F>(
    items: &[I],
    cfg: &SeConfig,
    f: F,
) -> std::result::Result<Vec<O>, E>
where
    I: Sync,
    O: Send,
    E: Send,
    F: Fn(usize, &I, &SeConfig) -> std::result::Result<O, E> + Sync,
{
    let inner = worker_config(cfg, items.len());
    try_run_ordered(items, cfg.parallelism(), |i, item| f(i, item, &inner))
}

/// The configuration each of [`try_run_nested`]'s jobs runs with:
/// `outer × inner ≤ cfg.parallelism()`, where `outer` is the number of
/// workers the queue can keep busy.
fn worker_config(cfg: &SeConfig, jobs: usize) -> SeConfig {
    let outer = cfg.parallelism().clamp(1, jobs.max(1));
    let inner = (cfg.parallelism() / outer).max(1);
    cfg.clone().with_parallelism(inner).expect("inner worker count is at least 1")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CoreError;
    use se_ir::{LayerDesc, LayerKind};
    use se_tensor::{rng, Tensor};

    fn conv_desc(name: &str, in_ch: usize, out_ch: usize) -> LayerDesc {
        LayerDesc::new(
            name,
            LayerKind::Conv2d {
                in_channels: in_ch,
                out_channels: out_ch,
                kernel: 3,
                stride: 1,
                padding: 1,
            },
            (8, 8),
        )
    }

    fn six_layer_net(seed: u64) -> Vec<(LayerDesc, Tensor)> {
        let mut r = rng::seeded(seed);
        let chans = [3usize, 8, 8, 16, 16, 8];
        (0..6)
            .map(|i| {
                let (ci, co) = (chans[i], chans[(i + 1) % 6].max(4));
                let desc = conv_desc(&format!("c{i}"), ci, co);
                let w = rng::kaiming_tensor(&mut r, &[co, ci, 3, 3], ci * 9);
                (desc, w)
            })
            .collect()
    }

    fn cfg(parallelism: usize) -> SeConfig {
        SeConfig::default().with_max_iterations(5).unwrap().with_parallelism(parallelism).unwrap()
    }

    #[test]
    fn run_ordered_preserves_item_order() {
        let items: Vec<usize> = (0..64).collect();
        let doubled = run_ordered(&items, 8, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(doubled, (0..64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn run_ordered_handles_empty_and_oversubscribed() {
        let empty: Vec<u32> = vec![];
        assert!(run_ordered(&empty, 4, |_, &x| x).is_empty());
        let one = vec![7u32];
        assert_eq!(run_ordered(&one, 16, |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn grid_is_item_major_and_order_preserving() {
        let items: Vec<usize> = (0..9).collect();
        for workers in [1usize, 3, 8] {
            let grid: Vec<Vec<(usize, usize)>> = try_run_grid::<_, _, CoreError, _, _>(
                items.iter().copied().map(Ok),
                4,
                workers,
                |i, &item, lane| {
                    assert_eq!(i, item);
                    Ok((item, lane))
                },
            )
            .unwrap();
            assert_eq!(grid.len(), 9);
            for (i, row) in grid.iter().enumerate() {
                assert_eq!(row, &[(i, 0), (i, 1), (i, 2), (i, 3)], "workers = {workers}");
            }
        }
    }

    #[test]
    fn grid_handles_degenerate_shapes() {
        let none: Vec<u32> = vec![];
        let empty =
            try_run_grid::<_, u32, CoreError, _, _>(none.iter().map(Ok), 3, 4, |_, &x, _| Ok(*x))
                .unwrap();
        assert!(empty.is_empty());
        let lanes0 =
            try_run_grid::<_, u32, CoreError, _, _>([1u32, 2].map(Ok), 0, 4, |_, &x, _| Ok(x))
                .unwrap();
        assert_eq!(lanes0, vec![Vec::<u32>::new(), Vec::new()]);
    }

    #[test]
    fn grid_reports_the_item_major_lowest_error() {
        let items: Vec<usize> = (0..6).collect();
        // Fail at (1, 2) and (3, 0): item-major order makes (1, 2) first.
        for workers in [1usize, 2, 8] {
            let err = try_run_grid(items.iter().map(Ok), 3, workers, |i, _, lane| {
                if (i, lane) == (1, 2) || (i, lane) == (3, 0) {
                    Err(format!("fail at ({i}, {lane})"))
                } else {
                    Ok(())
                }
            })
            .unwrap_err();
            assert_eq!(err, "fail at (1, 2)", "workers = {workers}");
        }
    }

    /// An item that counts the items alive at once, and the most ever
    /// alive, through its construction and drop.
    struct Counted<'a> {
        value: u64,
        alive: &'a AtomicUsize,
    }

    impl<'a> Counted<'a> {
        fn new(value: u64, alive: &'a AtomicUsize, peak: &'a AtomicUsize) -> Self {
            let now = alive.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            Counted { value, alive }
        }
    }

    impl Drop for Counted<'_> {
        fn drop(&mut self) {
            self.alive.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// A job with some float work whose result depends on every input bit.
    fn mix(item: u64, lane: usize) -> f64 {
        (0..200).fold(item as f64 + 0.5, |acc, k| (acc * 1.000_1 + (k * (lane + 1)) as f64).sqrt())
    }

    #[test]
    fn pulled_grid_is_item_major_and_matches_a_serial_loop() {
        let serial: Vec<Vec<f64>> =
            (0..37u64).map(|i| (0..5).map(|l| mix(i, l)).collect()).collect();
        for workers in [1usize, 2, 4, 8] {
            let (alive, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let mut next = 0u64;
            let source = std::iter::from_fn(|| {
                next += 1;
                (next <= 37).then(|| Ok::<_, String>(Counted::new(next - 1, &alive, &peak)))
            });
            let grid = try_run_grid(source, 5, workers, |i, item, lane| {
                assert_eq!(i as u64, item.value);
                Ok(mix(item.value, lane))
            })
            .unwrap();
            let bits =
                |g: &[Vec<f64>]| -> Vec<u64> { g.iter().flatten().map(|x| x.to_bits()).collect() };
            assert_eq!(bits(&grid), bits(&serial), "workers = {workers}");
            assert_eq!(alive.load(Ordering::SeqCst), 0);
        }
    }

    #[test]
    fn at_most_workers_plus_two_items_are_alive() {
        for workers in [1usize, 2, 4, 8] {
            let (alive, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let mut next = 0u64;
            let source = std::iter::from_fn(|| {
                next += 1;
                (next <= 60).then(|| Ok::<_, String>(Counted::new(next, &alive, &peak)))
            });
            let grid = try_run_grid(source, 5, workers, |_, item, lane| {
                std::thread::sleep(std::time::Duration::from_micros(50));
                Ok(mix(item.value, lane))
            })
            .unwrap();
            assert_eq!(grid.len(), 60);
            let peak = peak.load(Ordering::SeqCst);
            assert!(peak <= workers + 2, "workers = {workers}: {peak} items alive at once");
        }
    }

    #[test]
    fn source_and_lane_errors_follow_item_major_order() {
        // (source fails pulling item, lane failure) -> the error reported.
        let cases: [(Option<usize>, Option<Coord>, &str); 5] = [
            (Some(6), None, "source at 6"),
            (Some(6), Some((5, 4)), "lane (5, 4)"),
            (Some(6), Some((2, 1)), "lane (2, 1)"),
            (Some(0), None, "source at 0"),
            (None, Some((8, 0)), "lane (8, 0)"),
        ];
        for (source_fails, lane_fails, want) in cases {
            for workers in [1usize, 2, 4, 8] {
                let pulled = AtomicUsize::new(0);
                let source = (0..20usize).map(|i| {
                    pulled.fetch_add(1, Ordering::SeqCst);
                    if Some(i) == source_fails {
                        Err(format!("source at {i}"))
                    } else {
                        Ok(i)
                    }
                });
                let err = try_run_grid(source, 5, workers, |i, _, lane| {
                    if Some((i, lane)) == lane_fails {
                        Err(format!("lane ({i}, {lane})"))
                    } else {
                        Ok(())
                    }
                })
                .unwrap_err();
                assert_eq!(err, want, "workers = {workers}");
                // Nothing is pulled past a source failure.
                if let Some(at) = source_fails {
                    assert!(pulled.load(Ordering::SeqCst) <= at + 1, "workers = {workers}");
                }
            }
        }
    }

    #[test]
    fn a_panic_in_a_job_or_the_source_propagates_instead_of_hanging() {
        for workers in [2usize, 4] {
            for panic_in_source in [false, true] {
                let run = std::panic::AssertUnwindSafe(|| {
                    let source = (0..50usize).map(|i| {
                        assert!(!(panic_in_source && i == 30), "source panics");
                        Ok::<_, String>(i)
                    });
                    try_run_grid(source, 5, workers, |i, _, _| {
                        assert!(panic_in_source || i != 3, "job panics");
                        Ok(())
                    })
                });
                assert!(std::panic::catch_unwind(run).is_err(), "workers = {workers}");
            }
        }
    }

    #[test]
    fn worker_config_splits_the_thread_budget() {
        let cfg = |n: usize| SeConfig::default().with_parallelism(n).unwrap();
        // More jobs than budget: inner level degrades to inline.
        assert_eq!(worker_config(&cfg(8), 100).parallelism(), 1);
        // Fewer jobs than budget: leftover budget goes per-layer.
        assert_eq!(worker_config(&cfg(8), 2).parallelism(), 4);
        assert_eq!(worker_config(&cfg(8), 3).parallelism(), 2);
        // Degenerate cases stay valid.
        assert_eq!(worker_config(&cfg(1), 10).parallelism(), 1);
        assert_eq!(worker_config(&cfg(4), 0).parallelism(), 4);
    }

    #[test]
    fn parallel_is_bit_identical_to_serial() {
        // Real nested work: each job decomposes a layer with the inner
        // config, whose own threads come out of the same budget.
        let layers = six_layer_net(17);
        let run = |workers: usize| {
            try_run_nested(&layers, &cfg(workers), |_, (desc, w), inner| {
                crate::layer::compress_layer(desc, w, inner)
            })
            .unwrap()
        };
        let serial = run(1);
        for workers in [2usize, 3, 4, 8] {
            assert_eq!(serial, run(workers), "workers = {workers}");
        }
    }
}
