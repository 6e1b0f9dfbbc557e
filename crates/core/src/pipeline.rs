//! Deterministic parallel execution of independent per-item jobs.
//!
//! The primitives here — [`run_ordered`], [`try_run_ordered`], and the 2-D
//! [`try_run_grid`] — run a batch of independent jobs on a shared work
//! queue drained by [`std::thread::scope`] workers and reassemble the
//! results **in item order**, which makes the parallel output bit-identical
//! to a serial run: every job's work happens on exactly one thread with
//! exactly the same inputs regardless of the worker count, and only the
//! reassembly order is fixed, not the completion order. Four subsystems
//! ride this queue: whole-network compression (the [`LayerJob`] batch of
//! this module), trace generation (`se-models`), the five-accelerator
//! simulation grid (`se-serve`'s `BatchEngine`, behind `se-bench`'s
//! comparison figures), and `se-bench`'s recorded serving runs (one job
//! per `se cluster` lane).
//!
//! SmartExchange compresses each layer independently — the decomposition
//! of Algorithm 1 never looks across layers — so whole-network compression
//! is an embarrassingly parallel batch of [`LayerJob`]s.
//!
//! The worker count comes from [`SeConfig::parallelism`] (default: all
//! available cores); `parallelism = 1` degenerates to an inline loop with
//! no thread spawned at all.
//!
//! # Error determinism
//!
//! A serial run reports the error of the *first* failing layer. Workers
//! here publish the lowest failing index seen so far and skip queued jobs
//! behind it; because a job is only skipped when a *lower* index has
//! already failed, the minimal failing index is always computed, and the
//! error returned is exactly the one the serial run reports.
//!
//! # Examples
//!
//! ```
//! use se_core::{network, SeConfig};
//! use se_ir::{LayerDesc, LayerKind};
//! use se_tensor::rng;
//!
//! # fn main() -> Result<(), se_core::CoreError> {
//! let mut r = rng::seeded(5);
//! let layers: Vec<_> = (0..4)
//!     .map(|i| {
//!         let desc = LayerDesc::new(
//!             format!("c{i}"),
//!             LayerKind::Conv2d { in_channels: 4, out_channels: 8, kernel: 3, stride: 1, padding: 1 },
//!             (8, 8),
//!         );
//!         (desc, rng::kaiming_tensor(&mut r, &[8, 4, 3, 3], 36))
//!     })
//!     .collect();
//! let serial = network::compress_network(&layers, &SeConfig::default().with_parallelism(1)?)?;
//! let parallel = network::compress_network(&layers, &SeConfig::default().with_parallelism(4)?)?;
//! assert_eq!(serial, parallel); // bit-identical, including every f32
//! # Ok(())
//! # }
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::network::{compress_layer_reported, LayerReport};
use crate::{CoreError, Result, SeConfig};
use se_ir::{LayerDesc, SeLayer};
use se_tensor::Tensor;

/// Where a job's weight tensor comes from.
pub enum WeightSource<'a> {
    /// The caller already owns the tensor (the in-memory network path).
    Borrowed(&'a Tensor),
    /// The tensor is generated on the worker thread and dropped with the
    /// job (the streaming path for ImageNet-scale models, where holding
    /// every layer's weights at once would be large).
    Generate(&'a (dyn Fn(&LayerDesc) -> Result<Tensor> + Sync)),
}

impl std::fmt::Debug for WeightSource<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WeightSource::Borrowed(t) => f.debug_tuple("Borrowed").field(&t.shape()).finish(),
            WeightSource::Generate(_) => f.debug_tuple("Generate").finish(),
        }
    }
}

/// One unit of work on the compression queue: compress one layer. Results
/// are reassembled in job order.
#[derive(Debug)]
pub struct LayerJob<'a> {
    /// Layer geometry.
    pub desc: &'a LayerDesc,
    /// Weight tensor source.
    pub weights: WeightSource<'a>,
}

impl LayerJob<'_> {
    /// Runs the job: resolves the weights and compresses the layer,
    /// tagging failures with the layer name exactly as the serial
    /// [`crate::network::compress_network`] historically did.
    pub(crate) fn run(&self, cfg: &SeConfig) -> Result<(Vec<SeLayer>, LayerReport)> {
        let owned;
        let weights = match self.weights {
            WeightSource::Borrowed(t) => t,
            WeightSource::Generate(f) => {
                owned = f(self.desc)?;
                &owned
            }
        };
        compress_layer_reported(self.desc, weights, cfg).map_err(|e| match e {
            CoreError::InvalidWeights { reason } => {
                CoreError::InvalidWeights { reason: format!("{}: {reason}", self.desc.name()) }
            }
            other => other,
        })
    }
}

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
/// # Errors
///
/// The failure of the lowest `(item, lane)` coordinate in item-major
/// order — the same error a serial item-then-lane loop reports.
pub fn try_run_grid<I, O, E, F>(
    items: &[I],
    lanes: usize,
    workers: usize,
    f: F,
) -> std::result::Result<Vec<Vec<O>>, E>
where
    I: Sync,
    O: Send,
    E: Send,
    F: Fn(usize, &I, usize) -> std::result::Result<O, E> + Sync,
{
    if lanes == 0 {
        return Ok(items.iter().map(|_| Vec::new()).collect());
    }
    let coords: Vec<(usize, usize)> =
        (0..items.len()).flat_map(|i| (0..lanes).map(move |l| (i, l))).collect();
    let flat = try_run_ordered(&coords, workers, |_, &(i, l)| f(i, &items[i], l))?;
    let mut flat = flat.into_iter();
    Ok((0..items.len()).map(|_| flat.by_ref().take(lanes).collect()).collect())
}

/// The configuration each worker compresses its layers with: the total
/// thread budget `cfg.parallelism()` is split between the outer job queue
/// and the per-layer decomposition threads of `crate::layer` (which also
/// read `parallelism`), so nested parallelism never oversubscribes —
/// `outer × inner ≤ cfg.parallelism()`. With more jobs than budget the
/// inner level degrades to inline; with a few big layers the leftover
/// budget goes to the per-layer level.
pub fn worker_config(cfg: &SeConfig, jobs: usize) -> SeConfig {
    let outer = cfg.parallelism().clamp(1, jobs.max(1));
    let inner = (cfg.parallelism() / outer).max(1);
    cfg.clone().with_parallelism(inner).expect("inner worker count is at least 1")
}

/// Compresses a batch of [`LayerJob`]s on the work queue and reassembles
/// `(parts, report)` pairs in network order.
///
/// # Errors
///
/// Returns the failure of the lowest-indexed failing job — the same error
/// a serial in-order run reports.
pub fn compress_jobs(
    jobs: &[LayerJob<'_>],
    cfg: &SeConfig,
) -> Result<Vec<(Vec<SeLayer>, LayerReport)>> {
    let wcfg = worker_config(cfg, jobs.len());
    try_run_ordered(jobs, cfg.parallelism(), |_, job| job.run(&wcfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{compress_network, compress_network_reports};
    use se_ir::LayerKind;
    use se_tensor::rng;

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
            let grid: Vec<Vec<(usize, usize)>> =
                try_run_grid::<_, _, CoreError, _>(&items, 4, workers, |i, &item, lane| {
                    assert_eq!(i, item);
                    Ok((item, lane))
                })
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
        let empty = try_run_grid::<_, u32, CoreError, _>(&none, 3, 4, |_, &x, _| Ok(x)).unwrap();
        assert!(empty.is_empty());
        let lanes0 =
            try_run_grid::<_, u32, CoreError, _>(&[1u32, 2], 0, 4, |_, &x, _| Ok(x)).unwrap();
        assert_eq!(lanes0, vec![Vec::<u32>::new(), Vec::new()]);
    }

    #[test]
    fn grid_reports_the_item_major_lowest_error() {
        let items: Vec<usize> = (0..6).collect();
        // Fail at (1, 2) and (3, 0): item-major order makes (1, 2) first.
        for workers in [1usize, 2, 8] {
            let err = try_run_grid::<_, (), String, _>(&items, 3, workers, |i, _, lane| {
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
        let layers = six_layer_net(17);
        let serial = compress_network(&layers, &cfg(1)).unwrap();
        for workers in [2usize, 3, 4, 8] {
            let parallel = compress_network(&layers, &cfg(workers)).unwrap();
            assert_eq!(serial, parallel, "workers = {workers}");
        }
    }

    #[test]
    fn streaming_reports_match_owned_in_parallel() {
        let layers = six_layer_net(23);
        let owned = compress_network(&layers, &cfg(4)).unwrap();
        let descs: Vec<_> = layers.iter().map(|(d, _)| d.clone()).collect();
        let streamed = compress_network_reports(&descs, &cfg(4), |d| {
            Ok(layers
                .iter()
                .find(|(ld, _)| ld.name() == d.name())
                .map(|(_, w)| w.clone())
                .expect("known layer"))
        })
        .unwrap();
        assert_eq!(owned.reports, streamed);
    }

    #[test]
    fn error_reported_matches_serial_first_failure() {
        let mut layers = six_layer_net(31);
        // Two failures: the pipeline must report the lower-indexed one.
        layers[1].1 = Tensor::zeros(&[2, 2]);
        layers[4].1 = Tensor::zeros(&[3, 3]);
        let serial_err = compress_network(&layers, &cfg(1)).unwrap_err();
        for workers in [2usize, 4, 8] {
            let parallel_err = compress_network(&layers, &cfg(workers)).unwrap_err();
            assert_eq!(serial_err.to_string(), parallel_err.to_string());
            assert!(parallel_err.to_string().contains("c1"), "err {parallel_err}");
        }
    }

    #[test]
    fn generated_weights_failure_is_deterministic() {
        let layers = six_layer_net(5);
        let descs: Vec<_> = layers.iter().map(|(d, _)| d.clone()).collect();
        let failing = |d: &LayerDesc| -> Result<Tensor> {
            if d.name() == "c2" {
                Err(CoreError::InvalidWeights { reason: "synthetic failure".into() })
            } else {
                Ok(layers
                    .iter()
                    .find(|(ld, _)| ld.name() == d.name())
                    .map(|(_, w)| w.clone())
                    .expect("known layer"))
            }
        };
        let e1 = compress_network_reports(&descs, &cfg(1), failing).unwrap_err();
        let e4 = compress_network_reports(&descs, &cfg(4), failing).unwrap_err();
        assert_eq!(e1.to_string(), e4.to_string());
    }
}
