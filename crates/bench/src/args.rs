//! Minimal CLI-flag reading for the experiment binaries.

use crate::runner::RunnerOptions;
use crate::Result;
use se_serve::{ArrivalPattern, BatchPolicy, RouterPolicy};

/// `--max-batch` when absent: also the default `--burst` size.
const DEFAULT_MAX_BATCH: usize = 8;

/// Parsed common flags.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Flags {
    /// `--fast`: sample output rows and cut decomposition iterations so the
    /// ImageNet-scale sweeps finish quickly (shapes are preserved; absolute
    /// numbers move by a few percent).
    pub fast: bool,
    /// `--seed N`: base seed for synthetic weights/activations.
    pub seed: u64,
    /// `--models a,b,c`: restrict to a subset of model names.
    pub models: Option<Vec<String>>,
    /// `--sim-parallelism N`: worker threads for the `(layer, accelerator)`
    /// simulation grid (see `se_bench::runner`) and for `se cluster`'s
    /// five lanes (one job per lane). Results are bit-identical
    /// for every value; absent means the default (the `SE_PARALLELISM`
    /// environment variable, else all cores).
    pub sim_parallelism: Option<usize>,
    /// `--traces-dir DIR`: directory of persisted trace artifacts
    /// (`*.setrace`, built by `se trace build`). Subcommands that consume
    /// traces replay matching artifacts from here instead of regenerating
    /// the decompositions; cached and direct runs are bit-identical. A
    /// missing artifact silently falls back to direct generation.
    pub traces_dir: Option<std::path::PathBuf>,
    /// `--with-fc`: include FC layers in the generated traces (the
    /// Fig. 13(b) protocol) — consumed by `se trace build`.
    pub with_fc: bool,
    /// `--batch-sizes 1,4,16`: batch sizes swept by `se batch`.
    pub batch_sizes: Option<Vec<usize>>,
    /// `--max-batch N`: maximum images per batch for `se serve`'s
    /// aggregator.
    pub max_batch: Option<usize>,
    /// `--max-wait-us F`: maximum microseconds the oldest queued request
    /// waits before `se serve`'s aggregator closes the batch short.
    pub max_wait_us: Option<f64>,
    /// `--arrival uniform|burst|closed`: `se serve` workload shape.
    pub arrival: Option<String>,
    /// `--requests N`: total requests issued by the `se serve` workload.
    pub requests: Option<usize>,
    /// `--rate F`: open-loop arrival rate in requests per second (default:
    /// derived from the model's single-image service rate).
    pub rate: Option<f64>,
    /// `--queue-cap N`: bounded request-queue capacity for `se serve`.
    pub queue_cap: Option<usize>,
    /// `--concurrency N`: closed-loop clients for `--arrival closed`.
    pub concurrency: Option<usize>,
    /// `--burst N`: requests per burst for `--arrival burst`.
    pub burst: Option<usize>,
    /// `--instances N`: accelerator instances behind `se cluster`'s shared
    /// front.
    pub instances: Option<usize>,
    /// `--router rr|jsq|affinity`: `se cluster` routing policy.
    pub router: Option<String>,
    /// `--deadline-us F`: per-request deadline in microseconds (`se serve`
    /// reports misses against it; `se cluster` schedules EDF with it).
    /// Absent = best effort.
    pub deadline_us: Option<f64>,
    /// `--buffer-kb F`: per-instance weight-buffer capacity in KB for
    /// `se cluster`'s residency model. Absent = residency modeling off
    /// (weights streamed per batch).
    pub buffer_kb: Option<f64>,
    /// `--bench-out FILE`: where `se bench serve` writes its
    /// machine-readable JSON report (default `BENCH_serve.json`).
    pub bench_out: Option<std::path::PathBuf>,
    /// `--kill i@t_us`: scripted instance kills for `se cluster`
    /// (repeatable; comma-separated specs). Raw specs, parsed and
    /// validated by [`Flags::fault_plan`].
    pub kill: Vec<String>,
    /// `--restart i@t_us`: scripted instance restarts for `se cluster`
    /// (repeatable; comma-separated specs). A restarted instance rejoins
    /// with an empty queue and a cold weight buffer.
    pub restart: Vec<String>,
    /// `--autoscale hi:lo`: queue-depth autoscaling thresholds for
    /// `se cluster` (spawn above `hi` waiting requests per accepting
    /// instance, drain below `lo`).
    pub autoscale: Option<String>,
    /// `--tiers name:CAP:BW,...`: per-instance tiered weight store for
    /// `se cluster` (top tier first, e.g.
    /// `buf:64kb:16,dram:4mb:8,ssd:2gb:1`). Capacities take `kb`/`mb`/
    /// `gb` suffixes (plain numbers are bytes), bandwidths are bytes per
    /// cycle. Raw string here; parsed and validated loudly by
    /// [`Flags::tier_specs`]. Mutually exclusive with `--buffer-kb`.
    pub tiers: Option<String>,
    /// `--trace-out FILE`: write the run's virtual-time scheduling trace
    /// as Chrome-trace/Perfetto `traceEvents` JSON (`se serve`,
    /// `se cluster`, `se bench serve`). The file is byte-identical across
    /// `--sim-parallelism` values.
    pub trace_out: Option<std::path::PathBuf>,
    /// `--metrics-out FILE`: write the run's folded counters, gauges, and
    /// latency histograms as Prometheus-style text exposition.
    pub metrics_out: Option<std::path::PathBuf>,
    /// `--window-us F`: analysis window width in microseconds for
    /// `se obs` (default 200). Converted to cycles at the accelerator
    /// frequency; every windowed aggregate covers `[k·W, (k+1)·W)`.
    pub window_us: Option<f64>,
}

/// Every flag that consumes the next argument as its value — the single
/// inventory shared by both parsers below (a flag not listed here
/// structurally cannot take a value) and by [`positionals`], which must
/// skip flag values when looking for an action.
pub const VALUE_FLAGS: &[&str] = &[
    "--seed",
    "--models",
    "--sim-parallelism",
    "--traces-dir",
    "--batch-sizes",
    "--max-batch",
    "--max-wait-us",
    "--arrival",
    "--requests",
    "--rate",
    "--burst",
    "--queue-cap",
    "--concurrency",
    "--instances",
    "--router",
    "--deadline-us",
    "--buffer-kb",
    "--bench-out",
    "--kill",
    "--restart",
    "--autoscale",
    "--tiers",
    "--trace-out",
    "--metrics-out",
    "--window-us",
];

/// The positional arguments of a subcommand's `rest`, in order: every
/// argument that is neither a `--` flag nor the value of a
/// [`VALUE_FLAGS`] flag. So `se trace --traces-dir d build` finds
/// `build`, and `se bench --bench-out serve diff a b` never mistakes the
/// output path for the action.
pub fn positionals(rest: &[String]) -> Vec<&str> {
    let mut found = Vec::new();
    let mut iter = rest.iter();
    while let Some(arg) = iter.next() {
        if VALUE_FLAGS.contains(&arg.as_str()) {
            iter.next(); // skip the flag's value
        } else if !arg.starts_with("--") {
            found.push(arg.as_str());
        }
    }
    found
}

/// Fails unless every comma-separated `--models` entry names a model of
/// [`se_models::zoo::all_models`], ignoring case.
fn check_model_names(value: &str) -> std::result::Result<(), String> {
    let names: Vec<String> =
        se_models::zoo::all_models().iter().map(|m| m.name().to_string()).collect();
    match value.split(',').map(str::trim).find(|m| !names.iter().any(|n| n.eq_ignore_ascii_case(m)))
    {
        None => Ok(()),
        Some(m) => Err(format!(
            "invalid value `{value}` for `--models`: `{m}` matches no models (known: {})",
            names.join(", ")
        )),
    }
}

impl Flags {
    /// Parses flags from an argument list. Lenient: unknown arguments are
    /// ignored and a malformed value leaves its field at the default. The
    /// `se` binary parses with [`Flags::from_args_checked`] instead.
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Flags {
        let args: Vec<String> = args.into_iter().collect();
        let mut flags = Flags::default();
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            if VALUE_FLAGS.contains(&arg.as_str()) {
                // A value flag with no value left is ignored, like any
                // unknown argument.
                if let Some(value) = iter.next() {
                    flags.apply_value(arg, value);
                }
            } else {
                flags.apply_switch(arg);
            }
        }
        flags
    }

    /// Parses a subcommand's arguments strictly, the `se` binary's
    /// contract: an unknown `--` flag, a value flag without its value, a
    /// value that [`Flags::from_args`] would replace by the default, and a
    /// `--models` entry that names no model of `se_models::zoo` are errors
    /// naming the flag (and the value). Other arguments are the
    /// subcommand's positionals.
    ///
    /// # Errors
    ///
    /// The first offending argument, as a message.
    pub fn from_args_checked(args: &[String]) -> std::result::Result<Flags, String> {
        let mut flags = Flags::default();
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            if VALUE_FLAGS.contains(&arg.as_str()) {
                let value = iter.next().ok_or_else(|| format!("flag `{arg}` needs a value"))?;
                if !flags.apply_value(arg, value) {
                    return Err(format!("invalid value `{value}` for `{arg}`"));
                }
                if arg == "--models" {
                    check_model_names(value)?;
                }
            } else if arg.starts_with("--") && !flags.apply_switch(arg) {
                return Err(format!("unknown flag `{arg}`"));
            }
        }
        Ok(flags)
    }

    /// Applies a boolean flag; `false` when `arg` is not one.
    fn apply_switch(&mut self, arg: &str) -> bool {
        match arg {
            "--fast" => self.fast = true,
            "--with-fc" => self.with_fc = true,
            _ => return false,
        }
        true
    }

    /// Applies one value-taking flag (listed in [`VALUE_FLAGS`]) to the
    /// parsed set and returns whether the value was well formed. A
    /// malformed value (zero sizes, negative rates, non-numerics) leaves
    /// the field at its default.
    fn apply_value(&mut self, flag: &str, value: &str) -> bool {
        /// Stores `parsed` and reports whether there was a value to store.
        fn set<T>(field: &mut Option<T>, parsed: Option<T>) -> bool {
            *field = parsed;
            field.is_some()
        }
        let count = |s: &str| s.parse().ok().filter(|&n: &usize| n >= 1);
        let positive = || value.parse().ok().filter(|&x: &f64| x > 0.0);
        let path = || Some(std::path::PathBuf::from(value));
        match flag {
            "--seed" => {
                let seed = value.parse().ok();
                self.seed = seed.unwrap_or(0);
                seed.is_some()
            }
            "--models" => set(
                &mut self.models,
                Some(value.split(',').map(|s| s.trim().to_string()).collect()),
            ),
            "--sim-parallelism" => set(&mut self.sim_parallelism, count(value)),
            "--traces-dir" => set(&mut self.traces_dir, path()),
            "--batch-sizes" => {
                let sizes: Vec<Option<usize>> = value.split(',').map(|s| count(s.trim())).collect();
                let valid: Vec<usize> = sizes.iter().flatten().copied().collect();
                set(&mut self.batch_sizes, Some(valid).filter(|v| !v.is_empty()))
                    && sizes.iter().all(Option::is_some)
            }
            "--max-batch" => set(&mut self.max_batch, count(value)),
            "--max-wait-us" => {
                set(&mut self.max_wait_us, value.parse().ok().filter(|&w: &f64| w >= 0.0))
            }
            "--arrival" => set(&mut self.arrival, Some(value.to_string())),
            "--requests" => set(&mut self.requests, count(value)),
            "--rate" => set(&mut self.rate, positive()),
            "--queue-cap" => set(&mut self.queue_cap, count(value)),
            "--concurrency" => set(&mut self.concurrency, count(value)),
            "--burst" => set(&mut self.burst, count(value)),
            "--instances" => set(&mut self.instances, count(value)),
            "--router" => set(&mut self.router, Some(value.to_string())),
            "--deadline-us" => set(&mut self.deadline_us, positive()),
            "--buffer-kb" => set(&mut self.buffer_kb, positive()),
            "--bench-out" => set(&mut self.bench_out, path()),
            // Kill/restart specs accumulate across repeats and commas;
            // they stay raw strings here and are parsed loudly by
            // `fault_plan` (a malformed spec must error, not vanish).
            "--kill" => {
                self.kill.extend(value.split(',').map(|s| s.trim().to_string()));
                true
            }
            "--restart" => {
                self.restart.extend(value.split(',').map(|s| s.trim().to_string()));
                true
            }
            "--autoscale" => set(&mut self.autoscale, Some(value.to_string())),
            "--tiers" => set(&mut self.tiers, Some(value.to_string())),
            "--trace-out" => set(&mut self.trace_out, path()),
            "--metrics-out" => set(&mut self.metrics_out, path()),
            "--window-us" => set(&mut self.window_us, positive()),
            other => unreachable!("VALUE_FLAGS entry {other} not handled"),
        }
    }

    /// Whether `name` is selected by `--models` (everything is when the
    /// flag is absent).
    pub fn selects(&self, name: &str) -> bool {
        match &self.models {
            None => true,
            Some(list) => list.iter().any(|m| m.eq_ignore_ascii_case(name)),
        }
    }

    /// Whether any fault-injection flag (`--kill`, `--restart`,
    /// `--autoscale`) was given. Subcommands without a fault model use
    /// this to reject the flags loudly instead of silently ignoring them.
    pub fn has_fault_flags(&self) -> bool {
        !self.kill.is_empty() || !self.restart.is_empty() || self.autoscale.is_some()
    }

    /// The fault plan described by `--kill` / `--restart` / `--autoscale`,
    /// with event times converted from microseconds to cycles at
    /// `frequency_hz`. Events are ordered by `(time, instance)`; the
    /// per-instance kill/restart alternation and instance bounds are
    /// checked later by `ClusterSpec::validate`, which knows the instance
    /// count.
    ///
    /// # Errors
    ///
    /// Rejects malformed specs: `--kill`/`--restart` values must be
    /// `instance@t_us` with a non-negative time, `--autoscale` must be
    /// `hi:lo` with `hi >= 1` and `hi > lo`.
    pub fn fault_plan(&self, frequency_hz: f64) -> Result<se_serve::FaultPlan> {
        let event = |spec: &str, action: se_serve::FaultAction| -> Result<se_serve::FaultEvent> {
            let flag = match action {
                se_serve::FaultAction::Kill => "--kill",
                se_serve::FaultAction::Restart => "--restart",
            };
            let (inst, t_us) = spec
                .split_once('@')
                .ok_or_else(|| format!("{flag} {spec:?}: expected instance@t_us (e.g. 1@500)"))?;
            let instance: usize = inst
                .parse()
                .map_err(|_| format!("{flag} {spec:?}: instance must be a non-negative integer"))?;
            let t_us: f64 =
                t_us.parse().ok().filter(|t: &f64| t.is_finite() && *t >= 0.0).ok_or_else(
                    || format!("{flag} {spec:?}: time must be non-negative microseconds"),
                )?;
            Ok(se_serve::FaultEvent {
                at: (t_us * 1e-6 * frequency_hz).round() as u64,
                instance,
                action,
            })
        };
        let mut events = Vec::with_capacity(self.kill.len() + self.restart.len());
        for spec in &self.kill {
            events.push(event(spec, se_serve::FaultAction::Kill)?);
        }
        for spec in &self.restart {
            events.push(event(spec, se_serve::FaultAction::Restart)?);
        }
        events.sort_unstable_by_key(|e| (e.at, e.instance));
        let autoscale = match self.autoscale.as_deref() {
            None => None,
            Some(raw) => {
                let parsed = raw.split_once(':').and_then(|(hi, lo)| {
                    Some(se_serve::AutoscalePolicy {
                        spawn_above: hi.parse().ok()?,
                        drain_below: lo.parse().ok()?,
                    })
                });
                let policy = parsed
                    .filter(|p| p.spawn_above >= 1 && p.spawn_above > p.drain_below)
                    .ok_or_else(|| {
                        format!("--autoscale {raw:?}: expected hi:lo with hi >= 1 and hi > lo")
                    })?;
                Some(policy)
            }
        };
        Ok(se_serve::FaultPlan { events, autoscale })
    }

    /// The tier stack described by `--tiers`: comma-separated
    /// `name:CAP:BW` triples, top (on-chip) tier first. `CAP` takes
    /// `kb`/`mb`/`gb` suffixes (a bare number is bytes) and `BW` is
    /// bytes per cycle. Returns `Ok(None)` when the flag is absent —
    /// the single-buffer default stays bit-identical.
    ///
    /// # Errors
    ///
    /// Rejects malformed triples, non-positive capacities or
    /// bandwidths, fewer than two tiers (a one-tier "stack" is exactly
    /// `--buffer-kb`), and combining `--tiers` with `--buffer-kb`.
    pub fn tier_specs(&self) -> Result<Option<Vec<se_serve::TierSpec>>> {
        let Some(raw) = self.tiers.as_deref() else {
            return Ok(None);
        };
        if self.buffer_kb.is_some() {
            return Err("--tiers replaces --buffer-kb (the stack's top tier is the weight \
                        buffer); give one or the other"
                .into());
        }
        let capacity = |spec: &str, field: &str| -> Result<u64> {
            let lower = field.to_ascii_lowercase();
            let (digits, scale) = match lower {
                _ if lower.ends_with("kb") => (&lower[..lower.len() - 2], 1024.0),
                _ if lower.ends_with("mb") => (&lower[..lower.len() - 2], 1024.0 * 1024.0),
                _ if lower.ends_with("gb") => (&lower[..lower.len() - 2], 1024.0 * 1024.0 * 1024.0),
                _ => (&lower[..], 1.0),
            };
            let value: f64 =
                digits.parse().ok().filter(|v: &f64| v.is_finite() && *v > 0.0).ok_or_else(
                    || {
                        format!(
                            "--tiers {spec:?}: capacity {field:?} must be a positive number of \
                         bytes with an optional kb/mb/gb suffix"
                        )
                    },
                )?;
            Ok((value * scale).round() as u64)
        };
        let mut specs = Vec::new();
        for part in raw.split(',') {
            let part = part.trim();
            let mut fields = part.split(':');
            let (name, cap, bw) = match (fields.next(), fields.next(), fields.next(), fields.next())
            {
                (Some(name), Some(cap), Some(bw), None) => (name, cap, bw),
                _ => {
                    return Err(format!(
                        "--tiers {part:?}: expected name:capacity:bytes_per_cycle \
                         (e.g. buf:64kb:16)"
                    )
                    .into());
                }
            };
            if name.is_empty() {
                return Err(format!("--tiers {part:?}: tier name must be non-empty").into());
            }
            let bytes_per_cycle: f64 =
                bw.parse().ok().filter(|b: &f64| b.is_finite() && *b > 0.0).ok_or_else(|| {
                    format!("--tiers {part:?}: bandwidth {bw:?} must be positive bytes per cycle")
                })?;
            specs.push(se_serve::TierSpec::new(name, capacity(part, cap)?, bytes_per_cycle));
        }
        if specs.len() < 2 {
            return Err("--tiers needs at least two tiers (top buffer + a backing tier); a \
                        single-tier stack is exactly --buffer-kb"
                .into());
        }
        Ok(Some(specs))
    }

    /// The serving batch policy: `--max-batch` (default 8), `--max-wait-us`
    /// (default 50, converted to cycles at `frequency_hz`) and
    /// `--queue-cap` (default 256).
    ///
    /// # Errors
    ///
    /// Propagates [`BatchPolicy::validate`].
    pub(crate) fn batch_policy(&self, frequency_hz: f64) -> Result<BatchPolicy> {
        let policy = BatchPolicy {
            max_batch: self.max_batch.unwrap_or(DEFAULT_MAX_BATCH),
            max_wait: (self.max_wait_us.unwrap_or(50.0) * 1e-6 * frequency_hz).round() as u64,
            queue_cap: self.queue_cap.unwrap_or(256),
        };
        policy.validate()?;
        Ok(policy)
    }

    /// The `--router rr|jsq|affinity` policy; `Ok(None)` when the flag is
    /// absent, so each front picks its own default.
    ///
    /// # Errors
    ///
    /// Rejects an unknown router name.
    pub(crate) fn router_policy(&self) -> Result<Option<RouterPolicy>> {
        let Some(name) = self.router.as_deref() else {
            return Ok(None);
        };
        let router = RouterPolicy::parse(name)
            .ok_or_else(|| format!("unknown router `{name}` (expected rr|jsq|affinity)"))?;
        Ok(Some(router))
    }

    /// The arrival shape of `--arrival uniform|burst|closed` (default
    /// uniform); `Ok(None)` is the closed loop. A burst is `--burst`
    /// requests, default `--max-batch`.
    ///
    /// # Errors
    ///
    /// Rejects an unknown shape and every pressure flag the shape would
    /// ignore: `--burst` without `--arrival burst`, `--rate` with the
    /// closed loop, and `--concurrency` with an open loop.
    pub(crate) fn arrival_pattern(&self) -> Result<Option<ArrivalPattern>> {
        let pattern = match self.arrival.as_deref().unwrap_or("uniform") {
            "uniform" => Some(ArrivalPattern::Uniform),
            "burst" => Some(ArrivalPattern::Burst {
                size: self.burst.or(self.max_batch).unwrap_or(DEFAULT_MAX_BATCH),
            }),
            "closed" | "closed-loop" => None,
            other => {
                return Err(
                    format!("unknown --arrival `{other}` (expected uniform|burst|closed)").into()
                )
            }
        };
        if self.burst.is_some() && !matches!(pattern, Some(ArrivalPattern::Burst { .. })) {
            return Err("--burst only applies to --arrival burst".into());
        }
        match (pattern, self.rate, self.concurrency) {
            (None, Some(_), _) => Err("--rate only applies to open-loop arrivals \
                                       (closed-loop pressure is --concurrency)"
                .into()),
            (Some(_), _, Some(_)) => Err("--concurrency only applies to --arrival closed \
                                          (open-loop pressure is --rate)"
                .into()),
            _ => Ok(pattern),
        }
    }

    /// `--buffer-kb` in bytes, rounded; `None` when the flag is absent.
    pub(crate) fn buffer_bytes(&self) -> Option<u64> {
        self.buffer_kb.map(|kb| (kb * 1024.0).round() as u64)
    }

    /// Builds the comparison-runner options these flags describe: the
    /// `--fast` profile, the `--seed`, and `--sim-parallelism` applied on
    /// top of the defaults — the shared entry point of the per-figure
    /// binaries.
    ///
    /// # Errors
    ///
    /// Propagates invalid parallelism configuration.
    pub fn runner_options(&self) -> Result<RunnerOptions> {
        let mut opts = if self.fast { RunnerOptions::fast() } else { RunnerOptions::default() };
        opts.traces = opts.traces.with_seed(self.seed);
        if let Some(n) = self.sim_parallelism {
            opts = opts.with_sim_parallelism(n)?;
        }
        Ok(opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Flags {
        Flags::from_args(args.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn positionals_skip_flag_values_that_look_like_actions() {
        let owned = |args: &[&str]| args.iter().map(|s| (*s).to_string()).collect::<Vec<_>>();
        let rest = owned(&["--traces-dir", "build", "info", "--fast"]);
        assert_eq!(positionals(&rest), ["info"], "a --traces-dir value is not the action");
        let rest = owned(&["--bench-out", "serve", "diff", "a.json", "--seed", "3", "b.json"]);
        assert_eq!(positionals(&rest), ["diff", "a.json", "b.json"]);
        assert!(positionals(&owned(&["--fast", "--with-fc"])).is_empty());
        assert!(positionals(&owned(&["--models"])).is_empty(), "a dangling value flag");
    }

    #[test]
    fn default_selects_everything() {
        let f = Flags::default();
        assert!(f.selects("VGG11"));
        assert!(!f.fast);
        assert!(f.sim_parallelism.is_none());
    }

    #[test]
    fn model_filter_is_case_insensitive() {
        let f = Flags { models: Some(vec!["vgg11".into()]), ..Flags::default() };
        assert!(f.selects("VGG11"));
        assert!(!f.selects("ResNet50"));
    }

    #[test]
    fn sim_parallelism_parses_and_rejects_zero() {
        assert_eq!(parse(&["--sim-parallelism", "4"]).sim_parallelism, Some(4));
        assert_eq!(parse(&["--sim-parallelism", "0"]).sim_parallelism, None);
        assert_eq!(parse(&["--sim-parallelism"]).sim_parallelism, None);
        assert_eq!(parse(&["--fast", "--sim-parallelism", "2"]).sim_parallelism, Some(2));
    }

    #[test]
    fn traces_dir_and_with_fc_parse() {
        let f = parse(&["--traces-dir", "/tmp/t", "--with-fc"]);
        assert_eq!(f.traces_dir.as_deref(), Some(std::path::Path::new("/tmp/t")));
        assert!(f.with_fc);
        let f = parse(&["--traces-dir"]); // missing value: ignored
        assert!(f.traces_dir.is_none());
        assert!(!f.with_fc);
    }

    #[test]
    fn serving_flags_parse_and_reject_degenerates() {
        let f = parse(&[
            "--batch-sizes",
            "1,4,16",
            "--max-batch",
            "8",
            "--max-wait-us",
            "25.5",
            "--arrival",
            "burst",
            "--burst",
            "4",
            "--requests",
            "100",
            "--rate",
            "5000",
            "--queue-cap",
            "32",
            "--concurrency",
            "6",
        ]);
        assert_eq!(f.batch_sizes, Some(vec![1, 4, 16]));
        assert_eq!(f.max_batch, Some(8));
        assert_eq!(f.max_wait_us, Some(25.5));
        assert_eq!(f.arrival.as_deref(), Some("burst"));
        assert_eq!(f.burst, Some(4));
        assert_eq!(f.requests, Some(100));
        assert_eq!(f.rate, Some(5000.0));
        assert_eq!(f.queue_cap, Some(32));
        assert_eq!(f.concurrency, Some(6));
        assert_eq!(parse(&["--batch-sizes", "a,b"]).batch_sizes, None);
        assert_eq!(parse(&["--max-batch", "0"]).max_batch, None);
        assert_eq!(parse(&["--rate", "-1"]).rate, None);
        assert_eq!(parse(&["--queue-cap"]).queue_cap, None);

        // 1 MHz: microseconds are cycles; 25.5 rounds up.
        let policy = f.batch_policy(1e6).unwrap();
        assert_eq!((policy.max_batch, policy.max_wait, policy.queue_cap), (8, 26, 32));
        let policy = Flags::default().batch_policy(1e9).unwrap();
        assert_eq!((policy.max_batch, policy.max_wait, policy.queue_cap), (8, 50_000, 256));

        let burst = Flags { concurrency: None, ..f.clone() };
        assert_eq!(burst.arrival_pattern().unwrap(), Some(ArrivalPattern::Burst { size: 4 }));
        assert_eq!(Flags::default().arrival_pattern().unwrap(), Some(ArrivalPattern::Uniform));
        let sized = parse(&["--arrival", "burst", "--max-batch", "3"]).arrival_pattern();
        assert_eq!(sized.unwrap(), Some(ArrivalPattern::Burst { size: 3 }));
        let closed = parse(&["--arrival", "closed", "--concurrency", "6"]).arrival_pattern();
        assert_eq!(closed.unwrap(), None);
        // Unknown shapes and the pressure flags a shape ignores are errors
        // naming the flag.
        for (args, flag) in [
            (&["--arrival", "poisson"][..], "--arrival"),
            (&["--burst", "4"], "--burst"),
            (&["--arrival", "closed", "--burst", "4"], "--burst"),
            (&["--arrival", "closed", "--rate", "1000"], "--rate"),
            (&["--concurrency", "6"], "--concurrency"),
        ] {
            let err = parse(args).arrival_pattern().unwrap_err().to_string();
            assert!(err.contains(flag), "{args:?}: {err}");
        }
        let err = f.arrival_pattern().unwrap_err().to_string();
        assert!(err.contains("--concurrency"), "{err}");
    }

    #[test]
    fn cluster_flags_parse_and_reject_degenerates() {
        let f = parse(&[
            "--instances",
            "4",
            "--router",
            "affinity",
            "--deadline-us",
            "500",
            "--buffer-kb",
            "256.5",
        ]);
        assert_eq!(f.instances, Some(4));
        assert_eq!(f.router.as_deref(), Some("affinity"));
        assert_eq!(f.deadline_us, Some(500.0));
        assert_eq!(f.buffer_kb, Some(256.5));
        assert_eq!(parse(&["--instances", "0"]).instances, None);
        assert_eq!(parse(&["--deadline-us", "-3"]).deadline_us, None);
        assert_eq!(parse(&["--buffer-kb", "0"]).buffer_kb, None);
        assert_eq!(parse(&["--router"]).router, None);

        assert_eq!(f.router_policy().unwrap(), Some(RouterPolicy::ModelAffinity));
        assert_eq!(
            parse(&["--router", "rr"]).router_policy().unwrap(),
            Some(RouterPolicy::RoundRobin)
        );
        assert_eq!(Flags::default().router_policy().unwrap(), None);
        let err = parse(&["--router", "random"]).router_policy().unwrap_err();
        assert!(err.to_string().contains("`random`"), "{err}");
        assert_eq!(f.buffer_bytes(), Some(262_656));
        assert_eq!(Flags::default().buffer_bytes(), None);
    }

    #[test]
    fn bench_out_parses() {
        assert_eq!(
            parse(&["--bench-out", "/tmp/b.json"]).bench_out.as_deref(),
            Some(std::path::Path::new("/tmp/b.json"))
        );
    }

    #[test]
    fn observability_flags_parse() {
        let f = parse(&["--trace-out", "/tmp/t.json", "--metrics-out", "/tmp/m.prom"]);
        assert_eq!(f.trace_out.as_deref(), Some(std::path::Path::new("/tmp/t.json")));
        assert_eq!(f.metrics_out.as_deref(), Some(std::path::Path::new("/tmp/m.prom")));
        let f = parse(&["--trace-out"]); // missing value: ignored
        assert!(f.trace_out.is_none());
        assert!(Flags::default().metrics_out.is_none());
        assert_eq!(parse(&["--window-us", "250.5"]).window_us, Some(250.5));
        assert_eq!(parse(&["--window-us", "0"]).window_us, None);
        assert_eq!(parse(&["--window-us", "-4"]).window_us, None);
        assert_eq!(Flags::default().window_us, None);
    }

    #[test]
    fn fault_flags_accumulate_and_parse_into_a_plan() {
        use se_serve::FaultAction;
        let f = parse(&["--kill", "0@10,1@20", "--restart", "0@50", "--kill", "2@30"]);
        assert_eq!(f.kill, vec!["0@10", "1@20", "2@30"]);
        assert_eq!(f.restart, vec!["0@50"]);
        assert!(f.has_fault_flags());
        assert!(!Flags::default().has_fault_flags());
        // 1 MHz: t_us == cycles, ordered by (at, instance).
        let plan = f.fault_plan(1e6).unwrap();
        let shape: Vec<(u64, usize, FaultAction)> =
            plan.events.iter().map(|e| (e.at, e.instance, e.action)).collect();
        assert_eq!(
            shape,
            vec![
                (10, 0, FaultAction::Kill),
                (20, 1, FaultAction::Kill),
                (30, 2, FaultAction::Kill),
                (50, 0, FaultAction::Restart),
            ]
        );
        assert!(plan.autoscale.is_none());
        // Autoscale thresholds parse and are ordered.
        let auto = parse(&["--autoscale", "8:2"]).fault_plan(1e6).unwrap();
        let policy = auto.autoscale.unwrap();
        assert_eq!((policy.spawn_above, policy.drain_below), (8, 2));
        assert!(auto.events.is_empty());
    }

    #[test]
    fn malformed_fault_specs_error_loudly() {
        for args in [
            &["--kill", "nope"][..],
            &["--kill", "0@-5"],
            &["--kill", "x@10"],
            &["--restart", "1"],
            &["--autoscale", "2"],
            &["--autoscale", "2:2"],
            &["--autoscale", "0:0"],
        ] {
            let err = parse(args).fault_plan(1e9).unwrap_err();
            assert!(
                err.to_string().contains(args[0]),
                "error for {args:?} should name the flag: {err}"
            );
        }
    }

    #[test]
    fn tier_specs_parse_suffixes_and_order() {
        let f = parse(&["--tiers", "buf:64kb:16,dram:4mb:8,ssd:2gb:1"]);
        let tiers = f.tier_specs().unwrap().unwrap();
        assert_eq!(tiers.len(), 3);
        assert_eq!(tiers[0].name, "buf");
        assert_eq!(tiers[0].capacity_bytes, 64 * 1024);
        assert_eq!(tiers[0].bytes_per_cycle, 16.0);
        assert_eq!(tiers[1].capacity_bytes, 4 * 1024 * 1024);
        assert_eq!(tiers[2].name, "ssd");
        assert_eq!(tiers[2].capacity_bytes, 2 * 1024 * 1024 * 1024);
        assert_eq!(tiers[2].bytes_per_cycle, 1.0);
        // Bare numbers are bytes; fractional capacities round.
        let f = parse(&["--tiers", "a:1000:2,b:1.5kb:0.5"]);
        let tiers = f.tier_specs().unwrap().unwrap();
        assert_eq!(tiers[0].capacity_bytes, 1000);
        assert_eq!(tiers[1].capacity_bytes, 1536);
        assert_eq!(tiers[1].bytes_per_cycle, 0.5);
        // Absent flag: None, not an error.
        assert_eq!(Flags::default().tier_specs().unwrap(), None);
    }

    #[test]
    fn malformed_tier_specs_error_loudly() {
        for args in [
            &["--tiers", "buf:64kb:16"][..],           // one tier
            &["--tiers", "buf:64kb"],                  // missing bandwidth
            &["--tiers", "buf:64kb:16:extra,d:1mb:1"], // too many fields
            &["--tiers", ":64kb:16,d:1mb:1"],          // empty name
            &["--tiers", "buf:0:16,d:1mb:1"],          // zero capacity
            &["--tiers", "buf:64xb:16,d:1mb:1"],       // bad suffix
            &["--tiers", "buf:64kb:0,d:1mb:1"],        // zero bandwidth
            &["--tiers", "buf:64kb:nan,d:1mb:1"],      // non-finite bandwidth
        ] {
            let err = parse(args).tier_specs().unwrap_err();
            assert!(err.to_string().contains("--tiers"), "error for {args:?}: {err}");
        }
        let err = parse(&["--tiers", "buf:64kb:16,d:1mb:1", "--buffer-kb", "64"])
            .tier_specs()
            .unwrap_err();
        assert!(err.to_string().contains("--buffer-kb"), "{err}");
    }

    #[test]
    fn runner_options_apply_all_flags() {
        let f = parse(&["--fast", "--seed", "7", "--sim-parallelism", "3"]);
        let opts = f.runner_options().unwrap();
        assert_eq!(opts.se_cfg.row_sample, 4, "--fast samples output rows");
        assert_eq!(opts.traces.base_seed, 7);
        assert_eq!(opts.sim_parallelism, 3);
        let plain = Flags::default().runner_options().unwrap();
        assert_eq!(plain.se_cfg.row_sample, 1);
    }
}
