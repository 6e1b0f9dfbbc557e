//! Minimal CLI-flag reading for the experiment binaries: one table declares
//! every flag's [`Flags`] field, parser, `se help` entry and scope.

use crate::runner::RunnerOptions;
use crate::Result;
use se_serve::{ArrivalPattern, BatchPolicy, RouterPolicy};

/// `--max-batch` when absent: also the default `--burst` size.
const DEFAULT_MAX_BATCH: usize = 8;

/// What a flag's parser returns: `Ok` once a well-formed value is stored
/// in its field, else any detail to append to
/// ``invalid value `V` for `--flag` ``.
type Parsed = std::result::Result<(), String>;

/// One `se` flag, a row of the table below.
pub(crate) struct Flag {
    /// `--name` for a switch, `--name METAVAR` for a flag that takes a
    /// value, as `se help` prints it.
    usage: &'static str,
    /// The `se help` description, one entry per printed line.
    help: &'static [&'static str],
    /// Every subcommand that reads the flag, comma-separated: a name of
    /// [`crate::cli::SUBCOMMANDS`], or `<subcommand> <action>` for one with
    /// [`crate::cli::ACTIONS`] (`trace build`). Anywhere else the flag is
    /// an error.
    pub(crate) scope: &'static str,
    parse: fn(&mut Flags, &str) -> Parsed,
}

impl Flag {
    /// The flag, `--name`.
    pub(crate) fn name(&self) -> &'static str {
        self.usage.split_once(' ').map_or(self.usage, |(name, _)| name)
    }

    /// Whether the flag consumes the next argument as its value.
    pub(crate) fn takes_value(&self) -> bool {
        self.usage.contains(' ')
    }

    /// The scope names of the subcommands that read the flag.
    fn readers(&self) -> impl Iterator<Item = &'static str> {
        self.scope.split(", ")
    }
}

/// Declares [`Flags`] and [`FLAG_GROUPS`] from one table of rows
/// `field: Type = "--name METAVAR" parser ["help line", …] in scope;`
/// under their `se help` headings, so each flag is spelled once.
macro_rules! flag_table {
    ($(
        $heading:literal {
            $(
                $(#[$doc:meta])*
                $field:ident: $ty:ty = $usage:literal $parse:ident
                    [$($help:literal),+] in $scope:literal;
            )*
        }
    )*) => {
        /// Parsed common flags.
        #[derive(Debug, Clone, PartialEq, Default)]
        pub struct Flags {
            $($(#[doc = concat!("`", $usage, "`:")] $(#[$doc])* pub $field: $ty,)*)*
        }

        /// Every flag `se` knows, grouped under its `se help` heading. A
        /// flag's scope lists exactly the subcommands whose code reads its
        /// field, directly or through a [`Flags`] helper.
        const FLAG_GROUPS: &[(&str, &[Flag])] = &[$(($heading, &[$(Flag {
            usage: $usage,
            help: &[$($help),+],
            scope: $scope,
            parse: |flags, value| $parse(&mut flags.$field, value),
        },)*]),)*];
    };
}

flag_table! {
    "COMMON FLAGS" {
        /// sample output rows and cut decomposition iterations so the
        /// ImageNet-scale sweeps finish quickly (shapes are preserved; absolute
        /// numbers move by a few percent).
        fast: bool = "--fast" switch ["sampled output rows + fewer decomposition iterations"]
            in "table2, table3, fig8, fig10, fig11, fig12, fig13, fig14, compare, ablation, \
                postproc, trace build, batch, serve, cluster, bench serve";
        /// base seed for synthetic weights/activations.
        seed: u64 = "--seed N" seed ["base seed for synthetic weights/activations (default 0)"]
            in "table2, table3, fig4, fig8, fig10, fig11, fig12, fig13, fig14, fig15, compare, \
                ablation, postproc, trace build, batch, serve, cluster, bench serve";
        /// restrict to a subset of model names.
        models: Option<Vec<String>> = "--models a,b,c" models
            ["restrict to a subset of model names"]
            in "table2, table3, fig4, fig10, fig11, fig12, fig13, compare, trace build, batch, \
                serve, cluster, bench serve";
        /// worker threads for the `(layer, accelerator)`
        /// simulation grid (see `se_bench::runner`) and for `se cluster`'s
        /// five lanes (one job per lane). Results are bit-identical
        /// for every value; absent means the default (the `SE_PARALLELISM`
        /// environment variable, else all cores).
        sim_parallelism: Option<usize> = "--sim-parallelism N" count
            ["worker threads for the simulation grid (bit-identical)"]
            in "fig10, fig11, fig12, fig13, compare, ablation, trace build, batch, serve, \
                cluster, bench serve";
        /// directory of persisted trace artifacts
        /// (`*.setrace`, built by `se trace build`). Subcommands that consume
        /// traces replay matching artifacts from here instead of regenerating
        /// the decompositions; cached and direct runs are bit-identical. A
        /// missing artifact silently falls back to direct generation.
        traces_dir: Option<std::path::PathBuf> = "--traces-dir DIR" text
            ["directory of persisted trace/compression artifacts"]
            in "table2, table3, fig10, fig11, fig12, fig13, fig15, compare, ablation, postproc, \
                trace build, trace info, batch, serve, cluster, bench serve";
        /// include FC layers in the generated traces (the
        /// Fig. 13(b) protocol) — consumed by `se trace build`.
        with_fc: bool = "--with-fc" switch ["include FC layers in the generated traces"]
            in "trace build";
    }
    "SERVING FLAGS" {
        /// batch sizes swept by `se batch`.
        batch_sizes: Option<Vec<usize>> = "--batch-sizes 1,4,16" counts
            ["batch sizes to sweep"] in "batch";
        /// maximum images per batch for the serving aggregator.
        max_batch: Option<usize> = "--max-batch N" count
            ["aggregator batch-size cap (default 8)"] in "serve, cluster, bench serve";
        /// maximum microseconds the oldest queued request
        /// waits before the serving aggregator closes the batch short.
        max_wait_us: Option<f64> = "--max-wait-us F" non_negative
            ["aggregator max wait for the oldest request (default 50)"]
            in "serve, cluster, bench serve";
        /// the workload shape, `uniform`, `burst` or `closed`.
        arrival: Option<String> = "--arrival KIND" text
            ["uniform | burst | closed (default uniform)"] in "serve, cluster";
        /// total requests issued by the serving workload.
        requests: Option<usize> = "--requests N" count
            ["total requests in the workload (default 256)"] in "serve, cluster, bench serve";
        /// open-loop arrival rate in requests per second (default:
        /// derived from the model's single-image service rate).
        rate: Option<f64> = "--rate F" positive
            ["open-loop arrival rate in req/s (default: 1.5x service rate)"]
            in "serve, cluster, bench serve";
        /// requests per burst for `--arrival burst`.
        burst: Option<usize> = "--burst N" count
            ["requests per burst for --arrival burst"] in "serve, cluster";
        /// bounded request-queue capacity of the serving front.
        queue_cap: Option<usize> = "--queue-cap N" count
            ["bounded request-queue capacity (default 256)"] in "serve, cluster, bench serve";
        /// closed-loop clients for `--arrival closed`.
        concurrency: Option<usize> = "--concurrency N" count
            ["clients for --arrival closed (default 2x max batch)"] in "serve, cluster";
        /// per-request deadline in microseconds (`se serve`
        /// reports misses against it; `se cluster` schedules EDF with it).
        /// Absent = best effort.
        deadline_us: Option<f64> = "--deadline-us F" positive
            ["per-request deadline; misses are reported"]
            in "serve, cluster, bench serve";
        /// write the run's virtual-time scheduling trace
        /// as Chrome-trace/Perfetto `traceEvents` JSON (`se serve`,
        /// `se cluster`, `se bench serve`). The file is byte-identical across
        /// `--sim-parallelism` values.
        trace_out: Option<std::path::PathBuf> = "--trace-out FILE" text
            ["write a Chrome-trace/Perfetto JSON of the run"] in "serve, cluster, bench serve";
        /// write the run's folded counters, gauges, and
        /// latency histograms as Prometheus-style text exposition.
        metrics_out: Option<std::path::PathBuf> = "--metrics-out FILE" text
            ["write Prometheus-style text metrics of the run"] in "serve, cluster, bench serve";
    }
    "CLUSTER FLAGS" {
        /// accelerator instances behind the cluster's shared front.
        instances: Option<usize> = "--instances N" count
            ["accelerator instances behind the shared front (default 4)"] in "cluster, bench serve";
        /// the routing policy, `rr`, `jsq` or `affinity`.
        router: Option<String> = "--router KIND" text
            ["rr | jsq | affinity routing policy (default jsq)"] in "cluster, bench serve";
        /// per-instance weight-buffer capacity in KB for
        /// the cluster's residency model. Absent = residency modeling off
        /// (weights streamed per batch).
        buffer_kb: Option<f64> = "--buffer-kb F" positive
            ["per-instance weight buffer; enables residency modeling"] in "cluster, bench serve";
        /// per-instance tiered weight store, comma-separated
        /// `name:CAP:BW` triples, top tier first (e.g.
        /// `buf:64kb:16,dram:4mb:8,ssd:2gb:1`). Capacities take `kb`/`mb`/
        /// `gb` suffixes (plain numbers are bytes), bandwidths are bytes per
        /// cycle. Raw string here; parsed and validated loudly by
        /// [`Flags::tier_specs`]. Mutually exclusive with `--buffer-kb`.
        tiers: Option<String> = "--tiers SPECS" text
            ["tiered weight store, top tier first (replaces --buffer-kb):",
             "name:CAP:BW triples, e.g. buf:64kb:16,dram:4mb:8,ssd:2gb:1"]
            in "cluster, bench serve";
        /// scripted instance kills for `se cluster`
        /// (repeatable; comma-separated specs). Raw specs, parsed and
        /// validated by [`Flags::fault_plan`].
        kill: Vec<String> = "--kill i@t_us" specs
            ["kill instance i at t microseconds (repeatable; in-flight",
             "requests re-route with original arrival/deadline)"] in "cluster";
        /// scripted instance restarts for `se cluster`
        /// (repeatable; comma-separated specs). A restarted instance rejoins
        /// with an empty queue and a cold weight buffer.
        restart: Vec<String> = "--restart i@t_us" specs
            ["restart a killed instance (empty queue, cold weight store)"] in "cluster";
        /// queue-depth autoscaling thresholds for
        /// `se cluster` (spawn above `hi` waiting requests per accepting
        /// instance, drain below `lo`).
        autoscale: Option<String> = "--autoscale hi:lo" text
            ["spawn above hi waiting/instance, drain below lo"] in "cluster";
    }
    "BENCH FLAGS" {
        /// where `se bench serve` writes its
        /// machine-readable JSON report (default `BENCH_serve.json`).
        bench_out: Option<std::path::PathBuf> = "--bench-out FILE" text
            ["machine-readable report path (default BENCH_serve.json)"] in "bench serve";
    }
    "OBS FLAGS" {
        /// analysis window width in microseconds for
        /// `se obs` (default 200). Converted to cycles at the accelerator
        /// frequency; every windowed aggregate covers `[k·W, (k+1)·W)`.
        window_us: Option<f64> = "--window-us F" positive
            ["analysis window width in microseconds (default 200)"]
            in "obs summarize, obs attribute, obs diff";
    }
}

/// `Ok` for a well-formed value, else an error with no detail.
fn well_formed(ok: bool) -> Parsed {
    ok.then_some(()).ok_or_else(String::new)
}

/// Stores `parsed`; fails when there was no well-formed value to store.
fn set<T>(field: &mut Option<T>, parsed: Option<T>) -> Parsed {
    *field = parsed;
    well_formed(field.is_some())
}

/// A count: an integer of at least 1.
fn at_least_one(value: &str) -> Option<usize> {
    value.parse().ok().filter(|&n| n >= 1)
}

/// The trimmed entries of a comma-separated list.
fn entries(value: &str) -> impl Iterator<Item = &str> {
    value.split(',').map(str::trim)
}

fn switch(field: &mut bool, _: &str) -> Parsed {
    *field = true;
    Ok(())
}

fn seed(field: &mut u64, value: &str) -> Parsed {
    let seed = value.parse().ok();
    *field = seed.unwrap_or(0);
    well_formed(seed.is_some())
}

/// Stores the list; fails unless every entry names a model of
/// [`se_models::zoo::all_models`], ignoring case.
fn models(field: &mut Option<Vec<String>>, value: &str) -> Parsed {
    *field = Some(entries(value).map(String::from).collect());
    let names: Vec<String> =
        se_models::zoo::all_models().iter().map(|m| m.name().to_string()).collect();
    match entries(value).find(|m| !names.iter().any(|n| n.eq_ignore_ascii_case(m))) {
        None => Ok(()),
        Some(m) => Err(format!(": `{m}` matches no models (known: {})", names.join(", "))),
    }
}

fn count(field: &mut Option<usize>, value: &str) -> Parsed {
    set(field, at_least_one(value))
}

/// Keeps the well-formed sizes, failing if any is malformed.
fn counts(field: &mut Option<Vec<usize>>, value: &str) -> Parsed {
    let sizes: Vec<Option<usize>> = entries(value).map(at_least_one).collect();
    let valid: Vec<usize> = sizes.iter().flatten().copied().collect();
    set(field, Some(valid).filter(|v| !v.is_empty()))?;
    well_formed(sizes.iter().all(Option::is_some))
}

fn non_negative(field: &mut Option<f64>, value: &str) -> Parsed {
    set(field, value.parse().ok().filter(|&x: &f64| x >= 0.0))
}

fn positive(field: &mut Option<f64>, value: &str) -> Parsed {
    set(field, value.parse().ok().filter(|&x: &f64| x > 0.0))
}

/// Any string; the subcommand that reads it checks it.
fn text<T: for<'a> From<&'a str>>(field: &mut Option<T>, value: &str) -> Parsed {
    set(field, Some(value.into()))
}

/// Kill/restart specs accumulate across repeats and commas; they stay raw
/// strings here and are parsed loudly by [`Flags::fault_plan`] (a
/// malformed spec must error, not vanish).
fn specs(field: &mut Vec<String>, value: &str) -> Parsed {
    field.extend(entries(value).map(String::from));
    Ok(())
}

/// Every flag, in `se help` order.
pub(crate) fn flags() -> impl Iterator<Item = &'static Flag> {
    FLAG_GROUPS.iter().flat_map(|(_, group)| group.iter())
}

/// Where `se help` starts a flag's description: after two spaces and its
/// `--name METAVAR` padded to 20 columns and a space.
const HELP_COLUMN: usize = 23;

/// The width `se help` wraps a flag's reader list to.
const HELP_WIDTH: usize = 80;

/// The flag block of `se help`: each group's heading, then one line per
/// flag (`--name METAVAR` and its help), its further help lines and the
/// subcommands that read it, under the description column.
pub(crate) fn help() -> String {
    let mut s = String::new();
    for (heading, group) in FLAG_GROUPS {
        s.push_str(&format!("\n{heading}:\n"));
        for flag in *group {
            let (first, more) = flag.help.split_first().expect("every flag has help");
            s.push_str(&format!("  {:<20} {first}\n", flag.usage));
            for line in more {
                s.push_str(&format!("{:HELP_COLUMN$}{line}\n", ""));
            }
            s.push_str(&reader_lines(flag));
        }
    }
    s
}

/// `read by: ` and the flag's scope, comma-separated and wrapped at
/// [`HELP_WIDTH`], each further line under the first reader.
fn reader_lines(flag: &Flag) -> String {
    const LEAD: &str = "read by: ";
    let indent = HELP_COLUMN + LEAD.len();
    let mut lines = format!("{:HELP_COLUMN$}{LEAD}", "");
    let mut width = indent;
    let mut readers = flag.readers().peekable();
    while let Some(reader) = readers.next() {
        let item = if readers.peek().is_some() { format!("{reader},") } else { reader.into() };
        if width > indent && width + 1 + item.len() > HELP_WIDTH {
            lines.push_str(&format!("\n{:indent$}", ""));
            width = indent;
        } else if width > indent {
            lines.push(' ');
            width += 1;
        }
        lines.push_str(&item);
        width += item.len();
    }
    lines.push('\n');
    lines
}

/// One argument of a subcommand's list, as the flag table reads it.
enum Arg<'a> {
    /// A flag with its value: empty for a switch, `None` when the list
    /// ends before a value flag's value.
    Flag(&'static Flag, Option<&'a str>),
    /// Anything else: a positional, or an unknown `--` flag.
    Other(&'a str),
}

/// Reads `rest` against the flag table. A value flag takes the next
/// argument, whatever it looks like; nothing else takes a value.
fn walk(rest: &[String]) -> impl Iterator<Item = Arg<'_>> {
    let mut iter = rest.iter();
    std::iter::from_fn(move || {
        let arg = iter.next()?;
        Some(match flags().find(|f| f.name() == arg) {
            Some(flag) if flag.takes_value() => Arg::Flag(flag, iter.next().map(String::as_str)),
            Some(flag) => Arg::Flag(flag, Some("")),
            None => Arg::Other(arg),
        })
    })
}

/// The positional arguments of a subcommand's `rest`, in order: every
/// argument that is neither a `--` flag nor a flag's value. So
/// `se trace --traces-dir d build` finds `build`, and
/// `se bench --bench-out serve diff a b` never mistakes the output path
/// for the action.
pub fn positionals(rest: &[String]) -> Vec<&str> {
    walk(rest)
        .filter_map(|arg| match arg {
            Arg::Other(arg) if !arg.starts_with("--") => Some(arg),
            _ => None,
        })
        .collect()
}

/// Fails naming the first flag of `rest` that `command` (a scope name: a
/// subcommand, or `<subcommand> <action>`) does not read, and the
/// subcommands that do.
///
/// # Errors
///
/// The first out-of-scope flag, as a message.
pub(crate) fn check_scope(command: &str, rest: &[String]) -> std::result::Result<(), String> {
    for arg in walk(rest) {
        let Arg::Flag(flag, _) = arg else { continue };
        if !flag.readers().any(|reader| reader == command) {
            let readers: Vec<String> = flag.readers().map(|r| format!("se {r}")).collect();
            return Err(match &readers[..] {
                [only] => format!("{} applies to {only} only", flag.name()),
                many => format!("{} applies to {}", flag.name(), many.join(", ")),
            });
        }
    }
    Ok(())
}

impl Flags {
    /// Parses flags from an argument list. Lenient: unknown arguments and a
    /// value flag without its value are ignored, and a malformed value
    /// leaves its field at the default. The `se` binary parses with
    /// [`Flags::from_args_checked`] instead.
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Flags {
        let args: Vec<String> = args.into_iter().collect();
        let mut flags = Flags::default();
        for arg in walk(&args) {
            if let Arg::Flag(flag, Some(value)) = arg {
                // A malformed value leaves its field at the default.
                let _ = (flag.parse)(&mut flags, value);
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
        for arg in walk(args) {
            match arg {
                Arg::Flag(flag, None) => {
                    return Err(format!("flag `{}` needs a value", flag.name()))
                }
                Arg::Flag(flag, Some(value)) => {
                    (flag.parse)(&mut flags, value).map_err(|detail| {
                        format!("invalid value `{value}` for `{}`{detail}", flag.name())
                    })?
                }
                Arg::Other(arg) if arg.starts_with("--") => {
                    return Err(format!("unknown flag `{arg}`"))
                }
                Arg::Other(_) => {}
            }
        }
        Ok(flags)
    }

    /// Whether `name` is selected by `--models` (everything is when the
    /// flag is absent).
    pub fn selects(&self, name: &str) -> bool {
        match &self.models {
            None => true,
            Some(list) => list.iter().any(|m| m.eq_ignore_ascii_case(name)),
        }
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
    /// bandwidths, fewer than two tiers (`--buffer-kb` is the two-tier
    /// stack of its buffer over the lane's DRAM), and combining `--tiers`
    /// with `--buffer-kb`.
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
            return Err("--tiers needs at least two tiers (top buffer + a backing tier); \
                        --buffer-kb is the two-tier stack of that buffer over the lane's DRAM"
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
    fn help_names_each_flags_readers_from_its_scope() {
        let help = help();
        let indent = " ".repeat(HELP_COLUMN + "read by: ".len());
        let lists: Vec<String> = help
            .split("read by: ")
            .skip(1)
            .map(|rest| {
                let mut lines = rest.lines();
                let first = lines.next().unwrap_or_default();
                let list: Vec<&str> = std::iter::once(first)
                    .chain(lines.take_while(|line| line.starts_with(&indent)))
                    .flat_map(str::split_whitespace)
                    .collect();
                list.join(" ")
            })
            .collect();
        let scopes: Vec<String> = flags()
            .map(|flag| flag.scope.split_whitespace().collect::<Vec<_>>().join(" "))
            .collect();
        assert_eq!(lists, scopes);
        let reader_line =
            |line: &&str| line.starts_with(&indent) || line.trim_start().starts_with("read by: ");
        for line in help.lines().filter(reader_line) {
            assert!(line.len() <= HELP_WIDTH, "{line}");
        }
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
