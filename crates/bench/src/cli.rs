//! The unified `se` command-line interface.
//!
//! One binary hosts every experiment as a subcommand (`se fig10`,
//! `se table2`, `se compare`, …), trace artifact management (`se trace
//! build` / `se trace info`), and the serving subsystem (`se batch`,
//! `se serve`), each accepting the [`Flags`] its code reads. The old
//! standalone per-figure binaries went through a deprecation window as
//! forwarding shims and have been removed; the full subcommand and flag
//! reference lives in `docs/CLI.md`.
//!
//! This module also hosts the output boilerplate the per-figure binaries
//! used to duplicate: model selection ([`selected_models`]), the
//! five-accelerator sweep prologue ([`comparison_sweep`]), and the
//! normalized table with its geometric-mean row ([`normalized_view`]).

use crate::args::{self, Flags};
use crate::runner::{self, ModelComparison, ACCEL_NAMES};
use crate::{figures, table, Result};
use se_ir::NetworkDesc;
use se_models::zoo;
use std::io::Write;

/// Subcommand inventory: `(canonical name, aliases, one-line summary)`.
/// Aliases keep the old standalone-binary names working as subcommands.
pub const SUBCOMMANDS: &[(&str, &[&str], &str)] = &[
    ("table1", &[], "Table I: unit energy costs (28 nm) behind the simulators"),
    ("table2", &[], "Table II: compression rate / storage split on the benchmark networks"),
    ("table3", &[], "Table III: compression on the compact models (MBV2, EfficientNet-B0)"),
    ("fig4", &[], "Fig. 4: bit-level activation sparsity with/without Booth encoding"),
    ("fig8", &[], "Fig. 8: accuracy vs model size against pruning/quantization baselines"),
    ("fig9", &[], "Fig. 9: decomposition evolution on one ResNet164 weight matrix"),
    ("fig10", &[], "Fig. 10: normalized energy efficiency of the five accelerators"),
    ("fig11", &[], "Fig. 11: normalized DRAM accesses of the five accelerators"),
    ("fig12", &[], "Fig. 12: normalized speedup of the five accelerators"),
    ("fig13", &[], "Fig. 13: SmartExchange energy breakdown (CONV-only and all layers)"),
    ("fig14", &[], "Fig. 14: ResNet50 energy/latency vs vector-wise weight sparsity"),
    ("fig15", &[], "Fig. 15: MobileNetV2 depth-wise layers with/without the compact design"),
    ("compare", &["accel_comparison", "accel-comparison"], "Figs. 10+11+12 in one sweep"),
    ("ablation", &["ablation_components", "ablation-components"], "Section V-B component ablation"),
    ("postproc", &["post_processing", "post-processing"], "Section III-C post-processing on VGG19"),
    ("trace", &[], "build/inspect persisted trace artifacts (se trace build|info)"),
    ("batch", &[], "batch-size sweep: weight-fetch amortization per image"),
    ("serve", &[], "request-driven batched serving simulation (queue + aggregator)"),
    ("cluster", &[], "sharded multi-instance serving: routing, SLOs, weight residency"),
    ("bench", &[], "wall-clock serving benchmark (se bench serve -> BENCH_serve.json)"),
    ("obs", &[], "trace analytics over --trace-out files (se obs summarize|attribute|diff)"),
];

/// The subcommands whose first positional argument names an action, with
/// their actions (`se trace build`, `se obs diff`, …).
pub(crate) const ACTIONS: &[(&str, &[&str])] = &[
    ("trace", &["build", "info"]),
    ("bench", &["serve", "diff"]),
    ("obs", &["summarize", "attribute", "diff"]),
];

/// Resolves a user-supplied subcommand name (alias-aware) to its canonical
/// name, or `None` for unknown commands.
pub fn canonical(name: &str) -> Option<&'static str> {
    SUBCOMMANDS
        .iter()
        .find(|(canon, aliases, _)| *canon == name || aliases.contains(&name))
        .map(|(canon, _, _)| *canon)
}

/// The `se --help` text.
pub fn usage() -> String {
    let mut s = String::from(
        "se — SmartExchange experiment harness (docs/CLI.md)\n\n\
         USAGE: se <subcommand> [flags]\n\nSUBCOMMANDS:\n",
    );
    for (name, _, about) in SUBCOMMANDS {
        s.push_str(&format!("  {name:<10} {about}\n"));
    }
    s.push_str(&args::help());
    s.push_str(
        "\nENVIRONMENT:\n  \
         SE_PARALLELISM       default worker count for all parallel stages\n  \
         SE_LOG               stderr log level: error|warn|info|debug (default warn)\n",
    );
    s
}

/// Entry point of the `se` binary: dispatches `std::env::args` to a
/// subcommand, writing results to stdout.
///
/// # Errors
///
/// Propagates the subcommand's failure (the binary prints it and exits
/// non-zero).
pub fn main() -> Result<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    run_from_args(&args, &mut std::io::stdout().lock())
}

/// Dispatches an argument list (`[subcommand, flags...]`) to its
/// implementation, writing the experiment output to `out` — the testable
/// core of [`main`].
///
/// # Errors
///
/// Fails on unknown subcommands and propagates subcommand failures.
pub fn run_from_args(args: &[String], out: &mut dyn Write) -> Result<()> {
    match args.first().map(String::as_str) {
        None | Some("help" | "--help" | "-h") => {
            write!(out, "{}", usage())?;
            Ok(())
        }
        Some(cmd) => run_subcommand(cmd, &args[1..], out),
    }
}

/// Runs one subcommand with the given trailing arguments.
///
/// # Errors
///
/// Fails on unknown subcommands, on any argument
/// [`Flags::from_args_checked`] rejects (an unknown flag, or a missing or
/// malformed value, named in the message) and on a flag the subcommand does
/// not read (the flag table's scopes), all before any output, and propagates
/// subcommand failures.
pub fn run_subcommand(name: &str, rest: &[String], out: &mut dyn Write) -> Result<()> {
    let Some(canon) = canonical(name) else {
        return Err(format!("unknown subcommand `{name}`\n\n{}", usage()).into());
    };
    let flags =
        Flags::from_args_checked(rest).map_err(|e| format!("se {name}: {e} (see `se help`)"))?;
    if let Some(command) = scope_name(canon, rest) {
        args::check_scope(&command, rest).map_err(|e| format!("se {command}: {e}"))?;
    }
    match canon {
        "table1" => figures::table1::run(&flags, out),
        "table2" => figures::table2::run(&flags, out),
        "table3" => figures::table3::run(&flags, out),
        "fig4" => figures::fig4::run(&flags, out),
        "fig8" => figures::fig8::run(&flags, out),
        "fig9" => figures::fig9::run(&flags, out),
        "fig10" => figures::fig10::run(&flags, out),
        "fig11" => figures::fig11::run(&flags, out),
        "fig12" => figures::fig12::run(&flags, out),
        "fig13" => figures::fig13::run(&flags, out),
        "fig14" => figures::fig14::run(&flags, out),
        "fig15" => figures::fig15::run(&flags, out),
        "compare" => figures::compare::run(&flags, out),
        "ablation" => figures::ablation::run(&flags, out),
        "postproc" => figures::postproc::run(&flags, out),
        "trace" => figures::trace::run(rest, &flags, out),
        "batch" => figures::batch::run(&flags, out),
        "serve" => figures::serve::run(&flags, out),
        "cluster" => figures::cluster::run(&flags, out),
        "bench" => figures::bench_serve::run(rest, &flags, out),
        "obs" => figures::obs::run(rest, &flags, out),
        _ => unreachable!("canonical() only returns inventory names"),
    }
}

/// What `se <canon> <rest>` runs, as the flag table's scopes name it: the
/// subcommand, or `<subcommand> <action>` for one with [`ACTIONS`].
/// `None` for a missing or unknown action, which the subcommand reports
/// with its usage.
fn scope_name(canon: &str, rest: &[String]) -> Option<String> {
    let Some((_, actions)) = ACTIONS.iter().find(|(name, _)| *name == canon) else {
        return Some(canon.to_string());
    };
    let action = args::positionals(rest).first().copied()?;
    actions.contains(&action).then(|| format!("{canon} {action}"))
}

/// The accelerator-comparison model set (Figs. 10–13) restricted by
/// `--models`.
pub fn selected_models(flags: &Flags) -> Vec<NetworkDesc> {
    zoo::accelerator_benchmark_models().into_iter().filter(|m| flags.selects(m.name())).collect()
}

/// The shared prologue of the five-accelerator figures: runner options
/// from the flags, a progress note on stderr, then the sweep — replaying
/// persisted traces when `--traces-dir` holds matching artifacts.
///
/// # Errors
///
/// Propagates option and sweep failures.
pub fn comparison_sweep(flags: &Flags, models: &[NetworkDesc]) -> Result<Vec<ModelComparison>> {
    let opts = flags.runner_options()?;
    se_core::se_info!("running {} models x 5 accelerators (fast={})...", models.len(), flags.fast);
    runner::compare_models(models, &opts, flags.traces_dir.as_deref())
}

/// Renders the normalized per-model × per-accelerator table every
/// comparison figure prints: one row per model (`n/a` where a design
/// cannot run it), a trailing geometric-mean row, and the shared header.
/// `values` returns the already-normalized series for one model, indexed
/// like [`ACCEL_NAMES`].
pub fn normalized_view(
    comparisons: &[ModelComparison],
    values: impl Fn(&ModelComparison) -> [Option<f64>; 5],
) -> String {
    let mut rows = Vec::new();
    let mut per_accel: Vec<Vec<f64>> = vec![Vec::new(); 5];
    for cmp in comparisons {
        let mut row = vec![cmp.model.clone()];
        for (i, v) in values(cmp).iter().enumerate() {
            match v {
                Some(x) => {
                    per_accel[i].push(*x);
                    row.push(format!("{x:.2}"));
                }
                None => row.push("n/a".to_string()),
            }
        }
        rows.push(row);
    }
    let mut geo_row = vec!["Geomean".to_string()];
    for xs in &per_accel {
        geo_row.push(format!("{:.2}", table::geomean(xs)));
    }
    rows.push(geo_row);
    let headers: Vec<&str> = std::iter::once("model").chain(ACCEL_NAMES).collect();
    table::render(&headers, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_resolves_names_and_aliases() {
        assert_eq!(canonical("fig10"), Some("fig10"));
        assert_eq!(canonical("accel_comparison"), Some("compare"));
        assert_eq!(canonical("post-processing"), Some("postproc"));
        assert_eq!(canonical("nope"), None);
    }

    #[test]
    fn help_lists_every_subcommand() {
        let u = usage();
        for (name, _, _) in SUBCOMMANDS {
            assert!(u.contains(name), "usage must mention {name}");
        }
        assert!(u.contains("--traces-dir"));
        let mut out = Vec::new();
        run_from_args(&[], &mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), usage());
    }

    #[test]
    fn unknown_subcommand_is_an_error() {
        let mut out = Vec::new();
        let err = run_from_args(&["frobnicate".to_string()], &mut out).unwrap_err();
        assert!(err.to_string().contains("frobnicate"));
    }

    #[test]
    fn unknown_flags_are_errors_naming_the_flag() {
        let args = |a: &[&str]| a.iter().map(ToString::to_string).collect::<Vec<_>>();
        let mut out = Vec::new();
        let err = run_from_args(&args(&["fig10", "--model", "resnet164"]), &mut out).unwrap_err();
        assert!(err.to_string().contains("`--model`"), "{err}");
        assert!(out.is_empty(), "nothing runs before the flag check");
        // A flag's value is never mistaken for a flag, and the boolean
        // flags pass.
        let ok =
            Flags::from_args_checked(&args(&["--fast", "--traces-dir", "--not-a-flag"])).unwrap();
        assert!(ok.fast);
        assert_eq!(ok.traces_dir.as_deref(), Some(std::path::Path::new("--not-a-flag")));
        let err = run_from_args(&args(&["table1", "--models", "--not-a-flag"]), &mut out)
            .unwrap_err()
            .to_string();
        assert!(err.contains("`--not-a-flag` for `--models`"), "{err}");
    }

    /// Every value flag, with a value the lenient parser would replace by
    /// its default (`None` where any string is accepted here and checked
    /// by the subcommand that reads it).
    const MALFORMED: &[(&str, Option<&str>)] = &[
        ("--seed", Some("abc")),
        ("--models", Some("resnet5")),
        ("--sim-parallelism", Some("0")),
        ("--traces-dir", None),
        ("--batch-sizes", Some("1,x")),
        ("--max-batch", Some("0")),
        ("--max-wait-us", Some("-1")),
        ("--arrival", None),
        ("--requests", Some("0")),
        ("--rate", Some("-5")),
        ("--burst", Some("0")),
        ("--queue-cap", Some("none")),
        ("--concurrency", Some("0")),
        ("--instances", Some("0")),
        ("--router", None),
        ("--deadline-us", Some("-3")),
        ("--buffer-kb", Some("0")),
        ("--bench-out", None),
        ("--kill", None),
        ("--restart", None),
        ("--autoscale", None),
        ("--tiers", None),
        ("--trace-out", None),
        ("--metrics-out", None),
        ("--window-us", Some("0")),
    ];

    #[test]
    fn malformed_flag_values_are_errors_naming_flag_and_value() {
        let mut listed: Vec<&str> = MALFORMED.iter().map(|(flag, _)| *flag).collect();
        let mut all: Vec<&str> =
            args::flags().filter(|f| f.takes_value()).map(|f| f.name()).collect();
        listed.sort_unstable();
        all.sort_unstable();
        assert_eq!(listed, all, "every value flag has a row");
        let run = |list: &[&str]| {
            let argv: Vec<String> = list.iter().map(ToString::to_string).collect();
            let mut out = Vec::new();
            let res = run_from_args(&argv, &mut out);
            assert!(res.is_ok() || out.is_empty(), "nothing runs before the flag check");
            res
        };
        for &(flag, bad) in MALFORMED {
            let err = run(&["table1", flag]).unwrap_err().to_string();
            assert!(err.contains(&format!("`{flag}` needs a value")), "{err}");
            if let Some(bad) = bad {
                let err = run(&["table1", flag, bad]).unwrap_err().to_string();
                assert!(err.contains(&format!("`{bad}` for `{flag}`")), "{err}");
            }
        }
        // Model names match any zoo model, ignoring case.
        let models = ["--models", "resnet164,MOBILENETV2, mlp-1"].map(String::from);
        Flags::from_args_checked(&models).unwrap();
        let err = run(&["table1", "--models", "vgg11,"]).unwrap_err().to_string();
        assert!(err.contains("--models"), "{err}");
    }

    /// A well-formed value for every value flag.
    const WELL_FORMED: &[(&str, &str)] = &[
        ("--seed", "3"),
        ("--models", "resnet164"),
        ("--sim-parallelism", "2"),
        ("--traces-dir", "traces"),
        ("--batch-sizes", "1,4"),
        ("--max-batch", "4"),
        ("--max-wait-us", "10"),
        ("--arrival", "burst"),
        ("--requests", "8"),
        ("--rate", "1000"),
        ("--burst", "2"),
        ("--queue-cap", "16"),
        ("--concurrency", "2"),
        ("--instances", "2"),
        ("--router", "rr"),
        ("--deadline-us", "50"),
        ("--buffer-kb", "64"),
        ("--bench-out", "bench.json"),
        ("--kill", "1@5"),
        ("--restart", "1@9"),
        ("--autoscale", "2:1"),
        ("--tiers", "buf:64kb:16,dram:1mb:4"),
        ("--trace-out", "trace.json"),
        ("--metrics-out", "metrics.prom"),
        ("--window-us", "100"),
    ];

    #[test]
    fn every_flag_is_accepted_in_its_scope_and_refused_outside_it() {
        let commands: Vec<String> = SUBCOMMANDS
            .iter()
            .flat_map(|(name, ..)| match ACTIONS.iter().find(|(sub, _)| sub == name) {
                Some((_, actions)) => actions.iter().map(|a| format!("{name} {a}")).collect(),
                None => vec![name.to_string()],
            })
            .collect();
        assert_eq!(commands.len(), 25);
        let mut accepted = 0;
        for flag in args::flags() {
            let readers: Vec<&str> = flag.scope.split(", ").collect();
            for reader in &readers {
                assert!(
                    commands.iter().any(|c| c == reader),
                    "{}: unknown {reader:?}",
                    flag.name()
                );
            }
            let listed: Vec<String> = readers.iter().map(|r| format!("se {r}")).collect();
            let expected = match &listed[..] {
                [only] => format!("{} applies to {only} only", flag.name()),
                many => format!("{} applies to {}", flag.name(), many.join(", ")),
            };
            for command in &commands {
                let mut argv: Vec<String> = command.split(' ').map(String::from).collect();
                argv.push(flag.name().to_string());
                if flag.takes_value() {
                    let value = WELL_FORMED.iter().find(|(name, _)| *name == flag.name());
                    argv.push(value.expect("every value flag has a value").1.to_string());
                }
                if readers.contains(&command.as_str()) {
                    accepted += 1;
                    let rest = &argv[command.split(' ').count()..];
                    args::check_scope(command, rest).unwrap();
                } else {
                    let mut out = Vec::new();
                    let err = run_from_args(&argv, &mut out).unwrap_err().to_string();
                    assert!(out.is_empty(), "se {argv:?} wrote before failing");
                    assert!(err.ends_with(&expected), "se {argv:?}: {err}");
                }
            }
        }
        // Before the table, 637 of these 675 pairs were accepted.
        assert_eq!(accepted, 121, "accepted (subcommand or action, flag) pairs");
    }

    #[test]
    fn table1_runs_through_the_dispatcher() {
        let mut out = Vec::new();
        run_from_args(&["table1".to_string()], &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Table I"));
        assert!(text.contains("DRAM"));
    }
}
