//! `se trace` — build and inspect persisted trace artifacts.
//!
//! `se trace build --traces-dir DIR [--models a,b] [--seed N] [--with-fc]`
//! compresses each selected benchmark model once and persists its trace
//! pairs (`*.setrace`, format in `docs/TRACE_FORMAT.md`); every subsequent
//! `--traces-dir` subcommand replays the artifacts bit-identically instead
//! of regenerating the decompositions. `se trace info --traces-dir DIR`
//! lists what a directory holds.

use crate::args::Flags;
use crate::{cli, table, Result};
use se_models::artifacts::{self, NETWORK_FILE_EXT};
use se_models::traces::{self, TraceReader, TRACE_FILE_EXT};
use std::io::Write;
use std::path::Path;

/// Dispatches the `trace` subcommand's action (`build` or `info`).
///
/// # Errors
///
/// Fails without a valid action or `--traces-dir`, and propagates build
/// and I/O failures.
pub fn run(rest: &[String], flags: &Flags, out: &mut dyn Write) -> Result<()> {
    // The action is the first positional argument after `trace`, in any
    // position relative to flags.
    match crate::args::positionals(rest).first().copied() {
        Some("build") => build(flags, out),
        Some("info") => info(flags, out),
        other => Err(format!(
            "usage: se trace <build|info> --traces-dir DIR (got {:?}); see docs/CLI.md",
            other.unwrap_or("no action")
        )
        .into()),
    }
}

fn traces_dir(flags: &Flags) -> Result<&Path> {
    flags
        .traces_dir
        .as_deref()
        .ok_or_else(|| "se trace requires --traces-dir DIR (see docs/CLI.md)".into())
}

/// `se trace build`: generates and persists trace artifacts for the
/// selected models under the exact options the figure subcommands use
/// (`--with-fc` additionally covers the Fig. 13(b) all-layers protocol).
fn build(flags: &Flags, out: &mut dyn Write) -> Result<()> {
    let dir = traces_dir(flags)?;
    let mut opts = flags.runner_options()?.traces;
    if flags.with_fc {
        opts = opts.with_fc_layers();
    }
    let models = cli::selected_models(flags);
    if models.is_empty() {
        return Err("no models selected (check --models)".into());
    }
    let mut rows = Vec::new();
    for net in &models {
        se_core::se_info!("  building traces for {} (with_fc={})...", net.name(), flags.with_fc);
        let (path, pairs) = traces::build_trace_file(net, &opts, dir)?;
        rows.push(vec![
            net.name().to_string(),
            pairs.to_string(),
            megabytes(&path)?,
            file_name(&path),
        ]);
    }
    writeln!(out, "trace artifacts built in {}\n", dir.display())?;
    writeln!(out, "{}", table::render(&["model", "pairs", "MB", "file"], &rows))?;
    writeln!(
        out,
        "replay with any trace-consuming subcommand, e.g.\n  \
         se fig10 --traces-dir {} {}",
        dir.display(),
        if flags.fast { "--fast" } else { "" }
    )?;
    Ok(())
}

/// An artifact's size on disk in MB, as the tables print it.
fn megabytes(path: &Path) -> Result<String> {
    Ok(format!("{:.2}", artifacts::artifact_bytes(path)? as f64 / (1024.0 * 1024.0)))
}

/// An artifact's file name, as the tables print it.
fn file_name(path: &Path) -> String {
    path.file_name().and_then(|n| n.to_str()).unwrap_or("?").to_string()
}

/// Artifact paths in `dir` with the given extension, sorted.
fn artifact_paths(dir: &Path, ext: &str) -> Result<Vec<std::path::PathBuf>> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some(ext))
        .collect();
    paths.sort();
    Ok(paths)
}

/// `se trace info`: decodes every artifact in the directory and tabulates
/// its contents — trace-pair sets (`*.setrace`, read a pair at a time) and
/// persisted compressed networks (`*.senet`, written by the
/// table2/table3/postproc subcommands under `--traces-dir`).
fn info(flags: &Flags, out: &mut dyn Write) -> Result<()> {
    let dir = traces_dir(flags)?;
    let paths = artifact_paths(dir, TRACE_FILE_EXT)?;
    writeln!(out, "trace artifacts in {}\n", dir.display())?;
    let mut rows = Vec::new();
    for path in &paths {
        let mut reader = TraceReader::at(path)?;
        let (mut pairs, mut with_fc) = (0usize, false);
        while let Some(pair) = reader.next_pair()? {
            pairs += 1;
            with_fc |= !pair.dense.desc().kind().is_conv_like();
        }
        rows.push(vec![
            reader.net_name().to_string(),
            format!("{:016x}", reader.digest()),
            pairs.to_string(),
            if with_fc { "yes" } else { "no" }.to_string(),
            megabytes(path)?,
            file_name(path),
        ]);
    }
    writeln!(
        out,
        "{}",
        table::render(&["model", "options digest", "pairs", "FC", "MB", "file"], &rows)
    )?;

    let networks = artifact_paths(dir, NETWORK_FILE_EXT)?;
    if !networks.is_empty() {
        writeln!(out, "compressed-network artifacts\n")?;
        let mut rows = Vec::new();
        for path in &networks {
            let net = artifacts::read_network_file(path)?;
            rows.push(vec![
                net.reports.len().to_string(),
                format!("{:.2}", net.compression_rate()),
                megabytes(path)?,
                file_name(path),
            ]);
        }
        writeln!(out, "{}", table::render(&["layers", "CR", "MB", "file"], &rows))?;
    }
    Ok(())
}
