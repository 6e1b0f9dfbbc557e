#!/usr/bin/env python3
"""Repository benchmark: four `se` workloads, timed end to end and split by layer.

    python3 perfbench/run.py --workload cold --seed 0 --seconds 15 --trace 0

Run from the root of a checkout. The first run builds the release `se`
binary and the traced-run program (`perfbench/layers`) into
`$CARGO_TARGET_DIR` (default `.bench_build`); scratch files go to
`.bench_work`. The last stdout line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.

`--trace 0` builds the workload's inputs several times (`setup_s` is the
median), then repeats the workload's `se` commands one at a time for
`--seconds` and reports the median of each end-to-end metric. `--trace 1`
runs every workload's commands once, untraced, then the traced
in-process program on the same arguments, and reports the per-layer
metrics. Both modes check every command's output (see README.md).

Other modes: `pin --seeds 0-10` records output digests into pins.json,
`self-test` shows that a wrong-seed run is flagged, `spread --workload W`
runs the workload over ten seeds and prints each metric's spread, and
`compare A.json B.json` compares two saved results.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import report  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".bench_work"
PINS = BENCH_DIR / "pins.json"

WORKLOADS = ("cold", "replay", "serve", "observe")
# Set-ups per measured run, at least this many and this long; `setup_s`
# is their median.
SETUP_REPS = 3
SETUP_MIN_S = 1.0

COLD_MODELS = "MobileNetV2,EfficientNet-B0,ResNet164"
SERVE_MODELS = "resnet164,mobilenetv2"
CLUSTER_FLAGS = [
    "--instances", "4", "--router", "jsq", "--deadline-us", "2000",
    "--tiers", "buf:2048kb:16,dram:8mb:4,ssd:1gb:1", "--rate", "8000",
]  # fmt: skip
CLUSTER_RATE = 8000
SERVE_REQUESTS = 150_000
OBSERVE_REQUESTS = 150


def churn(requests):
    """Instance 1 killed at a third of the stream and restarted at two thirds."""
    span_us = requests / CLUSTER_RATE * 1e6
    return ["--kill", f"1@{span_us / 3:.0f}", "--restart", f"1@{2 * span_us / 3:.0f}"]


def trace_build(traces_dir, models, seed):
    return ["trace", "build", "--traces-dir", str(traces_dir), "--fast",
            "--models", models, "--seed", str(seed)]  # fmt: skip


def cluster(traces_dir, requests, seed):
    return ["cluster", "--fast", "--traces-dir", str(traces_dir), "--models", SERVE_MODELS,
            *CLUSTER_FLAGS, "--requests", str(requests), *churn(requests),
            "--seed", str(seed)]  # fmt: skip


def accounting_ok(text):
    """Every lane of a churned `se cluster` conserves its requests."""
    ok = re.findall(r"accounting: .* == \d+ submitted \(ok\)$", text, re.M)
    return len(ok) == 5 and "VIOLATED" not in text


def conservation_ok(text):
    """Every stream `se obs` analyzed folds back to its totals."""
    return text.count("(conservation ok; windows fold to totals)") == 5


class Workload:
    """One workload: input set-up, the measured `se` commands, their checks.

    `wd` is the workload's scratch directory; `inputs` is where its input
    artifacts live (built by `setup_cmds`). Commands are `(name, args,
    check)`; `check(stdout)` is true when the output holds every required
    line. `artifacts()` lists the files the commands write.
    """

    def __init__(self, name, wd, inputs, seed):
        self.name, self.wd, self.inputs, self.seed = name, Path(wd), Path(inputs), seed
        self.out = self.wd / "out"

    def setup_cmds(self):
        if self.name == "replay":
            return [trace_build(self.inputs, COLD_MODELS, self.seed)]
        if self.name in ("serve", "observe"):
            return [trace_build(self.inputs, SERVE_MODELS, self.seed)]
        return []

    def commands(self):
        s = self.seed
        if self.name == "cold":
            return [("trace_build", trace_build(self.out, COLD_MODELS, s),
                     lambda t: "trace artifacts built in" in t)]  # fmt: skip
        if self.name == "replay":
            args = ["compare", "--fast", "--traces-dir", str(self.inputs),
                    "--models", COLD_MODELS, "--seed", str(s)]  # fmt: skip
            return [("compare", args, lambda t: all(f"Fig. 1{k}:" in t for k in "012"))]
        if self.name == "serve":
            return [("cluster", cluster(self.inputs, SERVE_REQUESTS, s), accounting_ok)]
        trace = str(self.out / "trace.json")
        return [
            ("cluster", cluster(self.inputs, OBSERVE_REQUESTS, s) + ["--trace-out", trace],
             accounting_ok),
            ("summarize", ["obs", "summarize", trace], conservation_ok),
            ("attribute", ["obs", "attribute", trace], conservation_ok),
        ]  # fmt: skip

    def artifacts(self):
        return sorted(p for p in self.out.glob("*") if p.suffix in (".setrace", ".json"))

    def layers_args(self):
        """Options of the traced run: it mirrors the first command."""
        if self.name in ("cold", "observe"):
            opts = ["--out", str(self.wd / "layers")]
        else:
            opts = []
        if self.name != "cold":
            opts += ["--cli-stdout", str(self.wd / "layers_stdout.txt")]
        return opts + ["--", *self.commands()[0][1]]


class Proc:
    def __init__(self, wall, cpu, rss_mb, code):
        self.wall, self.cpu, self.rss_mb, self.code = wall, cpu, rss_mb, code


def spawn(argv, stdout_path, env):
    """Runs one process to completion; wall, user+sys CPU and peak RSS."""
    start = time.perf_counter()
    with open(stdout_path, "wb") as out, open(f"{stdout_path}.stderr", "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - start
    return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode)


class Bench:
    """Build, environment and binaries of one checkout."""

    def __init__(self):
        if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
            sys.exit(f"perfbench: {ROOT} is not a checkout of the repository (no Cargo.toml)")
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        self.target = target if target.is_absolute() else ROOT / target
        self.env = dict(os.environ, CARGO_TARGET_DIR=str(self.target))
        self.env["SE_PARALLELISM"] = str(len(os.sched_getaffinity(0)))
        self.se = self.target / "release" / "se"
        self.layers = self.target / "release" / "perfbench-layers"
        WORK.mkdir(exist_ok=True)
        self.pins = json.loads(PINS.read_text()) if PINS.exists() else {}

    def cargo_build(self):
        """Builds both binaries, or confirms they are up to date."""
        log = WORK / "cargo.log"
        for argv in (
            ["cargo", "build", "--release", "--offline", "-p", "se-bench", "--bin", "se"],
            ["cargo", "build", "--release", "--offline",
             "--manifest-path", str(BENCH_DIR / "layers" / "Cargo.toml")],
        ):  # fmt: skip
            if spawn(argv, log, self.env).code != 0:
                sys.exit(f"perfbench: `{' '.join(argv)}` failed; see {log}.stderr")

    def host(self):
        rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True, env=self.env)
        cpu = "unknown"
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        return {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu,
            "rustc": rustc.stdout.strip(),
            "commit": git.stdout.strip() if git.returncode == 0 else source_digest(),
            "se_parallelism": self.env["SE_PARALLELISM"],
        }

    def run_commands(self, w):
        """One repetition of the workload's commands, checked.

        Returns (procs, digests, artifact bytes, problems).
        """
        shutil.rmtree(w.out, ignore_errors=True)
        w.out.mkdir(parents=True)
        procs, digests, problems, written = [], {}, [], 0
        for name, args, check in w.commands():
            stdout = w.wd / f"{name}.stdout"
            proc = spawn([str(self.se), *args], stdout, self.env)
            procs.append(proc)
            raw = stdout.read_bytes()
            written += len(raw)
            text = report.normalize_stdout(raw.decode(errors="replace"), w.wd)
            digests[f"{name}.stdout"] = report.sha256(text.encode())
            if proc.code != 0:
                problems.append(f"{name}: exit code {proc.code}")
            elif not check(text):
                problems.append(f"{name}: required output lines missing")
        for path in w.artifacts():
            data = path.read_bytes()
            written += len(data)
            digests[path.name] = report.sha256(data)
        for item, problem in report.digest_failures(self.pins, w.name, w.seed, digests):
            problems.append(f"{item}: {problem}")
        return procs, digests, written, problems

    def setup(self, w):
        """Confirms the build and builds the workload's inputs; seconds taken."""
        start = time.perf_counter()
        self.cargo_build()
        shutil.rmtree(w.inputs, ignore_errors=True)
        for args in w.setup_cmds():
            proc = spawn([str(self.se), *args], w.wd / "setup.stdout", self.env)
            if proc.code != 0:
                sys.exit(f"perfbench: set-up `se {' '.join(args)}` failed")
        return time.perf_counter() - start


def source_digest():
    """Stands in for the commit id when the checkout is not a git repository."""
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "src", "vendor"):
        files += sorted((ROOT / top).rglob("*.rs")) + sorted((ROOT / top).rglob("Cargo.toml"))
    data = b"".join(str(p.relative_to(ROOT)).encode() + p.read_bytes() for p in files)
    return "source-sha256:" + report.sha256(data)[:16]


def measure(bench, name, seed, seconds):
    """`--trace 0`: end-to-end metrics of one workload."""
    wd = WORK / name
    w = Workload(name, wd, wd / "in", seed)
    wd.mkdir(parents=True, exist_ok=True)
    bench.cargo_build()
    setups = []
    while len(setups) < SETUP_REPS or sum(setups) < SETUP_MIN_S:
        setups.append(bench.setup(w))
    reps, first, attempted, failed = [], None, 0, 0
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < seconds:
        procs, digests, written, problems = bench.run_commands(w)
        first = first or digests
        if digests != first:
            problems.append("output differs from the first repetition")
        attempted += len(procs)
        failed += min(len(problems), len(procs))
        for problem in problems:
            print(f"perfbench: {name} seed {seed}: {problem}", file=sys.stderr)
        reps.append(procs_summary(procs, written))
    summaries = {key: report.summarize([r[key] for r in reps]) for key in reps[0]}
    summaries["setup_s"] = report.summarize(setups)
    for key, s in summaries.items():
        print(f"perfbench: {name} {key}: median {s['median']:.6g}, p95 {s['p95']:.6g}, "
              f"n={s['count']}", file=sys.stderr)  # fmt: skip
    metrics = {key: s["median"] for key, s in summaries.items()}
    return metrics, attempted, failed, {"repetitions": reps, "setups": setups}


def procs_summary(procs, written):
    return {
        "wall_s": sum(p.wall for p in procs),
        "cpu_s": sum(p.cpu for p in procs),
        "peak_rss_mb": max(p.rss_mb for p in procs),
        "artifact_mb": written / 1e6,
    }


def traced(bench, seed):
    """`--trace 1`: every workload untraced once, then its traced run."""
    bench.cargo_build()
    metrics, attempted, failed = {}, 0, 0
    cold_out = WORK / "trace" / "cold" / "out"
    for name in WORKLOADS:
        wd = WORK / "trace" / name
        # Replay reads exactly what the cold workload wrote; observe reads
        # the serve workload's inputs.
        inputs = {"replay": cold_out, "observe": WORK / "trace" / "serve" / "in"}.get(
            name, wd / "in"
        )
        w = Workload(name, wd, inputs, seed)
        wd.mkdir(parents=True, exist_ok=True)
        if name not in ("replay", "observe"):
            bench.setup(w)
        procs, _, _, problems = bench.run_commands(w)
        names = [c[0] for c in w.commands()]
        stdouts = [n for n in names if n != "cluster"] if name == "observe" else names
        (wd / "layers_stdout.txt").write_bytes(
            b"".join((wd / f"{n}.stdout").read_bytes() for n in stdouts)
        )
        out = wd / "layers.json"
        proc = spawn([str(bench.layers), name, *w.layers_args()], out, bench.env)
        if proc.code != 0:
            sys.exit(f"perfbench: traced {name} run failed; see {out}.stderr")
        result = json.loads(out.read_text())
        if result["fidelity"] != "ok":
            problems.append(f"traced run differs from the CLI: {result['fidelity']}")
        for problem in problems:
            print(f"perfbench: {name} seed {seed}: {problem}", file=sys.stderr)
        attempted += len(procs) + 1
        failed += min(len(problems), len(procs) + 1)
        metrics.update(result["metrics"])
        metrics[f"trace.{name}.overhead"] = result["wall_s"] / sum(p.wall for p in procs)
        metrics[f"trace.{name}.coverage"] = result["coverage"]
    return metrics, attempted, failed, {}


def run(args):
    bench = Bench()
    host = bench.host()
    print("host: " + json.dumps(host))
    if args.trace:
        metrics, attempted, failed, samples = traced(bench, args.seed)
        specs = bench.spec["per_layer"]
    else:
        metrics, attempted, failed, samples = measure(bench, args.workload, args.seed, args.seconds)
        specs = bench.spec["end_to_end"]
    line = report.result_line(failed == 0, attempted, failed, metrics, specs)
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    saved = results / f"{args.workload}-seed{args.seed}-trace{int(args.trace)}.json"
    saved.write_text(json.dumps({"host": host, "workload": args.workload, "seed": args.seed,
                                 "result": json.loads(line), "samples": samples}, indent=2))  # fmt: skip
    print(line)


def pin(seeds):
    """Records every workload's output digests for each seed into pins.json."""
    bench = Bench()
    bench.cargo_build()
    bench.pins = {}
    pins = {}
    for name in WORKLOADS:
        for seed in seeds:
            wd = WORK / "pin" / name
            w = Workload(name, wd, wd / "in", seed)
            wd.mkdir(parents=True, exist_ok=True)
            bench.setup(w)
            _, digests, _, problems = bench.run_commands(w)
            if problems:
                sys.exit(f"perfbench: cannot pin {name} seed {seed}: {problems}")
            pins.setdefault(name, {})[str(seed)] = digests
            print(f"pinned {name} seed {seed}", file=sys.stderr)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def self_test():
    """A cold run at seed 1 checked against the seed-0 pins must be flagged."""
    bench = Bench()
    if "0" not in bench.pins.get("cold", {}):
        sys.exit("perfbench: self-test needs pins for cold seed 0 (run `pin` first)")
    bench.cargo_build()
    wd = WORK / "self_test"
    wd.mkdir(parents=True, exist_ok=True)
    bench.pins["cold"]["1"] = bench.pins["cold"]["0"]
    _, _, _, problems = bench.run_commands(Workload("cold", wd, wd / "in", 1))
    if not problems:
        sys.exit("perfbench: self-test FAILED: a seed-1 run passed the seed-0 pins")
    print(f"self-test ok: seed-1 run flagged ({len(problems)} mismatches)")
    return problems


def spread_mode(workload, runs, seconds, trace):
    """Runs this script `runs` times on seeds 1..runs; prints each metric's spread."""
    values = {}
    for seed in range(1, runs + 1):
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace)]  # fmt: skip
        out = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        if out.returncode != 0:
            sys.exit(f"perfbench: run failed:\n{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: INCORRECT ({result['failed']} failed)", file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vs in sorted(values.items()):
        print(f"{name:28s} median {statistics.median(vs):12.6g}  spread {report.spread(vs):.4f}")


def compare(a_path, b_path):
    a, b = (json.loads(Path(p).read_text()) for p in (a_path, b_path))
    diff = report.host_differences(a["host"], b["host"])
    if diff:
        bar = "!" * 72
        print(f"{bar}\nWARNING: results come from different hosts ({', '.join(diff)});"
              f"\nthe figures below are not comparable.\n{bar}")  # fmt: skip
    for name, m in sorted(a["result"]["metrics"].items()):
        other = b["result"]["metrics"].get(name)
        if other is None:
            print(f"{name:40s} {m['value']:14.6g} {'-':>14s}")
            continue
        ratio = other["value"] / m["value"] if m["value"] else float("nan")
        print(f"{name:40s} {m['value']:14.6g} {other['value']:14.6g}  x{ratio:.3f} {m['unit']}")


def main(argv):
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if argv[:1] == ["pin"]:
        p = argparse.ArgumentParser(prog="run.py pin")
        p.add_argument("--seeds", default="0-10")
        lo, _, hi = p.parse_args(argv[1:]).seeds.partition("-")
        return pin(range(int(lo), int(hi or lo) + 1))
    if argv[:1] == ["self-test"]:
        return self_test()
    if argv[:1] == ["compare"] and len(argv) == 3:
        return compare(argv[1], argv[2])
    if argv[:1] == ["spread"]:
        p = argparse.ArgumentParser(prog="run.py spread")
        p.add_argument("--workload", choices=WORKLOADS, required=True)
        p.add_argument("--runs", type=int, default=10)
        p.add_argument("--seconds", type=int, default=run_seconds)
        p.add_argument("--trace", type=int, choices=(0, 1), default=0)
        a = p.parse_args(argv[1:])
        return spread_mode(a.workload, a.runs, a.seconds, a.trace)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=run_seconds)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run(p.parse_args(argv))


if __name__ == "__main__":
    main(sys.argv[1:])
