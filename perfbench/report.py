"""Pure helpers of the benchmark harness (run.py): digests, statistics, result checks.

Everything here is free of subprocesses and timing so that
`perfbench/tests` can exercise it directly.
"""

import hashlib
import json
import math
import statistics


def normalize_stdout(text, work_dir):
    """Replaces the workload's scratch directory with `<WORK>`.

    The CLI echoes the paths it was given, which differ between checkouts;
    everything else it prints is a pure function of (seed, flags).
    """
    return text.replace(str(work_dir), "<WORK>")


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def digest_failures(pins, workload, seed, digests):
    """Items whose digest differs from the pin for (workload, seed).

    Returns a list of `(item, problem)`; empty when the seed has no pin
    (the run-to-run identity check still applies to it).
    """
    pinned = pins.get(workload, {}).get(str(seed))
    if pinned is None:
        return []
    problems = []
    for item in sorted(set(pinned) | set(digests)):
        want, got = pinned.get(item), digests.get(item)
        if want is None:
            problems.append((item, "not pinned"))
        elif got is None:
            problems.append((item, "missing"))
        elif want != got:
            problems.append((item, f"digest {got[:12]} != pinned {want[:12]}"))
    return problems


def percentile(values, p):
    """Nearest-rank percentile (`p` in 0..100) of a non-empty sequence."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def summarize(values):
    """Median, p95 and sample count of one metric's per-repetition values."""
    return {
        "median": statistics.median(values),
        "p95": percentile(values, 95),
        "count": len(values),
    }


def spread(values):
    """Interquartile distance as a share of the median (`statistics.quantiles`)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def check_metric_names(metrics, expected, kind):
    """Fails loudly unless `metrics` names exactly the `expected` metrics."""
    got, want = set(metrics), set(expected)
    missing, extra = sorted(want - got), sorted(got - want)
    if missing or extra:
        raise ValueError(
            f"{kind} metrics do not match BENCHMARK.json: missing {missing}, extra {extra}"
        )
    for name, value in metrics.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError(f"{kind} metric {name} is not a finite number: {value!r}")


def result_line(correct, attempted, failed, metrics, specs):
    """The final stdout line: one JSON object in the benchmark's schema.

    `specs` are the BENCHMARK.json entries of the reported kind, giving
    each metric's unit.
    """
    check_metric_names(metrics, [s["name"] for s in specs], "reported")
    units = {s["name"]: s["unit"] for s in specs}
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": metrics[name], "unit": units[name]} for name in sorted(metrics)
            },
        }
    )


# Fields that identify the machine and toolchain. The commit is recorded
# with every result too, but comparing two commits is the point of a run.
HOST_KEYS = ("nproc", "cpu_model", "rustc", "se_parallelism")


def host_differences(a, b):
    """Host fields on which two results' host records disagree."""
    return [k for k in HOST_KEYS if a.get(k) != b.get(k)]
