"""Cold-process benchmark of the gue-gap-lab CLI.

Usage:
  python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]

NAME is one of the workloads below or ``all``.  Every sample is a fresh
interpreter (bench/child.py) that imports the package from ./src and calls
``gue_gap_lab.cli.main(argv)`` once with --jobs 1, so no process-global
cache (Gauss-Legendre rules, constants) survives from one sample to the
next.  An untimed import-only child first warms the bytecode and file
caches; then samples repeat until the next one would overrun --seconds.

--trace 0 reports the end-to-end metrics: wall_s, the mean over the
samples (wall time per command); the median over the samples of
peak_rss_mb; and the median of setup_s over the samples plus one
import-only child after each sample, so that set-up is measured across
the whole run.  --trace 1 alternates untraced and traced samples
(at least one of each) and reports the per-layer metrics from
bench/spans.py, plus bench.trace_overhead_s.

Every sample's output is checked: table rows must have status ok and agree
with an independent mpmath oracle on their first rows, verify must exit 0
with every check passing and the expected check count, all samples of a run
must produce the same digest, and at the default seed the digest must equal
the one in bench/reference.json.  The last line of standard output is one
JSON object with keys correct, attempted, failed and metrics; the exit code
is nonzero when the run is not correct.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD = BENCH_DIR / "child.py"
REFERENCE = BENCH_DIR / "reference.json"

DEFAULT_SEED = 0
TABLE_DIGITS = "30"
ORACLE_ROWS = 4
ORACLE_REL_TOL = 1e-27
RUN_LIMIT_S = 160.0

# a fixed hash seed, so set and dict orders are the same in every sample
CHILD_ENV = {**os.environ, "PYTHONHASHSEED": "0"}

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
OUTPUT_COUNTS = {"report.checks": "count", "report.checks_failed": "count", "cli.cells": "count"}


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple[str, ...]
    n_max: int
    band: tuple[str, str]
    default_a: tuple[str, ...]
    smoke_n_max: int

    def a_values(self, seed: int, smoke: bool = False) -> tuple[str, ...]:
        """The default values at the default seed; otherwise one value with at
        most 3 decimals drawn from each of len(default_a) equal strata of the
        band, so every seed spreads its cells across the whole band."""
        if seed == DEFAULT_SEED:
            values = self.default_a
        else:
            rng = random.Random(seed)
            lo, hi = (round(float(x) * 1000) for x in self.band)
            k = len(self.default_a)
            edges = [lo + (hi - lo) * i // k for i in range(k + 1)]
            values = tuple(
                _milli(rng.randrange(edges[i], edges[i + 1] + (i == k - 1)))
                for i in range(k)
            )
        return values[:1] if smoke else values

    def argv(self, seed: int, smoke: bool = False) -> list[str]:
        n_max = self.smoke_n_max if smoke else self.n_max
        args = [*self.command, "--n-max", str(n_max),
                "--a-list", ",".join(self.a_values(seed, smoke)), "--jobs", "1"]
        if self.command[0] == "table":
            args += ["--digits", TABLE_DIGITS]
        return args


def _milli(m: int) -> str:
    return f"{m // 1000}.{m % 1000:03d}"


# Why each workload exists is in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-cell", ("verify", "--suite", "all"), 3, ("0.3", "1.2"),
                 ("0.7", "1.1"), 2),
        Workload("table-wide-gap", ("table",), 2, ("1.5", "3"),
                 tuple(_milli(1500 + 200 * i) for i in range(8)), 2),
        Workload("table-high-n", ("table",), 60, ("0.2", "1.2"),
                 ("0.25", "0.5", "0.75", "1"), 10),
    )
}


# ---------------------------------------------------------------------------
# samples


def run_child(argv: list[str], trace: bool, timeout: float) -> dict:
    """Run one cold sample; the report gains 'ok' and, on failure, 'error'."""
    start_ns = time.monotonic_ns()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), str(start_ns), "1" if trace else "0", "--", *argv],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout, env=CHILD_ENV,
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"sample exceeded {timeout:.0f} s"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        return {"ok": False, "error": tail[0]}
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["ok"] = True
    return report


def _data_lines(output: str) -> list[str]:
    return [ln for ln in output.splitlines() if not ln.startswith("#")]


def output_digest(command: str, output: str) -> str:
    """SHA-256 of the table's CSV lines without the config line, or of the
    sorted (name, n, a, pass) list of a verify report."""
    if command == "table":
        blob = "\n".join(_data_lines(output))
    else:
        checks = json.loads(output)["checks"]
        blob = json.dumps(sorted([c["name"], c["n"], c["a"], c["pass"]] for c in checks))
    return hashlib.sha256(blob.encode()).hexdigest()


def oracle_table_rows(a_text: str, n_top: int) -> list[dict]:
    """Column -> value for rows n <= n_top of one a, from mpmath alone.

    h_n = D_{n+1} / D_n with D_m the m x m Hankel determinant of the
    moments Gamma((k+1)/2, a^2) from mp.gammainc, beta_n = h_n / h_{n-1}
    and prob_n = prod_{j<n} h_j / (j! 2^-j sqrt(pi)).
    """
    import mpmath as mp

    with mp.workprec(600):
        a = mp.mpf(a_text)
        mu = [mp.gammainc(mp.mpf(k + 1) / 2, a * a) if k % 2 == 0 else mp.mpf(0)
              for k in range(2 * n_top + 1)]
        dets = [mp.mpf(1)] + [
            mp.det(mp.matrix([[mu[i + j] for j in range(m)] for i in range(m)]))
            for m in range(1, n_top + 2)
        ]
        h = [dets[m + 1] / dets[m] for m in range(n_top + 1)]
        rows, prob = [], mp.mpf(1)
        for n in range(n_top + 1):
            rows.append({"h": h[n], "beta": h[n] / h[n - 1] if n else None, "prob": prob})
            prob *= h[n] / (mp.factorial(n) / mp.mpf(2) ** n * mp.sqrt(mp.pi))
        return rows


def check_table(output: str, a_values, n_max: int) -> tuple[int, int]:
    """(operations, failed) for one table output: one operation per row."""
    import mpmath as mp

    expected = len(a_values) * (n_max + 1)
    rows = list(csv.DictReader(_data_lines(output)))
    by_cell = {(r["a"], int(r["n"])): r for r in rows}
    bad_rows = {key for key, r in by_cell.items() if r["status"] != "ok"}
    n_top = min(ORACLE_ROWS - 1, n_max)
    for a in a_values:
        for n, ref in enumerate(oracle_table_rows(a, n_top)):
            row = by_cell.get((a, n))
            if row is None or (a, n) in bad_rows:
                continue
            with mp.workprec(200):
                try:
                    wrong = any(abs(mp.mpf(row[col]) - v) > ORACLE_REL_TOL * abs(v)
                                for col, v in ref.items() if v is not None)
                except ValueError:
                    wrong = True
            if wrong:
                bad_rows.add((a, n))
    return max(expected, len(rows)), len(bad_rows) + max(0, expected - len(by_cell))


def check_verify(output: str, exit_code: int, checks_per_a: int | None, a_values) -> tuple[int, int]:
    """(operations, failed) for one verify report: one operation per check."""
    try:
        doc = json.loads(output)
        checks = doc["checks"]
    except (ValueError, KeyError):
        ops = (checks_per_a or 1) * len(a_values)
        return ops, ops
    expected = checks_per_a * len(a_values) if checks_per_a else len(checks)
    failed = sum(not c["pass"] for c in checks if not c.get("warning"))
    failed += max(0, expected - len(checks))
    if failed == 0 and (exit_code != 0 or doc["all_pass"] is not True):
        failed = 1
    return max(expected, len(checks)), failed


# ---------------------------------------------------------------------------
# one run


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def _reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


def _git_commit() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def stamp(seed: int, env: dict) -> dict:
    return {
        "seed": seed,
        **env,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 smoke: bool, deadline_total: float) -> dict:
    argv = workload.argv(seed, smoke)
    a_values = workload.a_values(seed, smoke)
    n_max = workload.smoke_n_max if smoke else workload.n_max
    ref_key = workload.name + (":smoke" if smoke else "")
    ref = _reference().get(ref_key, {})
    command = workload.command[0]

    samples: list[dict] = []
    setups: list[dict] = []
    pattern = (False, True) if trace else (False,)
    # untimed: the first child in a fresh checkout compiles the bytecode
    warm_up = run_child([], False, deadline_total - time.monotonic())
    began = time.monotonic()
    deadline = began + seconds
    while warm_up["ok"] and time.monotonic() < deadline_total:
        traced = pattern[len(samples) % len(pattern)]
        sample = run_child(argv, traced, deadline_total - time.monotonic())
        sample["traced"] = traced
        samples.append(sample)
        if not trace and sample["ok"]:
            # an import-only child after every sample spreads the set-up
            # samples over the whole run
            setups.append(run_child([], False, max(1.0, deadline_total - time.monotonic())))
        now = time.monotonic()
        if not sample["ok"] or (
            len(samples) >= len(pattern) and now + (now - began) / len(samples) > deadline
        ):
            break

    expected_ops = (ref.get("checks_per_a", 1) * len(a_values) if command == "verify"
                    else len(a_values) * (n_max + 1))
    attempted = failed = 0
    errors = [s["error"] for s in [warm_up, *samples, *setups] if not s["ok"]]
    good = [s for s in samples if s["ok"]]
    digests = []
    for s in good:
        try:
            s["digest"] = output_digest(command, s["output"])
        except (ValueError, KeyError):
            s["digest"] = None
        digests.append(s["digest"])
    expected_digest = ref.get("digest") if seed == DEFAULT_SEED else None
    table_result = None
    for s in samples:
        if not s["ok"] or s["digest"] is None or s["digest"] != digests[0] or (
            expected_digest is not None and s["digest"] != expected_digest
        ):
            ops, bad = expected_ops, expected_ops
        elif command == "table":
            # all samples share one digest, so one oracle check covers them
            table_result = table_result or check_table(s["output"], a_values, n_max)
            ops, bad = table_result
        else:
            ops, bad = check_verify(s["output"], s["exit"], ref.get("checks_per_a"), a_values)
        attempted += ops
        failed += bad

    timed = [s for s in good if not s["traced"]]
    traced_samples = [s for s in good if s["traced"]]
    summary = end_to_end(timed, [s for s in setups if s["ok"]])

    absent: list[str] = []
    layers: dict[str, dict] = {}
    traced_counts: list[dict] = []
    if trace and traced_samples:
        from spans import LAYER_METRICS, layer_metrics

        per_sample = [layer_metrics(s["trace"]) for s in traced_samples]
        # a span that lost its entry point, or whose arguments or result no
        # longer carry the recorded attributes, reads 0 and is listed here
        absent = per_sample[0][1] + [
            f"{key} (attributes)" for key in traced_samples[0]["trace"]["observer_errors"]
        ]
        traced_counts = [
            {name: vals[name] for name, (unit, _, _) in LAYER_METRICS.items() if unit != "s"}
            for vals, _ in per_sample
        ]
        for name, (unit, _, _) in LAYER_METRICS.items():
            value = statistics.median(vals[name] for vals, _ in per_sample) if unit == "s" \
                else traced_counts[0][name]
            layers[name] = {"value": value, "unit": unit}
        for name, value in output_counts(command, traced_samples[0]["output"]).items():
            layers[name] = {"value": value, "unit": OUTPUT_COUNTS[name]}
        layers["bench.trace_overhead_s"] = {
            "value": statistics.fmean(s["wall_s"] for s in traced_samples)
            - summary["wall_s"]["value"],
            "unit": "s",
        }
    # every count a traced sample reports must repeat exactly in the next one
    counts_agree = all(c == traced_counts[0] for c in traced_counts)

    correct = (
        bool(samples) and failed == 0 and not errors and counts_agree
        and len(set(digests)) == 1
    )
    return {
        "workload": workload.name,
        "argv": argv,
        "stamp": stamp(seed, good[0]["env"] if good else {}),
        "samples": len(samples),
        "digest": digests[0] if digests else None,
        "reference_digest": ref.get("digest") if seed == DEFAULT_SEED else None,
        "sample_digests": [(s["traced"], s["digest"]) for s in good],
        "traced_counts": traced_counts,
        "absent_spans": absent,
        "errors": errors,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "fail_share": {"value": failed / attempted if attempted else 1.0, "unit": "ratio"},
        "end_to_end": summary,
        "per_layer": layers,
    }


def end_to_end(timed: list[dict], setups: list[dict]) -> dict[str, dict]:
    """The end-to-end metrics of one run, from its untraced samples and its
    import-only children.

    wall_s is the mean over the samples, the run's wall time per command
    (the reciprocal of commands completed per second): a slow stretch of
    the host that covers half the samples moves it by half its slowdown,
    where it would move the median by all of it.  The other metrics are
    medians.  Each entry also keeps the median and quartiles.
    """
    summary: dict[str, dict] = {}
    for name, unit in E2E_UNITS.items():
        source = timed + setups if name == "setup_s" else timed
        values = [s[name] for s in source] or [0.0]
        q1, med, q3 = _quartiles(values)
        value = statistics.fmean(values) if name == "wall_s" else med
        summary[name] = {"value": value, "unit": unit, "median": med, "q1": q1, "q3": q3,
                         "n": len(values)}
    return summary


def output_counts(command: str, output: str) -> dict[str, int]:
    """report.checks, report.checks_failed and cli.cells read off one output."""
    if command == "verify":
        checks = json.loads(output)["checks"]
        return {
            "report.checks": len(checks),
            "report.checks_failed": sum(not c["pass"] for c in checks if not c.get("warning")),
            "cli.cells": len({c["a"] for c in checks}),
        }
    rows = list(csv.DictReader(_data_lines(output)))
    return {"report.checks": 0, "report.checks_failed": 0, "cli.cells": len({r["a"] for r in rows})}


def print_record(rec: dict) -> None:
    print(f"# workload {rec['workload']}: gue-gap-lab {' '.join(rec['argv'])}")
    print(f"# stamp {json.dumps(rec['stamp'], sort_keys=True)}")
    for name, m in rec["end_to_end"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']} (median {m['median']:.6g}, "
              f"q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n {m['n']})")
    fs = rec["fail_share"]
    print(f"# fail_share = {fs['value']:.6g} {fs['unit']} ({rec['failed']} of {rec['attempted']} operations)")
    for name, m in rec["per_layer"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    if rec["absent_spans"]:
        print(f"# absent spans: {', '.join(rec['absent_spans'])}")
    ref = rec["reference_digest"]
    verdict = "no reference at this seed" if ref is None else (
        "matches reference" if ref == rec["digest"] else f"MISMATCH, reference {ref}")
    print(f"# digest {rec['digest']} ({verdict}); samples {rec['samples']}; correct {rec['correct']}")
    for err in rec["errors"]:
        print(f"# error: {err}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="short variant of each workload, for the benchmark's own tests")
    args = parser.parse_args(argv)
    # turn SIGTERM into an exception, so subprocess.run kills the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "gue_gap_lab" / "cli.py").is_file():
        print(f"error: no gue_gap_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        rec = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                           args.smoke, time.monotonic() + RUN_LIMIT_S)
        print_record(rec)
        records.append(rec)
    section = "per_layer" if args.trace else "end_to_end"
    prefix = len(records) > 1
    metrics = {
        (f"{r['workload']}/{k}" if prefix else k): {"value": m["value"], "unit": m["unit"]}
        for r in records for k, m in r[section].items()
    }
    correct = all(r["correct"] for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
