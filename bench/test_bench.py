"""Self-tests of the benchmark, on the short (--smoke) variant of each workload.

Run with: python3 -m pytest bench
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
from spans import LAYER_METRICS, layer_metrics

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
PER_LAYER_EXTRA = {"bench.trace_overhead_s": "s", **run.OUTPUT_COUNTS}


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), *args],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300,
    )


def test_spec_names_what_the_benchmark_emits():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    layer_units = {name: unit for name, (unit, _, _) in LAYER_METRICS.items()}
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {**layer_units, **PER_LAYER_EXTRA}


def test_seed_draws_one_value_per_stratum():
    for w in run.WORKLOADS.values():
        assert w.a_values(run.DEFAULT_SEED) == w.default_a
        lo, hi = (float(x) for x in w.band)
        width = (hi - lo) / len(w.default_a)
        for seed in range(1, 30):
            values = w.a_values(seed)
            assert values == w.a_values(seed)
            assert len(values) == len(w.default_a)
            for i, text in enumerate(values):
                assert len(text.split(".")[1]) == 3
                # stratum edges are rounded down to whole thousandths
                assert lo + i * width - 1e-3 <= float(text) <= lo + (i + 1) * width + 1e-9


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_smoke_emits_every_end_to_end_metric(name):
    proc = _bench("--workload", name, "--smoke", "--seconds", "1", "--seed", "7")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == run.E2E_UNITS
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "# fail_share = 0 ratio" in proc.stdout


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_smoke_trace_reports_every_layer_and_keeps_the_output(name):
    rec = run.run_workload(run.WORKLOADS[name], run.DEFAULT_SEED, 1.0, True, True,
                           run.time.monotonic() + 200)
    assert rec["correct"] and rec["fail_share"]["value"] == 0
    assert rec["digest"] == run._reference()[f"{name}:smoke"]["digest"]
    layer_units = {k: m["unit"] for k, m in rec["per_layer"].items()}
    assert layer_units == {n: u for n, (u, _, _) in LAYER_METRICS.items()} | PER_LAYER_EXTRA
    assert rec["absent_spans"] == []
    assert rec["per_layer"]["weight.moment_calls"]["value"] > 0
    # tracing does not change the output
    assert {traced for traced, _ in rec["sample_digests"]} == {False, True}
    assert len({digest for _, digest in rec["sample_digests"]}) == 1


def test_consecutive_traced_samples_start_cold():
    """Nothing cached in one sample's process (Gauss-Legendre rules,
    constants) may serve the next one."""
    w = run.WORKLOADS["verify-cell"]
    counts = []
    for _ in range(2):
        sample = run.run_child(w.argv(run.DEFAULT_SEED, smoke=True), True, 120)
        assert sample["ok"]
        values, _ = layer_metrics(sample["trace"])
        counts.append((values["probability.gl_rules_built"], values["weight.moment_calls"]))
    assert counts[0] == counts[1]
    assert min(counts[0]) > 0


def test_missing_entry_point_is_reported_absent():
    snapshot = {"spans": {"weight.moment": {"calls": 3, "errors": 0, "total_s": 0.5,
                                            "self_s": 0.5, "bits_max": 640}},
                "observer_errors": []}
    values, absent = layer_metrics(snapshot)
    assert values["weight.moment_calls"] == 3
    assert values["probability.det_s"] == 0
    assert "probability.det_identity_minus" in absent
    assert "weight.moment" not in absent


def test_correctness_gate_flags_a_wrong_digit():
    w = run.WORKLOADS["table-wide-gap"]
    a_values = w.a_values(run.DEFAULT_SEED, smoke=True)
    sample = run.run_child(w.argv(run.DEFAULT_SEED, smoke=True), False, 120)
    assert sample["ok"]
    assert run.check_table(sample["output"], a_values, w.smoke_n_max) == (w.smoke_n_max + 1, 0)
    lines = sample["output"].splitlines()
    row = next(i for i, ln in enumerate(lines) if ln.startswith("1,"))
    cells = lines[row].split(",")
    cells[3] = cells[3][:5] + ("1" if cells[3][5] != "1" else "2") + cells[3][6:]
    lines[row] = ",".join(cells)
    ops, failed = run.check_table("\n".join(lines), a_values, w.smoke_n_max)
    assert failed == 1


def test_wall_is_the_mean_and_setup_counts_import_only_children():
    timed = [{"wall_s": 2.0, "setup_s": 0.2, "peak_rss_mb": 30.0},
             {"wall_s": 2.5, "setup_s": 0.3, "peak_rss_mb": 31.0},
             {"wall_s": 9.0, "setup_s": 0.3, "peak_rss_mb": 31.0}]
    summary = run.end_to_end(timed, [{"setup_s": 0.4}, {"setup_s": 0.5}])
    assert summary["wall_s"]["value"] == 4.5 and summary["wall_s"]["median"] == 2.5
    assert summary["setup_s"]["value"] == 0.3 and summary["setup_s"]["n"] == 5
    assert summary["peak_rss_mb"]["value"] == 31.0


def test_verify_gate_counts_failed_and_missing_checks():
    checks = [{"name": "x", "n": 1, "a": "1", "pass": True},
              {"name": "y", "n": 1, "a": "1", "pass": False}]
    doc = json.dumps({"all_pass": False, "checks": checks})
    assert run.check_verify(doc, 1, 3, ("1",)) == (3, 2)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify-cell", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
