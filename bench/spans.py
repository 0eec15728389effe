"""Spans around the public functions of every loaded gue_gap_lab module.

The recorder rebinds each public module-level function, wherever a module
holds a binding to it (so ``orthopoly.moment`` and ``weight.moment`` are
the same span, ``weight.moment``).  Per span key it keeps the call count,
the inclusive time of the outermost activations and the self time, which
is the duration minus the time covered by child spans.  A few keys also
record attributes of their arguments or results.

``layer_metrics`` turns the raw records into the named per-layer metrics.
A metric whose span key was not found in the program (an entry point a
later refactor removed) reads 0 and its key is reported as absent.
"""

from __future__ import annotations

import functools
import sys
import time
import types

PACKAGE = "gue_gap_lab"


def _moment_bits(rec, args, kwargs, result):
    w = args[1] if len(args) > 1 else kwargs["w"]
    rec["bits_max"] = max(rec.get("bits_max", 0), w.prec_bits)


def _table_attrs(rec, args, kwargs, result):
    rec["escalations"] = rec.get("escalations", 0) + result.escalations
    rec["working_bits_max"] = max(rec.get("working_bits_max", 0), result.working_bits)
    rec["certified_digits_min"] = min(
        rec.get("certified_digits_min", result.certified_digits), result.certified_digits
    )


def _gl_rule_keys(rec, args, kwargs, result):
    order = args[0] if args else kwargs["order"]
    bits = args[1] if len(args) > 1 else kwargs["bits"]
    rec.setdefault("rules", set()).add((order, bits))


OBSERVERS = {
    "weight.moment": _moment_bits,
    "orthopoly.build_recurrence_table": _table_attrs,
    "probability.gauss_legendre_rule": _gl_rule_keys,
}


class SpanRecorder:
    """Collects span statistics in memory for one process."""

    def __init__(self):
        self.records: dict[str, dict] = {}
        self.observer_errors: set[str] = set()
        self._stack: list[list[float]] = []

    def install(self) -> None:
        """Wrap every public function bound in a loaded gue_gap_lab module."""
        wrappers: dict[types.FunctionType, types.FunctionType] = {}
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for name, obj in list(vars(module).items()):
                if (
                    name.startswith("_")
                    or not isinstance(obj, types.FunctionType)
                    or not (obj.__module__ or "").startswith(PACKAGE)
                ):
                    continue
                if obj not in wrappers:
                    key = f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}"
                    wrappers[obj] = self._wrap(key, obj)
                setattr(module, name, wrappers[obj])

    def _wrap(self, key: str, fn):
        rec = self.records.setdefault(key, {"calls": 0, "errors": 0, "total_s": 0.0, "self_s": 0.0})
        observe = OBSERVERS.get(key)
        stack = self._stack
        depth = [0]

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            depth[0] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec["errors"] += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                depth[0] -= 1
                if stack:
                    stack[-1][0] += elapsed
                rec["calls"] += 1
                rec["self_s"] += elapsed - frame[0]
                if depth[0] == 0:
                    rec["total_s"] += elapsed
            if observe is not None:
                try:
                    observe(rec, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    self.observer_errors.add(key)
            return result

        return span

    def snapshot(self) -> dict:
        """Plain-JSON view of the records, with observer sets made lists."""
        out = {}
        for key, rec in self.records.items():
            rec = dict(rec)
            if "rules" in rec:
                rec["rules"] = sorted(rec["rules"])
            out[key] = rec
        return {"spans": out, "observer_errors": sorted(self.observer_errors)}


# metric name -> (unit, span keys, field of the span record)
LAYER_METRICS: dict[str, tuple[str, tuple[str, ...], str]] = {
    "weight.moment_calls": ("count", ("weight.moment",), "calls"),
    "weight.moment_s": ("s", ("weight.moment",), "total_s"),
    "weight.moment_bits_max": ("bits", ("weight.moment",), "bits_max"),
    "orthopoly.build_calls": ("count", ("orthopoly.build_recurrence_table",), "calls"),
    "orthopoly.build_s": ("s", ("orthopoly.build_recurrence_table",), "total_s"),
    "orthopoly.build_self_s": ("s", ("orthopoly.build_recurrence_table",), "self_s"),
    "orthopoly.escalations": ("count", ("orthopoly.build_recurrence_table",), "escalations"),
    "orthopoly.working_bits_max": ("bits", ("orthopoly.build_recurrence_table",), "working_bits_max"),
    "orthopoly.certified_digits_min": ("digits", ("orthopoly.build_recurrence_table",), "certified_digits_min"),
    "ladder.states_calls": ("count", ("ladder.ladder_states",), "calls"),
    "ladder.states_s": ("s", ("ladder.ladder_states",), "total_s"),
    "ladder.identities_s": ("s", ("ladder.residual_identities",), "total_s"),
    "ladder.supplementary_s": ("s", ("ladder.residual_supplementary",), "total_s"),
    "difference_eqs.orbit_s": ("s", ("difference_eqs.iterate_r_orbit",), "total_s"),
    "difference_eqs.residual_s": ("s", (
        "difference_eqs.residual_orbit_vs_direct",
        "difference_eqs.residual_alternate_r",
        "difference_eqs.residual_sigma_recurrence",
        "difference_eqs.residual_R_recurrence",
        "difference_eqs.select_r_branch",
    ), "total_s"),
    "differential_eqs.grid_calls": ("count", ("differential_eqs.build_a_grid",), "calls"),
    "differential_eqs.grid_s": ("s", ("differential_eqs.build_a_grid",), "total_s"),
    "differential_eqs.suite_s": ("s", ("differential_eqs.continuous_suite",), "total_s"),
    "probability.oracle_calls": ("count", ("probability.residual_oracle",), "calls"),
    "probability.oracle_s": ("s", ("probability.residual_oracle",), "total_s"),
    "probability.hankel_s": ("s", ("probability.gap_probability_hankel",), "total_s"),
    "probability.fredholm_s": ("s", ("probability.gap_probability_fredholm",), "total_s"),
    "probability.gl_rule_calls": ("count", ("probability.gauss_legendre_rule",), "calls"),
    "probability.gl_rules_built": ("count", ("probability.gauss_legendre_rule",), "rules_built"),
    "probability.gl_nodes_built": ("count", ("probability.gauss_legendre_rule",), "nodes_built"),
    "probability.gl_rule_s": ("s", ("probability.gauss_legendre_rule",), "total_s"),
    "probability.gl_cache_hit_ratio": ("ratio", ("probability.gauss_legendre_rule",), "hit_ratio"),
    "probability.overlap_calls": ("count", ("probability.overlap_matrix",), "calls"),
    "probability.overlap_self_s": ("s", ("probability.overlap_matrix",), "self_s"),
    "probability.det_s": ("s", ("probability.det_identity_minus",), "total_s"),
}


def _read(rec: dict, field: str):
    if field == "rules_built":
        return len(rec.get("rules", ()))
    if field == "nodes_built":
        return sum(order for order, _ in rec.get("rules", ()))
    if field == "hit_ratio":
        calls = rec["calls"]
        return (calls - len(rec.get("rules", ()))) / calls if calls else 0.0
    return rec.get(field, 0)


def layer_metrics(snapshot: dict) -> tuple[dict[str, float], list[str]]:
    """Per-layer metric values from one traced process, and absent span keys.

    The span keys of a metric are disjoint functions that do not call one
    another, so their inclusive times add up without double counting.
    """
    spans = snapshot["spans"]
    values: dict[str, float] = {}
    absent: set[str] = set()
    for name, (_, keys, field) in LAYER_METRICS.items():
        total = 0
        for key in keys:
            if key in spans:
                total += _read(spans[key], field)
            else:
                absent.add(key)
        values[name] = total
    return values, sorted(absent)
