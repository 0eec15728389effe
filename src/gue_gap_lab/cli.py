"""Command-line front door: tables, verification suites, probabilities, plots.

Four subcommands:

  table    ladder and probability values on an a-grid, CSV or JSON
  verify   residual suites with per-check tolerances, JSON report,
           exit status 0 exactly when every check passes
  prob     both probability routes at a single (n, a) cell
  plot     standalone SVG line plot of a table column against a

Output is deterministic: identical configuration produces byte-identical
files, and numbers are serialized in decimal scientific notation.  The
table (CSV header or JSON) and the verify report carry a hash of the
canonical configuration JSON, so they can be traced back to the exact run
that made them; the prob JSON and the SVG plots carry none.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import sys
from typing import NamedTuple

try:  # the builtin SHA-256, as random.py takes _sha512: hashlib loads OpenSSL
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

import mpmath as mp

from .difference_eqs import (
    BRANCH_MATCH_TOL,
    DISCRETE_TOL,
    iterate_r_orbit,
    orbit_recurrence_table,
    residual_R_recurrence,
    residual_alternate_r,
    residual_orbit_vs_direct,
    residual_sigma_recurrence,
    select_r_branch,
)
from .differential_eqs import continuous_suite, jet_source
from .exceptions import DomainError, EdgeZeroError, GapLabError
from .ladder import (edge_quantities, ladder_states, residual_identities, residual_supplementary,
                     spectral_samples)
from .orthopoly import build_recurrence_table, hermite_norms_exact
from .precision import PrecisionPolicy
from .probability import hankel_probabilities, probability_record, residual_oracle
from .report import ResidualCheck, ResidualReport, passes, sci_str

FORMAT_VERSION = "gue-gap-lab v1"
CSV_COLUMNS = ("n", "a", "beta", "h", "Pn_at_a", "p", "R", "r", "sigma", "prob", "status")
SUITES = ("identities", "supplementary", "discrete", "continuous", "oracle", "all")
PLOT_COLUMNS = CSV_COLUMNS[2:-1]  # every numeric column

# a verify row (a flat dict) as json.dumps(indent=2) writes it inside the report, minus its
# braces' lines, through the C encoder that an indent turns off: the separator holds the indent
_ROW_JSON = json.JSONEncoder(sort_keys=True, separators=(",\n      ", ": ")).encode

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


class RunConfig(NamedTuple):
    """Everything a run depends on, hashable into the output header."""

    command: str
    n_max: int
    a_values: tuple[str, ...]
    policy: PrecisionPolicy
    digits: int | None
    suite: str
    tolerances: tuple[tuple[str, float], ...] = ()
    out_format: str = "csv"
    jobs: int = 1

    def canonical(self) -> dict:
        return {
            "command": self.command,
            "n_max": self.n_max,
            "a_values": list(self.a_values),
            "base_bits": self.policy.base_bits,
            "bits_per_n": self.policy.bits_per_n,
            "max_bits": self.policy.max_bits,
            "target_digits": self.policy.target_certified_digits,
            "digits": self.digits,
            "suite": self.suite,
            "tolerances": [list(t) for t in self.tolerances],
            "format": self.out_format,
        }

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return sha256(blob.encode()).hexdigest()[:16]


def _half_width(text: str) -> str:
    """argparse type for a gap half-width: a finite number a >= 0.

    The stripped text is kept, not the parsed number, so every later stage
    parses it once at its own working precision.
    """
    text = text.strip()
    try:
        with mp.workprec(64):
            value = mp.mpf(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not mp.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(
            f"gap half-width must be a finite number >= 0, got {text!r}")
    return text


def _half_width_list(text: str) -> tuple[str, ...]:
    """argparse type for --a-list: comma-separated half-widths."""
    vals = tuple(_half_width(v) for v in text.split(",") if v.strip())
    if not vals:
        raise argparse.ArgumentTypeError("no values in the list")
    return vals


def _is_zero(a_str: str) -> bool:
    """Whether a half-width accepted by ``_half_width`` is exactly 0."""
    with mp.workprec(200):
        return mp.mpf(a_str) == 0


def _int_at_least(lo: int):
    """argparse type for an integer flag with lower bound ``lo``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value

    return parse


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one stderr line and exit status 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _tolerance(text: str) -> tuple[str, float]:
    """argparse type for --tol: NAME=VALUE, or a bare VALUE for every check;
    VALUE is a finite number > 0 as a float (1e-500 underflows to 0.0)."""
    name, sep, value = text.partition("=")
    if not sep:
        name, value = "all", text
    if not name or not value:
        raise argparse.ArgumentTypeError(f"expects NAME=VALUE, got {text!r}")
    try:
        tol = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"value not a number: {text!r}") from None
    if not (math.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError(f"value must be a finite float > 0: {text!r}")
    return name, tol


def _degree_list(text: str) -> tuple[int, ...]:
    """argparse type for --n-select: comma-separated degrees >= 0."""
    return tuple(_int_at_least(0)(v) for v in text.split(","))


def _parse_a_values(args, parser) -> tuple[str, ...]:
    """The a-grid: --a-list as given, --a-min alone, or --a-steps >= 2
    points spaced evenly from --a-min to --a-max inclusive.  A grid flag
    that would be ignored is a usage error."""
    if args.a_list:
        if (args.a_min, args.a_max, args.a_steps) != (None, None, None):
            parser.error("--a-list cannot be combined with --a-min/--a-max/--a-steps")
        return args.a_list
    if args.a_min is None:
        parser.error("provide --a-list or --a-min/--a-max/--a-steps")
    steps = args.a_steps or 1
    if (args.a_max is None) != (steps == 1):
        parser.error("give --a-max together with --a-steps >= 2")
    if steps == 1:
        return (args.a_min,)
    with mp.workprec(200):
        return tuple(mp.nstr(x, 30, min_fixed=1, max_fixed=0)
                     for x in mp.linspace(args.a_min, args.a_max, steps))


# ---------------------------------------------------------------------------
# table


def _table_rows_for_a(config: RunConfig, a_str: str) -> list[dict[str, str]]:
    """All rows for one grid value a, as plain string dicts.

    Module-level so a process pool can ship it; errors are folded into the
    status column rather than raised, keeping the sweep alive across bad
    cells.
    """
    policy = config.policy
    n_max = config.n_max
    digits = config.digits or policy.target_certified_digits
    rows: list[dict[str, str]] = []
    if _is_zero(a_str):
        return _table_rows_zero(config, a_str, digits)
    try:
        table = orbit_recurrence_table(a_str, n_max, policy)
    except GapLabError as exc:
        return [
            _row(n, a_str, status=f"error:{type(exc).__name__}")
            for n in range(n_max + 1)
        ]
    failed_at = None
    try:
        states = ladder_states(table)
    except EdgeZeroError as exc:
        failed_at = exc.n
        states = ladder_states(table, n_top=failed_at - 1)
    probs = hankel_probabilities(table, n_max)
    for n in range(n_max + 1):
        values = {"beta": table.beta[n], "h": table.h[n], "prob": probs[n]}
        if failed_at is None or n < failed_at:
            s = states[n]
            status = "ok"
            values.update(P=s.Pn_at_a, p=s.p, R=s.R, r=s.r, sigma=s.sigma)
        else:
            status = "edge-zero" if n == failed_at else "skipped"
        rows.append(_row(n, a_str, status=status, digits=digits, **values))
    return rows


def _table_rows_zero(config: RunConfig, a_str: str, digits: int) -> list[dict[str, str]]:
    """Rows at a = 0: the classical weight, where the gap closes.

    beta_n = n/2 and h_n = (n!/2^n) sqrt(pi) in closed form, through
    ``edge_quantities`` at a = 0.  The probability is exactly 1 and r
    vanishes identically; sigma carries the one-sided limit -sum R_j(0+),
    which is the slope of ln P from the right.  Odd-n rows are flagged
    edge-zero for the structural parity zero of P_n at the origin.  No
    pass certifies these rows, so they are evaluated at no fewer bits than
    a default start gives for the target digits, or at a larger --prec-bits.
    """
    n_max, policy = config.n_max, config.policy
    default = PrecisionPolicy(target_certified_digits=policy.target_certified_digits)
    bits = max(policy.start_bits("orbit", 0, n_max), default.start_bits("orbit", 0, n_max))
    beta = [mp.mpf(n) / 2 for n in range(n_max + 1)]
    h = hermite_norms_exact(n_max + 1, bits)
    edge = edge_quantities(mp.mpf(0), beta, h, bits)
    return [
        _row(n, a_str, status="ok" if n % 2 == 0 else "edge-zero", digits=digits,
             beta=beta[n], h=h[n], prob=mp.mpf(1), **{k: v[n] for k, v in edge.items()})
        for n in range(n_max + 1)
    ]


def _row(n: int, a_str: str, status: str, digits: int = 20, **values) -> dict[str, str]:
    def fmt(key):
        v = values.get(key)
        return sci_str(v, digits) if v is not None else ""

    return {
        "n": str(n),
        "a": a_str,
        "beta": fmt("beta"),
        "h": fmt("h"),
        "Pn_at_a": fmt("P"),
        "p": fmt("p"),
        "R": fmt("R"),
        "r": fmt("r"),
        "sigma": fmt("sigma"),
        "prob": fmt("prob"),
        "status": status,
    }


def _map_cells(config: RunConfig, worker, cells):
    """Ordered map over grid cells, through a process pool when more than
    one worker is useful: no more workers than cells or CPUs."""
    workers = min(config.jobs, len(cells), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(worker, config, cell) for cell in cells]
            return [f.result() for f in futures]
    return [worker(config, cell) for cell in cells]


def cmd_table(config: RunConfig, out_path: str | None, plot_path: str | None = None) -> int:
    """Write the table, and its prob column as an SVG to ``plot_path``;
    exit status 1 when any row's status is an error."""
    blocks = _map_cells(config, _table_rows_for_a, config.a_values)
    rows = [row for block in blocks for row in block]
    header = f"# {FORMAT_VERSION} config={config.config_hash()}"
    if config.out_format == "json":
        payload = json.dumps(
            {"version": FORMAT_VERSION, "config": config.config_hash(), "rows": rows},
            sort_keys=True, indent=2,
        ) + "\n"
    else:
        buf = io.StringIO()
        buf.write(header + "\n")
        writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        payload = buf.getvalue()
    _emit(payload, out_path)
    if plot_path:
        cmd_plot(rows, "prob", plot_path)
    return 1 if any(row["status"].startswith("error:") for row in rows) else 0


# ---------------------------------------------------------------------------
# verify


def _verify_policy(policy: PrecisionPolicy, a_str: str) -> PrecisionPolicy:
    """``policy`` with its target raised to what the residuals need at small a.

    alternate_r and sigma_recurrence lose about 2 log10(1/a) digits to the
    cancellation in r_{n+1} + r_n = a R_n, and norm_log_deriv and
    subleading_deriv as many (sigma_ode about half) against the looser
    CONTINUOUS_TOL.  The target's headroom over DISCRETE_TOL covers that
    loss down to a = 1e-5; below, the target rises by the rest.
    """
    with mp.workprec(64):
        need = math.floor(-2 * mp.log10(mp.mpf(a_str)) - math.log10(DISCRETE_TOL))
    if need <= policy.target_certified_digits:
        return policy
    return PrecisionPolicy(base_bits=policy.base_bits, bits_per_n=policy.bits_per_n,
                           target_certified_digits=need, max_bits=policy.max_bits)


def _suite_reports(config: RunConfig, a_str: str) -> list[ResidualReport]:
    """Every report of the configured suite for one cell.

    One table at n_max + 1, built on Taylor jets in a, serves every suite:
    its values and their ladder states the algebraic, discrete and oracle
    suites, and its jets the exact derivatives of the continuous one.
    """
    policy = config.policy
    n_max = config.n_max
    suite = config.suite
    reports: list[ResidualReport] = []
    table = build_recurrence_table(a_str, n_max + 1, _verify_policy(policy, a_str), jets=True)
    states = ladder_states(table)
    if suite in ("identities", "all"):
        reports.extend(residual_identities(states))
    if suite in ("supplementary", "all"):
        samples = spectral_samples(states)
        reports += [residual_supplementary(states, n, samples) for n in range(n_max + 1)]
    if suite in ("discrete", "all") and n_max >= 1:
        orbit = iterate_r_orbit(table.a, n_max, table.working_bits)
        reports.extend(residual_orbit_vs_direct(orbit, states))
        for n in range(1, n_max + 1):
            reports += [f(states, n) for f in (
                residual_alternate_r, residual_sigma_recurrence, residual_R_recurrence)]
            choice = select_r_branch(states, n)
            branch = ResidualCheck("branch_select", n, choice.rel_err, BRANCH_MATCH_TOL,
                                   passes(choice.rel_err, BRANCH_MATCH_TOL), f"sign {choice.sign}")
            reports.append(ResidualReport(n, table.working_bits, [branch]))
    if suite in ("continuous", "all"):
        source = jet_source(table)
        for n in range(1, n_max + 1):
            reports.append(continuous_suite(source, n))
    if suite in ("oracle", "all") and n_max >= 1:
        reports.append(residual_oracle(n_max, a_str, policy, table=table))
    return reports


def _verify_rows_for_a(config: RunConfig, a_str: str) -> list[dict]:
    """The rows of one cell, each labelled with its grid text ``a_str``; a
    --tol override judges a check's residual itself."""
    if _is_zero(a_str):
        skipped = ResidualCheck("cell_skipped", -1, mp.mpf(0), 0.0, True,
                                "verify suites require a > 0")
        return [{**skipped.row(a_str), "warning": True}]
    try:
        reports = _suite_reports(config, a_str)
    except GapLabError as exc:
        return [ResidualCheck(f"cell_error:{type(exc).__name__}", -1, mp.mpf(0), 0.0, False,
                              str(exc)).row(a_str)]
    overrides = dict(config.tolerances)
    rows = []
    for check in (c for rep in reports for c in rep.checks):
        tol = overrides.get(check.name, overrides.get("all"))
        if tol is not None:
            check = check._replace(tolerance=tol, passed=passes(check.residual, tol))
        rows.append(check.row(a_str))
    return rows


def cmd_verify(config: RunConfig, out_path: str | None) -> int:
    """Write the verify report; exit status 0 exactly when at least one row
    was made and every row passes; exit status 2, with no report, when a
    --tol name matches no check while some cell ran its checks."""
    blocks = _map_cells(config, _verify_rows_for_a, config.a_values)
    rows = [row for block in blocks for row in block]
    checked = {row["name"] for row in rows if row["n"] >= 0}  # n = -1: cell skipped or errored
    unknown = [name for name, _ in config.tolerances if checked and name not in checked | {"all"}]
    if unknown:
        print(f"gue-gap-lab: error: --tol names no check of this run: {', '.join(unknown)}",
              file=sys.stderr)
        return 2
    ok = bool(rows) and all(row["pass"] for row in rows)
    head = json.dumps({"version": FORMAT_VERSION, "config": config.config_hash(),
                       "suite": config.suite, "all_pass": ok, "checks": None},
                      sort_keys=True, indent=2)
    body = ",\n    ".join("{\n      " + _ROW_JSON(row)[1:-1] + "\n    }" for row in rows)
    checks = f"[\n    {body}\n  ]" if rows else "[]"
    payload = head.replace('"checks": null', '"checks": ' + checks) + "\n"
    _emit(payload, out_path)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# prob


def cmd_prob(policy: PrecisionPolicy, digits: int | None, n: int, a_str: str,
             out_path: str | None) -> int:
    digits = digits or policy.target_certified_digits
    if _is_zero(a_str):
        doc = {
            "n": n, "a": a_str, "prob_hankel": "1.0", "prob_fredholm": None,
            "rel_discrepancy": None,
            "note": "gap of zero width; determinant route skipped",
        }
    else:
        rec = probability_record(n, a_str, policy)
        doc = {
            "n": n, "a": a_str,
            "prob_hankel": sci_str(rec.prob_hankel.value, digits),
            "prob_fredholm": sci_str(rec.prob_fredholm.value, digits),
            "rel_discrepancy": sci_str(rec.rel_discrepancy, 8),
        }
    _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", out_path)
    return 0


# ---------------------------------------------------------------------------
# plot


def _read_table_csv(path: str) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def cmd_plot(rows: list[dict[str, str]], quantity: str, out_path: str,
             n_select: tuple[int, ...] | None = None) -> int:
    """Draw one of the PLOT_COLUMNS against a as an SVG, one polyline per n.
    A row whose n, a or column is not a number, or no point to draw, is a
    DomainError."""
    series: dict[int, list[tuple[float, float]]] = {}
    for i, row in enumerate(rows, start=1):
        if not row.get(quantity):
            continue
        cells = (row.get("n"), row.get("a"), row[quantity])
        try:
            n, x, y = int(cells[0]), float(cells[1]), float(mp.mpf(cells[2]))
        except (TypeError, ValueError):
            raise DomainError(f"data row {i}: n, a, {quantity} = {cells} is not numeric") from None
        if n_select is None or n in n_select:
            series.setdefault(n, []).append((x, y))
    if not series:
        raise DomainError(f"no data for column {quantity!r}")
    svg = _render_svg(series, quantity)
    with open(out_path, "w") as fh:
        fh.write(svg)
    return 0


def _render_svg(series: dict[int, list[tuple[float, float]]], quantity: str) -> str:
    width, height = 640.0, 420.0
    ml, mr, mt, mb = 64.0, 24.0, 28.0, 44.0
    xs = [x for pts in series.values() for x, _ in pts]
    ys = [y for pts in series.values() for _, y in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(x):
        return ml + (x - x_lo) / (x_hi - x_lo) * (width - ml - mr)

    def sy(y):
        return height - mb - (y - y_lo) / (y_hi - y_lo) * (height - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 {width:g} {height:g}">',
        f'<rect width="{width:g}" height="{height:g}" fill="white"/>',
        f'<line x1="{ml:g}" y1="{height-mb:g}" x2="{width-mr:g}" '
        f'y2="{height-mb:g}" stroke="black"/>',
        f'<line x1="{ml:g}" y1="{mt:g}" x2="{ml:g}" y2="{height-mb:g}" '
        f'stroke="black"/>',
    ]
    for k in range(5):
        xv = x_lo + k * (x_hi - x_lo) / 4
        yv = y_lo + k * (y_hi - y_lo) / 4
        parts.append(
            f'<text x="{sx(xv):.2f}" y="{height-mb+16:.2f}" font-size="11" '
            f'text-anchor="middle">{xv:.4g}</text>')
        parts.append(
            f'<text x="{ml-6:.2f}" y="{sy(yv)+4:.2f}" font-size="11" '
            f'text-anchor="end">{yv:.4g}</text>')
    parts.append(
        f'<text x="{(ml+width-mr)/2:.2f}" y="{height-8:.2f}" font-size="13" '
        f'text-anchor="middle">a</text>')
    parts.append(
        f'<text x="14" y="{(mt+height-mb)/2:.2f}" font-size="13" '
        f'text-anchor="middle" transform="rotate(-90 14 {(mt+height-mb)/2:.2f})">'
        f'{quantity}</text>')
    for idx, n in enumerate(sorted(series)):
        pts = sorted(series[n])
        if not pts:
            continue
        color = _PALETTE[idx % len(_PALETTE)]
        path = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        parts.append(
            f'<polyline points="{path}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>')
        parts.append(
            f'<text x="{width-mr-4:.2f}" y="{mt+14+14*idx:.2f}" font-size="11" '
            f'text-anchor="end" fill="{color}">n={n}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# wiring


def _emit(payload: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _check_writable(parser, flag: str, path: str) -> None:
    """Refuse, before any work, an output path that cannot be opened for
    writing.  The probe opens it for appending, which leaves an existing file
    as it was, and removes a file that only the probe made."""
    existed = os.path.lexists(path)
    try:
        open(path, "a").close()
    except OSError as exc:
        parser.error(f"cannot write {flag} {path}: {exc.strerror}")
    if not existed:
        os.remove(path)


def _same_file(path: str, other: str) -> bool:
    """Whether two paths name one file: by the file system when both exist,
    by their resolved paths otherwise."""
    if os.path.exists(path) and os.path.exists(other):
        return os.path.samefile(path, other)
    return os.path.realpath(path) == os.path.realpath(other)


def _add_precision(sub):
    """Flags of every computing subcommand: precision policy and output."""
    sub.add_argument("--prec-bits", type=int, default=None,
                     help="starting precision of every certified build, in bits "
                          "(default: target digits plus each route's measured loss)")
    sub.add_argument("--max-bits", type=int, default=16384,
                     help="ceiling of the check pass, in bits (default 16384)")
    sub.add_argument("--target-digits", type=int, default=40,
                     help="digits every certified build must reach (default 40)")
    sub.add_argument("--digits", type=_int_at_least(1), default=None,
                     help="printed significant digits (default: --target-digits)")
    sub.add_argument("--out", default=None, help="write here instead of to stdout")


def _add_grid(sub):
    """Flags of the subcommands that sweep an a-grid: table and verify."""
    sub.add_argument("--n-max", type=_int_at_least(0), default=10,
                     help="largest degree n of every cell (default 10)")
    sub.add_argument("--a-list", type=_half_width_list, help="comma-separated a values")
    sub.add_argument("--a-min", type=_half_width, help="first a of an evenly spaced grid")
    sub.add_argument("--a-max", type=_half_width, help="last a of that grid")
    sub.add_argument("--a-steps", type=_int_at_least(1), default=None,
                     help="grid points from --a-min to --a-max (default 1)")
    sub.add_argument("--jobs", type=_int_at_least(1), default=1,
                     help="worker processes, at most one per cell and CPU (default 1)")


def _config_from(args, policy: PrecisionPolicy, a_values: tuple[str, ...]) -> RunConfig:
    return RunConfig(
        command=args.command,
        n_max=args.n_max,
        a_values=a_values,
        policy=policy,
        digits=args.digits,
        suite=getattr(args, "suite", "all"),
        tolerances=tuple(sorted(getattr(args, "tol", []))),
        out_format=getattr(args, "format", "csv"),
        jobs=args.jobs,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gue-gap-lab",
        description="Finite-n GUE bulk gap probabilities and their "
                    "recurrence and differential structure, verified.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    t = subs.add_parser("table", help="ladder and probability table on an a-grid")
    _add_grid(t)
    _add_precision(t)
    t.add_argument("--format", choices=("csv", "json"), default="csv")
    t.add_argument("--plot", default=None, metavar="SVG",
                   help="also render prob vs a to this SVG")

    v = subs.add_parser("verify", help="run residual suites and report")
    _add_grid(v)
    _add_precision(v)
    v.add_argument("--suite", choices=SUITES, default="all")
    v.add_argument("--tol", type=_tolerance, action="append", default=[],
                   metavar="NAME=VALUE",
                   help="tolerance override; NAME may be a check name or 'all'")

    p = subs.add_parser("prob", help="both probability routes at one cell")
    p.add_argument("n", type=_int_at_least(1))
    p.add_argument("a", type=_half_width)
    _add_precision(p)

    pl = subs.add_parser("plot", help="SVG plot of a table CSV column")
    pl.add_argument("--in", dest="in_path", required=True, help="table CSV to read")
    pl.add_argument("--quantity", choices=PLOT_COLUMNS, default="prob")
    pl.add_argument("--n-select", type=_degree_list, default=None,
                    help="comma-separated degrees to draw (default: all)")
    pl.add_argument("--out", required=True, help="SVG file to write")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    named = [(f"--{flag}", getattr(args, dest, None))
             for flag, dest in (("in", "in_path"), ("out", "out"), ("plot", "plot"))]
    for (first, other), (flag, path) in itertools.combinations(
            [(flag, path) for flag, path in named if path], 2):
        if _same_file(path, other):
            parser.error(f"{flag} {path} names the same file as {first} {other}")
    for flag in ("out", "plot"):
        path = getattr(args, flag, None)
        if path:
            _check_writable(parser, f"--{flag}", path)
    if args.command == "plot":
        try:
            rows = _read_table_csv(args.in_path)
        except OSError as exc:
            parser.error(f"cannot read --in {args.in_path}: {exc.strerror}")
        try:
            return cmd_plot(rows, args.quantity, args.out, args.n_select)
        except DomainError as exc:
            parser.error(f"--in {args.in_path}: {exc}")
    try:
        policy = PrecisionPolicy(
            base_bits=args.prec_bits,
            max_bits=args.max_bits,
            target_certified_digits=max(args.target_digits, args.digits or 0),
        )
    except DomainError as exc:
        parser.error(f"precision flags (--prec-bits, --max-bits, --target-digits): {exc}")
    if args.command != "prob":
        config = _config_from(args, policy, _parse_a_values(args, parser))
        if args.command == "verify" and config.n_max == 0 and config.suite in (
                "discrete", "continuous", "oracle"):
            parser.error(f"--suite {config.suite} has no checks at n = 0; give --n-max >= 1")
    try:
        if args.command == "prob":
            return cmd_prob(policy, args.digits, args.n, args.a, args.out)
        if args.command == "table":
            return cmd_table(config, args.out, args.plot)
        return cmd_verify(config, args.out)
    except GapLabError as exc:
        print(f"{parser.prog}: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
