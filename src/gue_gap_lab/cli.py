"""Command-line front door: tables, verification suites, probabilities, plots.

Four subcommands:

  table    ladder and probability values on an a-grid, CSV or JSON
  verify   residual suites with per-check tolerances, JSON report,
           exit status 0 exactly when every check passes
  prob     both probability routes at a single (n, a) cell
  plot     standalone SVG line plot of a table column against a

Output is deterministic: identical configuration produces byte-identical
files, numbers are serialized in decimal scientific notation, and every
emitted file carries a hash of the canonical configuration JSON so a
report can be traced back to the exact run that made it.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
from dataclasses import dataclass

import mpmath as mp

from .difference_eqs import (
    BRANCH_MATCH_TOL,
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
from .ladder import edge_quantities, ladder_states, residual_identities, residual_supplementary
from .orthopoly import build_recurrence_table, hermite_norms_exact
from .precision import PrecisionPolicy
from .probability import hankel_probabilities, probability_record, residual_oracle
from .report import ResidualCheck, ResidualReport, sci_str

FORMAT_VERSION = "gue-gap-lab v1"
CSV_COLUMNS = ("n", "a", "beta", "h", "Pn_at_a", "p", "R", "r", "sigma", "prob", "status")
SUITES = ("identities", "supplementary", "discrete", "continuous", "oracle", "all")
PLOT_COLUMNS = CSV_COLUMNS[2:-1]  # every numeric column

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


@dataclass(frozen=True)
class RunConfig:
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
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


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
        lo = mp.mpf(args.a_min)
        hi = mp.mpf(args.a_max)
        step = (hi - lo) / (steps - 1)
        return tuple(
            mp.nstr(lo + k * step, 30, min_fixed=1, max_fixed=0)
            for k in range(steps)
        )


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
    rows: list[dict[str, str]] = []
    if _is_zero(a_str):
        return _table_rows_zero(config, a_str)
    try:
        table = orbit_recurrence_table(a_str, n_max, policy)
    except GapLabError as exc:
        return [
            _row(n, a_str, status=f"error:{type(exc).__name__}")
            for n in range(n_max + 1)
        ]
    digits = config.digits or table.certified_digits
    failed_at = None
    try:
        states = ladder_states(table)
    except EdgeZeroError as exc:
        failed_at = exc.n
        states = ladder_states(table, n_top=failed_at - 1)
    probs = hankel_probabilities(table, n_max)
    for n in range(n_max + 1):
        values = {"beta": table.beta[n].value, "h": table.h[n].value, "prob": probs[n]}
        if failed_at is None or n < failed_at:
            s = states[n]
            status = "ok"
            values.update(P=s.Pn_at_a.value, p=s.p.value, R=s.R.value, r=s.r.value,
                          sigma=s.sigma.value)
        else:
            status = "edge-zero" if n == failed_at else "skipped"
        rows.append(_row(n, a_str, status=status, digits=digits, **values))
    return rows


def _table_rows_zero(config: RunConfig, a_str: str) -> list[dict[str, str]]:
    """Rows at a = 0: the classical weight, where the gap closes.

    beta_n = n/2 and h_n = (n!/2^n) sqrt(pi) in closed form, through
    ``edge_quantities`` at a = 0.  The probability is exactly 1 and r
    vanishes identically; sigma carries the one-sided limit -sum R_j(0+),
    which is the slope of ln P from the right.  Odd-n rows are flagged
    edge-zero for the structural parity zero of P_n at the origin.
    """
    policy = config.policy
    n_max = config.n_max
    digits = config.digits or policy.target_certified_digits
    bits = policy.working_bits(n_max)
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
    table = build_recurrence_table(a_str, n_max + 1, policy, jets=True)
    states = ladder_states(table)
    if suite in ("identities", "all"):
        reports.extend(residual_identities(states))
    if suite in ("supplementary", "all"):
        for n in range(0, n_max + 1):
            reports.append(residual_supplementary(states, n))
    if suite in ("discrete", "all") and n_max >= 1:
        orbit = iterate_r_orbit(a_str, n_max, table.working_bits)
        reports.extend(residual_orbit_vs_direct(orbit, states))
        for n in range(1, n_max + 1):
            rep = ResidualReport(a=a_str, n=n)
            rep.extend(residual_alternate_r(states, n).checks)
            rep.extend(residual_sigma_recurrence(states, n).checks)
            rep.extend(residual_R_recurrence(states, n).checks)
            choice = select_r_branch(states, n)
            rep.add(ResidualCheck(
                name="branch_select", n=n, residual=choice.rel_err,
                tolerance=BRANCH_MATCH_TOL,
                passed=bool(choice.rel_err < BRANCH_MATCH_TOL),
                note=f"sign {choice.sign}",
            ))
            reports.append(rep)
    if suite in ("continuous", "all"):
        source = jet_source(table)
        for n in range(1, n_max + 1):
            reports.append(continuous_suite(source, n))
    if suite in ("oracle", "all") and n_max >= 1:
        reports.append(residual_oracle(n_max, a_str, policy, table=table))
    return reports


def _verify_rows_for_a(config: RunConfig, a_str: str) -> list[dict]:
    if _is_zero(a_str):
        return [{
            "name": "cell_skipped", "n": -1, "a": a_str, "residual": "0.0e+0",
            "tolerance": 0.0, "pass": True, "warning": True,
            "note": "verify suites require a > 0",
        }]
    try:
        reports = _suite_reports(config, a_str)
    except GapLabError as exc:
        return [{
            "name": f"cell_error:{type(exc).__name__}", "n": -1, "a": a_str,
            "residual": "0.0e+0", "tolerance": 0.0, "pass": False,
            "note": str(exc),
        }]
    overrides = dict(config.tolerances)
    rows = []
    for rep in reports:
        for row in rep.rows():
            tol = overrides.get(row["name"], overrides.get("all"))
            if tol is not None:
                row["tolerance"] = tol
                with mp.workprec(64):
                    row["pass"] = bool(mp.mpf(row["residual"]) < tol)
            rows.append(row)
    return rows


def cmd_verify(config: RunConfig, out_path: str | None) -> int:
    """Write the verify report; exit status 0 exactly when at least one row
    was made and every row passes."""
    blocks = _map_cells(config, _verify_rows_for_a, config.a_values)
    rows = [row for block in blocks for row in block]
    ok = bool(rows) and all(row["pass"] for row in rows)
    payload = json.dumps(
        {
            "version": FORMAT_VERSION,
            "config": config.config_hash(),
            "suite": config.suite,
            "all_pass": ok,
            "checks": rows,
        },
        sort_keys=True, indent=2,
    ) + "\n"
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
        rec = probability_record(
            n, a_str, policy, digits=max(digits, policy.target_certified_digits))
        doc = {
            "n": n, "a": a_str,
            "prob_hankel": sci_str(rec.prob_hankel, digits),
            "prob_fredholm": sci_str(rec.prob_fredholm, digits),
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
    """Draw one of the PLOT_COLUMNS against a as an SVG, one polyline per n."""
    series: dict[int, list[tuple[float, float]]] = {}
    for row in rows:
        if not row.get(quantity):
            continue
        n = int(row["n"])
        if n_select is not None and n not in n_select:
            continue
        series.setdefault(n, []).append(
            (float(row["a"]), float(mp.mpf(row[quantity])))
        )
    if not series or all(len(pts) == 0 for pts in series.values()):
        raise SystemExit(f"no data for column {quantity!r}")
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


def _add_precision(sub):
    """Flags of every computing subcommand: precision policy and output."""
    sub.add_argument("--prec-bits", type=int, default=512,
                     help="base working precision in bits")
    sub.add_argument("--max-bits", type=int, default=16384)
    sub.add_argument("--target-digits", type=int, default=40)
    sub.add_argument("--digits", type=_int_at_least(1), default=None,
                     help="printed significant digits (default: certified)")
    sub.add_argument("--out", default=None)


def _add_grid(sub):
    """Flags of the subcommands that sweep an a-grid: table and verify."""
    sub.add_argument("--n-max", type=_int_at_least(0), default=10)
    sub.add_argument("--a-list", type=_half_width_list, help="comma-separated a values")
    sub.add_argument("--a-min", type=_half_width)
    sub.add_argument("--a-max", type=_half_width)
    sub.add_argument("--a-steps", type=_int_at_least(1), default=None,
                     help="grid points from --a-min to --a-max (default 1)")
    sub.add_argument("--jobs", type=_int_at_least(1), default=1)


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
    pl.add_argument("--in", dest="in_path", required=True)
    pl.add_argument("--quantity", choices=PLOT_COLUMNS, default="prob")
    pl.add_argument("--n-select", type=_degree_list, default=None,
                    help="comma-separated degrees to draw (default: all)")
    pl.add_argument("--out", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "plot":
        try:
            rows = _read_table_csv(args.in_path)
        except OSError as exc:
            parser.error(f"cannot read --in {args.in_path}: {exc.strerror}")
        return cmd_plot(rows, args.quantity, args.out, args.n_select)
    try:
        policy = PrecisionPolicy(
            base_bits=args.prec_bits,
            bits_per_n=32,
            max_bits=args.max_bits,
            target_certified_digits=args.target_digits,
        )
    except DomainError as exc:
        parser.error(f"precision flags (--prec-bits, --max-bits, --target-digits): {exc}")
    if args.command == "prob":
        try:
            return cmd_prob(policy, args.digits, args.n, args.a, args.out)
        except GapLabError as exc:
            print(f"{parser.prog}: error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
    config = _config_from(args, policy, _parse_a_values(args, parser))
    if args.command == "verify" and config.n_max == 0 and config.suite in (
            "discrete", "continuous", "oracle"):
        parser.error(f"--suite {config.suite} has no checks at n = 0; give --n-max >= 1")
    if args.command == "table":
        return cmd_table(config, args.out, args.plot)
    return cmd_verify(config, args.out)


if __name__ == "__main__":
    sys.exit(main())
