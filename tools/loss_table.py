"""Measure how many digits each certified build loses, fit the
start-precision model to it, and check both.

    python tools/loss_table.py            # measure every cell, write tests/data/loss_table.json
    python tools/loss_table.py --check    # re-measure every 4th cell against the committed table

A build's loss at (a, n) is W log10(2) minus the digits on which its pass
at W bits and its check pass at W + CHECK_BITS agree (``certify``'s own
compare, ``precision.certified_digits``, uncapped), at the first W = 256, 512, 1024, ... where they agree
to at least 30 digits.  The Chebyshev route is measured on the pass on
jets, whose derivative parts certification also compares; the orbit on
``difference_eqs._orbit_pass``; the Fredholm route on the minors of C_n
(``probability._fredholm_pass``), with n the matrix order, over the
Chebyshev route's cells, n = 100 and 150 across the a-range, and
a = 20 and 30.

The write mode then fits ``precision.LOSS_FIT`` to the table (minimax,
rounded to 2 decimals) and finds the smallest margin in digits at which a
default start certifies every cell without escalation; it prints both, to
be copied into precision.py, and stores them in the table.  The check mode
fails (exit 1) when a re-measured loss differs from the committed one,
when precision.py's constants are not the committed table's, or when a
default build of a re-measured cell escalates.  Run from the repository
root; writing takes a minute or two, checking a few seconds.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import mpmath as mp  # noqa: E402

from gue_gap_lab import difference_eqs, orthopoly, precision, probability  # noqa: E402
from gue_gap_lab.exceptions import IllConditioningError, PrecisionExhaustedError  # noqa: E402
from gue_gap_lab.precision import (  # noqa: E402
    CHECK_BITS,
    Certified,
    NonPositiveNorm,
    PrecisionPolicy,
    certified_digits,
    certify,
)

TABLE = ROOT / "tests" / "data" / "loss_table.json"
MIN_AGREEMENT = 30
CHECK_EVERY = 4
CHEBYSHEV_CELLS = list(itertools.product(
    ("0.01", "0.1", "0.3", "0.7", "1", "1.5", "2", "3", "5", "8", "12"),
    (1, 2, 4, 8, 16, 32, 61)))
CELLS = {
    "chebyshev": CHEBYSHEV_CELLS,
    "orbit": list(itertools.product(
        ("1e-300", "1e-40", "1e-9", "0.01", "0.1", "0.5", "1", "2", "3", "6", "12", "20", "30"),
        (1, 4, 20, 100, 300))) + [("1", 1000), ("6", 1000), ("30", 1000)],
    "fredholm": CHEBYSHEV_CELLS + list(itertools.product(
        ("0.1", "1", "2", "3", "5", "8", "12"), (100, 150))) + list(itertools.product(
        ("20", "30"), (1, 2, 4, 8, 16, 32, 61, 100))),
}


def _pass(route: str):
    """The pass ``(a, n, bits) -> nested numbers`` that ``route`` certifies."""
    return {
        "chebyshev": functools.partial(orthopoly._chebyshev_pass, jets=True),
        "orbit": difference_eqs._orbit_pass,
        "fredholm": probability._fredholm_pass,
    }[route]


def build(route: str, a: str, n: int, policy: PrecisionPolicy | None = None) -> Certified:
    """The certified build of ``route`` at (a, n), under the default policy
    when ``policy`` is None."""
    return certify(route, _pass(route), a, n, policy)


def measure(route: str, a: str, n: int) -> tuple[int, float]:
    """(W, loss in digits) of one cell, as the module docstring defines them."""
    run = _pass(route)
    bits = 256
    while True:
        try:
            lo, hi = run(a, n, bits), run(a, n, bits + CHECK_BITS)
        except NonPositiveNorm:
            agreed = 0
        else:
            agreed = certified_digits(lo, hi, 10 ** 9)
        if agreed >= MIN_AGREEMENT:
            return bits, round(bits * math.log10(2) - agreed, 1)
        bits *= 2


def fit(route: str, cells: list) -> list[float]:
    """Minimax (c, s, p, q) of ``precision.loss_digits``'s form over the
    cells [a, n, bits, loss], rounded to 2 decimals: c is the midrange of
    the residuals at each (s, p, q) of an 11-point grid per axis, and the
    grid shrinks 5-fold around the best point three times.  s stays 0 on
    the orbit and the Fredholm route, which lose nothing at a = 0."""
    pts = [(float(a), n, loss) for a, n, _, loss in cells]

    def spread(s, p, q):
        res = [loss - s * n - n * math.log10(1 + p * a / math.sqrt(n) + q * a * a / n)
               if n else loss for a, n, loss in pts]
        return (max(res) - min(res)) / 2, (max(res) + min(res)) / 2

    centre, step = [0.45, 2.5, 5.0], [0.05, 0.5, 1.0]
    if route != "chebyshev":
        centre[0] = step[0] = 0.0
    best = None
    for _ in range(4):
        axes = [sorted({max(0.0, x + d * h) for d in range(-5, 6)}) for x, h in zip(centre, step)]
        for s, p, q in itertools.product(*axes):
            err, c = spread(s, p, q)
            if best is None or err < best[0]:
                best = (err, c, s, p, q)
        centre, step = list(best[2:]), [h / 5 for h in step]
    return [round(x, 2) for x in best[1:]]


def first_level_certifies(route: str, a: str, n: int) -> bool:
    """Whether the first level of a default build reaches the default
    target: the build under a ceiling of the default start + CHECK_BITS,
    whose one level is the default start's pass pair."""
    ceiling = PrecisionPolicy().start_bits(route, a, n) + CHECK_BITS
    try:
        build(route, a, n, PrecisionPolicy(max_bits=ceiling))
    except (PrecisionExhaustedError, IllConditioningError):
        return False
    return True


def smallest_margin(table: dict) -> int:
    """The smallest margin in digits at which every cell's default build
    certifies at its first level, under the table's fits: each cell's own
    smallest margin, raised while some cell fails at the largest of them."""
    precision.LOSS_FIT.update({route: tuple(t["fit"]) for route, t in table["routes"].items()})
    cells = [(route, a, n) for route, t in table["routes"].items() for a, n, _, _ in t["cells"]]
    margin = 0
    for cell in cells:
        precision.LOSS_MARGIN_DIGITS = margin
        while not first_level_certifies(*cell):
            margin += 1
            precision.LOSS_MARGIN_DIGITS = margin
    while not all(first_level_certifies(*cell) for cell in cells):
        margin += 1
        precision.LOSS_MARGIN_DIGITS = margin
    return margin


def write() -> int:
    table = {
        "about": "digit loss of one certified build: W log10(2) minus the digits its "
                 "passes at W and W + CHECK_BITS agree on; see tools/loss_table.py",
        "mpmath": mp.__version__,
        "target_digits": PrecisionPolicy().target_certified_digits,
        "routes": {},
    }
    for route, cells in CELLS.items():
        rows = []
        for a, n in cells:
            bits, loss = measure(route, a, n)
            rows.append([a, n, bits, loss])
            print(f"{route} a={a} n={n}: {loss} digits at {bits} bits", flush=True)
        table["routes"][route] = {"fit": fit(route, rows), "cells": rows}
    table["margin_digits"] = smallest_margin(table)
    # one fit or cell per line: collapse every list that holds no list
    text = re.sub(r"\[\s+([^][{}]*?)\s+\]", lambda m: "[" + re.sub(r"\s+", " ", m.group(1)) + "]",
                  json.dumps(table, indent=1))
    TABLE.write_text(text + "\n")
    print("LOSS_FIT = {")
    for route, t in table["routes"].items():
        print(f'    "{route}": {tuple(t["fit"])},')
    print("}")
    print(f"LOSS_MARGIN_DIGITS = {table['margin_digits']}")
    return 0


def check() -> int:
    table = json.loads(TABLE.read_text())
    problems = []
    for route, t in table["routes"].items():
        if tuple(t["fit"]) != precision.LOSS_FIT[route] or fit(route, t["cells"]) != t["fit"]:
            problems.append(f"{route}: LOSS_FIT {precision.LOSS_FIT[route]} is not the "
                            f"table's fit {fit(route, t['cells'])}")
        for a, n, bits, loss in t["cells"][::CHECK_EVERY]:
            now = measure(route, a, n)
            if now != (bits, loss):
                problems.append(f"{route} a={a} n={n}: measured {now}, committed {(bits, loss)}")
            if build(route, a, n).escalations:
                problems.append(f"{route} a={a} n={n}: the default start escalates")
    if table["margin_digits"] != precision.LOSS_MARGIN_DIGITS:
        problems.append(f"LOSS_MARGIN_DIGITS {precision.LOSS_MARGIN_DIGITS} is not the "
                        f"table's {table['margin_digits']}")
    for line in problems:
        print(line)
    print(f"{len(problems)} problems")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="re-measure a subset against the committed table")
    args = parser.parse_args(argv)
    return check() if args.check else write()


if __name__ == "__main__":
    sys.exit(main())
