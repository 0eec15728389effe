"""One cold benchmark sample: import the CLI, run it once, report JSON.

Usage: python3 bench/child.py START_NS TRACE -- [CLI_ARGS...]

START_NS is the parent's time.monotonic_ns() taken just before it started
this process, so setup_s covers interpreter start plus the package import.
The CLI's standard output is captured and returned inside the report,
which is the only thing written to this process's standard output.  With
no CLI_ARGS the child only measures setup.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import gue_gap_lab.cli as cli  # noqa: E402

IMPORTED_NS = time.monotonic_ns()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402

import mpmath  # noqa: E402


def main() -> int:
    start_ns, trace, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py START_NS TRACE -- [CLI_ARGS...]")
    package_dir = os.path.dirname(os.path.abspath(cli.__file__))
    if os.path.dirname(package_dir) != SRC:
        raise SystemExit(f"gue_gap_lab imported from {package_dir}, not from {SRC}")
    report = {
        "setup_s": (IMPORTED_NS - int(start_ns)) / 1e9,
        "env": {
            "python": platform.python_version(),
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
        },
    }
    if not argv:
        sys.stdout.write(json.dumps(report) + "\n")
        return 0
    recorder = None
    if trace == "1":
        from spans import SpanRecorder

        recorder = SpanRecorder()
        recorder.install()
    out = io.StringIO()
    began = time.perf_counter()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    wall = time.perf_counter() - began
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report.update(wall_s=wall, peak_rss_mb=rss_kb / 1024, exit=code, output=out.getvalue())
    if recorder is not None:
        report["trace"] = recorder.snapshot()
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
