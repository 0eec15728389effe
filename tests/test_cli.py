"""Command-line behavior: formats, determinism, exit codes, plots."""

import concurrent.futures
import csv
import hashlib
import itertools
import json
import math
import re
import subprocess
import sys
from concurrent.futures import Future
from pathlib import Path

import mpmath as mp
import pytest
from mpmath import libmp

from gue_gap_lab import (
    EdgeZeroError,
    PrecisionPolicy,
    RecurrenceTable,
    build_recurrence_table,
    cli,
    hermite_norms_exact,
    orthopoly,
    precision,
    probability,
)
from gue_gap_lab.report import sci_str

ERFC_1 = "0.157299207050285130658779364917390740703933002"
README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(args):
    return cli.main(args)


def read_table(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("# gue-gap-lab v1 config=")
    return lines[0], list(csv.DictReader(lines[1:]))


class TestTable:
    def test_small_table_contents(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run_cli(["table", "--n-max", "2", "--a-list", "1",
                        "--digits", "20", "--out", str(out)]) == 0
        header, rows = read_table(str(out))
        assert len(rows) == 3
        assert [r["n"] for r in rows] == ["0", "1", "2"]
        assert all(r["status"] == "ok" for r in rows)
        assert rows[0]["r"] == "0.0"
        assert rows[0]["sigma"] == "0.0"
        assert rows[0]["prob"].startswith("1.0")
        with mp.workprec(128):
            r1 = mp.mpf(rows[1]["r"])
            seed = mp.mpf("2.63896751423479126047")
            assert abs(r1 - seed) / seed < mp.mpf(10) ** -18
            p1 = mp.mpf(rows[1]["prob"])
            assert abs(p1 - mp.mpf(ERFC_1)) / p1 < mp.mpf(10) ** -18

    def test_zero_half_width_rows(self, tmp_path):
        out = tmp_path / "z.csv"
        run_cli(["table", "--n-max", "4", "--a-list", "0",
                 "--digits", "15", "--out", str(out)])
        _, rows = read_table(str(out))
        for r in rows:
            assert r["prob"] == "1." + "0" * 14
            assert r["r"] == "0.0"
            expected = "ok" if int(r["n"]) % 2 == 0 else "edge-zero"
            assert r["status"] == expected
        assert rows[0]["sigma"] == "0.0"
        with mp.workprec(64):
            assert mp.mpf(rows[1]["beta"]) == mp.mpf("0.5")
            assert mp.mpf(rows[2]["sigma"]) < 0

    def test_zero_rows_match_the_certified_table(self, tmp_path):
        # the closed forms beta_n = n/2, h_n = (n!/2^n) sqrt(pi) against the
        # Chebyshev route at a = 0
        out = tmp_path / "z.csv"
        run_cli(["table", "--n-max", "12", "--a-list", "0",
                 "--digits", "40", "--out", str(out)])
        _, rows = read_table(str(out))
        table = build_recurrence_table("0", 12)
        assert [r["beta"] for r in rows] == [sci_str(b, 40) for b in table.beta]
        assert [r["h"] for r in rows] == [sci_str(h, 40) for h in table.h]

    def test_zero_rows_keep_the_target_digits_under_a_low_prec_bits(self, capsys,
                                                                     monkeypatch):
        # no pass certifies the closed forms, so a --prec-bits below the
        # target's start must not cut their digits; a larger one is kept
        seen = []

        def norms(count, bits):
            seen.append(bits)
            return hermite_norms_exact(count, bits)

        monkeypatch.setattr(cli, "hermite_norms_exact", norms)
        outs = []
        for extra in ([], ["--prec-bits", "64"], ["--prec-bits", "512"]):
            assert run_cli(["table", "--n-max", "3", "--a-list", "0", *extra]) == 0
            outs.append(capsys.readouterr().out.splitlines()[1:])
        assert seen == [146, 146, 512]
        assert outs[1] == outs[0] == outs[2]
        assert outs[1][1].split(",")[3] == "1.772453850905516027298167483341145182798"

    @pytest.mark.parametrize("digits, digest", [
        (["--digits", "30"],
         "01c82baa546a81717a35433ad3950e59b03a98865b811f6b85a5e856e9b019f6"),
        ([], "3f815bf035f1efea872f696cdbd2f28dfeac77ce7eb2aefc5e5772d0cf180ee9"),
    ])
    def test_zero_rows_are_pinned(self, capsys, digits, digest):
        # stdout of the closed-form a = 0 rows, frozen when they had their
        # own recurrence; they now come from ladder.edge_quantities
        assert run_cli(["table", "--n-max", "60", "--a-list", "0", *digits]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_default_digits_orbit_rows_are_pinned(self, capsys):
        # stdout without --digits prints the 40-digit target on every row,
        # the rows of --digits 40 under this run's own header
        assert run_cli(["table", "--n-max", "40", "--a-list", "0.1,0.5,1,2,3.5"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "80935a0111ab68df24ba895d2720c9b5247f5edc5b2253344576d6ef628e63de")

    def test_edge_zero_row_and_the_rows_after_it(self, tmp_path, monkeypatch):
        # P_2(a) forced below the certification threshold: the rows before
        # it are whole, it is edge-zero, and later rows keep beta, h, prob
        real_states = cli.ladder_states

        def failing_states(table, n_top=None):
            if n_top is None:
                raise EdgeZeroError("forced", n=2)
            return real_states(table, n_top)

        args = ["table", "--n-max", "4", "--a-list", "1", "--digits", "20"]
        assert run_cli([*args, "--out", str(tmp_path / "ok.csv")]) == 0
        monkeypatch.setattr(cli, "ladder_states", failing_states)
        assert run_cli([*args, "--out", str(tmp_path / "ez.csv")]) == 0
        _, whole = read_table(str(tmp_path / "ok.csv"))
        _, rows = read_table(str(tmp_path / "ez.csv"))
        assert [r["status"] for r in rows] == ["ok", "ok", "edge-zero", "skipped", "skipped"]
        assert rows[:2] == whole[:2]
        for row, ref in zip(rows[2:], whole[2:]):
            assert {k: v for k, v in row.items() if v} == {
                k: ref[k] for k in ("n", "a", "beta", "h", "prob")} | {"status": row["status"]}

    def test_tiny_half_width_rows_are_unchanged(self, tmp_path):
        # the orbit builds these rows; the pin is the Chebyshev route's
        # output at a = 1e-12, so both routes print the same digits
        out = tmp_path / "tiny.csv"
        assert run_cli(["table", "--n-max", "5", "--a-list", "1e-12",
                        "--digits", "30", "--out", str(out)]) == 0
        body = out.read_text().split("\n", 1)[1]
        assert hashlib.sha256(body.encode()).hexdigest() == (
            "58fa459663f27b58f1ee59bdeca0af199cf7714d5d88473ca2e56ef50347ca55")
        _, rows = read_table(str(out))
        assert all(r["status"] == "ok" for r in rows)

    @pytest.fixture()
    def cheb_calls(self, monkeypatch):
        """Arguments of every Chebyshev-route build the CLI makes."""
        calls = []
        real_build = cli.build_recurrence_table

        def counting_build(*args, **kwargs):
            calls.append(args)
            return real_build(*args, **kwargs)

        monkeypatch.setattr(cli, "build_recurrence_table", counting_build)
        return calls

    def test_orbit_builds_tiny_half_width_cells(self, tmp_path, monkeypatch, cheb_calls):
        # the orbit iterates the (r_n, R_n) pair, which has no cancellation
        # at small a, so these cells never reach the Chebyshev route; their
        # rows equal that route's
        cells = [("200", "1e-12"), ("60", "1e-40"), ("60", "1e-300")]
        orbit_outs = []
        for n_max, a in cells:
            out = tmp_path / f"orbit{a}.csv"
            assert run_cli(["table", "--n-max", n_max, "--digits", "30",
                            "--a-list", a, "--out", str(out)]) == 0
            orbit_outs.append(out.read_text())
        assert cheb_calls == []

        monkeypatch.setattr(cli, "orbit_recurrence_table", cli.build_recurrence_table)
        for (n_max, a), orbit_text in zip(cells, orbit_outs):
            out = tmp_path / f"cheb{a}.csv"
            assert run_cli(["table", "--n-max", n_max, "--digits", "30",
                            "--a-list", a, "--out", str(out)]) == 0
            assert out.read_text() == orbit_text, a
        assert len(cheb_calls) == len(cells)

    def test_large_n_certifies_independent_of_base_bits(self, tmp_path):
        bodies = []
        for bits in ("512", "2048"):
            out = tmp_path / f"big{bits}.csv"
            assert run_cli(["table", "--n-max", "1000", "--a-list", "1",
                            "--digits", "30", "--prec-bits", bits,
                            "--out", str(out)]) == 0
            _, rows = read_table(str(out))
            assert len(rows) == 1001
            assert all(r["status"] == "ok" for r in rows)
            bodies.append(out.read_text().split("\n", 1)[1])
        assert bodies[0] == bodies[1]

    def test_huge_precision_prints_tiny_probabilities(self, tmp_path, monkeypatch):
        # P(20, 30) is about 1e-7818, held in a mantissa of tens of
        # thousands of bits: printing it must not hit the int-str limit
        printed = []

        def spy(x, digits):
            printed.append((x, digits, sci_str(x, digits)))
            return printed[-1][2]

        monkeypatch.setattr(cli, "sci_str", spy)
        out = tmp_path / "huge.csv"
        assert run_cli(["table", "--n-max", "20", "--a-list", "30",
                        "--prec-bits", "16384", "--max-bits", "65536",
                        "--digits", "30", "--out", str(out)]) == 0
        _, rows = read_table(str(out))
        assert len(rows) == 21 and all(r["status"] == "ok" for r in rows)
        assert rows[-1]["prob"].endswith("e-7818")
        # and every value prints as the mantissa cut by round-down to the
        # bits nstr reads (plus GUARD_BITS) and then handed to nstr
        assert len(printed) == 21 * 8
        for x, digits, text in printed:
            bits = int((digits + 3) * math.log2(10)) + precision.GUARD_BITS
            cut = mp.make_mpf(libmp.mpf_pos(x._mpf_, bits, libmp.round_down))
            assert text == mp.nstr(cut, digits, min_fixed=1, max_fixed=0, strip_zeros=False)

    def test_byte_identical_reruns_and_jobs_merge(self, tmp_path):
        args = ["table", "--n-max", "3", "--a-list", "0.5,1.5",
                "--digits", "20"]
        p1, p2, p3 = (tmp_path / f"{k}.csv" for k in "abc")
        run_cli(args + ["--out", str(p1)])
        run_cli(args + ["--out", str(p2)])
        run_cli(args + ["--jobs", "2", "--out", str(p3)])
        assert p1.read_bytes() == p2.read_bytes() == p3.read_bytes()

    def test_a_major_then_n_ordering(self, tmp_path):
        out = tmp_path / "o.csv"
        run_cli(["table", "--n-max", "1", "--a-list", "2,0.5",
                 "--digits", "10", "--out", str(out)])
        _, rows = read_table(str(out))
        assert [(r["a"], r["n"]) for r in rows] == [
            ("2", "0"), ("2", "1"), ("0.5", "0"), ("0.5", "1")]

    def test_config_hash_tracks_configuration(self, tmp_path):
        outs = [tmp_path / f"{k}.csv" for k in range(3)]
        run_cli(["table", "--n-max", "2", "--a-list", "1", "--out", str(outs[0])])
        run_cli(["table", "--n-max", "2", "--a-list", "1", "--out", str(outs[1])])
        run_cli(["table", "--n-max", "3", "--a-list", "1", "--out", str(outs[2])])
        h = [read_table(str(o))[0] for o in outs]
        assert h[0] == h[1]
        assert h[0] != h[2]

    @pytest.mark.parametrize("command, suite, tolerances", [
        ("table", "all", ()),
        ("verify", "discrete", (("all", 1e-20), ("pair_sum", 1e-25))),
    ])
    def test_config_hash_is_the_sha256_of_the_canonical_json(self, command, suite, tolerances):
        config = cli.RunConfig(command=command, n_max=3, a_values=("1", "2.5"),
                               policy=PrecisionPolicy(max_bits=4096), digits=30, suite=suite,
                               tolerances=tolerances)
        blob = json.dumps(config.canonical(), sort_keys=True, separators=(",", ":")).encode()
        assert config.config_hash() == hashlib.sha256(blob).hexdigest()[:16]

    def test_half_width_past_the_erfc_bound_gives_error_rows(self, tmp_path):
        out = tmp_path / "huge.csv"
        assert run_cli(["table", "--n-max", "2", "--a-list", "1,1e400", "--out", str(out)]) == 1
        _, rows = read_table(str(out))
        assert [r["status"] for r in rows] == ["ok"] * 3 + ["error:DomainError"] * 3

    def test_csv_roundtrip_at_printed_precision(self, tmp_path):
        out = tmp_path / "rt.csv"
        run_cli(["table", "--n-max", "3", "--a-list", "0.7",
                 "--digits", "25", "--out", str(out)])
        _, rows = read_table(str(out))
        from gue_gap_lab.report import sci_str
        for r in rows:
            for col in ("beta", "h", "R", "r", "sigma", "prob"):
                with mp.workprec(120):
                    reparsed = sci_str(mp.mpf(r[col]), 25)
                assert reparsed == r[col]

    def test_json_format(self, tmp_path):
        out = tmp_path / "t.json"
        run_cli(["table", "--n-max", "1", "--a-list", "1", "--format", "json",
                 "--digits", "12", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["version"] == "gue-gap-lab v1"
        assert len(doc["rows"]) == 2
        assert doc["rows"][1]["status"] == "ok"

    def test_error_rows_give_exit_status_one(self, tmp_path):
        out = tmp_path / "e.csv"
        code = run_cli(["table", "--a-list", "1", "--n-max", "30",
                        "--prec-bits", "64", "--max-bits", "128", "--out", str(out)])
        assert code == 1
        _, rows = read_table(str(out))
        assert len(rows) == 31
        assert all(r["status"] == "error:PrecisionExhaustedError" for r in rows)

    def test_grid_flags_generate_inclusive_linspace(self, tmp_path):
        out = tmp_path / "g.csv"
        run_cli(["table", "--n-max", "0", "--a-min", "0.5", "--a-max", "1.5",
                 "--a-steps", "3", "--digits", "10", "--out", str(out)])
        _, rows = read_table(str(out))
        a_vals = [float(mp.mpf(r["a"])) for r in rows]
        assert a_vals == [0.5, 1.0, 1.5]

    def test_descending_grid_ends_at_its_last_flag(self, tmp_path):
        # the last point is --a-max itself, not a sum of steps that misses
        # 0 by a rounding, 4.98e-60 at 200 bits
        out = tmp_path / "g.csv"
        run_cli(["table", "--n-max", "0", "--a-min", "7.4", "--a-max", "0",
                 "--a-steps", "21", "--digits", "10", "--out", str(out)])
        _, rows = read_table(str(out))
        assert [r["a"] for r in rows][-3:] == ["7.4e-1", "3.7e-1", "0.0"]


class TestVerify:
    def test_default_suite_passes(self, tmp_path):
        out = tmp_path / "v.json"
        code = run_cli(["verify", "--n-max", "2", "--a-list", "0.9",
                        "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["all_pass"] is True
        assert doc["suite"] == "all"
        names = {c["name"] for c in doc["checks"]}
        for expected in ("pair_sum", "sigma_recurrence", "chazy",
                         "route_agreement", "branch_select"):
            assert expected in names
        for c in doc["checks"]:
            assert set(c) >= {"name", "n", "a", "residual", "tolerance", "pass"}

    def test_forced_failure_with_bare_tol(self, tmp_path):
        # route_agreement residuals are about 1e-58, so 1e-99 fails them
        out = tmp_path / "v.json"
        code = run_cli(["verify", "--suite", "oracle", "--n-max", "2",
                        "--a-list", "1", "--tol", "1e-99", "--out", str(out)])
        assert code == 1
        doc = json.loads(out.read_text())
        assert doc["all_pass"] is False
        assert any(not c["pass"] for c in doc["checks"])

    def test_named_tolerance_override(self, tmp_path):
        out = tmp_path / "v.json"
        # every residual of this cell is below 2^-(working bits - 16)
        bits = build_recurrence_table("1", 4, jets=True).working_bits
        tol = 2.0 ** -(bits - 16)
        code = run_cli(["verify", "--suite", "discrete", "--n-max", "3",
                        "--a-list", "1", "--tol", f"orbit_vs_direct={tol!r}",
                        "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        tolerances = {c["name"]: c["tolerance"] for c in doc["checks"]}
        assert tolerances.pop("orbit_vs_direct") == tol
        assert tolerances and tol not in tolerances.values()
        assert all(c["pass"] for c in doc["checks"])

    def test_tolerance_override_judges_the_residual_not_its_string(self, tmp_path):
        # a check whose 8-digit residual string rounds up, with tolerances
        # just above and just below the residual itself: the verdicts follow
        # the residual, though the string is above both
        config = cli.RunConfig(command="verify", n_max=3, a_values=("0.7",),
                               policy=PrecisionPolicy(), digits=None, suite="identities")
        for check in (c for rep in cli._suite_reports(config, "0.7") for c in rep.checks):
            above = float(check.residual)
            if above <= check.residual:
                above = math.nextafter(above, math.inf)
            if above < mp.mpf(sci_str(check.residual, 8)):
                break
        else:
            pytest.fail("no residual string of this cell rounds up past a double")
        below = math.nextafter(above, 0)
        for tol, passed in ((above, True), (below, False)):
            out = tmp_path / "v.json"
            run_cli(["verify", "--suite", "identities", "--n-max", "3", "--a-list", "0.7",
                     "--tol", f"{check.name}={tol!r}", "--out", str(out)])
            [row] = [c for c in json.loads(out.read_text())["checks"]
                     if (c["name"], c["n"]) == (check.name, check.n)]
            assert row["tolerance"] == tol and mp.mpf(row["residual"]) > tol
            assert row["pass"] is passed

    def test_every_row_is_labelled_with_its_grid_text(self, tmp_path):
        # each cell's rows form one block labelled with the text it ran: not
        # "3.0" for "3", and two cells equal to 12 digits stay apart
        grid = ["0.70", "1e-3", "3", "0.1234567890121", "0.1234567890122"]
        out = tmp_path / "v.json"
        assert run_cli(["verify", "--suite", "all", "--n-max", "1",
                        "--a-list", ",".join(grid), "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["checks"]
        assert [a for a, _ in itertools.groupby(row["a"] for row in rows)] == grid
        assert {row["name"] for row in rows if row["a"] == "3"} >= {
            "pair_sum", "alternate_r", "branch_select", "chazy", "route_agreement"}

    def test_every_suite_on_four_cells_is_pinned(self, capsys):
        # grid texts equal to their 12-digit renderings of a, so the digest
        # is the same whichever of the two labels a row carries
        assert run_cli("verify --suite all --n-max 6 --a-list 0.3,0.7,1.1,2.5".split()) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
            "ae209d6eab502a68ae65c838a6e3e07b8fef4e6c10e65e303865d2fdd684c37d")

    @pytest.mark.parametrize("args, digest", [
        ("verify --suite all --n-max 3 --a-list 0.7,1.1 --jobs 1",
         "ab39d305b0ff1b18f8b636558cb376bd4801dd0ca2ad681399b6dcd1493698e8"),
        # at 0.37 and 2.1 a default sample point sits on the pole and is nudged
        ("verify --suite supplementary --n-max 40 --a-list 1e-3,0.37,2.1,5",
         "2e0f24aa10d3f1eed1c4bdb1755450aa48335e0d95468765d7f2524b63c4aa13"),
    ])
    def test_verify_outputs_are_pinned(self, capsys, args, digest):
        # taken before the spectral samples were built once per cell
        assert run_cli(args.split()) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_tol_override_is_judged_by_passes(self, tmp_path, monkeypatch):
        # every override verdict is the one helper's, whatever it says
        seen = []

        def judge(residual, tolerance):
            seen.append(tolerance)
            return False

        monkeypatch.setattr(cli, "passes", judge)
        out = tmp_path / "v.json"
        assert run_cli(["verify", "--suite", "identities", "--n-max", "1", "--a-list", "1",
                        "--tol", "pair_sum=1e-5", "--out", str(out)]) == 1
        rows = [r for r in json.loads(out.read_text())["checks"] if r["name"] == "pair_sum"]
        assert seen == [1e-5] * len(rows) and rows
        assert not any(r["pass"] for r in rows)

    @pytest.mark.parametrize("a_list, name, code", [
        ("1", "pair_summ", 2),  # a typo matches no check
        ("1", "pair_sum", 0),
        ("0", "pair_summ", 0),  # no cell ran a check, so no name is known
    ])
    def test_tolerance_name_must_match_a_check(self, tmp_path, capsys, a_list, name, code):
        out = tmp_path / "v.json"
        assert run_cli(["verify", "--suite", "identities", "--n-max", "2",
                        "--a-list", a_list, "--tol", f"{name}=1e-5",
                        "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code == 2:
            assert err.count("\n") == 1 and name in err
            assert not out.exists()
        else:
            assert err == ""
            rows = json.loads(out.read_text())["checks"]
            assert any(c["name"] == name and c["tolerance"] == 1e-5 for c in rows) == (a_list == "1")

    @pytest.mark.parametrize("n_max, a_list", [("1", "1e-20,1e-100"), ("2", "1e-100")])
    def test_tiny_half_widths_pass_whatever_the_degree(self, tmp_path, n_max, a_list):
        # alternate_r and sigma_recurrence lose 2 log10(1/a) digits; the
        # table's target rises by what its headroom over the tolerance lacks
        out = tmp_path / "v.json"
        assert run_cli(["verify", "--n-max", n_max, "--a-list", a_list, "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["checks"]
        assert rows and all(row["pass"] for row in rows)
        assert {row["a"] for row in rows} == set(a_list.split(","))

    def test_half_width_past_the_erfc_bound_is_a_cell_error(self, tmp_path):
        out = tmp_path / "huge.json"
        assert run_cli(["verify", "--n-max", "2", "--a-list", "1e400", "--out", str(out)]) == 1
        [row] = json.loads(out.read_text())["checks"]
        assert row["name"] == "cell_error:DomainError" and row["pass"] is False
        assert "1e154" in row["note"]
        assert row["residual"] == "0.0"  # zero as a check writes it

    def test_zero_cell_warns_but_does_not_fail(self, tmp_path):
        out = tmp_path / "v.json"
        code = run_cli(["verify", "--suite", "identities", "--n-max", "2",
                        "--a-list", "0", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["checks"][0]["warning"] is True
        assert doc["checks"][0]["residual"] == "0.0"  # zero as a check writes it

    @pytest.mark.parametrize("suite", ["all", "identities"])
    def test_zero_degree_cell_keeps_its_identity_checks(self, tmp_path, suite):
        # no orbit step or derivative check exists below n = 1, but the
        # identities at n = 0 still run
        out = tmp_path / "v.json"
        assert run_cli(["verify", "--suite", suite, "--n-max", "0",
                        "--a-list", "1", "--out", str(out)]) == 0
        names = [c["name"] for c in json.loads(out.read_text())["checks"]]
        assert not any(name.startswith("cell_error") for name in names)
        assert {"pair_sum", "beta_closed_form", "weighted_sum",
                "R_partial_sum", "subleading", "sigma_step"} <= set(names)

    @pytest.mark.parametrize("suite", ["discrete", "continuous", "oracle"])
    def test_zero_degree_cell_without_checks_is_a_usage_error(self, suite,
                                                             capsys):
        # these suites have no check at n = 0, so the run is refused
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", suite, "--n-max", "0",
                      "--a-list", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "error:" in err

    def test_a_run_without_checks_does_not_pass(self, tmp_path):
        # the CLI refuses these suites at n = 0; a direct call that makes
        # no row must not report success
        out = tmp_path / "v.json"
        config = cli.RunConfig(command="verify", n_max=0, a_values=("1",),
                               policy=PrecisionPolicy(), digits=None,
                               suite="discrete")
        assert cli.cmd_verify(config, str(out)) == 1
        doc = json.loads(out.read_text())
        assert doc["checks"] == [] and doc["all_pass"] is False

    def test_report_is_the_indented_json_of_its_rows(self, tmp_path, monkeypatch):
        # rows are encoded one at a time; the report is still exactly
        # json.dumps(doc, sort_keys=True, indent=2), for no rows too
        real = cli._suite_reports

        def tricky(config, a_str):
            if a_str == "2":
                raise EdgeZeroError('a "quoted", \\ message,\n  on two lines \u2014 \u00fc', n=1)
            return real(config, a_str)

        monkeypatch.setattr(cli, "_suite_reports", tricky)
        out = tmp_path / "v.json"
        assert run_cli(["verify", "--n-max", "1", "--a-list", "0,1,2", "--out", str(out)]) == 1
        empty = tmp_path / "e.json"
        config = cli.RunConfig(command="verify", n_max=0, a_values=("1",),
                               policy=PrecisionPolicy(), digits=None, suite="discrete")
        assert cli.cmd_verify(config, str(empty)) == 1
        for path in (out, empty):
            text = path.read_text()
            assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
        names = [row["name"] for row in json.loads(out.read_text())["checks"]]
        assert names[0] == "cell_skipped" and names[-1] == "cell_error:EdgeZeroError"

    def test_one_certified_table_per_cell(self, monkeypatch, tmp_path):
        # the continuous suite reads the cell's one table: no grid of node
        # tables, so one certified table per cell
        loops = []
        real_table = RecurrenceTable.from_certified.__func__

        def counting_table(cls, certified, a):
            loops.append(a)
            return real_table(cls, certified, a)

        monkeypatch.setattr(RecurrenceTable, "from_certified", classmethod(counting_table))
        out = tmp_path / "v.json"
        assert run_cli(["verify", "--n-max", "2", "--a-list", "0.7,1.1",
                        "--out", str(out)]) == 0
        assert len(loops) == 2

    @pytest.mark.parametrize("a", ["0.3", "1", "2.5"])
    def test_continuous_residuals_reach_the_certified_digits(self, tmp_path, a):
        # exact derivatives: every residual sits within 10 digits of what
        # the cell's table certifies, far below any finite-difference error
        out = tmp_path / "v.json"
        assert run_cli(["verify", "--suite", "continuous", "--n-max", "10",
                        "--a-list", a, "--out", str(out)]) == 0
        checks = json.loads(out.read_text())["checks"]
        assert len(checks) == 160
        certified = build_recurrence_table(a, 11, jets=True).certified_digits
        bound = mp.mpf(10) ** -(certified - 10)
        assert all(mp.mpf(c["residual"]) <= bound for c in checks)

    def test_oracle_suite(self, tmp_path):
        out = tmp_path / "v.json"
        code = run_cli(["verify", "--suite", "oracle", "--n-max", "3",
                        "--a-list", "0.5", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert all(c["name"] == "route_agreement" for c in doc["checks"])
        assert len(doc["checks"]) == 3

    def test_route_agreement_residuals_reach_the_fredholm_precision(self, tmp_path):
        # the Fredholm value's negation no longer rounds to 53 bits, so the
        # residuals show the routes' agreement (about 1e-58), not 1e-17
        out = tmp_path / "v.json"
        code = run_cli(["verify", "--suite", "oracle", "--n-max", "3",
                        "--a-list", "0.7,1.1", "--out", str(out)])
        assert code == 0
        checks = json.loads(out.read_text())["checks"]
        assert len(checks) == 6
        assert all(mp.mpf(c["residual"]) < mp.mpf("1e-40") for c in checks)


class TestProb:
    def test_erfc_cell(self, capsys):
        assert run_cli(["prob", "1", "1", "--digits", "30"]) == 0
        doc = json.loads(capsys.readouterr().out)
        with mp.workprec(128):
            h = mp.mpf(doc["prob_hankel"])
            f = mp.mpf(doc["prob_fredholm"])
            ref = mp.mpf(ERFC_1)
            assert abs(h - ref) / ref < mp.mpf(10) ** -28
            assert abs(f - ref) / ref < mp.mpf(10) ** -28
        assert mp.mpf(doc["rel_discrepancy"]) < 1e-12

    def test_routes_agree_generic_cell(self, capsys):
        assert run_cli(["prob", "4", "0.8"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert mp.mpf(doc["rel_discrepancy"]) < 1e-12

    def test_wide_gap_converges(self, capsys):
        # the quadrature order grows with a, so a = 5 converges
        assert run_cli(["prob", "1", "5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert mp.mpf(doc["rel_discrepancy"]) < 1e-12

    def test_printed_digits_raise_the_fredholm_precision(self, capsys):
        assert run_cli(["prob", "2", "1", "--digits", "100"]) == 0
        doc = json.loads(capsys.readouterr().out)
        mantissa = doc["prob_fredholm"].split("e")[0].replace(".", "")
        assert len(mantissa) == 100
        assert doc["prob_fredholm"] == doc["prob_hankel"]

    @pytest.mark.parametrize("args, digest", [
        ("prob 10 3", "e2b513a532c097b284fd17be5f06781cebec20b1f4a33f58a65854c121714535"),
        ("prob 60 1", "76e0e3b218b06c38eb34fa433893f085fe5f6e2c5278e329b0f5c504cd2fd769"),
        ("verify --suite oracle --n-max 6 --a-list 0.7,3",
         "961beddafcb5bef78c555485fbf5f770245ead335e9de8b6fe181f0771c53c6f"),
    ])
    def test_both_route_outputs_are_pinned(self, capsys, args, digest):
        # every byte the two routes print is pinned, so a change to how they
        # are run together cannot move a digit
        assert run_cli(args.split()) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_hankel_side_runs_no_chebyshev_pass(self, capsys, monkeypatch):
        # `prob` builds its Hankel side from the orbit table, as `table` does
        def refuse(*args, **kwargs):
            raise AssertionError("Chebyshev pass")

        monkeypatch.setattr(orthopoly, "_chebyshev_pass", refuse)
        assert run_cli(["prob", "5", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["prob_hankel"] == doc["prob_fredholm"]

    def test_zero_width_notice(self, capsys):
        assert run_cli(["prob", "5", "0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["prob_hankel"] == "1.0"
        assert doc["prob_fredholm"] is None
        assert "skipped" in doc["note"]


def _printed_numbers(out):
    """Every number a table or prob prints, in order, as strings;
    rel_discrepancy and the config line depend on the working bits."""
    lines = [ln for ln in out.splitlines()
             if not ln.startswith("#") and "rel_discrepancy" not in ln]
    return re.findall(r"-?\d\.\d+(?:e[+-]\d+)?", "\n".join(lines))


class TestPrintedDigitsAreCertified:
    @pytest.mark.parametrize("args", [
        "table --n-max 12 --a-list 1e-9,0.5,3,12 --digits 100",
        "prob 2 1 --digits 100",
    ])
    def test_every_printed_digit_matches_a_4096_bit_build(self, capsys, args):
        # both certify to max(--target-digits, --digits), so every number
        # is within one unit of its last printed digit of the same number
        # from a build started at 4096 bits
        assert run_cli(args.split()) == 0
        shown = _printed_numbers(capsys.readouterr().out)
        assert run_cli([*args.split(), "--prec-bits", "4096"]) == 0
        ref = _printed_numbers(capsys.readouterr().out)
        assert len(shown) == len(ref) > 0
        with mp.workprec(512):
            for x, y in zip(shown, ref):
                if x == y:
                    continue
                mantissa, _, exp = x.partition("e")
                digits = len(mantissa.lstrip("-").replace(".", ""))
                assert digits == 100, x
                unit = mp.mpf(10) ** (int(exp or 0) - digits + 1)
                assert abs(mp.mpf(x) - mp.mpf(y)) <= unit, (x, y)


class TestPlot:
    @pytest.fixture()
    def table_csv(self, tmp_path):
        out = tmp_path / "t.csv"
        run_cli(["table", "--n-max", "5", "--a-min", "0.2", "--a-max", "2",
                 "--a-steps", "8", "--digits", "16", "--out", str(out)])
        return out

    def test_sigma_plot_five_polylines_below_zero(self, table_csv, tmp_path):
        svg = tmp_path / "s.svg"
        assert run_cli(["plot", "--in", str(table_csv), "--quantity", "sigma",
                        "--n-select", "1,2,3,4,5", "--out", str(svg)]) == 0
        text = svg.read_text()
        assert text.startswith("<svg ")
        assert 'version="1.1"' in text
        assert text.count("<polyline") == 5
        assert ">sigma</text>" in text and ">a</text>" in text
        # the data itself must be negative for every drawn degree
        _, rows = read_table(str(table_csv))
        vals = [float(mp.mpf(r["sigma"])) for r in rows if r["n"] != "0"]
        assert all(v < 0 for v in vals)

    def test_prob_plot_monotone_decreasing_from_one(self, table_csv, tmp_path):
        svg = tmp_path / "p.svg"
        assert run_cli(["plot", "--in", str(table_csv), "--quantity", "prob",
                        "--n-select", "3", "--out", str(svg)]) == 0
        _, rows = read_table(str(table_csv))
        probs = [float(mp.mpf(r["prob"])) for r in rows if r["n"] == "3"]
        assert all(b < a for a, b in zip(probs, probs[1:]))
        assert probs[0] < 1

    def test_unknown_column_is_an_error(self, table_csv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["plot", "--in", str(table_csv), "--quantity", "nope",
                     "--out", str(tmp_path / "x.svg")])
        assert exc.value.code == 2

    def test_empty_selection_is_an_error(self, table_csv, tmp_path):
        with pytest.raises(SystemExit):
            run_cli(["plot", "--in", str(table_csv), "--quantity", "prob",
                     "--n-select", "77", "--out", str(tmp_path / "x.svg")])

    def test_table_plot_with_no_point_is_one_line(self, tmp_path, capsys):
        # every row is an error row, so the prob column has nothing to draw
        svg = tmp_path / "t.svg"
        assert run_cli(["table", "--n-max", "1", "--a-list", "1e400", "--plot", str(svg)]) == 1
        err = capsys.readouterr().err
        assert err == "gue-gap-lab: error: DomainError: no data for column 'prob'\n"
        assert not svg.exists()

    def test_table_with_inline_plot(self, tmp_path):
        out = tmp_path / "t.csv"
        svg = tmp_path / "t.svg"
        run_cli(["table", "--n-max", "2", "--a-min", "0.5", "--a-max", "1.5",
                 "--a-steps", "3", "--digits", "12",
                 "--out", str(out), "--plot", str(svg)])
        assert svg.exists() and "<polyline" in svg.read_text()

    @pytest.mark.parametrize("out_args", [[], ["--format", "json"]],
                             ids=["stdout", "json"])
    def test_inline_plot_draws_from_the_table_rows(self, tmp_path, capsys, out_args):
        svg = tmp_path / "t.svg"
        assert run_cli(["table", "--n-max", "2", "--a-list", "0.5,1,1.5",
                        "--digits", "12", "--plot", str(svg), *out_args]) == 0
        assert capsys.readouterr().out
        assert svg.read_text().count("<polyline") == 3


class TestSubprocess:
    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "t.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "gue_gap_lab", "table", "--n-max", "1",
             "--a-list", "1", "--digits", "12", "--out", str(out)],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        header, rows = read_table(str(out))
        assert len(rows) == 2

    def test_verify_exit_code_propagates(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gue_gap_lab", "verify", "--suite",
             "oracle", "--n-max", "1", "--a-list", "1",
             "--tol", "all=1e-99"],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 1
        doc = json.loads(proc.stdout)
        assert doc["all_pass"] is False

    def test_import_leaves_the_process_pool_out(self):
        # the pool and multiprocessing load only when --jobs makes a pool
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, gue_gap_lab.cli; print('multiprocessing' in sys.modules)"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_import_loads_no_openssl_dataclasses_or_fractions(self):
        # beyond mpmath and the stdlib modules the CLI itself uses, importing
        # it loads nothing heavy: hashlib would load OpenSSL's libcrypto,
        # dataclasses inspect and ast, and fractions decimal
        code = ("import sys, json, mpmath, argparse, csv; base = set(sys.modules); "
                "import gue_gap_lab.cli; print(json.dumps(sorted(set(sys.modules) - base)))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        loaded = set(json.loads(proc.stdout))
        assert "gue_gap_lab.cli" in loaded
        heavy = {"hashlib", "_hashlib", "dataclasses", "inspect", "fractions", "decimal"}
        assert not loaded & heavy

    def test_help_screens(self):
        for args in ([], ["table"], ["verify"], ["prob"], ["plot"]):
            proc = subprocess.run(
                [sys.executable, "-m", "gue_gap_lab", *args, "--help"],
                capture_output=True, text=True, timeout=60)
            assert proc.returncode == 0
            assert "usage" in proc.stdout.lower()


def test_missing_grid_is_an_error():
    with pytest.raises(SystemExit):
        cli.main(["table", "--n-max", "1"])


def test_bad_tolerance_syntax_is_an_error():
    with pytest.raises(SystemExit):
        cli.main(["verify", "--a-list", "1", "--tol", "name=notanumber"])


@pytest.mark.parametrize("args", [
    ["table", "--a-list", "abc"],
    ["table", "--a-list", "1,-1"],
    ["table", "--a-list", "nan"],
    ["table", "--a-min", "x", "--a-max", "1", "--a-steps", "3"],
    ["table", "--a-min", "0.5", "--a-max", "-2", "--a-steps", "3"],
    ["prob", "3", "abc"],
    ["prob", "3", "-1"],
    ["prob", "0", "1"],
    ["table", "--a-list", "1", "--n-max", "-1"],
    ["table", "--a-min", "0.5", "--a-max", "1", "--a-steps", "0"],
    ["table", "--a-min", "1", "--a-steps", "3"],
    ["table", "--a-min", "0.5", "--a-max", "2"],
    ["table", "--a-list", "1", "--a-min", "0.5"],
    ["verify", "--a-list", "1", "--a-max", "2"],
    ["table", "--a-list", "1", "--a-steps", "3"],
    ["table", "--a-list", "1", "--digits", "0"],
    ["verify", "--a-list", "1", "--jobs", "0"],
    ["table", "--a-list", "1", "--prec-bits", "20000"],
    ["table", "--n-max", "2", "--a-list", "1", "--prec-bits", "100", "--max-bits", "120"],
    ["prob", "3", "1", "--prec-bits", "32"],
    ["prob", "2", "1", "--a-list", "5", "--n-max", "99"],
    ["prob", "2", "1", "--jobs", "2"],
    ["table", "--n-max", "1"],
    ["verify", "--a-list", "1", "--tol", "=3"],
    ["plot", "--in", "t.csv", "--n-select", "a,b", "--out", "p.svg"],
    ["plot", "--in", "no-such-dir/missing.csv", "--out", "p.svg"],
    ["verify", "--a-list", "1", "--tol", "nan"],
    ["verify", "--a-list", "1", "--tol", "inf"],
    ["verify", "--a-list", "1", "--tol", "1e400"],
    ["verify", "--a-list", "1", "--tol=-1"],
    ["verify", "--a-list", "1", "--tol", "pair_sum=0"],
    ["verify", "--a-list", "1", "--tol", "orbit_vs_direct=1e-500"],
    ["verify", "--a-list", "1", "--fd-h", "1e-8"],
    ["table", "--a-list", "1", "--fd-h", "1e-8"],
    ["table", "--a-list", "1", "--tol", "1e-3"],
    ["plot", "--in", "t.csv", "--quantity", "nope", "--out", "p.svg"],
    ["plot", "--in", "bad.csv", "--out", "o.svg"],
    ["plot", "--in", "t.csv", "--n-select", "77", "--out", "o.svg"],
], ids=lambda args: " ".join(args))
def test_bad_input_is_a_one_line_usage_error(args, capsys, tmp_path, monkeypatch):
    # t.csv holds one point at n = 1; bad.csv a cell that is not a number
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.csv").write_text("n,a,prob\n1,1,0.5\n")
    (tmp_path / "bad.csv").write_text("n,a,prob\n1,1,abc\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""  # refused before any cell runs, so no table is written
    assert len(err.splitlines()) == 1 and "error:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("args, flag", [
    (["table", "--n-max", "1", "--a-list", "1", "--out", "{missing}"], "--out"),
    (["table", "--n-max", "1", "--a-list", "1", "--plot", "{missing}"], "--plot"),
    (["verify", "--n-max", "1", "--a-list", "1", "--out", "{missing}"], "--out"),
    (["prob", "2", "1", "--out", "{missing}"], "--out"),
    (["plot", "--in", "{csv}", "--out", "{missing}"], "--out"),
    (["table", "--n-max", "1", "--a-list", "1", "--out", "{dir}"], "--out"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_unwritable_output_is_one_line_before_any_work(args, flag, tmp_path, capsys,
                                                       monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("computed before the output path was checked")

    monkeypatch.setattr(cli, "_map_cells", no_work)
    monkeypatch.setattr(cli, "probability_record", no_work)
    table_csv = tmp_path / "t.csv"
    table_csv.write_text("# x\nn,a,prob\n0,1,1.0\n")
    paths = {"missing": str(tmp_path / "missing" / "x.csv"), "csv": str(table_csv),
             "dir": str(tmp_path)}
    args = [arg.format(**paths) for arg in args]
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    path = args[args.index(flag) + 1]
    reason = "Is a directory" if path == str(tmp_path) else "No such file or directory"
    assert err == f"gue-gap-lab: error: cannot write {flag} {path}: {reason}\n"


@pytest.mark.parametrize("args, message", [
    (["table", "--n-max", "1", "--a-list", "1", "--out", "x.csv", "--plot", "./x.csv"],
     "--plot ./x.csv names the same file as --out x.csv"),
    (["table", "--n-max", "1", "--a-list", "1", "--out", "new.csv", "--plot", "sub/../new.csv"],
     "--plot sub/../new.csv names the same file as --out new.csv"),
    (["table", "--n-max", "1", "--a-list", "1", "--out", "link.csv", "--plot", "x.csv"],
     "--plot x.csv names the same file as --out link.csv"),
    (["plot", "--in", "t.csv", "--out", "t.csv"], "--out t.csv names the same file as --in t.csv"),
    (["plot", "--in", "t.csv", "--out", "sub/../link.csv"],
     "--out sub/../link.csv names the same file as --in t.csv"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else "refused")
def test_an_output_naming_another_paths_file_is_refused(args, message, tmp_path, capsys,
                                                        monkeypatch):
    # before any cell runs and before --in is read, and every file is left
    # byte for byte as it was; new.csv, which does not exist, is compared by
    # its resolved path and not created
    def no_work(*args, **kwargs):
        raise AssertionError("worked before the output paths were checked")

    monkeypatch.setattr(cli, "_map_cells", no_work)
    monkeypatch.setattr(cli, "_read_table_csv", no_work)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "x.csv").write_text("x data\n")
    (tmp_path / "t.csv").write_text("# x\nn,a,prob\n0,1,1.0\n")
    (tmp_path / "link.csv").symlink_to("x.csv" if args[0] == "table" else "t.csv")
    before = {p.name: p.read_bytes() for p in tmp_path.glob("*.csv")}
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err == f"gue-gap-lab: error: {message}\n"
    assert {p.name: p.read_bytes() for p in tmp_path.glob("*.csv")} == before


def test_distinct_outputs_and_input_still_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["table", "--n-max", "1", "--a-list", "1", "--out", "t.csv",
                     "--plot", "t.svg"]) == 0
    assert cli.main(["plot", "--in", "t.csv", "--out", "p.svg"]) == 0
    assert (tmp_path / "p.svg").read_text() == (tmp_path / "t.svg").read_text()


def test_output_probe_keeps_an_existing_file_until_the_run_writes(tmp_path):
    # a run that ends before writing (--tol names no check) leaves the file
    # as it was; one that writes replaces it
    out = tmp_path / "v.json"
    out.write_text("old")
    args = ["verify", "--suite", "identities", "--n-max", "1", "--a-list", "1", "--out", str(out)]
    assert cli.main(args + ["--tol", "nope=1e-5"]) == 2
    assert out.read_text() == "old"
    assert cli.main(args) == 0
    assert json.loads(out.read_text())["all_pass"] is True


def test_prob_past_the_erfc_bound_is_one_line_and_exit_one(capsys):
    assert cli.main(["prob", "2", "1e400"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "DomainError" in captured.err
    assert "Traceback" not in captured.err


def test_prob_failure_is_one_line_and_exit_one(capsys, monkeypatch):
    # minors that are off by about 1e-28 at every precision keep every level
    # of the Fredholm certification below 40 digits, up to the ceiling
    exact = probability._fredholm_pass

    def perturbed(a, n, bits):
        with mp.workprec(bits):
            return [m + mp.ldexp(bits, -100) * m for m in exact(a, n, bits)]

    monkeypatch.setattr(probability, "_fredholm_pass", perturbed)
    assert cli.main(["prob", "1", "5"]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "PrecisionExhaustedError" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("a", ["1e100", "1e153"])
def test_prob_at_huge_half_widths_certifies_both_routes(capsys, a):
    # the Fredholm route starts from its own fitted loss, not from
    # log2(1 / P(n, a)), which is about 1e200 bits here
    assert cli.main(["prob", "2", a]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert mp.mpf(doc["rel_discrepancy"]) < 1e-12
    assert doc["prob_fredholm"] == doc["prob_hankel"]


@pytest.mark.parametrize("jobs, cpus, workers", [
    (8, 4, 3),      # no more workers than cells
    (2, 4, 2),
    (3, 2, 2),      # no more workers than CPUs
    (8, None, 1),   # unknown CPU count: serial
    (1, 4, 1),
])
def test_jobs_are_clamped_to_cells_and_cpus(monkeypatch, jobs, cpus, workers):
    pools = []

    class InlinePool:
        """Records max_workers and runs every task in this process."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    cells = ("0.5", "1", "2")
    config = cli.RunConfig(command="table", n_max=0, a_values=cells,
                           policy=PrecisionPolicy(), digits=None,
                           suite="all", jobs=jobs)
    assert cli._map_cells(config, lambda _, cell: cell, cells) == list(cells)
    assert pools == ([workers] if workers > 1 else [])


@pytest.mark.parametrize("command", [
    "table --n-max 3 --a-list 1 --digits 12",
    "prob 2 1 --digits 20",
])
def test_readme_example_prints_its_fenced_output(command, capsys):
    # the README shows each command in an sh block and its stdout in the
    # fenced block right after it; the two must agree verbatim
    pattern = (r"```sh\ngue-gap-lab " + re.escape(command)
               + r"\n```\n\n```\w*\n(.*?)```")
    shown = re.search(pattern, README.read_text(), re.S)
    assert shown, f"no example of {command!r} in README.md"
    assert run_cli(command.split()) == 0
    assert capsys.readouterr().out == shown.group(1)


def _stated_values(comment):
    """The leading tokens of a README comment that state a printed value."""
    stated = []
    for token in comment.split():
        token = token.rstrip(":,")
        if token not in ("True", "False"):
            try:
                float(token)
            except ValueError:
                break
        stated.append(token)
    return stated


def test_readme_python_blocks_print_what_their_comments_state(capsys):
    # the three python blocks run in order in one namespace; every value a
    # print line's comment states leads the line it prints, to the digits
    # the comment gives
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    comments = [line.partition("#")[2] for block in blocks
                for line in block.splitlines() if line.startswith("print(")]
    assert len(printed) == len(comments) == 5
    checked = 0
    for line, comment in zip(printed, comments):
        stated = _stated_values(comment)
        assert len(stated) <= len(line.split()), (line, comment)
        for got, want in zip(line.split(), stated):
            got_mantissa, _, got_exponent = got.partition("e")
            want_mantissa, _, want_exponent = want.partition("e")
            assert got_mantissa.startswith(want_mantissa), (line, comment)
            assert got_exponent == want_exponent, (line, comment)
            checked += 1
    assert checked == 7
