"""Command-line behavior: formats, determinism, exit codes, plots."""

import concurrent.futures
import csv
import hashlib
import json
import re
import subprocess
import sys
from concurrent.futures import Future
from pathlib import Path

import mpmath as mp
import pytest

from gue_gap_lab import (
    EdgeZeroError,
    PrecisionPolicy,
    build_recurrence_table,
    cli,
    difference_eqs,
    orthopoly,
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

    @pytest.mark.parametrize("digits, digest", [
        (["--digits", "30"],
         "bcc4f42463babe699eba936271685fc5206ea8b6b8ae700a067ecc28ae233015"),
        ([], "15738dc4c31e375871fb0dba9caf759277665c2296d9ac03183824f65e5bdcec"),
    ])
    def test_zero_rows_are_pinned(self, capsys, digits, digest):
        # stdout of the closed-form a = 0 rows, frozen when they had their
        # own recurrence; they now come from ladder.edge_quantities
        assert run_cli(["table", "--n-max", "60", "--a-list", "0", *digits]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_default_digits_orbit_rows_are_pinned(self, capsys):
        # stdout frozen when each table was kept from a pass at twice the
        # bits it was certified at; a check pass 64 bits up prints the same
        assert run_cli(["table", "--n-max", "40", "--a-list", "0.1,0.5,1,2,3.5"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "5ae6ea7cdeaea0d74e3a92511cad605d6af0d7b75150a86939a91465634c0cd9")

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

    def test_huge_precision_prints_tiny_probabilities(self, tmp_path):
        # P(20, 30) is about 1e-7818, held in a mantissa of tens of
        # thousands of bits: printing it must not hit the int-str limit
        out = tmp_path / "huge.csv"
        assert run_cli(["table", "--n-max", "20", "--a-list", "30",
                        "--prec-bits", "16384", "--max-bits", "65536",
                        "--digits", "30", "--out", str(out)]) == 0
        _, rows = read_table(str(out))
        assert len(rows) == 21 and all(r["status"] == "ok" for r in rows)
        assert rows[-1]["prob"].endswith("e-7818")

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

    def test_zero_cell_warns_but_does_not_fail(self, tmp_path):
        out = tmp_path / "v.json"
        code = run_cli(["verify", "--suite", "identities", "--n-max", "2",
                        "--a-list", "0", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["checks"][0]["warning"] is True

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

    def test_one_certified_table_per_cell(self, monkeypatch, tmp_path):
        # the continuous suite reads the cell's one table: no grid of node
        # tables, so one certification loop per cell
        loops = []
        real_certify = orthopoly._certify

        def counting_certify(*args, **kwargs):
            loops.append(args[1])
            return real_certify(*args, **kwargs)

        monkeypatch.setattr(orthopoly, "_certify", counting_certify)
        monkeypatch.setattr(difference_eqs, "_certify", counting_certify)
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
        ("prob 10 3", "7d0c5e5e54303508237e9292a3e881b6597598bf6b1bbab8672950cbf08aa2da"),
        ("prob 60 1", "d81e5a195a16898731147b68e4013cd331be807c7a28126e51e292c05ac2b670"),
        ("verify --suite oracle --n-max 6 --a-list 0.7,3",
         "26489c376ae8831e0a825163dd0a815d90d16675e949c5db7edf2c2ed5304477"),
    ])
    def test_both_route_outputs_are_pinned(self, capsys, args, digest):
        # every byte the two routes print is pinned, so a change to how they
        # are run together cannot move a digit
        assert run_cli(args.split()) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_zero_width_notice(self, capsys):
        assert run_cli(["prob", "5", "0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["prob_hankel"] == "1.0"
        assert doc["prob_fredholm"] is None
        assert "skipped" in doc["note"]


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
], ids=lambda args: " ".join(args))
def test_bad_input_is_a_one_line_usage_error(args, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "error:" in err
    assert "Traceback" not in err


def test_prob_failure_is_one_line_and_exit_one(capsys, monkeypatch):
    # an overlap matrix 16 units off in the last bit the route budgets
    # fails the cross-precision check of the Fredholm minors
    exact = probability.overlap_matrix

    def perturbed(n, a, bits):
        G = exact(n, a, bits)
        with mp.workprec(bits):
            G[0][0] += mp.mpf(2) ** (4 + probability.GUARD_BITS - bits)
        return G

    monkeypatch.setattr(probability, "overlap_matrix", perturbed)
    assert cli.main(["prob", "1", "5"]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "QuadratureConvergenceError" in err
    assert "Traceback" not in err


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
