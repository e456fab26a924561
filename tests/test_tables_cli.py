import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from dualpairs.cli import main
from dualpairs.relations import in_B, relation_set
from dualpairs.symbols import SpecialSymbol, enumerate_symbols, parse
from dualpairs.tables import check_table, correspondence, global_pairs, render_table

GOLDEN = pathlib.Path(__file__).parent / "golden"
ZW = SpecialSymbol.parse("8,5,1;6,3")
ZPW = SpecialSymbol.parse("8,6,2;6,3,0")


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "dualpairs.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc


class TestCorrespondence:
    def test_rank_zero_column(self):
        for n in range(4):
            table = correspondence(n, 0, 1)
            assert table.pairs() == {(Symbolish(n), parse("-;-"))}

    def test_rank01_contains_unit_pair(self):
        table = correspondence(0, 1, 1)
        assert (parse("0;-"), parse("1;0")) in table.pairs()

    def test_cuspidal_pair_occurs(self):
        # rank (m(m+1), (m+1)^2) at sign (-1)^(m+1)
        from cuspidal_oracle import cuspidal_symbol

        for m in (0, 1):
            eps = 1 if (m + 1) % 2 == 0 else -1
            table = correspondence(m * (m + 1), (m + 1) * (m + 1), eps)
            lam = cuspidal_symbol(m, "Sp")
            lamp = cuspidal_symbol(m + 1, "O-I")
            assert (lam, lamp) in table.pairs()

    def test_structure_small(self):
        for n, npr, eps in [(2, 2, 1), (2, 2, -1), (3, 1, 1), (0, 4, -1)]:
            check_table(correspondence(n, npr, eps))

    def test_blockwise_equals_global(self):
        assert correspondence(3, 2, 1).pairs() == global_pairs(3, 2, 1)

    @pytest.mark.parametrize("eps", [1, -1])
    def test_global_pairs_equal_the_filter_over_every_defect(self, eps):
        # oracle: in_B on every lam of defect 1 mod 4 against every lamp, any defect
        found = 0
        for n, npr in [(0, 0), (2, 3), (4, 1), (3, 4)]:
            want = {
                (lam, lamp)
                for d in range(-7, 8, 4)
                for lam in enumerate_symbols(n, d)
                for dp in range(-7, 8)
                for lamp in enumerate_symbols(npr, dp)
                if in_B(lam, lamp, eps)
            }
            assert global_pairs(n, npr, eps) == want, (n, npr)
            found += len(want)
        assert found > 0

    @pytest.mark.parametrize("eps", [0, 2, -3, 1.0])
    def test_global_pairs_reject_a_bad_sign(self, eps):
        with pytest.raises(ValueError, match="eps must be"):
            global_pairs(2, 2, eps)


def Symbolish(n):
    return parse("%d;-" % n)


class TestRendering:
    @pytest.mark.parametrize("fmt", ["md", "csv", "json"])
    def test_golden_files(self, fmt):
        rel = relation_set(ZW, ZPW, "B+")
        golden = (GOLDEN / ("bplus_851_63__862_630.%s" % fmt)).read_text()
        assert render_table(rel, fmt) == golden

    def test_json_shape(self):
        rel = relation_set(ZW, ZPW, "B+")
        data = json.loads(render_table(rel, "json"))
        assert data["Z"] == "8,5,1;6,3" and data["Zp"] == "8,6,2;6,3,0"
        assert data["kind"] == "B+" and len(data["pairs"]) == 8

    def test_empty_relation_renders_headers_only(self):
        rel = relation_set(
            SpecialSymbol.parse("2,0;1"), SpecialSymbol.parse("-;-"), "D"
        )
        md = render_table(rel, "md")
        assert md.splitlines() == ["| |", "|---|"]


class TestCli:
    def test_relation_command(self):
        proc = run_cli("relation", "B+", "--Z", "8,5,1;6,3", "--Zp", "8,6,2;6,3,0")
        assert proc.returncode == 0
        golden = (GOLDEN / "bplus_851_63__862_630.md").read_text()
        assert proc.stdout == golden

    def test_derive_command(self):
        proc = run_cli("derive", "--Z", "8,5,1;6,3", "--Zp", "8,6,2;6,3,0")
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == [
            {"case": "I", "Z1": "7,1;5", "Zp1": "7,5;5,0", "Cexp": 2},
            {"case": "III", "Z1": "7,0;5", "Zp1": "6;1", "Cexp": 0},
        ]

    @pytest.mark.parametrize(
        "argv, out",
        [
            (["symbol", "info", "--Z", "-;2,1,0"], '"symbol": "-;2,1,0"'),
            (["relation", "D", "--Z", "1;-", "--Zp", "-;-"], "| 1;- | ✓ |"),
            (["branch", "--symbol", "-;-"], '["1;0", "0;1"]'),
        ],
        ids=["symbol", "relation", "branch"],
    )
    def test_an_empty_top_row_passes_as_written(self, argv, out, capsys):
        assert main(argv) == 0
        assert out in capsys.readouterr().out

    def test_symbol_info(self):
        proc = run_cli("symbol", "info", "--Z", "8,5,1;6,3")
        data = json.loads(proc.stdout)
        assert data["rank"] == 19 and data["defect"] == 1
        assert data["special"]["degree"] == 2

    def test_enumerate_specials(self):
        proc = run_cli("enumerate-specials", "--rank", "2", "--defect", "1")
        assert "2,0;1" in proc.stdout.split()

    def test_enumerate_specials_rejects_a_negative_rank(self):
        proc = run_cli("enumerate-specials", "--rank", "-3", "--defect", "0")
        assert proc.returncode == 2
        assert "rank" in proc.stderr and proc.stdout == ""

    def test_cells_command(self):
        proc = run_cli(
            "cells", "--Z", "4,2,0;3,1", "--phi", "(4;-),(2;3),(0;1)", "--psi", "(2;3)"
        )
        got = set(json.loads(proc.stdout))
        assert got == {"3;4,2,1,0", "2,1,0;4,3", "2;4,3,1,0", "3,1,0;4,2"}

    @pytest.mark.parametrize(
        "phi",
        [
            "(8;6),(8;3),(5;-)",  # 8 twice, 1 left out
            "(8;6),(5;3)",  # no isolated single at defect 1
            "(8;-),(5;6),(1;3),(8;-)",  # two isolated tokens
        ],
    )
    def test_cells_command_rejects_bad_arrangements(self, phi, capsys):
        assert main(["cells", "--Z", "8,5,1;6,3", "--phi", phi]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    @pytest.mark.parametrize(
        "flag,text,token",
        [
            ("--phi", "5", "'5'"),
            ("--phi", "(5;3),", "''"),
            ("--phi", "(5;3;1)", "'5;3;1'"),
            ("--psi", "(2:3:0)", "'2:3:0'"),
        ],
    )
    def test_cells_command_names_a_malformed_pair(self, flag, text, token, capsys):
        args = ["--phi", "(4;-),(2;3),(0;1)", flag, text] if flag == "--psi" else [flag, text]
        assert main(["cells", "--Z", "4,2,0;3,1", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: pair %s is not of the form s;t or s:t\n" % token

    @pytest.mark.parametrize(
        "argv,token,text",
        [
            (["symbol", "info", "--Z", "1_0;2"], "1_0", "1_0;2"),
            (["cells", "--Z", "4,2,0;3,1", "--phi", "(4;-),(2;3),(0;1)", "--psi", "1_0:3"],
             "1_0", "1_0:3"),
            (["cells", "--Z", "4,2,0;3,1", "--phi", "(4;-),(2;3),(0;+1)"],
             "+1", "(4;-),(2;3),(0;+1)"),
        ],
    )
    def test_symbol_and_pair_text_take_only_decimal_entries(self, argv, token, text, capsys):
        # int() would read 1_0 as 10 and +1 as 1
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: entry %r of %r is not a decimal number\n" % (token, text)

    @pytest.mark.parametrize("value", ["1_0", "+3", "\u0663"])
    @pytest.mark.parametrize(
        "argv,option",
        [
            (["verify", "lemma0616", "--summary", "--max-rank"], "max_rank"),
            (["verify", "cells", "--summary", "--max-degree"], "max_degree"),
            (["enumerate-specials", "--defect", "0", "--rank"], "rank"),
            (["enumerate-specials", "--rank", "3", "--defect"], "defect"),
            (["correspond", "--np", "1", "--n"], "n"),
            (["correspond", "--n", "1", "--np"], "np"),
        ],
    )
    def test_integer_options_take_only_decimal_digits(self, argv, option, value, capsys):
        # int() would read 1_0 as 10, +3 as 3 and the Arabic-Indic 3 as 3
        with pytest.raises(SystemExit) as exit_:
            main(argv + [value])
        assert exit_.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("argument --%s: invalid decimal value: %r\n"
                                     % (option.replace("_", "-"), value))

    def test_cells_command_rejects_psi_without_phi(self, capsys):
        assert main(["cells", "--Z", "4,2,0;3,1", "--psi", "(2;3)"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert "--phi" in captured.err

    def test_theta_command(self):
        proc = run_cli("theta", "--Z", "2,0;1", "--Zp", "3,1;2,0", "--epsilon", "+")
        data = json.loads(proc.stdout)
        assert data["direction"] == "up"
        assert ["2,0;1", "3,1;2,0"] in data["pairs"]

    def test_branch_command(self):
        proc = run_cli("branch", "--symbol", "4,2,1;3,0", "--direction", "-")
        assert set(json.loads(proc.stdout)) == {"3,2,1;3,0", "4,2,1;2,0", "3,1;2"}

    def test_correspond_command(self):
        proc = run_cli("correspond", "--n", "0", "--np", "1", "--format", "json")
        data = json.loads(proc.stdout)
        assert data["blocks"][0]["pairs"] == [["0;-", "1;0"]]

    def test_correspond_rank_guard(self):
        proc = run_cli("correspond", "--n", "20", "--np", "20")
        assert proc.returncode == 2
        assert "force" in proc.stderr

    def test_verify_pass_and_fail_exit_codes(self):
        proc = run_cli("verify", "counting")
        assert proc.returncode == 0
        line = json.loads(proc.stdout)
        assert line["ok"] is True and line["suite"] == "counting"

    def test_verify_unknown_suite_rejected(self):
        proc = run_cli("verify", "nonsense")
        assert proc.returncode != 0

    def test_verify_rejects_a_flag_the_suite_does_not_take(self):
        proc = run_cli("verify", "counting", "--max-rank", "9")
        assert proc.returncode == 2
        assert "max_rank" in proc.stderr and proc.stdout == ""

    def test_verify_takes_a_degree_bound(self):
        proc = run_cli("verify", "cells", "--max-rank", "3", "--max-degree", "4", "--summary")
        assert proc.returncode == 0
        line = json.loads(proc.stdout)
        assert line["bounds"] == {"max_degree": 4, "max_rank": 3} and line["ok"]
        proc = run_cli("verify", "theta", "--max-degree", "2")
        assert proc.returncode == 2
        assert "max_degree" in proc.stderr and proc.stdout == ""

    def test_verify_rejects_a_negative_bound(self):
        for suite in ("prop0216", "all"):
            proc = run_cli("verify", suite, "--max-rank", "-1", "--summary")
            assert proc.returncode == 2
            assert "max_rank" in proc.stderr and proc.stdout == ""

    def test_verify_all_passes_each_suite_its_own_bounds(self):
        from dualpairs.suites import SUITES

        proc = run_cli("verify", "all", "--max-rank", "3", "--summary")
        assert proc.returncode == 0, proc.stderr
        lines = [json.loads(line) for line in proc.stdout.splitlines()]
        assert [line["suite"] for line in lines] == sorted(SUITES)
        by_name = {line["suite"]: line for line in lines}
        assert by_name["counting"]["bounds"] == {"max_m": 3}
        assert by_name["cells"]["bounds"] == {"max_rank": 3, "max_degree": 3}
        assert by_name["thm0310"]["bounds"] == {"max_rank_sum": 3, "epsilon": 1}
        assert by_name["kernel"]["bounds"] == {"max_rank_sum": 3}
        assert all(line["ok"] and line["checked"] > 0 for line in lines)

    def test_worker_env_round_trips(self, monkeypatch):
        from dualpairs.suites import SUITES, run_suite

        def reports():
            return {
                name: run_suite(name, **({"max_rank": 3} if "max_rank" in suite.bounds else {}))
                for name, suite in SUITES.items()
            }

        monkeypatch.setenv("DUALPAIRS_WORKERS", "1")
        serial = reports()
        monkeypatch.setenv("DUALPAIRS_WORKERS", "2")
        fanned = reports()
        for name in SUITES:
            assert serial[name].ok and serial[name].checked > 0, name
            assert fanned[name].line() == serial[name].line(), name
            assert fanned[name].records == serial[name].records, name

    def test_worker_count(self, monkeypatch):
        from dualpairs import suites

        monkeypatch.setattr(suites.os, "cpu_count", lambda: 4)
        assert suites._worker_count(None, 100) == 1
        assert suites._worker_count("1", 100) == 1
        assert suites._worker_count("3", 100) == 3
        assert suites._worker_count("100000", 100) == 4   # clamped to the CPUs
        assert suites._worker_count("3", 2) == 2          # and to the items
        assert suites._worker_count("3", 0) == 1
        monkeypatch.setattr(suites.os, "cpu_count", lambda: None)
        assert suites._worker_count("3", 100) == 1
        for bad in ("0", "-2", "two", "1.5", ""):
            with pytest.raises(ValueError, match="DUALPAIRS_WORKERS"):
                suites._worker_count(bad, 100)

    def test_verify_per_pair_lines(self):
        proc = run_cli("verify", "thm0310", "--max-rank", "2", "--epsilon", "+")
        lines = [json.loads(l) for l in proc.stdout.splitlines()]
        assert len(lines) > 2
        assert all(rec["ok"] for rec in lines[:-1])
        assert {"pair", "ok"} <= set(lines[0])
        assert lines[-1]["suite"] == "thm0310"
        summary = run_cli("verify", "thm0310", "--max-rank", "2", "--summary")
        assert len(summary.stdout.splitlines()) == 1

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("eps,digest", [
        ("+", "2b77820950721d56374c35cc0af7bceb1c95fba85a41a6e7ec2efece4b486e9d"),
        ("-", "5574191dc0fe06fd8cf7dbd51ce01a36034c46d8e88cf4f4cb5ad3744f90eda9"),
    ])
    def test_verify_thm0310_output_is_byte_identical(self, workers, eps, digest):
        # the records are built when read: the bytes printed for rank sum 9,
        # 2 444 records and the summary line, must not move at any worker count
        proc = subprocess.run(
            [sys.executable, "-m", "dualpairs.cli", "verify", "thm0310", "--max-rank", "9",
             "--epsilon", eps],
            capture_output=True, env={**os.environ, "DUALPAIRS_WORKERS": workers},
        )
        assert proc.returncode == 0 and len(proc.stdout.splitlines()) == 2445
        assert hashlib.sha256(proc.stdout).hexdigest() == digest
