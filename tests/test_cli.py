"""Command-line surface: subcommands, exit codes, the cap environment knob."""

import csv
import json
import os
import subprocess
import sys

import pytest

import amocount
import amocount.bench as bench_module
from amocount.cli import (
    EXIT_CAP,
    EXIT_INVALID,
    EXIT_MISMATCH,
    EXIT_OK,
    PSI_CAP_ENV,
    main,
)
from amocount.instancefile import FORMAT_NAME, FORMAT_VERSION


def write(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(json.dumps(body), encoding="utf-8")
    return str(path)


def paw_instance(tmp_path, knowledge=()):
    return write(
        tmp_path,
        "paw.json",
        {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "vertices": ["a", "b", "c", "d"],
            "undirected_edges": [["a", "b"], ["a", "c"], ["b", "c"], ["c", "d"]],
            "knowledge": [list(p) for p in knowledge],
        },
    )


class TestCount:
    def test_prints_exact_count(self, tmp_path, capsys):
        path = paw_instance(tmp_path)
        assert main(["count", path]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "8"

    def test_knowledge_narrows(self, tmp_path, capsys):
        path = paw_instance(tmp_path, [("d", "c")])
        assert main(["count", path]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "2"

    def test_stats_go_to_stderr(self, tmp_path, capsys):
        path = paw_instance(tmp_path)
        assert main(["count", path, "--stats"]) == EXIT_OK
        out = capsys.readouterr()
        assert out.out.strip() == "8"
        assert "subproblems" in out.err
        assert "memo hits" in out.err

    def test_stats_show_the_sweep_work(self, tmp_path, capsys):
        # the side beyond the claim-free edge cd is the lone vertex d, so
        # the group table has one entry, the side of abc seen from cd, and
        # its pass reaches abc alone
        path = paw_instance(tmp_path)
        assert main(["count", path, "--stats"]) == EXIT_OK
        lines = capsys.readouterr().err.splitlines()
        at = lines.index("clique picks: 2")
        assert lines[at + 1] == "walked cliques: 1"

    def test_missing_file(self, capsys):
        assert main(["count", "/nonexistent/x.json"]) == EXIT_INVALID
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["count", "validate", "oracle"])
    def test_directory_is_an_input_error(self, command, tmp_path, capsys):
        assert main([command, str(tmp_path)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("command", ["count", "validate", "oracle"])
    def test_non_utf8_file_is_an_input_error(self, command, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"vertices": ["\xe9"]}'.encode("latin-1"))
        assert main([command, str(path)]) == EXIT_INVALID
        assert capsys.readouterr().err.startswith("error: not UTF-8 text: ")

    def test_deep_nesting_exits_like_a_cap(self, tmp_path, capsys):
        # the nested threshold graph T_40 with its top hub first: from the
        # edge 80-81, each even h below 80 is a hub joined to every vertex
        # above it, so counting it nests 41 calls deep
        n = 82
        edges = [(80, 81)] + [(h, w) for h in range(0, 80, 2) for w in range(h + 1, n)]
        path = write(
            tmp_path,
            "threshold.json",
            {
                "format": FORMAT_NAME,
                "version": FORMAT_VERSION,
                "vertices": [f"v{i:02d}" for i in range(n)],
                "undirected_edges": [[f"v{u:02d}", f"v{w:02d}"] for u, w in edges],
            },
        )
        assert main(["count", path]) == EXIT_OK
        assert int(capsys.readouterr().out) > 0
        script = (
            "import sys\n"
            "from amocount.cli import main\n"
            "sys.setrecursionlimit(45)\n"
            f"sys.exit(main(['count', {path!r}]))\n"
        )
        src = os.path.dirname(os.path.dirname(amocount.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert done.returncode == EXIT_CAP
        assert done.stdout == ""
        assert done.stderr.startswith("error: maximum recursion depth exceeded")
        assert done.stderr.count("\n") == 1

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{nope", encoding="utf-8")
        assert main(["count", str(path)]) == EXIT_INVALID

    def test_invalid_instance(self, tmp_path, capsys):
        # a four-cycle is not a chordal component
        path = write(
            tmp_path,
            "cycle.json",
            {
                "format": FORMAT_NAME,
                "version": FORMAT_VERSION,
                "vertices": ["a", "b", "c", "d"],
                "undirected_edges": [["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"]],
            },
        )
        assert main(["count", path]) == EXIT_INVALID


class TestValidate:
    def test_ok(self, tmp_path, capsys):
        path = paw_instance(tmp_path)
        assert main(["validate", path]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "ok"

    def test_violations_listed(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "bad.json",
            {
                "format": FORMAT_NAME,
                "version": FORMAT_VERSION,
                "vertices": ["a", "b", "c", "d"],
                "undirected_edges": [["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"]],
            },
        )
        assert main(["validate", path]) == EXIT_INVALID
        assert "chordal" in capsys.readouterr().err


class TestOracle:
    def test_agrees_with_engine(self, tmp_path, capsys):
        path = paw_instance(tmp_path, [("a", "c")])
        assert main(["oracle", path, "--compare"]) == EXIT_OK
        out = capsys.readouterr()
        assert out.out.strip() == "3"
        assert "agrees" in out.err

    def test_cap_exit(self, tmp_path):
        path = paw_instance(tmp_path)
        assert main(["oracle", path, "--oracle-cap", "3"]) == EXIT_CAP


class TestPsiCap:
    def complete4(self, tmp_path):
        return write(
            tmp_path,
            "k4.json",
            {
                "format": FORMAT_NAME,
                "version": FORMAT_VERSION,
                "vertices": ["a", "b", "c", "d"],
                "undirected_edges": [
                    ["a", "b"], ["a", "c"], ["a", "d"],
                    ["b", "c"], ["b", "d"], ["c", "d"],
                ],
                "knowledge": [["a", "b"], ["b", "c"], ["c", "d"]],
            },
        )

    def test_flag_caps_permutation_counting(self, tmp_path):
        path = self.complete4(tmp_path)
        assert main(["count", path]) == EXIT_OK
        assert main(["count", path, "--psi-cap", "3"]) == EXIT_CAP

    def test_environment_variable(self, tmp_path, monkeypatch):
        path = self.complete4(tmp_path)
        monkeypatch.setenv(PSI_CAP_ENV, "3")
        assert main(["count", path]) == EXIT_CAP
        # an explicit flag wins over the environment
        assert main(["count", path, "--psi-cap", "20"]) == EXIT_OK

    def test_garbage_environment_value_is_ignored(self, tmp_path, monkeypatch, capsys):
        path = self.complete4(tmp_path)
        monkeypatch.setenv(PSI_CAP_ENV, "not-a-number")
        assert main(["count", path]) == EXIT_OK
        assert "ignoring" in capsys.readouterr().err

    def test_only_commands_that_take_a_cap_read_the_environment(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv(PSI_CAP_ENV, "x")
        path = paw_instance(tmp_path)
        out = str(tmp_path / "gen.json")
        assert main(["gen", "--n", "5", "--seed", "1", "--out", out]) == EXIT_OK
        assert main(["validate", path]) == EXIT_OK
        with pytest.raises(SystemExit):
            main(["--version"])
        assert capsys.readouterr().err == ""
        assert main(["count", path]) == EXIT_OK
        assert "ignoring" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--psi-cap", "-1"], ["--psi-cap=-2"], ["--psi-cap", "x"]])
    def test_a_negative_flag_is_a_usage_error(self, tmp_path, capsys, flag):
        path = paw_instance(tmp_path)
        with pytest.raises(SystemExit) as e:
            main(["count", path, *flag])
        assert e.value.code == 2  # argparse's usage error
        assert "nonnegative" in capsys.readouterr().err

    def test_a_zero_flag_counts_a_claim_free_instance(self, tmp_path, capsys):
        path = paw_instance(tmp_path)
        assert main(["count", path, "--psi-cap", "0"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "8"

    def test_negative_environment_value_is_ignored(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(PSI_CAP_ENV, "-2")
        assert main(["count", paw_instance(tmp_path)]) == EXIT_OK
        out = capsys.readouterr()
        assert out.out.strip() == "8"
        assert "ignoring" in out.err
        # the default cap of 20 is back, so the four claim-touched vertices fit
        assert main(["count", self.complete4(tmp_path)]) == EXIT_OK

    def test_the_down_set_budget_exits_like_the_cap(self, tmp_path, monkeypatch, capsys):
        # a and b both precede c and d: the claims hold a cycle of links, so
        # the down-set DP counts them, and its first layer holds {a} and {b}
        path = write(
            tmp_path,
            "k4_square.json",
            {
                "format": FORMAT_NAME,
                "version": FORMAT_VERSION,
                "vertices": ["a", "b", "c", "d"],
                "undirected_edges": [
                    ["a", "b"], ["a", "c"], ["a", "d"],
                    ["b", "c"], ["b", "d"], ["c", "d"],
                ],
                "knowledge": [["a", "c"], ["b", "c"], ["a", "d"], ["b", "d"]],
            },
        )
        assert main(["count", path]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "4"
        monkeypatch.setattr(amocount.counting, "DOWN_SET_BUDGET", 1)
        assert main(["count", path]) == EXIT_CAP
        assert "down-sets" in capsys.readouterr().err


class TestGen:
    def test_writes_loadable_instance(self, tmp_path, capsys):
        out = str(tmp_path / "gen.json")
        assert main(["gen", "--n", "12", "--k", "3", "--seed", "5", "--out", out]) == EXIT_OK
        body = json.loads((tmp_path / "gen.json").read_text())
        assert len(body["vertices"]) == 12
        assert body["metadata"]["seed"] == 5
        assert body["metadata"]["k"] == 3
        assert body["metadata"]["clique_knowledge"] >= 2
        assert 0.1 <= body["metadata"]["p"] < 0.3
        assert main(["count", out]) == EXIT_OK

    def test_deterministic_output(self, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        main(["gen", "--n", "15", "--k", "3", "--seed", "2", "--out", a])
        main(["gen", "--n", "15", "--k", "3", "--seed", "2", "--out", b])
        assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()

    def test_stdout_mode(self, tmp_path, capsys):
        assert main(["gen", "--n", "8", "--seed", "1"]) == EXIT_OK
        body = json.loads(capsys.readouterr().out)
        assert body["format"] == FORMAT_NAME
        assert body["knowledge"] == []


class TestBench:
    def test_sweep_writes_csv_pair(self, tmp_path, capsys):
        out = str(tmp_path / "bench.csv")
        code = main(
            ["bench", "--n-list", "12,16", "--k-list", "3", "--reps", "1",
             "--seed", "0", "--out", out]
        )
        assert code == EXIT_OK
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert {r["n"] for r in rows} == {"12", "16"}
        assert all(float(r["time_ms"]) > 0 for r in rows)
        agg = tmp_path / "bench_agg.csv"
        assert agg.exists()
        with open(agg, newline="") as fh:
            arows = list(csv.DictReader(fh))
        assert len(arows) == 2

    def test_sweep_marks_zero_counts(self, tmp_path):
        out = str(tmp_path / "bench.csv")
        code = main(
            ["bench", "--n-list", "10,12", "--k-list", "2", "--reps", "1",
             "--seed", "0", "--out", out]
        )
        assert code == EXIT_OK
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["count_is_zero"] for r in rows] == ["0", "1"]
        assert rows[1]["count_decimal_digits"] == "1"

    def test_growth_comparison_mode(self, tmp_path):
        out = str(tmp_path / "pairs.csv")
        code = main(
            ["bench", "--table1", "--n-list", "30", "--k-list", "3",
             "--pairs", "2", "--seed", "1", "--out", out]
        )
        assert code in (EXIT_OK, EXIT_MISMATCH)  # partial growth is reported
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        for r in rows:
            assert int(r["size_2"]) >= int(r["size_1"])

    def test_growth_comparison_ends_when_no_draw_can_grow(self, tmp_path):
        # A two-vertex graph leaves no edge to grow its claims by, so every
        # draw fails; the run must give up after its draw budget.
        out = tmp_path / "pairs.csv"
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(amocount.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "amocount.cli", "bench", "--table1", "--n-list", "2",
             "--k-list", "2", "--pairs", "1", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == EXIT_MISMATCH
        with open(out, newline="") as fh:
            assert list(csv.reader(fh)) == [
                ["n", "k", "size_1", "size_2", "time1_ms", "time2_ms",
                 "count1_is_zero", "count2_is_zero"]
            ]
        failed = [line for line in proc.stderr.splitlines() if line.startswith("failed:")]
        assert failed == ["failed: n=2 k=2: no admissible extra edge"] * 10

    def test_growth_comparison_marks_zero_counts(self, tmp_path, monkeypatch):
        counts = []
        timed = bench_module.time_count

        def recorded(instance, **kwargs):
            result, dt = timed(instance, **kwargs)
            counts.append(result.count)
            return result, dt

        monkeypatch.setattr(bench_module, "time_count", recorded)
        out = str(tmp_path / "pairs.csv")
        code = main(
            ["bench", "--table1", "--n-list", "12", "--k-list", "3",
             "--pairs", "4", "--seed", "0", "--out", out]
        )
        assert code in (EXIT_OK, EXIT_MISMATCH)  # a draw that cannot grow is reported
        with open(out, newline="") as fh:
            flags = [(r["count1_is_zero"], r["count2_is_zero"]) for r in csv.DictReader(fh)]
        # each row times K1, then K2, PAIR_REPS times each
        reps = bench_module.PAIR_REPS
        rows = [counts[i : i + 2 * reps] for i in range(0, len(counts), 2 * reps)]
        assert flags == [(str(int(c[0] == 0)), str(int(c[reps] == 0))) for c in rows]
        # a grown claim set can count 0 where its base set does not
        assert ("0", "1") in flags


    def test_growth_comparison_reaches_every_cell_of_equal_length_lists(self, tmp_path, capsys):
        # zipping two lists of length 2 would only ever draw (12, 2) and (16, 3)
        out = str(tmp_path / "pairs.csv")
        code = main(
            ["bench", "--table1", "--n-list", "12,16", "--k-list", "2,3",
             "--pairs", "4", "--seed", "0", "--out", out, "--verbose"]
        )
        assert code in (EXIT_OK, EXIT_MISMATCH)  # k = 2 leaves no claim to grow by
        drawn = [
            line.split(":")[0] for line in capsys.readouterr().err.splitlines()
            if line.startswith("n=")
        ]
        assert drawn[:4] == ["n=12 k=2", "n=16 k=3", "n=12 k=3", "n=16 k=2"]


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["--version"])
        assert e.value.code == 0
        assert "amocount" in capsys.readouterr().out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit) as e:
            main([])
        assert e.value.code == 2

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["gen", "--n", "0"], "not a positive integer: '0'"),
            (["gen", "--n", "-3"], "not a positive integer: '-3'"),
            (["gen", "--n", "10", "--k", "1"], "not an integer of at least 2: '1'"),
            (["gen", "--n", "10", "--k", "x"], "not an integer of at least 2: 'x'"),
            (["bench", "--n-list", "x"], "argument --n-list: invalid _int_list value: 'x'"),
            (["bench", "--k-list", "3,y"], "argument --k-list: invalid _int_list value: '3,y'"),
            (["bench", "--reps", "0"], "argument --reps: not a positive integer: '0'"),
            (["bench", "--reps", "-2"], "argument --reps: not a positive integer: '-2'"),
            (["bench", "--table1", "--pairs", "0"], "argument --pairs: not a positive integer: '0'"),
        ],
    )
    def test_bad_numbers_are_usage_errors(self, tmp_path, capsys, argv, message):
        # exit 1 is kept for a mismatch, so a bad number must not end in a
        # traceback; a count of 0 reps or pairs wrote an empty CSV and exited 0
        with pytest.raises(SystemExit) as e:
            main([*argv, "--out", str(tmp_path / "out")])
        assert e.value.code == 2  # argparse's usage error
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["bench", "--n-list", "0"], "argument --n-list: not a positive integer: '0'"),
            (["bench", "--n-list", "5,0"], "argument --n-list: not a positive integer: '0'"),
            (["bench", "--k-list", "1"], "argument --k-list: not an integer of at least 2: '1'"),
            (["bench", "--n-list", ","], "argument --n-list: no integer in ','"),
            (["bench", "--table1", "--k-list", " "], "argument --k-list: no integer in ' '"),
        ],
    )
    def test_empty_or_low_bench_lists_are_usage_errors(self, tmp_path, capsys, argv, message):
        # every draw of such a list would fail and exit 1, the code of a
        # partly failed sweep, and an empty list made --table1 divide by zero
        with pytest.raises(SystemExit) as e:
            main([*argv, "--out", str(tmp_path / "out")])
        assert e.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_oracle_cap_is_a_usage_error(self, tmp_path, capsys):
        # it reached the oracle and exited 3, "capped at -1"
        with pytest.raises(SystemExit) as e:
            main(["oracle", str(tmp_path / "inst.json"), "--oracle-cap", "-1"])
        assert e.value.code == 2
        assert "argument --oracle-cap: not a nonnegative integer: '-1'" in capsys.readouterr().err
