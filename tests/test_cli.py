"""End-to-end tests for the command line interface."""
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from artifact.admissible import enumerate_maximal
from artifact.cli import main


# The n = 8 diagrams whose column reduction is unsupported, in catalog order.
UNSUPPORTED_N8 = [
    "two crosses in column 4 of 8,4,9: Root(8,4), Root(6,4)",
    "two crosses in column 4 of 8,4,19: Root(8,4), Root(7,4)",
    "two crosses in column 4 of 8,4,32: Root(8,4), Root(7,4)",
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDiagrams:
    def test_text_listing(self, capsys):
        code, out, _ = run(capsys, "diagrams", "--n", "3")
        assert code == 0
        assert "3,0,1" in out
        assert "3,1,1" in out
        assert "X-" in out

    def test_json_listing(self, capsys):
        code, out, _ = run(capsys, "diagrams", "--n", "4", "--json")
        assert code == 0
        doc = json.loads(out)
        labels = [e["label"] for e in doc["result"]]
        assert labels == ["4,0,1", "4,1,1", "4,2,1", "4,2,2"]
        entry = doc["result"][0]
        assert entry["dim"] == 4
        assert entry["rows"][-1] == "X-- "
        assert entry["sequence"] == ["4,1", "3,2"]

    def test_maximal_only_flag_accepted(self, capsys):
        code, out, _ = run(capsys, "diagrams", "--n", "3",
                           "--maximal-only", "--json")
        assert code == 0
        assert len(json.loads(out)["result"]) == 2

    def test_unverified_catalog_is_one_warning_line(self, capsys,
                                                    monkeypatch):
        from artifact import cli

        real = cli.dimension

        # The same warning raised again from another place is shown once.
        def dimension(s):
            cli.enumerate_maximal(s.n)
            return real(s)

        monkeypatch.setattr(cli, "dimension", dimension)
        code, out, err = run(capsys, "diagrams", "--n", "8")
        assert code == 0
        assert out.startswith("label 8,0,1  dim 24\n")
        assert err == ("warning: catalog for n = 8 is outside the "
                       "cross-checked range\n")

    def test_warning_precedes_the_error_and_keeps_its_code(self, capsys):
        assert run(capsys, "canonical", "--n", "8", "--label", "8,0,1",
                   "--c", "{}") == (
            2, "", "warning: catalog for n = 8 is outside the "
                   "cross-checked range\n"
                   "error: missing value for pick Root(8,1)\n")

    @pytest.mark.parametrize("argv", [
        ("verify", "--suite", "ideals", "--n", "8"),
        ("verify", "--suite", "polarizations", "--n", "8"),
        ("generators", "--n", "8", "--label", "8,4,9"),
    ])
    def test_unsupported_column_is_a_usage_error(self, capsys, argv):
        # 8,4,9, 8,4,19 and 8,4,32 have two crosses in column 4, outside
        # the column reduction: a suite names all three on one line, and
        # generators the one it was asked for.
        unsupported = UNSUPPORTED_N8 if argv[0] == "verify" \
            else UNSUPPORTED_N8[:1]
        assert run(capsys, *argv) == (
            2, "", "warning: catalog for n = 8 is outside the "
                   "cross-checked range\n"
                   f"error: {'; '.join(unsupported)}\n")

    @pytest.mark.parametrize("suite, checked", [
        ("ideals", "build_ideal"),
        ("polarizations", "polarization"),
    ])
    def test_suite_refuses_before_any_check(self, capsys, monkeypatch,
                                            suite, checked):
        from artifact import cli

        def refused(s, *_args):
            raise AssertionError(f"{s.label} was checked")

        monkeypatch.setattr(cli, checked, refused)
        code, out, err = run(capsys, "verify", "--suite", suite,
                             "--n", "8", "--json")
        assert (code, out) == (2, "")
        assert err.splitlines()[1:] == [f"error: {'; '.join(UNSUPPORTED_N8)}"]


class TestGenerators:
    def test_json(self, capsys):
        code, out, _ = run(capsys, "generators", "--n", "3",
                           "--label", "3,1,1", "--json")
        assert code == 0
        doc = json.loads(out)
        gens = doc["result"]["generators"]
        assert len(gens) == 3
        assert any("y_3_1" in g for g in gens)

    def test_unknown_label_is_usage_error(self, capsys):
        code, _, err = run(capsys, "generators", "--n", "3",
                           "--label", "9,9,9")
        assert code == 2

    def test_non_maximal_diagram_is_a_usage_error(self, capsys):
        # The n = 9 catalog walk lists 9,3,89, which admits a proper
        # extension: build_ideal refuses it, and the error names the label.
        assert run(capsys, "generators", "--n", "9", "--label",
                   "9,3,89") == (
            2, "", "warning: catalog for n = 9 is outside the "
                   "cross-checked range\n"
                   "error: diagram 9,3,89: the diagram admits a proper "
                   "extension\n")

    @pytest.mark.parametrize("argv", [
        ("generators", "--n", "4", "--label", "4,0,1"),
        ("verify", "--suite", "ideals", "--n", "4"),
    ])
    def test_refused_ideal_is_a_usage_error(self, capsys, monkeypatch,
                                            argv):
        # No catalog diagram gives generators that fail to triangularize,
        # so the refusal is raised by hand to check its exit code and line.
        from artifact import cli
        from artifact.symbolic import UnsupportedIdealShape

        def refuse(s, c):
            raise UnsupportedIdealShape("no solvable root")

        monkeypatch.setattr(cli, "build_ideal", refuse)
        assert run(capsys, *argv) == (
            2, "", "error: diagram 4,0,1: no solvable root\n")


class TestCensus:
    def test_n3_p2(self, capsys):
        code, out, _ = run(capsys, "census", "--n", "3", "--p", "2",
                           "--json")
        assert code == 0
        doc = json.loads(out)
        counts = {row["label"]: row["count"]
                  for row in doc["result"]["orbits"]}
        assert counts == {"3,0,1": 1, "3,1,1": 4}
        assert doc["result"]["identities"]["point_sum_ok"] is True

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run(capsys, "census", "--n", "3", "--p", "3",
                          "--json", "--seed", "7")
        _, second, _ = run(capsys, "census", "--n", "3", "--p", "3",
                           "--json", "--seed", "7")
        assert first == second

    def test_seed_recorded(self, capsys):
        _, out, _ = run(capsys, "census", "--n", "3", "--p", "2",
                        "--json", "--seed", "42")
        assert json.loads(out)["seed"] == 42

    def test_budget_env(self, capsys, monkeypatch):
        monkeypatch.setenv("ARTIFACT_BFS_BUDGET", "3")
        code, out, err = run(capsys, "census", "--n", "4", "--p", "3")
        assert code == 1
        assert "budget" in (out + err).lower()


class TestClassifyAndCanonical:
    def test_classify(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "3", "--p", "2",
                           "--values", '{"3,1": 1, "2,1": 1}', "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["label"] == "3,0,1"
        assert doc["result"]["c"] == {"3,1": 1}

    def test_canonical(self, capsys):
        code, out, _ = run(capsys, "canonical", "--n", "3",
                           "--label", "3,0,1", "--c", '{"3,1": 1}',
                           "--p", "2", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["values"] == {"3,1": 1}

    def test_round_trip(self, capsys):
        _, out, _ = run(capsys, "canonical", "--n", "4",
                        "--label", "4,1,1",
                        "--c", '{"3,1": 1, "4,2": 2, "4,3": 0}',
                        "--p", "3", "--json")
        values = json.loads(out)["result"]["values"]
        code, out, _ = run(capsys, "classify", "--n", "4", "--p", "3",
                           "--values", json.dumps(values), "--json")
        assert code == 0
        assert json.loads(out)["result"]["label"] == "4,1,1"


class TestTextOutputs:
    @pytest.mark.parametrize("argv, text", [
        (("generators", "--n", "3", "--label", "3,1,1"),
         "1*y_3_1\n1*y_2_1 + -1*c_2_1\n1*y_3_2 + -1*c_3_2\n"),
        (("census", "--n", "3", "--p", "2"),
         "census n=3 p=2\n"
         "  3,0,1: 1 orbits of dim 2\n"
         "  3,1,1: 4 orbits of dim 0\n"
         "  point_sum_ok=True formula_ok=True\n"),
        (("classify", "--n", "3", "--p", "2",
          "--values", '{"3,1": 1, "2,1": 1}'),
         'label 3,0,1 dim 2 c {"3,1": 1}\n'),
        (("canonical", "--n", "3", "--label", "3,0,1",
          "--c", '{"3,1": 1}', "--p", "2"),
         '{"3,1": 1}\n'),
    ])
    def test_text(self, capsys, argv, text):
        assert run(capsys, *argv) == (0, text, "")


class TestVerify:
    @pytest.mark.parametrize("suite,extra", [
        ("polarizations", ["--n", "5"]),
        ("ideals", ["--n", "4"]),
        ("census", ["--n", "3", "--p", "3"]),
        ("strata", ["--n", "4", "--p", "2"]),
        ("subregular", ["--n", "4", "--p", "3"]),
    ])
    def test_suites_pass(self, capsys, suite, extra):
        code, out, err = run(capsys, "verify", "--suite", suite, *extra)
        assert code == 0, (suite, out, err)

    def test_subregular_cuts_at_n6(self, capsys):
        # Case 1 of (6, 1, 1) cuts its orbit once its system holds the
        # corner minors after j0.
        code, out, err = run(capsys, "verify", "--suite", "subregular",
                             "--n", "6", "--p", "2")
        assert (code, out, err) == (
            0, "suite subregular: 3 checks passed\n", "")

    def test_subregular_cuts_at_n7(self, capsys):
        # Each of the three n = 7 subregular systems cuts its orbit out of
        # all 2^21 states over F_2.
        code, out, err = run(capsys, "verify", "--suite", "subregular",
                             "--n", "7", "--p", "2")
        assert (code, out, err) == (
            0, "suite subregular: 3 checks passed\n", "")

    def test_no_subregular_diagrams(self, capsys):
        # The subregular dimension N - floor(n/2) - 2 is negative for n = 2,
        # so the suite does not apply there: a usage error.
        assert run(capsys, "verify", "--suite", "subregular",
                   "--n", "2", "--p", "2") == (
            2, "", "error: suite subregular needs n >= 3: no subregular "
                   "orbit exists for n=2\n")

    def test_subregular_at_n3(self, capsys):
        # (3, 1, 1), of dimension 0 = 3 - 1 - 2, is the one subregular
        # diagram at n = 3.
        assert run(capsys, "verify", "--suite", "subregular",
                   "--n", "3", "--p", "2") == (
            0, "suite subregular: 1 checks passed\n", "")

    def test_census_identities_can_fail(self, capsys, monkeypatch):
        # Every orbit labelled by one diagram breaks both identities.
        from artifact import orbit_engine

        first = orbit_engine.enumerate_maximal(3)[0]
        monkeypatch.setattr(orbit_engine, "_classify_orbit",
                            lambda orbit, stage: (first, {}))
        assert orbit_engine.census(3, 2)["identities"] == {
            "point_sum_ok": False, "formula_ok": False}
        assert run(capsys, "verify", "--suite", "census",
                   "--n", "3", "--p", "2") == (
            1, "", "check failed: point-count identity fails\n")

    @pytest.mark.parametrize("suite, name, fake, message", [
        ("polarizations", "verify_polarization", lambda pol, f: False,
         "polarization fails for (3, 0, 1)"),
        ("ideals", "is_poisson_ideal", lambda handle: False,
         "ideal of (3, 0, 1) is not Poisson-closed"),
        ("strata", "stratum", lambda f, _n=itertools.count(): next(_n),
         "stratum is not constant on an orbit"),
        # A catalog without its subregular diagram (3, 1, 1).
        ("subregular", "enumerate_maximal",
         lambda n: enumerate_maximal(n)[:1],
         "no subregular diagrams for n=3"),
    ])
    def test_failed_suite_is_one_line(self, capsys, monkeypatch, suite,
                                      name, fake, message):
        from artifact import cli

        monkeypatch.setattr(cli, name, fake)
        assert run(capsys, "verify", "--suite", suite,
                   "--n", "3", "--p", "2") == (
            1, "", f"check failed: {message}\n")

    def test_unknown_suite(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "nonsense")
        assert code == 2


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_missing_required(self, capsys):
        assert run(capsys, "diagrams")[0] == 2

    def test_bad_json_values(self, capsys):
        code, _, _ = run(capsys, "classify", "--n", "3", "--p", "2",
                         "--values", "{not json")
        assert code == 2


class TestBoundaryValidation:
    @pytest.mark.parametrize("argv", [
        ("census", "--n", "3", "--p", "4"),
        ("classify", "--n", "3", "--p", "4", "--values", '{"3,1": 1}'),
        ("census", "--n", "3", "--p", "1"),
        ("census", "--n", "1", "--p", "2"),
        ("classify", "--n", "3", "--p", "2", "--values", '{"9,1": 1}'),
        ("classify", "--n", "6", "--p", "31", "--values", '{"6,1": 1}'),
    ])
    def test_one_line_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, key", [
        (("classify", "--n", "3", "--p", "2", "--values", '{"2,1": true}'),
         "2,1"),
        (("classify", "--n", "3", "--p", "2", "--values", '{"2,1": false}'),
         "2,1"),
        (("canonical", "--n", "3", "--label", "3,0,1",
          "--c", '{"3,1": true}'), "3,1"),
    ])
    def test_boolean_value_is_not_an_integer(self, capsys, argv, key):
        # JSON true/false would otherwise pass as the ints 1/0.
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: value for '{key}' must be an integer\n"

    def test_large_prime_is_decided_quickly(self, capsys):
        # Trial division up to the square root of this p takes 10^8 steps;
        # the field is then refused for its state count.
        start = time.perf_counter()
        code, out, err = run(capsys, "census", "--n", "7", "--p",
                             "10000000000000061")
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == ("error: p^21 = 10000000000000061^21 exceeds 2^63, "
                       "the limit of packed orbit states at n=7\n")

    def test_unwritable_out(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x"
        code, out, err = run(capsys, "diagrams", "--n", "3",
                             "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(target) in err

    @pytest.mark.parametrize("argv", [
        ("census", "--n", "6", "--p", "17"),
        ("verify", "--suite", "strata", "--n", "5", "--p", "7"),
        ("verify", "--suite", "subregular", "--n", "7", "--p", "3"),
    ])
    def test_whole_space_over_budget(self, capsys, monkeypatch, argv):
        # Refused before any allocation: the default budget is 2^26 states.
        monkeypatch.delenv("ARTIFACT_BFS_BUDGET", raising=False)
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("budget exceeded: ") and err.count("\n") == 1
        assert f"n={argv[-3]}, p={argv[-1]}" in err

    def test_unparseable_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("ARTIFACT_BFS_BUDGET", "abc")
        code, out, err = run(capsys, "census", "--n", "3", "--p", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "ARTIFACT_BFS_BUDGET" in err

    def test_classification_mismatch_is_a_failed_check(self, capsys,
                                                       monkeypatch):
        from artifact import orbit_engine

        catalog = orbit_engine.enumerate_maximal(3)
        monkeypatch.setattr(orbit_engine, "enumerate_maximal",
                            lambda n: catalog + catalog)
        code, out, err = run(capsys, "census", "--n", "3", "--p", "2")
        assert code == 1
        assert out == ""
        assert err == ("check failed: census at n=3, p=2: an orbit of 1 "
                       "states has 2 canonical members, not 1\n")


class TestStartupWithoutNumpy:
    # Only the finite-field orbit search imports numpy, so the package and
    # every symbolic command run in a fresh interpreter without loading it.
    SYMBOLIC = [
        ["diagrams", "--n", "7"],
        ["generators", "--n", "5", "--label", "5,1,1"],
        ["canonical", "--n", "5", "--label", "5,1,1",
         "--c", '{"4,1": 1, "5,2": 2, "5,4": 3}'],
        ["verify", "--suite", "ideals", "--n", "5"],
        ["verify", "--suite", "polarizations", "--n", "5"],
    ]
    CENSUS = ["census", "--n", "3", "--p", "2", "--json"]
    CHILD = """
import contextlib, io, json, sys
steps = []
import artifact
steps.append(["import artifact", 0, "numpy" in sys.modules])
import artifact.cli
steps.append(["import artifact.cli", 0, "numpy" in sys.modules])
for argv in json.loads(sys.argv[1]) + [json.loads(sys.argv[2])]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = artifact.cli.main(argv)
    steps.append([" ".join(argv), code, "numpy" in sys.modules])
print(json.dumps(steps))
print(out.getvalue(), end="")
"""

    def test_only_the_orbit_search_loads_numpy(self, capsys):
        src = Path(__file__).resolve().parents[1] / "src"
        child = subprocess.run(
            [sys.executable, "-c", self.CHILD, json.dumps(self.SYMBOLIC),
             json.dumps(self.CENSUS)],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=120, check=True)
        steps_line, census_out = child.stdout.split("\n", 1)
        steps = json.loads(steps_line)
        assert steps[:-1] == [
            [name, 0, False] for name in
            ["import artifact", "import artifact.cli"]
            + [" ".join(argv) for argv in self.SYMBOLIC]]
        assert steps[-1] == [" ".join(self.CENSUS), 0, True]
        assert census_out == run(capsys, *self.CENSUS)[1]
