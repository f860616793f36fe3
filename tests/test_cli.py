"""Command-line interface: subcommands, exit codes, artifact shapes and
byte-level determinism."""

import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from importlib import resources
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from chainflow import monomial, splittings, toric
from chainflow.cli import main

import golden_data as G
from helpers import (
    assert_resolution_reads_back, fixture_ideal, zero_homotopy,
)
from oracles import (
    betti_euler_characteristic, euler_characteristic, monomial_betti_oracle,
)

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
BENCH_REFERENCE = (Path(__file__).resolve().parent.parent / "bench"
                   / "reference.json")
CYCLE11 = BENCH_REFERENCE.parent / "inputs" / "cycle11.json"


def run(argv, capsys):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def run_json(argv, capsys):
    rc, out, err = run(argv, capsys)
    assert rc == 0, err
    return json.loads(out), err


def assert_unknown_fixture(p):
    # argparse usage errors also exit 2; the message shows that the
    # subcommand ran and rejected the input.
    assert p.returncode == 2, p.stderr
    assert "unknown fixture 'nonesuch'" in p.stderr


class TestLattice:
    def test_cycle3(self, capsys):
        art, err = run_json(["lattice", "--fixture", "cycle3"], capsys)
        assert art["variables"] == G.CYCLE3_VARIABLES
        assert art["generator_strings"] == G.CYCLE3_GENERATORS
        assert len(art["elements"]) == 9
        assert art["element_strings"][0] == "1"
        assert len(art["below"]) == 9
        assert art["below"][0] == []     # the bottom has nothing below it
        assert "9 elements" in err

    def test_cycle2(self, capsys):
        art, _ = run_json(["lattice", "--fixture", "cycle2"], capsys)
        assert len(art["generator_strings"]) == 5
        assert len(art["elements"]) == len(art["element_strings"])

    def test_stdin(self, capsys, monkeypatch):
        doc = json.dumps({"variables": ["x", "y"],
                          "generators": [[2, 0], [1, 1], [0, 2]]})
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
        art, _ = run_json(["lattice", "--in", "-"], capsys)
        assert art["generator_strings"] == ["y^2", "x*y", "x^2"]


class TestResolve:
    def test_cycle3_artifact(self, capsys):
        art, err = run_json(["resolve", "--fixture", "cycle3"], capsys)
        rep = art["report"]
        assert rep["ranks"] == G.RES_RANKS
        # JSON stringifies the homological-degree keys
        assert rep["betti"] == {str(k): v for k, v in G.RES_BETTI.items()}
        assert rep["field"] == "Q"
        assert rep["mode"] == "moore_penrose"
        assert rep["verification"]["minimal"] is True
        assert rep["verification"]["exact"] is True
        res = art["resolution"]
        assert [len(t) for t in res["basis"]] == G.RES_RANKS
        assert "ranks [4, 4, 1]" in err
        assert "verification: minimal=true exact=true" in err

    def test_with_field(self, capsys):
        art, _ = run_json(
            ["resolve", "--fixture", "cycle3", "--with-field"], capsys)
        assert "vector_field" in art and "start_resolution" in art
        start = art["start_resolution"]
        assert [len(t) for t in start["basis"]] == [
            len(G.F0_LABELS), len(G.F1_LABELS), len(G.F2_LABELS)]
        assert len(art["vector_field"]["maps"]) == 2

    def test_char5_taylor(self, capsys):
        art, _ = run_json(
            ["resolve", "--fixture", "cycle3", "--char", "5",
             "--start", "taylor"], capsys)
        rep = art["report"]
        assert rep["field"] == {"p": 5}
        assert rep["ranks"] == G.RES_RANKS
        assert rep["betti"] == {str(k): v for k, v in G.RES_BETTI.items()}

    def test_mp_rejected_in_char_p(self, capsys):
        rc, _, err = run(
            ["resolve", "--fixture", "cycle3", "--char", "2", "--mode", "mp"],
            capsys)
        assert rc == 2
        assert "input error" in err


class TestCriticalResolve:
    """End-to-end resolves over F_p(y), where p divides a matroidal count."""

    @pytest.mark.parametrize("p", [2, 3])
    def test_cycle3_taylor(self, p, tmp_path, capsys):
        job = f"resolve --fixture cycle3 --char {p} --start taylor"
        path = tmp_path / "art.json"
        rc = main(job.split() + ["--out", str(path)])
        err = capsys.readouterr().err
        assert rc == 0, err
        data = path.read_bytes()
        rep = json.loads(data)["report"]
        assert rep["verification"]["minimal"] is True
        assert rep["verification"]["exact"] is True
        assert "transcendentals" in rep["field"]
        expected = json.loads(BENCH_REFERENCE.read_text())[job]
        assert hashlib.sha256(data).hexdigest() == expected


class TestMatroidalResolve:
    """The 6960-choice top stratum of cycle2 with the Taylor start over F_7,
    averaged without building one homotopy per choice."""

    def test_cycle2_taylor_char7(self, tmp_path, capsys):
        job = "resolve --fixture cycle2 --char 7 --start taylor"
        path = tmp_path / "art.json"
        rc = main(job.split() + ["--out", str(path)])
        err = capsys.readouterr().err
        assert rc == 0, err
        data = path.read_bytes()
        rep = json.loads(data)["report"]
        assert 6960 in rep["stratum_counts"].values()
        assert rep["verification"]["minimal"] is True
        assert rep["verification"]["exact"] is True
        expected = json.loads(BENCH_REFERENCE.read_text())[job]
        assert hashlib.sha256(data).hexdigest() == expected


class TestRationalResolve:
    """The cycle family I(11) over Q with the lcm start, Moore-Penrose mode;
    its per-degree matroidal options still give the critical primes."""

    def test_cycle11_lcm(self, tmp_path, capsys):
        path = tmp_path / "art.json"
        rc = main(["resolve", "--in", str(CYCLE11), "--out", str(path)])
        err = capsys.readouterr().err
        assert rc == 0, err
        data = path.read_bytes()
        rep = json.loads(data)["report"]
        assert rep["verification"]["minimal"] is True
        assert rep["verification"]["exact"] is True
        assert rep["critical_primes"] == [2, 11]
        counts = set(rep["stratum_counts"].values())
        assert 968 in counts and counts <= {1, 2, 968}
        expected = json.loads(BENCH_REFERENCE.read_text())[
            "resolve --in inputs/cycle11.json"]
        assert hashlib.sha256(data).hexdigest() == expected
        assert_resolution_reads_back(path)
        ideal = json.loads(CYCLE11.read_text())
        assert (betti_euler_characteristic(ideal["variables"], rep["betti"])
                == euler_characteristic(ideal["generators"]))


class TestMatroidal:
    def test_char0(self, capsys):
        art, err = run_json(["matroidal", "--fixture", "cycle3"], capsys)
        assert art["counts"] == G.MATROIDAL_COUNTS
        assert art["critical_primes"] == G.CRITICAL_PRIMES
        assert set(art["per_prime"]) == {"2", "3"}
        # characteristic zero: no stratum is actually critical
        assert art["critical_strata"] == []
        assert art["transcendence_degree"] == 0
        assert "8 occupied strata" in err

    @pytest.mark.parametrize("p", [2, 3])
    def test_critical_characteristic(self, p, capsys):
        art, _ = run_json(
            ["matroidal", "--fixture", "cycle3", "--char", str(p)], capsys)
        assert art["critical_strata"] == G.CRITICAL_STRATA[p]
        assert art["transcendence_degree"] == G.TRANSCENDENCE_DEGREE[p]

    def test_char5_not_critical(self, capsys):
        art, _ = run_json(
            ["matroidal", "--fixture", "cycle3", "--char", "5"], capsys)
        assert art["critical_strata"] == []
        assert art["transcendence_degree"] == 0


R6 = {"variables": ["x0", "x1", "x2", "x3"], "generators": G.R6_GENERATORS}
R7 = {"variables": ["x0", "x1", "x2", "x3"], "generators": G.R7_GENERATORS}
# The Stanley-Reisner ideal of RP^2: its minimal nonfaces are the triangles
# that are not facets, as test_rp2_facets_form_a_surface shows.
RP2 = {"variables": [f"x{i}" for i in range(1, 7)],
       "generators": [[int(i in t) for i in range(6)]
                      for t in combinations(range(6), 3)
                      if t not in G.RP2_FACETS]}


class TestOptionBound:
    """A stratum whose matroidal option search could not finish is refused
    before any option of it is enumerated, naming the stratum and the
    number of pairs (X_n, Z_n) the search would walk, wherever the run
    needs its count.  Moore-Penrose mode needs the counts only for the
    report, so there the stratum is reported as not counted."""

    def test_rp2_facets_form_a_surface(self):
        # Each of the 15 edges lies in exactly two of the 10 triangles.  So
        # every edge is a face, and as no four vertices span four facets,
        # the minimal nonfaces are the 10 triangles that are not facets.
        facets = set(G.RP2_FACETS)
        assert len(facets) == 10 and len(RP2["generators"]) == 10
        for e in combinations(range(6), 2):
            assert sum(set(e) <= set(f) for f in facets) == 2, e
        for q in combinations(range(6), 4):
            assert len(facets & set(combinations(q, 3))) < 4, q

    @pytest.mark.parametrize("argv, doc, tag, pairs", [
        (["resolve", "--char", "3"], R6, "x0^2*x1^3*x2^3*x3^3",
         G.R6_OPTION_PAIRS),
        (["resolve", "--char", "3"], RP2, "x1*x2*x3*x4*x5*x6",
         G.RP2_OPTION_PAIRS),
        (["matroidal", "--char", "3", "--start", "lcm"], R6,
         "x0^2*x1^3*x2^3*x3^3", G.R6_OPTION_PAIRS),
    ])
    def test_refused_at_once(self, argv, doc, tag, pairs, tmp_path, capsys):
        f = tmp_path / "ideal.json"
        f.write_text(json.dumps(doc))
        start = time.perf_counter()
        rc, out, err = run(argv + ["--in", str(f)], capsys)
        assert time.perf_counter() - start < 1
        assert (rc, out) == (2, "")
        assert f"stratum {tag}: " in err
        assert f"a search of {pairs} pairs" in err
        assert f"above the bound of {splittings.MAX_OPTION_PAIRS}" in err

    def test_moore_penrose_reports_an_uncounted_stratum(self, tmp_path,
                                                        capsys):
        # The top stratum is not counted, so the critical primes are
        # unknown; the resolution is minimal and exact, with the Betti
        # table of the simplicial-homology oracle.
        f = tmp_path / "ideal.json"
        f.write_text(json.dumps(RP2))
        art, err = run_json(["resolve", "--char", "0", "--mode", "mp",
                             "--in", str(f)], capsys)
        rep = art["report"]
        assert rep["ranks"] == [10, 15, 6]
        assert rep["verification"]["minimal"] and rep["verification"]["exact"]
        counts = rep["stratum_counts"]
        assert [t for t, m in counts.items() if m is None] == \
            ["x1*x2*x3*x4*x5*x6"]
        assert len(counts) == 32
        assert rep["critical_primes"] is None
        assert rep["critical_strata"] == []
        assert rep["transcendence_degree"] == 0
        oracle = monomial_betti_oracle(RP2["variables"], RP2["generators"], 0)
        assert rep["betti"] == {str(i): row for i, row in oracle.items()}
        assert "critical primes unknown" in err
        assert (f"1 of 32 strata not counted: their matroidal option search "
                f"is above the bound of {splittings.MAX_OPTION_PAIRS} pairs"
                in err)

    def test_within_the_bound_still_counts(self, tmp_path, capsys):
        f = tmp_path / "ideal.json"
        f.write_text(json.dumps(R7))
        art, _ = run_json(["matroidal", "--char", "3", "--start", "lcm",
                           "--in", str(f)], capsys)
        assert len(art["counts"]) == 11
        assert art["critical_strata"] == []


class TestToricResolve:
    def test_char0(self, capsys):
        art, err = run_json(
            ["toric-resolve", "--fixture", "semigroup23"], capsys)
        rep = art["report"]
        assert rep["ranks"] == G.TORIC23_RANKS
        assert rep["betti"] == {str(k): v for k, v in G.TORIC23_BETTI.items()}
        assert rep["field"] == "Q"
        assert "ranks [1, 1]" in err

    def test_char2(self, capsys):
        art, _ = run_json(
            ["toric-resolve", "--fixture", "semigroup23", "--char", "2"],
            capsys)
        rep = art["report"]
        assert rep["field"]["p"] == 2
        assert rep["transcendence_degree"] == 1
        assert rep["ranks"] == G.TORIC23_RANKS

    def test_bad_document(self, tmp_path, capsys):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({"variables": ["x"]}))
        rc, _, err = run(["toric-resolve", "--in", str(f)], capsys)
        assert rc == 2
        assert "toric JSON needs" in err

    SEMI23 = {"variables": ["x2", "x3"], "deg_map": [[2, 3]],
              "objects": [[0], [6]],
              "morphisms": [[[0], [6], [3, 0]], [[0], [6], [0, 2]]]}
    # A number that is not an integer, variables that are not a list, no
    # object and a repeated morphism are input errors, never truncated or
    # left to the verifier.
    BAD_INPUTS = {
        "fractional object": (
            {"variables": ["x2", "x3"], "deg_map": [[2, 3]],
             "objects": [[0], [1.9]], "morphisms": []},
            "object degrees must be integers, got 1.9"),
        "fractional exponent": (
            {"variables": ["x2", "x3"], "deg_map": [[2, 3]],
             "objects": [[0], [2]], "morphisms": [[[0], [2], [1.5, 0]]]},
            "morphism exponents must be integers, got 1.5"),
        "boolean exponent": (
            {"variables": ["x2", "x3"], "deg_map": [[2, 3]],
             "objects": [[0], [2]], "morphisms": [[[0], [2], [True, 0]]]},
            "morphism exponents must be integers, got True"),
        "fractional degree": (
            {"variables": ["x"], "deg_map": [[1.7]], "objects": [[0], [1]],
             "morphisms": [[[0], [1], [1]]]},
            "deg_map entries must be integers, got 1.7"),
        "string degree": (
            {"variables": ["x"], "deg_map": [["a"]], "objects": [[0]],
             "morphisms": []},
            "deg_map entries must be integers, got 'a'"),
        "variables as a string": (
            dict(SEMI23, variables="x2"),
            '"variables" must be a list of strings, got \'x2\''),
        "no objects": (
            dict(SEMI23, objects=[], morphisms=[]),
            "the category needs at least one object"),
        "duplicate morphism": (
            dict(SEMI23, morphisms=SEMI23["morphisms"]
                 + SEMI23["morphisms"][:1]),
            "duplicate morphisms"),
        # a: 0 -> 1 and a: 1 -> 2 compose to a^2: 0 -> 2, which is missing
        "composite missing": (
            {"variables": ["a"], "deg_map": [[1]],
             "objects": [[0], [1], [2]],
             "morphisms": [[[0], [1], [1]], [[1], [2], [1]]]},
            "the category is not closed under composition of its "
            "morphisms"),
    }

    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_bad_input_exits_2(self, case, tmp_path, capsys):
        doc, message = self.BAD_INPUTS[case]
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc))
        rc, out, err = run(["toric-resolve", "--in", str(f)], capsys)
        assert (rc, out, err) == (2, "", f"input error: {message}\n")

    def test_missing_relation_fails_verification(self, tmp_path, capsys):
        # Without x3^2: [0] -> [6] the result has no syzygy, so its largest
        # multidegree is 0; the strand at the object degree 6 still fails.
        f = tmp_path / "missing.json"
        f.write_text(json.dumps(
            dict(self.SEMI23, morphisms=self.SEMI23["morphisms"][:1])))
        rc, out, err = run(["toric-resolve", "--in", str(f)], capsys)
        assert (rc, out, err) == (
            3, "", "verification failure: extracted summand is not a "
            "minimal resolution: strand at (6): H_0 has dimension 2, "
            "expected 1\n")


class TestCounterexample:
    def test_obstruction_only(self, capsys):
        art, err = run_json(
            ["counterexample", "--prime", "3", "--check", "obstruction"],
            capsys)
        ob = art["obstruction"]
        assert ob["tuples_searched"] == 27
        assert ob["equivariant_tuples"] == []
        assert ob["obstructed"] is True
        assert ob["characteristic_zero_control"]["ok"] is True
        assert art["ok"] is True
        assert "all checks passed" in err

    def test_all_p2(self, capsys):
        art, _ = run_json(
            ["counterexample", "--prime", "2", "--check", "all"], capsys)
        assert art["n"] == 4
        assert art["obstruction"]["tuples_searched"] == 16
        assert art["explicit"]["Q"]["verified"] is True
        assert art["explicit"]["F2"]["equivariant"] is False
        assert art["intrinsic"]["F2"]["error"] is not None
        assert art["transcendental"]["verified"] is True
        assert art["transcendental"]["equivariant"] is True
        assert art["ok"] is True

    def test_nonprime_rejected(self, capsys):
        rc, _, err = run(["counterexample", "--prime", "4"], capsys)
        assert rc == 2
        assert "input error" in err

    def test_search_beyond_the_limit_refused(self, capsys):
        # 11^11 tuples would take months; the refusal comes at once and
        # names the checks that still run
        start = time.perf_counter()
        rc, out, err = run(["counterexample", "--prime", "11"], capsys)
        assert time.perf_counter() - start < 1
        assert (rc, out) == (2, "")
        assert "11^11 = 285,311,670,611 tuples" in err
        assert "resolution, intrinsic and transcendental" in err

    def test_checks_without_the_search_run_beyond_the_limit(self, capsys):
        art, err = run_json(
            ["counterexample", "--prime", "11", "--check", "resolution"],
            capsys)
        assert art["n"] == 11 and art["ok"] is True
        assert "obstruction" not in art
        assert "all checks passed" in err


class TestInputHandling:
    def run_doc(self, doc, tmp_path, capsys, cmd="lattice"):
        f = tmp_path / "ideal.json"
        f.write_text(json.dumps(doc))
        return run([cmd, "--in", str(f)], capsys)

    @pytest.mark.parametrize("bad, shown", [
        (1.5, "1.5"),      # was silently truncated to 1
        ("a", "'a'"),      # was an uncaught ValueError, exit 1
        (True, "True"),    # JSON true was read as 1
    ])
    def test_non_integer_exponent(self, bad, shown, tmp_path, capsys):
        doc = {"variables": ["x", "y"], "generators": [[bad, 0], [0, 2]]}
        rc, out, err = self.run_doc(doc, tmp_path, capsys)
        assert rc == 2
        assert out == ""
        assert f"generator exponents must be integers, got {shown}" in err

    def test_unit_ideal_rejected(self, tmp_path, capsys):
        doc = {"variables": ["x", "y"], "generators": [[0, 0]]}
        rc, out, err = self.run_doc(doc, tmp_path, capsys, cmd="resolve")
        assert rc == 2
        assert out == ""
        assert "unit ideal" in err

    @pytest.mark.parametrize("bad", [5, None, True, 1.5, "xy", {"a": 1}],
                             ids=["int", "null", "true", "float", "string",
                                  "object"])
    def test_generators_must_be_a_list(self, bad, tmp_path, capsys):
        # Numbers, null and true were uncaught TypeErrors (exit 1); a string
        # or an object was read element by element and misreported.
        doc = {"variables": ["x", "y"], "generators": bad}
        for cmd in ("lattice", "resolve", "matroidal"):
            rc, out, err = self.run_doc(doc, tmp_path, capsys, cmd=cmd)
            assert rc == 2, cmd
            assert out == ""
            assert (f"the generators must be a list of exponent lists, "
                    f"got {bad!r}") in err

    def test_exponent_beyond_the_ring_range(self, capsys, monkeypatch):
        doc = json.dumps({"variables": ["x", "y"],
                          "generators": [[70000, 0], [0, 1]]})
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
        rc, out, err = run(["resolve", "--in", "-"], capsys)
        assert (rc, out) == (2, "")
        assert "70000" in err and "[0, 65535]" in err

    def test_variables_must_be_a_list(self, tmp_path, capsys):
        doc = {"variables": "xy", "generators": [[1, 0], [0, 1]]}
        rc, out, err = self.run_doc(doc, tmp_path, capsys)
        assert rc == 2
        assert out == ""
        assert '"variables" must be a list of strings' in err

    def test_unknown_fixture(self, capsys):
        rc, _, err = run(["lattice", "--fixture", "nonesuch"], capsys)
        assert rc == 2
        assert "unknown fixture" in err and "cycle3" in err

    @pytest.mark.parametrize("how", ["absolute", "relative"])
    def test_fixture_name_is_not_a_path(self, how, tmp_path, capsys):
        # a valid ideal outside the package, named by its absolute path or
        # by a ../ path out of the fixtures directory, is not a fixture
        f = tmp_path / "outside.json"
        f.write_text(json.dumps({"variables": ["x"], "generators": [[1]]}))
        name = str(f.with_suffix(""))
        if how == "relative":
            fixtures = resources.files("chainflow.fixtures")
            name = os.path.relpath(name, str(fixtures))
            assert name.startswith("..")
        rc, out, err = run(["lattice", "--fixture", name], capsys)
        assert rc == 2 and out == ""
        assert f"unknown fixture {name!r}" in err and "cycle3" in err

    def test_invalid_json(self, tmp_path, capsys):
        f = tmp_path / "broken.json"
        f.write_text("this is { not json")
        rc, _, err = run(["lattice", "--in", str(f)], capsys)
        assert rc == 2
        assert "invalid JSON" in err

    def test_deeply_nested_json(self, tmp_path, capsys):
        f = tmp_path / "nested.json"
        f.write_text("[" * 100_000 + "]" * 100_000)
        rc, out, err = run(["resolve", "--in", str(f)], capsys)
        assert (rc, out) == (2, "")
        assert err.startswith("input error: invalid JSON input: ")

    def test_missing_input(self, capsys):
        rc, _, err = run(["resolve"], capsys)
        assert rc == 2
        assert "provide --in FILE or --fixture NAME" in err

    def test_missing_ideal_fields(self, tmp_path, capsys):
        f = tmp_path / "noideal.json"
        f.write_text(json.dumps({"variables": ["x"]}))
        rc, _, err = run(["lattice", "--in", str(f)], capsys)
        assert rc == 2
        assert 'ideal JSON needs' in err

    def test_unreadable_file(self, tmp_path, capsys):
        rc, _, err = run(
            ["lattice", "--in", str(tmp_path / "absent.json")], capsys)
        assert rc == 2
        assert "cannot read" in err

    def test_non_utf8_file(self, tmp_path, capsys):
        f = tmp_path / "latin1.json"
        f.write_bytes('{"variables": ["\u00e9"]}'.encode("latin-1"))
        rc, out, err = run(["lattice", "--in", str(f)], capsys)
        assert (rc, out) == (2, "")
        assert err.startswith(f"input error: cannot read {f}: ")

    def test_out_into_missing_directory(self, tmp_path, capsys):
        target = tmp_path / "absent" / "art.json"
        rc, out, err = run(
            ["lattice", "--fixture", "cycle3", "--out", str(target)], capsys)
        assert (rc, out) == (2, "")
        assert err.startswith(f"input error: cannot write {target}: ")
        assert not target.parent.exists()


class TestVerificationFailures:
    """Exit 3, with a message naming what failed."""

    JOBS = [
        (monomial, "resolve --fixture cycle3 --char 0 --start lcm --mode mp",
         "v0^2*v1*v2*v3*e23*e31", "verify_resolution"),
        (toric, "toric-resolve --fixture semigroup23 --char 0", "6",
         "verify_toric_resolution"),
    ]

    @pytest.mark.parametrize("module,job,tag,verifier", JOBS,
                             ids=["resolve", "toric-resolve"])
    def test_mp_homotopy_not_a_splitting(self, module, job, tag, verifier,
                                         monkeypatch, capsys):
        monkeypatch.setattr(splittings, "moore_penrose", zero_homotopy)
        rc, _, err = run(job.split(), capsys)
        assert rc == 3
        assert err == ("verification failure: stratum " + tag
                       + ": the moore_penrose homotopy is not a splitting\n")

    @pytest.mark.parametrize("module,job,tag,verifier", JOBS,
                             ids=["resolve", "toric-resolve"])
    def test_verifier_failures_and_issues_separated(
            self, module, job, tag, verifier, monkeypatch, capsys):
        monkeypatch.setattr(module, verifier, lambda *a: {
            "ok": False, "failures": ["f1", "f2"],
            "validate_issues": ["i1", "i2"]})
        rc, _, err = run(job.split(), capsys)
        assert rc == 3
        assert err.endswith("verification failure: extracted summand is not "
                            "a minimal resolution: f1; f2; i1; i2\n")


# Resolves of the cycle fixtures whose artifacts the benchmark records, in
# char 0 (Moore-Penrose) and char 5 from both starts.  cycle2 from the Taylor
# start in char 5 is left out: 5 divides its 6960 matroidal choices, and
# that resolve does not finish.
SHUFFLED_JOBS = [
    "resolve --fixture cycle3 --char 0 --start lcm --mode mp",
    "resolve --fixture cycle3 --char 0 --start taylor --mode mp",
    "resolve --fixture cycle3 --char 5 --start lcm",
    "resolve --fixture cycle3 --char 5 --start taylor",
    "resolve --fixture cycle2 --char 0 --start lcm --mode mp",
    "resolve --fixture cycle2 --char 0 --start taylor --mode mp",
    "resolve --fixture cycle2 --char 5 --start lcm",
]


class TestDeterminism:
    @pytest.mark.parametrize("job", SHUFFLED_JOBS)
    @settings(derandomize=True, max_examples=6, deadline=None)
    @given(data=st.data())
    def test_artifact_ignores_generator_order(self, job, data):
        args = job.split()
        at = args.index("--fixture")
        doc = fixture_ideal(args[at + 1])
        doc["generators"] = data.draw(st.permutations(doc["generators"]),
                                      label="generators")
        with tempfile.TemporaryDirectory() as tmp:
            ideal, art = Path(tmp, "ideal.json"), Path(tmp, "art.json")
            ideal.write_text(json.dumps(doc))
            args[at:at + 2] = ["--in", str(ideal)]
            assert main(args + ["--out", str(art)]) == 0
            digest = hashlib.sha256(art.read_bytes()).hexdigest()
        assert digest == json.loads(BENCH_REFERENCE.read_text())[job]

    def test_resolve_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            rc = main(["resolve", "--fixture", "cycle3", "--with-field",
                       "--out", str(path)])
            capsys.readouterr()
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_out_file_quiet_stdout(self, tmp_path, capsys):
        path = tmp_path / "lattice.json"
        rc = main(["lattice", "--fixture", "cycle3", "--out", str(path)])
        out = capsys.readouterr()
        assert rc == 0
        assert out.out == ""
        assert json.loads(path.read_text())["element_strings"][0] == "1"


class TestSubprocessEntryPoints:
    """Run the CLI as its own process.

    These tests assume the tier-1 launch: a source checkout with ``src`` on
    ``PYTHONPATH``, which the child process inherits.  The console script is
    exercised through the entry point that ``pyproject.toml`` declares, run
    the way an installer's generated wrapper runs it, rather than through an
    installed file; the installed file is checked only where it exists.
    """

    def test_module_invocation(self):
        p = subprocess.run(
            [sys.executable, "-m", "chainflow", "matroidal",
             "--fixture", "cycle3"],
            capture_output=True, text=True)
        assert p.returncode == 0
        assert json.loads(p.stdout)["critical_primes"] == G.CRITICAL_PRIMES

    def test_cli_module_invocation(self):
        p = subprocess.run(
            [sys.executable, "-m", "chainflow.cli", "counterexample",
             "--prime", "3", "--check", "obstruction"],
            capture_output=True, text=True)
        assert p.returncode == 0
        assert json.loads(p.stdout)["obstruction"]["obstructed"] is True

    @pytest.mark.skipif(not PYPROJECT.is_file(),
                        reason="no pyproject.toml beside tests/ "
                               "(installed layout)")
    def test_console_script_exit_code(self):
        tomllib = pytest.importorskip("tomllib")
        with PYPROJECT.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["chainflow"]
        module, attr = target.split(":")
        # What an installer's generated script does.
        wrapper = (f"import sys\nfrom {module} import {attr}\n"
                   f"sys.argv[0] = 'chainflow'\nsys.exit({attr}())\n")
        p = subprocess.run(
            [sys.executable, "-c", wrapper,
             "lattice", "--fixture", "nonesuch"],
            capture_output=True, text=True)
        assert_unknown_fixture(p)

    @pytest.mark.skipif(shutil.which("chainflow") is None,
                        reason="chainflow package not installed: "
                               "no chainflow executable on PATH")
    def test_installed_console_script_exit_code(self):
        p = subprocess.run(
            ["chainflow", "lattice", "--fixture", "nonesuch"],
            capture_output=True, text=True)
        assert_unknown_fixture(p)
