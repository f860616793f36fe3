"""Command-line interface: subcommands, exit codes, artifact shapes and
byte-level determinism."""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from chainflow import monomial, toric
from chainflow.cli import main
from chainflow.flows import Homotopy

import golden_data as G

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
BENCH_REFERENCE = (Path(__file__).resolve().parent.parent / "bench"
                   / "reference.json")


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
        import io
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
        art, _ = run_json(["lattice", "--in", "-"], capsys)
        assert art["generator_strings"] == ["x^2", "x*y", "y^2"]


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
        rc = main(["resolve", "--in", str(BENCH_REFERENCE.parent / "inputs"
                                          / "cycle11.json"),
                   "--out", str(path)])
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

    def test_invalid_json(self, tmp_path, capsys):
        f = tmp_path / "broken.json"
        f.write_text("this is { not json")
        rc, _, err = run(["lattice", "--in", str(f)], capsys)
        assert rc == 2
        assert "invalid JSON" in err

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
        monkeypatch.setattr(module, "moore_penrose", lambda c: Homotopy(c, []))
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


class TestDeterminism:
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
