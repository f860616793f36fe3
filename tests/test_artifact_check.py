"""The independent artifact checker on the benchmark's monomial resolutions.

``artifact_check`` imports nothing from the package; these tests run the
package's CLI to write the artifacts it reads.
"""

import ast
import copy
import json
import sys
from pathlib import Path

import pytest

from chainflow.cli import main

import artifact_check
from artifact_check import ArtifactError, check

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
# Every monomial resolve job of the benchmark: the fixture jobs and cycle11.
JOBS = [job for job in json.loads((BENCH / "reference.json").read_text())
        if job.split()[0] == "resolve"]
# The critical jobs resolve over F_p(y), which the checker leaves out.
OVER_FP_Y = ["resolve --fixture cycle3 --char 2 --start taylor",
             "resolve --fixture cycle3 --char 3 --start taylor"]
IN_SCOPE = [job for job in JOBS if job not in OVER_FP_Y]


def ideal_path(job):
    args = job.split()
    if "--fixture" in args:
        name = args[args.index("--fixture") + 1]
        return ROOT / "src" / "chainflow" / "fixtures" / f"{name}.json"
    return BENCH / args[args.index("--in") + 1]


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Job id -> (resolution document, generators) for every job."""
    tmp = tmp_path_factory.mktemp("artifacts")
    out = {}
    for k, job in enumerate(JOBS):
        args = job.split()
        if "--in" in args:
            args[args.index("--in") + 1] = str(ideal_path(job))
        path = tmp / f"{k}.json"
        assert main(args + ["--out", str(path)]) == 0
        out[job] = artifact_check.load(path, ideal_path(job))
    return out


def test_imports_only_the_standard_library_and_sympy():
    tree = ast.parse(Path(artifact_check.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import"
            names.add(node.module.split(".")[0])
    assert "chainflow" not in names
    assert names <= set(sys.stdlib_module_names) | {"sympy"}, names


def test_scope_is_the_sixteen_jobs_over_q_and_prime_fields(artifacts):
    assert len(JOBS) == 18 and len(IN_SCOPE) == 16
    assert sorted(job for job, (res, _) in artifacts.items()
                  if "transcendentals" in res["field"]) == OVER_FP_Y
    for job in OVER_FP_Y:
        with pytest.raises(ArtifactError, match="^scope"):
            check(*artifacts[job])


@pytest.mark.parametrize("job", IN_SCOPE)
def test_reference_artifact_passes(job, artifacts):
    assert check(*artifacts[job]) > 0


MUTATED = "resolve --fixture cycle3 --char 5 --start lcm"


def _first_term(diff):
    """The first nonzero entry of a differential and the key of its
    term."""
    for row in diff:
        for entry in row:
            if entry:
                return entry, next(iter(entry))
    raise AssertionError("zero differential")


def _changed_coefficient(res):
    entry, key = _first_term(res["diff"][1])
    entry[key] = str(int(entry[key]) + 1)


def _shifted_exponent(res):
    entry, key = _first_term(res["diff"][0])
    exps = [int(e) for e in key.split(",")]
    exps[0] += 1
    entry[",".join(map(str, exps))] = entry.pop(key)


def _unit_entry(res):
    # a trivial summand e <- f, both of one degree-1 multidegree, with
    # d f = e: still an exact resolution, but not minimal
    basis, diff = res["basis"], res["diff"]
    mdeg = basis[1][0]["multidegree"]
    basis[1].append({"label": "e", "multidegree": mdeg})
    basis[2].append({"label": "f", "multidegree": mdeg})
    for row in diff[0]:
        row.append({})
    for row in diff[1]:
        row.append({})
    diff[1].append([{}] * (len(basis[2]) - 1)
                   + [{",".join("0" * len(mdeg)): "1"}])
    for n in range(2, len(diff)):
        diff[n].append([{}] * len(basis[n + 1]))


def _dropped_generator(res):
    del res["basis"][0][0]
    del res["diff"][0][0]


@pytest.mark.parametrize("mutate,fails", [
    (_changed_coefficient, "d^2"),
    (_shifted_exponent, "homogeneity"),
    (_unit_entry, "minimality"),
    (_dropped_generator, "H_0"),
], ids=["coefficient", "exponent", "unit", "generator"])
def test_each_mutation_fails_its_property(artifacts, mutate, fails):
    resolution, generators = artifacts[MUTATED]
    assert check(resolution, generators)
    broken = copy.deepcopy(resolution)
    mutate(broken)
    with pytest.raises(ArtifactError) as err:
        check(broken, generators)
    assert str(err.value).startswith(fails + ":"), err.value
