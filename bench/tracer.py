"""Span tracer installed around calls into each chainflow module.

The benchmark wraps public functions of the package from outside; no source
file of the package knows about it.  Each wrapper records one span: its self
time is its duration minus the time covered by the spans it caused, so
nested layers are not counted twice.  Spans are aggregated per name in
memory (a per-call record would not fit: some runs make millions of calls).

Counts come from return values and repeat exactly between runs.  The code
that derives them runs after its span has closed and is charged to
``trace.hook_s``, not to the calling layer.

Modules import these functions by name (``from .flows import classify``) and
``monomial._STARTS`` holds the start builders in a dict, so a wrapper is
installed on every module-level name and dict value that refers to the
original function, and ``install`` checks that no reference was missed.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

MAIN_SPAN = "cli.main"


def _start_counts(counts, s):
    counts["monomial.start_basis"] += sum(s.complex.ranks)
    counts["monomial.occupied_strata"] += len(s.occupied())


def _bar_counts(counts, s):
    counts["toric.occupied_strata"] += len(s.occupied())


def _enum_counts(counts, enum):
    counts["splittings.matroidal_choices"] += len(enum)


def _critical_counts(counts, report):
    td = report.get("transcendence_degree", 0)
    counts["splittings.transcendence_degree"] = max(
        counts["splittings.transcendence_degree"], td)


def _iterate_counts(counts, result):
    counts["flows.iterations"] += result[1]


def _coefficient_terms(value):
    """Terms of one coefficient: numerator plus denominator terms of an
    F_p(y) element, one for a prime-field or rational scalar."""
    if isinstance(value, tuple):
        num, den = value
        return len(num) + (len(den) if den else 0)
    return 1


def _hat_counts(counts, D):
    terms = 0
    for m in D.mats:
        for row in m.rows:
            for entry in row:
                for coeff in entry.terms.values():
                    terms += _coefficient_terms(coeff)
    counts["flows.hat_terms_max"] = max(counts["flows.hat_terms_max"], terms)


def _obstruction_counts(counts, obs):
    counts["cyclefam.tuples_searched"] += obs["tuples_searched"]
    counts["cyclefam.chain_map_tuples"] += len(obs["chain_map_tuples"])


def _dumps_counts(counts, text):
    counts["serialize.artifact_bytes"] += len(text.encode())


# (module, attribute path, span name, count hook)
SPANS = [
    ("chainflow.cli", "main", MAIN_SPAN, None),
    ("chainflow.monomial", "lcm_lattice", "monomial.lcm_lattice", None),
    ("chainflow.monomial", "order_complex_resolution", "monomial.start",
     _start_counts),
    ("chainflow.monomial", "taylor_resolution", "monomial.start",
     _start_counts),
    ("chainflow.monomial", "verify_resolution", "monomial.verify_resolution",
     None),
    ("chainflow.toric", "bar_resolution", "toric.bar_resolution", _bar_counts),
    ("chainflow.toric", "verify_toric_resolution",
     "toric.verify_toric_resolution", None),
    ("chainflow.cyclefam", "obstruction_search", "cyclefam.obstruction_search",
     _obstruction_counts),
    ("chainflow.cyclefam", "verify_family_resolution",
     "cyclefam.verify_family_resolution", None),
    ("chainflow.splittings", "enumerate_matroidal",
     "splittings.enumerate_matroidal", _enum_counts),
    ("chainflow.splittings", "matroidal_count", "splittings.matroidal_count",
     None),
    ("chainflow.splittings", "critical_analysis",
     "splittings.critical_analysis", _critical_counts),
    ("chainflow.splittings", "stratum_core", "splittings.stratum_core", None),
    ("chainflow.flows", "moore_penrose", "flows.moore_penrose", None),
    ("chainflow.flows", "affine_combination", "flows.affine_combination",
     None),
    ("chainflow.flows", "hat", "flows.hat", _hat_counts),
    ("chainflow.flows", "classify", "flows.classify", None),
    ("chainflow.flows", "assemble_field", "flows.assemble_field", None),
    ("chainflow.flows", "iterate_flow", "flows.iterate_flow", _iterate_counts),
    ("chainflow.flows", "extract_minimal_summand",
     "flows.extract_minimal_summand", None),
    ("chainflow.linalg", "rref", "linalg.rref", None),
    ("chainflow.linalg", "mp_inverse", "linalg.mp_inverse", None),
    ("chainflow.linalg", "RingMatrix.__matmul__", "linalg.RingMatrix.matmul",
     None),
    # PrimeField and Rationals operations stay unwrapped: a prime-field run
    # makes millions of them and the wrappers would swamp the measurement.
    ("chainflow.scalars", "FunctionField.mul", "scalars.FunctionField.mul",
     None),
    ("chainflow.scalars", "FunctionField.clear_vector_denominators",
     "scalars.clear_vector_denominators", None),
    ("chainflow.complexes", "strand", "complexes.strand", None),
    ("chainflow.complexes", "homology_ranks", "complexes.homology_ranks",
     None),
    ("chainflow.serialize", "complex_to_json", "serialize.complex_to_json",
     None),
    ("chainflow.serialize", "dumps", "serialize.dumps", _dumps_counts),
]

COUNTS = [
    "monomial.start_basis",
    "monomial.occupied_strata",
    "toric.occupied_strata",
    "splittings.matroidal_choices",
    "splittings.transcendence_degree",
    "flows.iterations",
    "flows.hat_terms_max",
    "cyclefam.tuples_searched",
    "cyclefam.chain_map_tuples",
    "serialize.artifact_bytes",
]


class Tracer:
    """Aggregated spans: per name, self seconds and calls."""

    def __init__(self):
        self.spans = {}                      # name -> [self seconds, calls]
        self.counts = dict.fromkeys(COUNTS, 0)
        self.top_s = 0.0                     # time covered by top-level spans
        self.hook_s = 0.0
        self._stack = []                     # child-span seconds per open span

    def wrap(self, name, fn, hook=None):
        stat = self.spans.setdefault(name, [0.0, 0])
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat[0] += dt - stack.pop()
                stat[1] += 1
                if stack:
                    stack[-1] += dt
                else:
                    self.top_s += dt
            if hook is not None:
                t1 = clock()
                hook(counts, out)
                h = clock() - t1
                self.hook_s += h
                if stack:
                    stack[-1] += h
            return out

        return traced

    def report(self):
        return {
            "spans": {k: list(v) for k, v in self.spans.items()},
            "counts": dict(self.counts),
            "top_s": self.top_s,
            "hook_s": self.hook_s,
        }


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _references(original):
    """(container, key) of every chainflow module global or module-level
    dict value that is ``original``."""
    refs = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "chainflow"
                               or modname.startswith("chainflow.")):
            continue
        g = vars(mod)
        for key, value in list(g.items()):
            if value is original:
                refs.append((g, key))
            elif isinstance(value, dict) and not key.startswith("__"):
                refs.extend((value, k) for k, v in value.items()
                            if v is original)
    return refs


def install(tracer: Tracer):
    """Wrap every function in ``SPANS`` wherever chainflow refers to it."""
    importlib.import_module("chainflow.cli")
    originals = []
    for modname, path, name, hook in SPANS:
        owner, attr = _resolve(importlib.import_module(modname), path)
        original = vars(owner)[attr]
        wrapper = tracer.wrap(name, original, hook)
        originals.append(original)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
        for container, key in _references(original):
            container[key] = wrapper
    missed = [o.__qualname__ for o in originals if _references(o)]
    if missed:
        raise RuntimeError(f"unwrapped references remain: {missed}")
