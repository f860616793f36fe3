"""Command-line interface.

Subcommands:

* ``lattice``        -- the lcm-lattice of a monomial ideal
* ``resolve``        -- canonical minimal resolution of a monomial ideal
* ``matroidal``      -- per-stratum splitting counts and critical primes
* ``toric-resolve``  -- minimal resolution of a semigroup-ring piece
* ``counterexample`` -- the cycle family: resolutions, equivariance,
                        obstruction search

Inputs come from ``--in FILE`` (JSON) or ``--fixture NAME`` (bundled).  The
main JSON artifact goes to stdout or ``--out FILE``; a short human summary
goes to stderr.  Exit codes: 0 success, 2 bad input, 3 verification failure,
4 internal invariant breach.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources

from .errors import InputError, InternalError, VerificationError
from .scalars import GF, QQ, field_descriptor, prime_field
from .monomial import (
    _STARTS,
    MonomialIdeal,
    lcm_lattice,
    render_monomial,
    resolve_minimal,
)
from .splittings import MAX_OPTION_PAIRS, critical_analysis, matroidal_count
from .toric import BettiCategoryData, resolve_toric
from . import cyclefam
from . import serialize

_MODES = {"mp": "moore_penrose", "matroidal": "matroidal_average"}


def _load_input(args) -> dict:
    if getattr(args, "fixture", None):
        name = args.fixture
        if not name.endswith(".json"):
            name += ".json"
        # Only a bundled name is looked up: a path never leaves the package.
        fixtures = resources.files("chainflow.fixtures")
        available = sorted(p.name for p in fixtures.iterdir()
                           if p.name.endswith(".json"))
        if name not in available:
            raise InputError(
                f"unknown fixture {args.fixture!r}; available: "
                + ", ".join(available))
        text = fixtures.joinpath(name).read_text()
    elif getattr(args, "infile", None):
        try:
            if args.infile == "-":
                text = sys.stdin.read()
            else:
                with open(args.infile, encoding="utf-8") as fh:
                    text = fh.read()
        except (OSError, UnicodeDecodeError) as e:
            raise InputError(f"cannot read {args.infile}: {e}")
    else:
        raise InputError("provide --in FILE or --fixture NAME")
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        # RecursionError: nesting deeper than the decoder's stack allows
        raise InputError(f"invalid JSON input: {e}")


def _variable_names(names) -> list:
    if not isinstance(names, list) or not all(
            isinstance(n, str) for n in names):
        raise InputError(
            f'"variables" must be a list of strings, got {names!r}')
    return names


def _parse_ideal(doc: dict) -> MonomialIdeal:
    try:
        names = doc["variables"]
        gens = doc["generators"]
    except (KeyError, TypeError):
        raise InputError(
            'ideal JSON needs "variables" and "generators" fields')
    return MonomialIdeal(_variable_names(names), gens)


def _parse_toric(doc: dict) -> BettiCategoryData:
    try:
        return BettiCategoryData(
            names=_variable_names(doc["variables"]),
            deg_map=doc["deg_map"],
            objects=[tuple(o) for o in doc["objects"]],
            morphisms=[(tuple(m[0]), tuple(m[1]), tuple(m[2]))
                       for m in doc["morphisms"]],
        )
    except (KeyError, TypeError, IndexError):
        raise InputError(
            'toric JSON needs "variables", "deg_map", "objects" and '
            '"morphisms" fields')


def _emit(args, payload: dict):
    text = serialize.dumps(payload)
    if getattr(args, "out", None):
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise InputError(f"cannot write {args.out}: {e}")
    else:
        sys.stdout.write(text)


def _say(*lines):
    for line in lines:
        print(line, file=sys.stderr)


def _emit_resolution(args, res, extra: dict, *lines):
    """Write the report and the resolution of ``res``, then ``extra``, and
    say the field, ranks, stabilization and critical primes, then
    ``lines``."""
    _emit(args, {
        "report": res.report,
        "resolution": serialize.complex_to_json(res.resolution),
        **extra,
    })
    rep = res.report
    counts = rep["stratum_counts"]
    uncounted = sum(m is None for m in counts.values())
    primes = rep["critical_primes"]
    _say(
        f"minimal resolution over {json.dumps(rep['field'])}: "
        f"ranks {rep['ranks']}",
        rep["stabilization"],
        f"critical primes {'unknown' if primes is None else primes}; "
        f"transcendence degree {rep['transcendence_degree']}",
        *lines,
    )
    if uncounted:
        _say(f"{uncounted} of {len(counts)} strata not counted: their "
             f"matroidal option search is above the bound of "
             f"{MAX_OPTION_PAIRS} pairs")


# -- subcommands -------------------------------------------------------------


def cmd_lattice(args) -> int:
    I = _parse_ideal(_load_input(args))
    L = lcm_lattice(I)
    payload = {
        "variables": list(I.names),
        "generators": [list(g) for g in I.generators],
        "generator_strings": I.generator_strings(),
        "elements": [list(e) for e in L.elements],
        "element_strings": L.element_strings(),
        "supports": [list(L.support[e]) for e in L.elements],
        "below": [[]] + [[0] + [j + 1 for j in sorted(b)]
                         for b in L.poset.below],
    }
    _emit(args, payload)
    _say(f"lcm-lattice with {len(L.elements)} elements "
         f"({len(I.generators)} generators)")
    return 0


def cmd_resolve(args) -> int:
    I = _parse_ideal(_load_input(args))
    mode = _MODES[args.mode] if args.mode else None
    res = resolve_minimal(I, characteristic=args.char, start=args.start,
                          mode=mode)
    extra = {}
    if args.with_field:
        extra = {
            "vector_field": serialize.homotopy_to_json(res.homotopy),
            "start_resolution": serialize.stratified_to_json(res.start),
        }
    ver = res.report["verification"]
    _emit_resolution(
        args, res, extra,
        f"verification: minimal={str(ver['minimal']).lower()} "
        f"exact={str(ver['exact']).lower()} "
        f"({ver['degrees_checked']} degrees checked)")
    return 0


def cmd_matroidal(args) -> int:
    I = _parse_ideal(_load_input(args))
    field_char = args.char
    s = _STARTS[args.start](I, prime_field(field_char))
    poset = s.poset
    counts = {}
    for ai in s.occupied():
        tag = render_monomial(I.names, poset.elements[ai])
        try:
            counts[tag] = matroidal_count(s.stratum(ai))
        except InputError as e:
            raise InputError(f"stratum {tag}: {e}") from None
    analysis = critical_analysis(counts, field_char)
    payload = {
        "start": args.start,
        "characteristic": field_char,
        "counts": counts,
        "critical_primes": analysis["critical_primes"],
        "per_prime": {str(p): v for p, v in analysis["per_prime"].items()},
        "critical_strata": analysis["critical_strata"],
        "transcendence_degree": analysis["transcendence_degree"],
    }
    _emit(args, payload)
    _say(f"{len(counts)} occupied strata; critical primes "
         f"{analysis['critical_primes']}")
    return 0


def cmd_toric_resolve(args) -> int:
    data = _parse_toric(_load_input(args))
    mode = _MODES[args.mode] if args.mode else None
    _emit_resolution(
        args, resolve_toric(data, characteristic=args.char, mode=mode), {})
    return 0


def cmd_counterexample(args) -> int:
    fam = cyclefam.build_Ip(args.prime)
    which = args.check
    payload = {"p": fam.p, "n": fam.n, "variables": list(fam.names),
               "generators": fam.ideal.generator_strings()}
    failed = []

    if which in ("resolution", "all"):
        sect = {}
        for label, field in (("Q", QQ), (f"F{fam.p}", GF(fam.p))):
            c = cyclefam.explicit_resolution(fam, field)
            ver = cyclefam.verify_family_resolution(c, fam)
            eq = cyclefam.equivariance_report(c, fam)
            sect[label] = {
                "ranks": list(c.ranks),
                "verified": ver["ok"],
                "minimal": ver["minimal"],
                "equivariant": eq["equivariant"],
            }
            if not ver["ok"]:
                failed.append(f"explicit resolution over {label}")
        payload["explicit"] = sect

    if which in ("intrinsic", "all"):
        sect = {}
        c = cyclefam.intrinsic_resolution(fam, QQ)
        ver = cyclefam.verify_family_resolution(c, fam)
        eq = cyclefam.equivariance_report(c, fam)
        sect["Q"] = {"verified": ver["ok"], "equivariant": eq["equivariant"]}
        if not (ver["ok"] and eq["equivariant"]):
            failed.append("intrinsic resolution over Q")
        try:
            cyclefam.intrinsic_resolution(fam, GF(fam.p))
            sect[f"F{fam.p}"] = {"error": None}
            failed.append("intrinsic resolution should not exist over F_p")
        except InputError as e:
            sect[f"F{fam.p}"] = {"error": str(e)}
        payload["intrinsic"] = sect

    if which in ("transcendental", "all"):
        c, ffield = cyclefam.transcendental_resolution(fam)
        ver = cyclefam.verify_family_resolution(c, fam)
        eq = cyclefam.equivariance_report(c, fam, rotate_weights=True)
        payload["transcendental"] = {
            "field": field_descriptor(ffield),
            "verified": ver["ok"],
            "equivariant": eq["equivariant"],
        }
        if not (ver["ok"] and eq["equivariant"]):
            failed.append("transcendental resolution")

    if which in ("obstruction", "all"):
        obs = cyclefam.obstruction_search(fam)
        ctl = cyclefam.characteristic_zero_control(fam)
        payload["obstruction"] = {
            "tuples_searched": obs["tuples_searched"],
            "chain_map_tuples": [list(a) for a in obs["chain_map_tuples"]],
            "equivariant_tuples": [list(a) for a in obs["equivariant_tuples"]],
            "obstructed": obs["obstructed"],
            "characteristic_zero_control": ctl,
        }
        if not obs["obstructed"]:
            failed.append("obstruction search found an equivariant tuple")
        if not ctl["ok"]:
            failed.append("characteristic-zero control")

    payload["ok"] = not failed
    _emit(args, payload)
    _say(f"cycle family at p={fam.p} (n={fam.n}): "
         + ("all checks passed" if not failed else "FAILED: " + "; ".join(failed)))
    if failed:
        raise VerificationError("; ".join(failed))
    return 0


# -- argument parsing --------------------------------------------------------


def _add_io(sp):
    sp.add_argument("--in", dest="infile", metavar="FILE",
                    help="input JSON file ('-' for stdin)")
    sp.add_argument("--fixture", metavar="NAME",
                    help="bundled input (cycle3, cycle2, semigroup23)")
    sp.add_argument("--out", metavar="FILE",
                    help="write the JSON artifact here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="chainflow",
        description="Minimal free resolutions by flows on stratified complexes")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("lattice", help="lcm-lattice of a monomial ideal")
    _add_io(sp)
    sp.set_defaults(fn=cmd_lattice)

    sp = sub.add_parser("resolve", help="canonical minimal free resolution")
    _add_io(sp)
    sp.add_argument("--char", type=int, default=0, metavar="P",
                    help="coefficient characteristic (0 or a prime)")
    sp.add_argument("--start", choices=["lcm", "taylor"], default="lcm",
                    help="start resolution")
    sp.add_argument("--mode", choices=sorted(_MODES), default=None,
                    help="per-stratum splitting (default: mp in char 0, "
                         "matroidal otherwise)")
    sp.add_argument("--with-field", action="store_true",
                    help="include the assembled vector field and the start "
                         "resolution in the artifact")
    sp.set_defaults(fn=cmd_resolve)

    sp = sub.add_parser("matroidal",
                        help="splitting counts and critical primes")
    _add_io(sp)
    sp.add_argument("--char", type=int, default=0, metavar="P")
    sp.add_argument("--start", choices=["lcm", "taylor"], default="lcm")
    sp.set_defaults(fn=cmd_matroidal)

    sp = sub.add_parser("toric-resolve",
                        help="minimal resolution of a semigroup-ring piece")
    _add_io(sp)
    sp.add_argument("--char", type=int, default=0, metavar="P")
    sp.add_argument("--mode", choices=sorted(_MODES), default=None)
    sp.set_defaults(fn=cmd_toric_resolve)

    sp = sub.add_parser("counterexample",
                        help="the cycle family I(p) and its obstruction")
    sp.add_argument("--prime", type=int, required=True, metavar="P")
    sp.add_argument("--check",
                    choices=["resolution", "intrinsic", "transcendental",
                             "obstruction", "all"],
                    default="all")
    sp.add_argument("--out", metavar="FILE")
    sp.set_defaults(fn=cmd_counterexample)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except VerificationError as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return 3
    except InternalError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
