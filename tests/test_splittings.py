"""Matroidal enumeration and averages, critical primes, extension fields,
coercion."""

import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from chainflow.errors import InputError, SearchBoundError, VerificationError
from chainflow.flows import Homotopy, affine_combination, classify, hat
from chainflow.complexes import BasedComplex, StratifiedComplex, scalar_ring
from chainflow.linalg import RingMatrix, s_identity, s_mul, s_rank
from chainflow.monomial import (
    order_complex_resolution, render_monomial, resolve_minimal,
    taylor_resolution,
)
from chainflow.scalars import GF, QQ, FunctionField, prime_field
from chainflow.splittings import (
    _build_homotopy, _degree_options, build_extension_field, coerce_complex,
    count_choices, critical_analysis, enumerate_matroidal, matroidal_average,
    matroidal_count, matroidal_options, split_strata, stratum_core,
    weight_name,
)
from chainflow.toric import BettiCategoryData, bar_resolution, resolve_toric
from chainflow import cyclefam, flows, monomial, splittings, toric
import golden_data as G
from helpers import split_one_stratum
from oracles import coerce_homotopy, list_choices
from randgen import random_rational_complex


@pytest.fixture(scope="module")
def cycle3_strata():
    I = cyclefam.build_Ip(3).ideal
    s = order_complex_resolution(I, QQ)
    out = {}
    for a in s.occupied():
        tag = render_monomial(I.names, s.poset.elements[a])
        out[tag] = s.stratum(a)
    return out


def _verified(res):
    """Whether a resolve reports its summand minimal and exact."""
    ver = res.report["verification"]
    return ver["minimal"] and ver["exact"]


class TestMatroidalEnumeration:
    def test_counts_match_golden(self, cycle3_strata):
        for tag, want in G.MATROIDAL_COUNTS.items():
            assert matroidal_count(cycle3_strata[tag]) == want, tag

    def test_enumeration_is_deterministic_and_sized(self, cycle3_strata):
        hexagon = cycle3_strata[G.MTOP]
        enum1 = enumerate_matroidal(hexagon)
        enum2 = enumerate_matroidal(hexagon)
        assert len(enum1) == 72
        assert [c for c, _ in enum1] == [c for c, _ in enum2]

    def test_each_choice_is_a_splitting(self, cycle3_strata):
        edge = cycle3_strata[G.M12]
        for choice, D in enumerate_matroidal(edge):
            cls = classify(D)
            assert cls.is_splitting, choice


class TestCriticalAnalysis:
    def test_cycle3_golden(self):
        crit = critical_analysis(dict(G.MATROIDAL_COUNTS), 0)
        assert crit["critical_primes"] == G.CRITICAL_PRIMES
        assert crit["critical_strata"] == []
        assert crit["transcendence_degree"] == 0
        for p in (2, 3):
            per = crit["per_prime"][p]
            assert per["critical_strata"] == G.CRITICAL_STRATA[p]
            assert per["transcendence_degree"] == G.TRANSCENDENCE_DEGREE[p]

    def test_with_characteristic(self):
        crit = critical_analysis(dict(G.MATROIDAL_COUNTS), 3)
        assert crit["critical_strata"] == G.CRITICAL_STRATA[3]
        assert crit["transcendence_degree"] == 71
        crit5 = critical_analysis(dict(G.MATROIDAL_COUNTS), 5)
        assert crit5["critical_strata"] == []
        assert crit5["transcendence_degree"] == 0

    def test_uncounted_stratum_leaves_the_primes_unknown(self):
        counts = {**G.MATROIDAL_COUNTS, "top": None}
        crit = critical_analysis(counts, 0)
        assert crit["counts"] == counts
        assert crit["critical_primes"] is None and crit["per_prime"] == {}
        assert crit["critical_strata"] == []
        assert crit["transcendence_degree"] == 0
        with pytest.raises(InputError, match="need every count"):
            critical_analysis(counts, 3)


class TestMoorePenroseCounts:
    """Moore-Penrose mode leaves a stratum uncounted when its option search
    is over the bound; any other failure of the search still raises."""

    def test_over_the_bound_is_left_uncounted(self, monkeypatch,
                                              cycle3_strata):
        monkeypatch.setattr(splittings, "MAX_OPTION_PAIRS", 10)
        c = cycle3_strata[G.MTOP]
        D, _, m = split_one_stratum(c, 0, "moore_penrose", tag="top")
        assert m is None and classify(D).is_splitting
        with pytest.raises(SearchBoundError, match="stratum top: "):
            split_one_stratum(c, 0, "matroidal_average", tag="top")

    def test_negative_homology_still_raises(self):
        ring = scalar_ring(QQ)
        one = RingMatrix.from_scalar_rows(ring, [[Fraction(1)]], ncols=1)
        c = BasedComplex(ring, [["a"], ["b"], ["c"]], [[None]] * 3,
                         [one, one])
        with pytest.raises(InputError, match="negative homology"):
            split_one_stratum(c, 0, "moore_penrose")


class TestExtensionField:
    def test_critical_stratum_gets_affine_weights(self):
        field, weights = build_extension_field({"b": 4, "a": 2}, 2)
        assert isinstance(field, FunctionField)
        # the transcendentals and eliminations follow the given order
        assert field.names == ("y[b][1]", "y[b][2]", "y[b][3]", "y[a][1]")
        assert list(field.eliminations) == ["y[b][0]", "y[a][0]"]
        assert field.pd_render(field.eliminations["y[b][0]"]) == \
            "y[b][3] + y[b][2] + y[b][1] + 1"
        assert field.pd_render(field.eliminations["y[a][0]"]) == \
            "y[a][1] + 1"
        assert list(weights) == ["b", "a"]
        assert weights["b"][1:] == [field.var(j) for j in range(3)]
        assert weights["a"][1:] == [field.var(3)]
        for a, ws in weights.items():
            assert len(ws) == {"a": 2, "b": 4}[a]
            assert ws[0] == (field.eliminations[weight_name(a, 0)], None)
            total = field.zero
            for w in ws:
                total = field.add(total, w)
            assert field.eq(total, field.one)

    def test_non_critical_characteristic_keeps_the_prime_field(self):
        # 5 divides no cycle3 count: the work field is the prime field
        I = cyclefam.build_Ip(3).ideal
        s = order_complex_resolution(I, GF(5))
        critical, s_work, splits, _ = split_strata(
            s, lambda m: render_monomial(I.names, m), "matroidal_average")
        assert s_work is s
        assert s_work.complex.ring.field is GF(5)
        assert critical["critical_strata"] == []
        assert all(D.complex.ring.field is GF(5) for D in splits.values())

    def test_transcendence_degrees_match_golden(self):
        for p in (2, 3):
            field, weights = build_extension_field(
                {a: G.MATROIDAL_COUNTS[a] for a in G.CRITICAL_STRATA[p]}, p)
            assert len(field.names) == G.TRANSCENDENCE_DEGREE[p]
            assert list(weights) == G.CRITICAL_STRATA[p]
            for a, ws in weights.items():
                assert len(ws) == G.MATROIDAL_COUNTS[a]

    def test_non_critical_stratum_averages_with_one_over_m(
            self, cycle3_strata, monkeypatch):
        seen = []
        average = splittings.matroidal_average

        def spy(c_base, c_work, options, weights):
            seen.append(weights)
            return average(c_base, c_work, options, weights)

        monkeypatch.setattr(splittings, "matroidal_average", spy)
        _, work, m = split_one_stratum(cycle3_strata[G.MTOP], 0,
                                       "matroidal_average")
        assert work.ring.field is QQ
        assert seen == [[Fraction(1, m)] * m]
        # Over F_3(y) beside critical strata: every stratum whose count 3
        # does not divide averages with 1/m of the extension field.
        seen.clear()
        res = resolve_minimal(cyclefam.build_Ip(3).ideal, 3, start="taylor")
        F = res.resolution.ring.field
        assert isinstance(F, FunctionField)
        counts = res.report["stratum_counts"]
        uniform = [ws for ws in seen if len(ws) % 3]
        assert len(seen) == len(counts)
        assert len(uniform) == len(counts) - len(res.report["critical_strata"])
        assert uniform
        for ws in uniform:
            inv = F.inv(F.from_int(len(ws)))
            assert all(F.eq(w, inv) for w in ws)

    def test_nonprime_rejected(self):
        with pytest.raises(InputError):
            build_extension_field({"a": 2}, 4)


class TestCoercion:
    def test_rationals_do_not_coerce_to_char_p(self, cycle3_strata):
        field, _ = build_extension_field({"a": 2}, 2)
        with pytest.raises(InputError):
            coerce_complex(cycle3_strata[G.M12], field)

    def test_characteristic_never_changes(self, cycle3_strata):
        I = cyclefam.build_Ip(3).ideal
        over = {p: order_complex_resolution(I, GF(p)).complex for p in (2, 5)}
        f2y, _ = build_extension_field({"a": 2}, 2)
        f3y, _ = build_extension_field({"a": 3}, 3)
        for c, dst in [(over[2], GF(3)), (over[2], f3y), (over[5], QQ),
                       (cycle3_strata[G.M12], f2y)]:
            with pytest.raises(InputError, match="cannot coerce"):
                coerce_complex(c, dst)
        assert coerce_complex(over[2], f2y).ring.field is f2y

    def test_prime_field_complex_coerces(self):
        I = cyclefam.build_Ip(3).ideal
        s = order_complex_resolution(I, GF(2))
        field, _ = build_extension_field({"a": 2}, 2)
        for a in s.occupied():
            c = s.stratum(a)
            if c.ranks == [1, 2]:
                cc = coerce_complex(c, field)
                assert cc.ring.field is field
                assert cc.validate() == []
                for _, D in enumerate_matroidal(c):
                    DD = coerce_homotopy(D, cc)
                    assert classify(DD).is_splitting
                return
        pytest.fail("no edge-pair stratum found")


class TestStratumCore:
    def test_core_ranks_are_homology_ranks(self, cycle3_strata):
        from chainflow.complexes import homology_ranks
        for tag, c in cycle3_strata.items():
            D, _, _ = split_one_stratum(c, 0, "matroidal_average")
            cores = stratum_core(D)
            hom = homology_ranks(c)
            assert [len(v) for v in cores] == hom, tag

    def test_core_vectors_are_cycles(self, cycle3_strata):
        hexagon = cycle3_strata[G.MTOP]
        D, _, _ = split_one_stratum(hexagon, 0, "matroidal_average")
        cores = stratum_core(D)
        field = hexagon.ring.field
        for n in range(1, hexagon.top + 1):
            d = hexagon.d(n).scalar_rows()
            for v in cores[n]:
                img = [sum((field.mul(row[j], v[j]) for j in range(len(v))),
                           field.zero if hasattr(field, "zero") else 0)
                       for row in d]
                assert all(field.is_zero(x) for x in img)


def _break_d_squared(s):
    """Double one entry of ``d_1`` in a column that ``d_2`` hits, so that
    ``d_1 d_2 != 0`` in characteristic zero."""
    d1, d2 = s.complex.d(1), s.complex.d(2)
    j = next(j for j, row in enumerate(d2.rows)
             if any(not e.is_zero() for e in row))
    i = next(i for i, row in enumerate(d1.rows) if not row[j].is_zero())
    d1.rows[i][j] = d1.rows[i][j] + d1.rows[i][j]
    return s


class TestStartValidation:
    """Both front ends reach the one start check in ``resolve_stratified``."""

    def test_monomial_start_with_nonzero_square(self, monkeypatch):
        monkeypatch.setitem(monomial._STARTS, "lcm", lambda I, field:
                            _break_d_squared(order_complex_resolution(I, field)))
        with pytest.raises(VerificationError, match=(
                "^start resolution failed validation: d_1 d_2 != 0")):
            resolve_minimal(cyclefam.build_Ip(3).ideal, 0)

    def test_toric_start_with_nonzero_square(self, monkeypatch):
        # a: 0 -> 1, a: 1 -> 2 and their composite a^2: 0 -> 2
        data = BettiCategoryData(
            ["a"], [[1]], [[0], [1], [2]],
            [([0], [1], [1]), ([1], [2], [1]), ([0], [2], [2])])
        assert _verified(resolve_toric(data, 0))
        build = toric.bar_resolution
        monkeypatch.setattr(toric, "bar_resolution", lambda data, field:
                            _break_d_squared(build(data, field)))
        with pytest.raises(VerificationError, match=(
                "^start resolution failed validation: d_1 d_2 != 0")):
            resolve_toric(data, 0)


# --------------------------------------------------------------------------
# The matroidal average against the enumerate-then-sum oracle.

_STARTS = {"lcm": order_complex_resolution, "taylor": taylor_resolution}
# The bundled semigroup23 fixture: k[t^2, t^3] in degrees 0 and 6.
SEMIGROUP23 = BettiCategoryData(
    ["x2", "x3"], [[2, 3]], [[0], [6]],
    [([0], [6], [3, 0]), ([0], [6], [0, 2])])
# Above this many choices the oracle builds thousands of homotopies; the
# one such stratum (cycle2, Taylor start: 6960 choices) has its own tests.
LARGE = 1000


def _start(kind, start, field):
    if kind == "semigroup23":
        return bar_resolution(SEMIGROUP23, field)
    return _STARTS[start](cyclefam.build_Ip(int(kind[-1])).ideal, field)


def _pipeline_strata(kind, start, p):
    """Per occupied stratum: (base complex, working complex, options,
    weights), with the weights the resolve pipelines use: 1/m, or the
    generic affine weights of one extension field over all strata when p
    divides some count."""
    field = prime_field(p)
    s = _start(kind, start, field)
    views = {a: s.stratum(a) for a in s.occupied()}
    options = {a: matroidal_options(c) for a, c in views.items()}
    counts = {a: count_choices(o) for a, o in options.items()}
    critical = {}
    crit = critical_analysis(counts, p)["critical_strata"]
    if crit:
        field, critical = build_extension_field(
            {a: counts[a] for a in crit}, p)
    out = []
    for a, c in views.items():
        m = counts[a]
        weights = critical.get(a)
        if weights is None:
            weights = [field.inv(field.from_int(m))] * m
        out.append((c, coerce_complex(c, field), options[a], weights))
    return out


def _oracle_average(c, work, weights):
    enum = enumerate_matroidal(c)
    return affine_combination(
        work, [(w, coerce_homotopy(D, work)) for w, (_, D) in zip(weights, enum)])


def _assert_same_homotopy(new, old):
    assert len(new.mats) == len(old.mats)
    for n, (a, b) in enumerate(zip(new.mats, old.mats)):
        assert a.shape == b.shape, n
        for i, (ra, rb) in enumerate(zip(a.rows, b.rows)):
            for j, (x, y) in enumerate(zip(ra, rb)):
                assert x.eq(y), (n, i, j)
                assert x.render() == y.render(), (n, i, j)


CASES = [("cycle2", "lcm"), ("cycle2", "taylor"), ("cycle3", "lcm"),
         ("cycle3", "taylor"), ("semigroup23", "bar")]


class TestMatroidalAverage:
    @pytest.mark.parametrize("p", [0, 2, 3, 5, 7])
    @pytest.mark.parametrize("kind,start", CASES)
    def test_equals_enumerated_average(self, kind, start, p):
        strata = _pipeline_strata(kind, start, p)
        compared = 0
        for c, work, options, weights in strata:
            if len(weights) > LARGE:
                continue
            new = matroidal_average(c, work, options, weights)
            _assert_same_homotopy(new, _oracle_average(c, work, weights))
            compared += 1
        assert compared == len(strata) - ((kind, start) == ("cycle2", "taylor"))

    def test_critical_weights_are_generic(self):
        # the critical cases above really run over F_p(y) with distinct
        # weights, so the order of the choice pass matters there
        for kind, start, p, td in [("cycle3", "lcm", 3, 71),
                                   ("cycle3", "taylor", 2, 17),
                                   ("cycle2", "lcm", 2, 131)]:
            strata = _pipeline_strata(kind, start, p)
            field = strata[0][1].ring.field
            assert isinstance(field, FunctionField)
            assert field.nvars == td

    @pytest.mark.parametrize("p", [7, pytest.param(0, marks=pytest.mark.slow)])
    def test_large_stratum(self, p):
        # 6960 choices, options [1, 4, 348, 5, 1]; in characteristic 7 the
        # oracle takes several seconds, in characteristic 0 tens of seconds.
        # In characteristics 2, 3 and 5 the count is critical and the
        # extension has 6959 transcendentals: neither path finishes there.
        (c, work, options, weights), = [
            t for t in _pipeline_strata("cycle2", "taylor", p)
            if len(t[3]) > LARGE]
        assert [len(o) for o in options] == [1, 4, 348, 5, 1]
        new = matroidal_average(c, work, options, weights)
        _assert_same_homotopy(new, _oracle_average(c, work, weights))

    @pytest.mark.parametrize("kind,start", CASES)
    def test_choice_order_and_count(self, kind, start):
        for p in (0, 3):
            s = _start(kind, start, prime_field(p))
            for a in s.occupied():
                c = s.stratum(a)
                options = matroidal_options(c)
                if count_choices(options) > LARGE:
                    continue
                enum = enumerate_matroidal(c)
                assert list_choices(options) == [ch for ch, _ in enum]
                assert count_choices(options) == len(enum) == matroidal_count(c)

    def test_weight_checks(self, cycle3_strata):
        c = cycle3_strata[G.MTOP]
        options = matroidal_options(c)
        m = count_choices(options)
        with pytest.raises(VerificationError, match="sum to 1"):
            matroidal_average(c, c, options, [Fraction(1, m + 1)] * m)
        with pytest.raises(InputError):
            matroidal_average(c, c, options, [Fraction(1, m - 1)] * (m - 1))

    def test_pipelines_do_not_enumerate(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("per-choice homotopies were built")
        for mod in (splittings, flows, monomial, toric):
            for name in ("enumerate_matroidal", "_build_homotopy",
                         "affine_combination", "matroidal_count"):
                monkeypatch.setattr(mod, name, boom, raising=False)
        # nor are the options listed by the brute-force oracle
        monkeypatch.setattr(splittings, "_degree_options", boom)
        monkeypatch.setattr(splittings, "solve", boom)
        I = cyclefam.build_Ip(3).ideal
        assert _verified(resolve_minimal(I, 2, start="taylor"))
        assert _verified(resolve_minimal(I, 0, mode="matroidal_average"))
        assert _verified(resolve_toric(SEMIGROUP23, 2))
        s = taylor_resolution(I, GF(3))
        top = max((s.stratum(a) for a in s.occupied()),
                  key=lambda c: sum(c.ranks))
        D, work, m = split_one_stratum(top, 3, "matroidal_average")
        assert m == 18 and isinstance(work.ring.field, FunctionField)
        assert classify(D).is_splitting

    def test_pipelines_do_not_form_the_dense_flow(self, monkeypatch):
        # Phi = I - dW - Wd and its powers start from an ambient identity.
        def boom(*args, **kwargs):
            raise AssertionError("a dense identity matrix was built")
        monkeypatch.setattr(RingMatrix, "identity", boom)
        I = cyclefam.build_Ip(3).ideal
        for p in (0, 2, 3):
            assert _verified(resolve_minimal(I, p, start="taylor"))
        for mode in ("moore_penrose", "matroidal_average"):
            assert _verified(resolve_minimal(I, 0, mode=mode))
        # cycle3 with the lcm start over F_2 or F_3 does not finish in a
        # minute; cycle2 over F_3 is critical too.
        assert _verified(resolve_minimal(cyclefam.build_Ip(2).ideal, 3))
        for p in (0, 2, 3):
            assert _verified(resolve_toric(SEMIGROUP23, p))


    def test_assembly_and_flow_reuse_the_classify_products(self, monkeypatch):
        # classify forms each stratum's verdict once, when split_strata
        # certifies it; assemble_field asks again, gets the kept verdict and
        # multiplies nothing, and the flow takes from the assembly that
        # every block is a partial splitting, so it steps on nu alone.
        calls, formed = Counter(), Counter()
        classify = flows.classify

        def spy_classify(D):
            calls[D] += 1
            if D.verdict is None:
                formed[D] += 1
            return classify(D)

        products = Counter()
        matmul = RingMatrix.__matmul__
        stage = []

        def spy_matmul(a, b):
            products[stage[-1] if stage else None] += 1
            return matmul(a, b)

        def assemble(s, splits):
            stage.append("assemble_field")
            try:
                return flows.assemble_field(s, splits)
            finally:
                stage.pop()

        nu_steps = []
        nu_step = flows._nu_step

        def spy_nu_step(*args):
            nu_steps.append(None)
            return nu_step(*args)

        flowed = []

        def iterate(s, W):
            flowed.append(flows.iterate_flow(s, W))
            return flowed[-1]

        monkeypatch.setattr(flows, "classify", spy_classify)
        monkeypatch.setattr(splittings, "classify", spy_classify)
        monkeypatch.setattr(RingMatrix, "__matmul__", spy_matmul)
        monkeypatch.setattr(splittings, "assemble_field", assemble)
        monkeypatch.setattr(flows, "_nu_step", spy_nu_step)
        monkeypatch.setattr(splittings, "iterate_flow", iterate)
        res = resolve_minimal(cyclefam.build_Ip(3).ideal, 3, start="taylor")
        assert _verified(res)
        (indices, _, _), = flowed
        assert len(nu_steps) == max(indices) == 1
        assert products["assemble_field"] == 0 and products[None] > 0
        assert len(formed) == len(res.start.occupied())
        assert set(formed.values()) == {1}
        assert calls.keys() == formed.keys() and set(calls.values()) == {2}

    @pytest.mark.parametrize("k, p, start, factored, products", [
        (3, 3, "taylor", 8, 20),
        (2, 7, "taylor", 0, 80),
        (11, 0, "lcm", 0, 161),
    ], ids=["cycle3-F3(y)", "cycle2-F7", "cycle11-Q"])
    def test_classify_multiplies_factors_only_over_function_fields(
            self, monkeypatch, k, p, start, factored, products):
        # Over F_3(y) every stratum's hat carries factors, and classify
        # forms no product with a map of the homotopy on the left, as the
        # full D_{n+1} D_n and (D_n d) D_n are.  Over F_7 and Q nothing
        # carries factors, and classify forms the 80 and 161 products it
        # formed before the factored route.  Over F_3(y) it formed 62 then.
        calls = []   # per verdict: factors?, the maps, the left operands
        lefts = None
        classify = flows.classify
        matmul = RingMatrix.__matmul__

        def spy_matmul(a, b):
            if lefts is not None:
                lefts.append(a)
            return matmul(a, b)

        def spy_classify(D):
            nonlocal lefts
            calls.append((D.factors is not None, D.mats, []))
            lefts = calls[-1][2]
            try:
                return classify(D)
            finally:
                lefts = None

        monkeypatch.setattr(splittings, "classify", spy_classify)
        monkeypatch.setattr(RingMatrix, "__matmul__", spy_matmul)
        res = resolve_minimal(cyclefam.build_Ip(k).ideal, p, start=start)
        assert _verified(res)
        assert sum(f for f, _, _ in calls) == factored
        assert not any(a is m for f, mats, ops in calls if f
                       for a in ops for m in mats)
        assert sum(len(ops) for _, _, ops in calls) == products

    # Critical strata with more than 18 choices are left out: over their
    # 71 (cycle3 lcm) or 127 (cycle2 lcm over F_2) transcendentals the full
    # products, or already hat, take most of a minute or more, and the 6960
    # choices of cycle2's Taylor top stratum do not average in minutes.
    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("kind, start, left_out", [
        ("cycle2", "lcm", {2: 1, 3: 0}), ("cycle2", "taylor", {2: 1, 3: 1}),
        ("cycle3", "lcm", {2: 1, 3: 1}), ("cycle3", "taylor", {2: 0, 3: 0}),
    ], ids=["cycle2-lcm", "cycle2-taylor", "cycle3-lcm", "cycle3-taylor"])
    def test_factored_verdicts_agree_on_fixture_strata(
            self, kind, start, left_out, p):
        # Every stratum over F_p(y): generic affine weights where p divides
        # its count m, 1/m otherwise.
        s = _start(kind, start, GF(p))
        skipped = 0
        for a in s.occupied():
            c = s.stratum(a)
            options = matroidal_options(c)
            m = count_choices(options)
            if m % p == 0 and m > 18:
                skipped += 1
                continue
            if m % p == 0:
                field, weights = build_extension_field({"a": m}, p)
                weights = weights["a"]
            else:
                field = FunctionField(p, ["y"])
                weights = [field.inv(field.from_int(m))] * m
            work = coerce_complex(c, field)
            D = hat(matroidal_average(c, work, options, weights))
            assert D.factors is not None
            verdict = classify(D)
            assert verdict.is_splitting
            assert verdict == classify(Homotopy(work, list(D.mats)))
        assert skipped == left_out[p]


class TestStratumSlices:
    @pytest.mark.parametrize("resolve", [
        lambda: resolve_minimal(cyclefam.build_Ip(3).ideal, 0),
        lambda: resolve_minimal(cyclefam.build_Ip(3).ideal, 2, start="taylor"),
        lambda: resolve_toric(SEMIGROUP23, 2),
    ], ids=["lcm", "taylor-critical", "toric-critical"])
    def test_each_stratum_is_sliced_once(self, monkeypatch, resolve):
        # the split, the assembly and the extraction share one slice of each
        # occupied stratum, also when the work field is an extension
        sliced = []
        stratum = StratifiedComplex.stratum

        def spy(self, a):
            sliced.append(a)
            return stratum(self, a)

        monkeypatch.setattr(StratifiedComplex, "stratum", spy)
        res = resolve()
        assert sorted(sliced) == res.start.occupied()


class TestBlockFormula:
    """Each matroidal splitting's D_n is the inverse of the minor
    d_{n+1}[W_n, X_{n+1}] on rows X_{n+1} and columns W_n, and zero
    elsewhere, where W_n is the complement of X_n and Z_n."""

    @staticmethod
    def _random_complexes():
        rng = random.Random(20190918)
        out = []
        while len(out) < 40:
            c = random_rational_complex(rng, max_rank=5, max_top=3)
            options = matroidal_options(c)
            if 0 < count_choices(options) <= 200:
                out.append((c, options))
        return out

    @staticmethod
    def _with_cycles(c):
        return [_degree_options(c, n)[0] for n in range(c.top + 1)]

    def test_oracle_is_supported_on_the_minor(self):
        for c, _ in self._random_complexes():
            field = c.ring.field
            for combo in product(*self._with_cycles(c)):
                D = _build_homotopy(c, list(combo))
                for n in range(c.top):
                    x_n, z_n, _ = combo[n]
                    x_up = combo[n + 1][0]
                    w_n = [b for b in range(c.rank(n))
                           if b not in x_n and b not in z_n]
                    assert len(w_n) == len(x_up)
                    Dn = D.D(n).scalar_rows()
                    for x in range(c.rank(n + 1)):
                        for b in range(c.rank(n)):
                            if x not in x_up or b not in w_n:
                                assert field.is_zero(Dn[x][b])
                    if not x_up:
                        continue
                    dn1 = c.d(n + 1).scalar_rows()
                    block = [[Dn[x][b] for b in w_n] for x in x_up]
                    minor = [[dn1[b][x] for x in x_up] for b in w_n]
                    assert s_mul(field, block, minor) == s_identity(
                        field, len(x_up))

    def test_each_choice_as_a_one_point_average(self):
        # weight 1 on choice j and 0 elsewhere isolates that choice's blocks
        checked = 0
        for c, options in self._random_complexes():
            m = count_choices(options)
            for j, combo in enumerate(product(*self._with_cycles(c))):
                weights = [Fraction(int(t == j)) for t in range(m)]
                _assert_same_homotopy(
                    matroidal_average(c, c, options, weights),
                    _build_homotopy(c, list(combo)))
                checked += 1
        assert checked > 200


# --------------------------------------------------------------------------
# Matroidal options by basis tests against the brute-force oracle.

def _oracle_options(c):
    return [[(x_set, z_set) for x_set, z_set, _ in _degree_options(c, n)[0]]
            for n in range(c.top + 1)]


def _mod_p(c, p):
    """The rational complex ``c`` reduced mod ``p``, or None when a
    denominator is divisible by ``p``."""
    field = GF(p)
    if any(Fraction(v).denominator % p == 0
           for m in c.diffs for row in m.scalar_rows() for v in row):
        return None
    return c.map_coefficients(
        scalar_ring(field),
        lambda v: field.mul(field.from_int(Fraction(v).numerator),
                            field.inv(Fraction(v).denominator)))


class TestMatroidalOptions:
    @pytest.mark.parametrize("p", [0, 2, 3, 5, 7])
    @pytest.mark.parametrize("kind,start", CASES)
    def test_fixture_strata_match_oracle(self, kind, start, p):
        s = _start(kind, start, prime_field(p))
        occupied = list(s.occupied())
        assert occupied
        for a in occupied:
            c = s.stratum(a)
            assert matroidal_options(c) == _oracle_options(c), a

    def test_random_complexes_match_oracle(self):
        rng = random.Random(20191018)
        # rk d_n = 0 with r_n > 0; h_n = 0; homology in the top degree, whose
        # d_{n+1} is empty; reduction mod p
        seen = {"rank 0": 0, "h 0": 0, "top homology": 0, "F_p": 0}
        compared = 0
        while compared < 60:
            c = random_rational_complex(rng, max_rank=5, max_top=3)
            p = rng.choice([0, 2, 3, 5])
            if p:
                c = _mod_p(c, p)
                if c is None:
                    continue
                seen["F_p"] += 1
            assert matroidal_options(c) == _oracle_options(c)
            compared += 1
            ranks = [0] + [s_rank(c.ring.field, c.d(n).scalar_rows())
                           for n in range(1, c.top + 1)] + [0]
            for n in range(c.top + 1):
                seen["rank 0"] += ranks[n] == 0 < c.rank(n)
                seen["h 0"] += c.rank(n) == ranks[n] + ranks[n + 1]
            seen["top homology"] += c.rank(c.top) > ranks[c.top]
        assert all(seen.values()), seen

    def test_small_edge_cases(self):
        field = GF(3)
        ring = scalar_ring(field)

        def cx(ranks, diffs):
            return BasedComplex(
                ring, [[f"b{n}_{j}" for j in range(r)]
                       for n, r in enumerate(ranks)],
                [[None] * r for r in ranks],
                [RingMatrix.from_scalar_rows(ring, d, ncols=ranks[n + 1])
                 for n, d in enumerate(diffs)])

        cases = [
            cx([2], []),                              # no differential
            cx([1, 2], [[[0, 0]]]),                   # rk d_1 = 0
            cx([1, 2], [[[1, 2]]]),                   # h_0 = 0, h_1 = 1
            cx([2, 2], [[[1, 0], [0, 1]]]),           # exact
            cx([1, 3, 2], [[[1, 1, 1]], [[1, 0], [2, 1], [0, 2]]]),
            cx([0, 2], [[]]),                         # empty degree 0
        ]
        for c in cases:
            assert c.validate() == []
            assert matroidal_options(c) == _oracle_options(c), c
        assert matroidal_options(cases[0]) == [[((), (0, 1))]]
        assert matroidal_options(cases[2])[1] == [((0,), (1,)), ((1,), (0,))]

    def test_non_complex_rejected(self):
        ring = scalar_ring(QQ)
        one = RingMatrix.from_scalar_rows(ring, [[Fraction(1)]], ncols=1)
        c = BasedComplex(ring, [["a"], ["b"], ["c"]], [[None]] * 3,
                         [one, one])
        assert c.validate() != []
        with pytest.raises(InputError, match="negative homology"):
            matroidal_options(c)
        with pytest.raises(InputError, match="negative homology"):
            _degree_options(c, 1)

    def test_cycle11_lcm_strata_over_f11(self):
        # top strata of ranks [1, 23, 22]; the oracle takes about 0.4 s here
        s = order_complex_resolution(cyclefam.build_Ip(11).ideal, GF(11))
        counts = []
        for a in s.occupied():
            c = s.stratum(a)
            options = matroidal_options(c)
            assert options == _oracle_options(c), a
            counts.append(count_choices(options))
        assert max(counts) == 968 and set(counts) <= {1, 2, 968}
