import ast
import copy
import hashlib
import itertools
import json
import operator
import pickle
import random
from fractions import Fraction
from functools import cached_property
from math import factorial, gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cypair import chow, cli, inputs, symcalc
from cypair.symcalc import (
    ChernSeries,
    RootSeries,
    SymmetryError,
    ch_exterior,
    ch_exterior_roots,
    elementary_symmetric,
    expand_to_roots,
    symmetrize_to_chern,
    todd,
    todd_prime,
    todd_prime_roots,
    todd_roots,
    verify_shifted_class_identities,
    verify_total_class_identities,
)

import product_oracle
from ring_oracle import reduce_raw


def shift_derivative(series):
    """d/dt of series(x_1 + t, ..., x_m + t) at t = 0, i.e. sum_j d/dx_j."""
    out = {}
    for expo, q in series.terms.items():
        for j, k in enumerate(expo):
            if k:
                key = expo[:j] + (k - 1,) + expo[j + 1:]
                out[key] = out.get(key, 0) + q * k
    return RootSeries(series.num_roots, series.order, out)


def embed_roots(series, num_roots, offset):
    """A series in m roots viewed inside num_roots roots, shifted by offset."""
    pad = num_roots - offset - series.num_roots
    return RootSeries(num_roots, series.order, {
        (0,) * offset + e + (0,) * pad: q for e, q in series.terms.items()})


def cs(m, order, terms):
    return ChernSeries(m, order, {e: Fraction(q) for e, q in terms.items()})


# ---------------------------------------------------------------------------
# elementary symmetric polynomials and basis conversion
# ---------------------------------------------------------------------------


def test_elementary_symmetric_basics():
    e1 = elementary_symmetric(2, 1)
    assert e1.terms == {(1, 0): 1, (0, 1): 1}
    e2 = elementary_symmetric(2, 2)
    assert e2.terms == {(1, 1): 1}
    e0 = elementary_symmetric(3, 0)
    assert e0.terms == {(0, 0, 0): 1}


def test_elementary_symmetric_out_of_range():
    with pytest.raises(ValueError):
        elementary_symmetric(2, 3)
    with pytest.raises(ValueError):
        elementary_symmetric(2, -1)


def test_symmetrize_linear():
    assert symmetrize_to_chern(elementary_symmetric(2, 1)) == cs(2, 1, {(1, 0): 1})


def test_symmetrize_power_sum():
    # p_2 = x1^2 + x2^2; Newton identity p_2 = e_1^2 - 2 e_2, checked by
    # expanding the claimed right side back into roots.
    p2 = RootSeries(2, 2, {(2, 0): Fraction(1), (0, 2): Fraction(1)})
    claimed = cs(2, 2, {(2, 0): 1, (0, 1): -2})
    assert expand_to_roots(claimed) == p2
    assert symmetrize_to_chern(p2) == claimed


def test_symmetrize_rejects_asymmetric():
    lone = RootSeries.variable(2, 2, 0)
    with pytest.raises(SymmetryError) as err:
        symmetrize_to_chern(lone)
    assert "x1" in str(err.value) and "x2" in str(err.value)


def test_roundtrip_random_series():
    rng = random.Random(1205)
    for _ in range(40):
        m = rng.randint(1, 4)
        order = rng.randint(0, 6)
        terms = {}
        for _ in range(rng.randint(0, 6)):
            expo = tuple(rng.randint(0, 3) for _ in range(m))
            terms[expo] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        series = ChernSeries(m, order, terms)
        assert symmetrize_to_chern(expand_to_roots(series)) == series


# ---------------------------------------------------------------------------
# Todd series
# ---------------------------------------------------------------------------


def test_todd_two_roots_order_two():
    expected = cs(2, 2, {(0, 0): 1, (1, 0): Fraction(1, 2),
                         (2, 0): Fraction(1, 12), (0, 1): Fraction(1, 12)})
    assert todd(2, 2) == expected


def test_todd_one_root():
    assert todd(1, 2) == cs(1, 2, {(0,): 1, (1,): Fraction(1, 2), (2,): Fraction(1, 12)})
    assert todd(1, 0) == cs(1, 0, {(0,): 1})


def test_todd_factor_coefficients_are_computed_once_and_read_only():
    # x / (1 - exp(-x)) = 1 + x/2 + x^2/12 - x^4/720 + ..., and its log
    # x/2 - x^2/24 + x^4/2880 + ...
    factor, log_factor = symcalc._todd_factor_coeffs(4), symcalc._log_todd_factor_coeffs(4)
    assert factor == (1, Fraction(1, 2), Fraction(1, 12), 0, Fraction(-1, 720))
    assert log_factor == (0, Fraction(1, 2), Fraction(-1, 24), 0, Fraction(1, 2880))
    assert symcalc._todd_factor_coeffs(4) is factor
    assert symcalc._log_todd_factor_coeffs(4) is log_factor


def test_todd_factor_coefficients_of_an_order_prefix_every_higher_order():
    # One table grows on demand: asking for a high order first, or a low
    # one, gives the same leading coefficients.
    for table in (symcalc._todd_factor_coeffs, symcalc._log_todd_factor_coeffs):
        for k in (30, 0, 7, 19, 1, 12):
            for j in (0, 1, 5, 14):
                low, high = table(k), table(k + j)
                assert len(low) == k + 1 and len(high) == k + j + 1
                assert high[:k + 1] == low
    # Their defining relations, checked in Fractions: h is the inverse of
    # (1 - exp(-x)) / x, and h_n = sum_k (k / n) a_k h_{n-k} makes h = exp(a).
    h, a = symcalc._todd_factor_coeffs(30), symcalc._log_todd_factor_coeffs(30)
    g = [Fraction((-1) ** k, factorial(k + 1)) for k in range(31)]
    for n in range(31):
        assert sum(g[k] * h[n - k] for k in range(n + 1)) == (n == 0)
    for n in range(1, 31):
        assert h[n] == sum(Fraction(k, n) * a[k] * h[n - k] for k in range(1, n + 1))


def test_todd_low_degrees_stable_in_m():
    # 1 + c1/2 + (c1^2 + c2)/12 in weighted degree <= 2, for any root count.
    for m in range(2, 7):
        low = todd(m, 2)
        pad = (0,) * (m - 2)
        assert low == cs(m, 2, {
            (0, 0) + pad: 1,
            (1, 0) + pad: Fraction(1, 2),
            (2, 0) + pad: Fraction(1, 12),
            (0, 1) + pad: Fraction(1, 12),
        })


def test_degree_part():
    t = todd(2, 2)
    assert t.degree_part(0) == cs(2, 2, {(0, 0): 1})
    assert t.degree_part(1) == cs(2, 2, {(1, 0): Fraction(1, 2)})
    one_plus_c1 = cs(2, 2, {(0, 0): 1, (1, 0): 1})
    assert one_plus_c1.degree_part(2).is_zero()


# ---------------------------------------------------------------------------
# shifted Todd series
# ---------------------------------------------------------------------------


def test_shift_derivative_of_elementary():
    # Shifting all roots by t and differentiating sends c_k to (m-k+1) c_{k-1}.
    for m in range(1, 6):
        for k in range(1, m + 1):
            shifted = shift_derivative(elementary_symmetric(m, k, order=k))
            expected = elementary_symmetric(m, k - 1, order=k) * (m - k + 1)
            assert shifted == expected


def test_todd_prime_matches_derivative_sum():
    # The nilpotent-shift product agrees with applying sum_j d/dx_j to Todd.
    for m in range(1, 5):
        order = m + 1
        direct = todd_prime_roots(m, order)
        via_derivative = shift_derivative(todd_roots(m, order + 1)).truncate(order)
        assert direct == via_derivative


def test_todd_prime_over_todd_low_degree():
    # {Td'/Td}^[<=1] = m/2 - c1/12, computed with an independent series
    # inversion in root coordinates.
    for m in range(1, 7):
        ratio = todd_prime_roots(m, 2) * todd_roots(m, 2).inverse()
        low = symmetrize_to_chern(ratio.degree_part(range(0, 2)))
        e1 = tuple(1 if i == 0 else 0 for i in range(m))
        assert low == cs(m, 2, {(0,) * m: Fraction(m, 2), e1: Fraction(-1, 12)})


# ---------------------------------------------------------------------------
# exterior-power Chern characters
# ---------------------------------------------------------------------------


def test_ch_exterior_single_root():
    assert ch_exterior(1, 1, 2) == cs(1, 2, {(0,): 1, (1,): -1, (2,): Fraction(1, 2)})


def test_ch_exterior_zeroth_power():
    assert ch_exterior(2, 0, 3) == cs(2, 3, {(0, 0): 1})


def test_ch_exterior_out_of_range():
    with pytest.raises(ValueError):
        ch_exterior(2, 3, 2)


def test_alternating_sum_equals_product():
    # sum_r (-1)^r ch of the r-th exterior dual power equals
    # prod_j (1 - exp(-x_j)); in particular every component of degree < m
    # vanishes and the degree-m component is c_m.
    for m in range(1, 5):
        order = m + 2
        total = RootSeries.zero(m, order)
        for r in range(m + 1):
            total = total + ch_exterior_roots(m, r, order) * ((-1) ** r)
        product = RootSeries.constant(m, order, 1)
        one = RootSeries.constant(m, order, 1)
        for j in range(m):
            expj = RootSeries.from_univariate(
                m, order, j, symcalc._exp_neg_coeffs(order))
            product = product * (one - expj)
        assert total == product
        for d in range(m):
            assert total.degree_part(d).is_zero()
        assert symmetrize_to_chern(total.degree_part(m)) == symmetrize_to_chern(
            elementary_symmetric(m, m, order).degree_part(m))


def test_generating_function_in_t():
    # sum_r (-1)^r t^r ch(exterior r) = prod_j (1 - t exp(-x_j)), compared
    # coefficient-by-coefficient in t.
    rng = random.Random(77)
    for _ in range(6):
        m = rng.randint(1, 5)
        order = rng.randint(1, 5)
        lhs = [ch_exterior_roots(m, r, order) * ((-1) ** r) for r in range(m + 1)]
        rhs = [RootSeries.constant(m, order, 1)] + [
            RootSeries.zero(m, order) for _ in range(m)]
        for j in range(m):
            expj = RootSeries.from_univariate(
                m, order, j, symcalc._exp_neg_coeffs(order))
            for k in range(min(m, j + 1), 0, -1):
                rhs[k] = rhs[k] + rhs[k - 1] * (-expj)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# truncation coherence and multiplicativity
# ---------------------------------------------------------------------------


def test_truncate_never_raises_the_order():
    # Terms above a series' own order are unknown, so a wider truncation
    # keeps that order and a product stays correct through it.
    low = todd(1, 1).truncate(3)
    assert low.order == 1
    assert repr(low * low) == "1 + 1*c1"
    assert (todd(1, 3) * todd(1, 3)).truncate(1) == low * low
    model = chow.projective_space(2)
    h = model.gen_class(0).truncate(1)
    assert h.truncate(2).order == 1


def test_truncation_coherence():
    for m in (1, 2, 3):
        wide = m + 3
        for narrow in range(wide):
            assert todd(m, wide).truncate(narrow) == todd(m, narrow)
            assert todd_prime(m, wide).truncate(narrow) == todd_prime(m, narrow)
            for r in range(m + 1):
                assert ch_exterior(m, r, wide).truncate(narrow) == ch_exterior(m, r, narrow)


def test_todd_multiplicative_under_root_partition():
    for m1, m2 in [(1, 1), (1, 2), (2, 2), (2, 3)]:
        order = 4
        m = m1 + m2
        left = embed_roots(todd_roots(m1, order), m, 0)
        right = embed_roots(todd_roots(m2, order), m, m1)
        assert symmetrize_to_chern(left * right) == todd(m, order)


# ---------------------------------------------------------------------------
# Chern-basis genera against the root-coordinate oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", range(1, 7))
def test_todd_matches_root_oracle(m):
    for order in (m, m + 2):
        assert todd(m, order) == symmetrize_to_chern(todd_roots(m, order))


@pytest.mark.parametrize("m", range(1, 7))
def test_todd_prime_matches_root_oracle(m):
    for order in (m, m + 2):
        assert todd_prime(m, order) == symmetrize_to_chern(todd_prime_roots(m, order))


@pytest.mark.parametrize("m", range(0, 7))
def test_ch_exterior_matches_root_oracle(m):
    for order in (m, m + 2):
        for r in range(m + 1):
            assert ch_exterior(m, r, order) == symmetrize_to_chern(
                ch_exterior_roots(m, r, order))


def test_exterior_builds_its_pieces_once_and_only_up_to_the_power_read():
    # ch Lambda^r needs the parts X_1..X_r and the pieces E_0..E_r alone
    m, order = 8, 10
    chern = [ChernSeries.chern_class(m, order, k) for k in range(m + 1)]
    genera = symcalc.Genera(chern, order)
    assert genera.exterior(3) == ch_exterior(m, 3, order)
    assert (len(genera._parts), len(genera._pieces)) == (3, 4)
    parts, pieces = genera._parts[:], genera._pieces[:]
    assert genera.exterior(1) == ch_exterior(m, 1, order)
    assert genera._parts == parts and genera._pieces == pieces
    for r in reversed(range(m + 1)):
        assert genera.exterior(r) == ch_exterior(m, r, order)
    # the pieces are complete, so no part is read again, and none is kept
    assert (genera._parts, len(genera._pieces)) == ([], m + 1)
    assert all(map(operator.is_, pieces, genera._pieces[:4]))


#: The memos that hold universal genera or series read from them.
GENUS_MEMOS = (symcalc._universal, symcalc.todd, symcalc.todd_prime, symcalc.ch_exterior,
               symcalc._alternating_sums)


def _universal_from(source, m, order):
    """`_universal(m, order)` and `todd_prime(m, order)` (None for m = 0) from
    empty memos, with `source` the only genera to restrict, or none."""
    symcalc._universal.cache_clear()
    symcalc.todd_prime.cache_clear()
    symcalc._LARGEST[:] = [] if source is None else [source]
    genera = symcalc._universal(m, order)
    return genera, todd_prime(m, order) if m else None


def _representation(series):
    return type(series), series.num_roots, series.order, series._den, series._num


@pytest.mark.parametrize("big", range(1, 9))
def test_restricted_universal_genera_equal_direct_builds(big):
    # Setting c_k = 0 for k > m in the genera of `big` roots must give exactly
    # what a direct build of m roots gives: p_0 = m, and ch Lambda^r summed
    # with C(m - k, r - k), not with big's binomials.
    for top in (big, big + 2):
        source, _ = _universal_from(None, big, top)
        for m in range(big + 1):
            for order in range(top + 1):
                direct, direct_prime = _universal_from(None, m, order)
                restricted, prime = _universal_from(source, m, order)
                assert restricted is not source and symcalc._LARGEST[0] is source
                pairs = [(restricted.todd, direct.todd)]
                if m:  # Td' needs a root
                    pairs.append((prime, direct_prime))
                pairs += itertools.zip_longest(restricted.power_sums, direct.power_sums)
                assert restricted._parts == []
                for r in range(m + 1):
                    pairs.append((restricted.exterior(r), direct.exterior(r)))
                    # the restricted pieces reach every power: exterior builds no part
                    assert restricted._parts == []
                for got, want in pairs:
                    assert _representation(got) == _representation(want), (big, top, m, order)


def test_identity_suite_builds_todd_by_the_graded_exponential_once(monkeypatch, capsys):
    # `identities --max-m 6` verifies m = 6 first; Td of every smaller m is
    # restricted from that build, so only Td of 6 roots runs the graded
    # exponential (one build per root count would be six).
    built = []
    todd_property = symcalc.Genera.todd

    def counted(genera):
        built.append((genera.rank, genera.order))
        return todd_property.func(genera)

    counting = cached_property(counted)
    counting.__set_name__(symcalc.Genera, "todd")
    monkeypatch.setattr(symcalc.Genera, "todd", counting)
    monkeypatch.setattr(symcalc, "_LARGEST", [])
    for memo in GENUS_MEMOS:
        memo.cache_clear()
    assert cli.main(["identities", "--max-m", "6", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["overall"] == "pass"
    assert built == [(6, 8)]


def test_chern_product_matches_root_product():
    # The graded product stops at the smaller truncation order; multiplying
    # the root expansions and symmetrizing must give the same series.
    rng = random.Random(314)
    for _ in range(30):
        m = rng.randint(1, 4)
        left, right = (
            ChernSeries(m, rng.randint(0, 6), {
                tuple(rng.randint(0, 2) for _ in range(m)):
                    Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                for _ in range(rng.randint(0, 6))})
            for _ in range(2))
        product = left * right
        assert product.order == min(left.order, right.order)
        roots = expand_to_roots(left, product.order) * expand_to_roots(
            right, product.order)
        assert product == symmetrize_to_chern(roots)


def _naive_product(left, right, degree):
    """Full convolution of the term maps, cut at the smaller order."""
    order = min(left.order, right.order)
    out = {}
    for ea, qa in left.terms.items():
        for eb, qb in right.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, Fraction(0)) + qa * qb
    return {e: q for e, q in out.items() if q != 0 and degree(e) <= order}


@pytest.mark.parametrize("cls, degree", [
    (RootSeries, sum),
    (ChernSeries, lambda e: sum(k * x for k, x in enumerate(e, start=1))),
], ids=["roots", "chern"])
def test_product_matches_naive_convolution(cls, degree):
    rng = random.Random(2718)

    def draw(m, order, size):
        # Degrees up to one past the order, so the constructor drops some.
        by_degree = [[] for _ in range(order + 2)]
        for e in itertools.product(range(order + 2), repeat=m):
            if degree(e) <= order + 1:
                by_degree[degree(e)].append(e)
        return cls(m, order, {
            rng.choice(rng.choice(by_degree)):
                Fraction(rng.randint(-9, 9), rng.randint(1, 12))
            for _ in range(size)})

    # Order 0 and the zero series on either side, then random pairs.
    cases = [(draw(2, 0, 4), draw(2, 5, 6)), (draw(3, 4, 6), draw(3, 0, 3)),
             (draw(2, 3, 0), draw(2, 3, 5)), (draw(3, 6, 7), cls.zero(3, 2))]
    for _ in range(40):
        m = rng.randint(1, 4)
        cases.append(tuple(
            draw(m, rng.randint(1, 7), rng.randint(1, 10)) for _ in range(2)))
    for left, right in cases:
        product = left * right
        assert type(product) is cls
        assert product.order == min(left.order, right.order)
        assert product.terms == _naive_product(left, right, degree)


def test_root_and_chern_series_never_combine():
    # A ring class is a third kind of series over the same arithmetic.
    terms = {(0, 0): Fraction(3), (1, 0): Fraction(1, 2)}
    root, chern = RootSeries(2, 3, terms), ChernSeries(2, 3, terms)
    cls = chow.CohClass(chow.product(chow.projective_space(1),
                                     chow.projective_space(1)), terms)
    assert root.terms == chern.terms == cls.terms
    for a, b in itertools.permutations((root, chern, cls), 2):
        assert a != b
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(a, b)


# ---------------------------------------------------------------------------
# integer numerators over one denominator, against a Fraction-dict oracle
# ---------------------------------------------------------------------------


def _ring_models():
    p1 = chow.projective_space(1)
    h = p1.gen_class(0)
    p1p1 = chow.product(p1, p1)
    h1, h2 = p1p1.gen_class(0), p1p1.gen_class(1)
    return [
        chow.projective_space(2),
        p1p1,
        chow.projective_bundle(p1, p1.one() + 2 * h, 1),
        chow.projective_bundle(p1p1, p1p1.one() + h1 - h2, 1),
    ]


RING_MODELS = _ring_models()
RATIONALS = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def series_pairs(draw):
    """Two operands of one kind, each with the oracle's copy of its terms."""
    kind = draw(st.sampled_from(["roots", "chern", "ring"]))
    if kind == "ring":
        model = draw(st.sampled_from(RING_MODELS))
        keys = st.sampled_from(model.basis())
        pairs = []
        for _ in range(2):
            order = draw(st.integers(0, model.dim))
            terms = draw(st.dictionaries(keys, RATIONALS, max_size=8))
            pairs.append((chow.CohClass(model, terms).truncate(order),
                          {e: q for e, q in terms.items() if q and sum(e) <= order}))
        return pairs
    cls = RootSeries if kind == "roots" else ChernSeries
    m = draw(st.integers(1, 3))
    keys = st.tuples(*[st.integers(0, 3)] * m)
    pairs = []
    for _ in range(2):
        order = draw(st.integers(0, 4))
        terms = draw(st.dictionaries(keys, RATIONALS, max_size=8))
        series = cls(m, order, terms)
        pairs.append((series, {e: q for e, q in terms.items()
                               if q and _oracle_degree(series)(e) <= order}))
    return pairs


def _oracle_degree(series):
    if isinstance(series, ChernSeries):
        return lambda e: sum(k * x for k, x in enumerate(e, start=1))
    return sum


def _oracle_add(a, b):
    out = dict(a)
    for e, q in b.items():
        out[e] = out.get(e, 0) + q
    return {e: q for e, q in out.items() if q}


def _oracle_scale(a, s):
    return {e: q * s for e, q in a.items() if q * s}


def _oracle_mul(a, b, series, order):
    """Full convolution, then truncation, or reduction on a ring model."""
    raw = {}
    for ea, qa in a.items():
        for eb, qb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            raw[e] = raw.get(e, 0) + qa * qb
    degree = _oracle_degree(series)
    raw = {e: q for e, q in raw.items() if q and degree(e) <= order}
    if not isinstance(series, chow.CohClass):
        return raw
    return reduce_raw(series.model, raw)


def _oracle_inverse(a, series):
    """The recursion on homogeneous degree, in Fractions."""
    degree, order = _oracle_degree(series), series.order
    zero = (0,) * series.num_roots
    c0 = a[zero]
    homog = [{e: q for e, q in a.items() if degree(e) == d} for d in range(order + 1)]
    inv = [{zero: 1 / c0}]
    for d in range(1, order + 1):
        acc = {}
        for k in range(1, d + 1):
            acc = _oracle_add(acc, _oracle_mul(homog[k], inv[d - k], series, order))
        inv.append(_oracle_scale(acc, -1 / c0))
    total = {}
    for part in inv:
        total = _oracle_add(total, part)
    return total


def _assert_lowest_terms(series):
    nums = list(series._num.values())
    assert series._den > 0
    assert 0 not in nums
    assert gcd(series._den, *nums) == 1
    # The same value built through the public constructor is equal and
    # hashes equal.
    if isinstance(series, chow.CohClass):
        rebuilt = chow.CohClass(series.model, dict(series.terms))
    else:
        rebuilt = type(series)(series.num_roots, series.order, dict(series.terms))
    assert rebuilt == series
    assert hash(rebuilt) == hash(series)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(series_pairs(), RATIONALS)
def test_integer_form_matches_fraction_oracle(pairs, scalar):
    (a, ta), (b, tb) = pairs
    order = min(a.order, b.order)
    degree = _oracle_degree(a)

    def cut(terms):
        return {e: q for e, q in terms.items() if degree(e) <= order}

    for series in (a, b):
        _assert_lowest_terms(series)
    # (result, expected terms, expected order): a sum or product keeps the
    # smaller order of its operands.
    results = [
        (a + b, cut(_oracle_add(ta, tb)), order),
        (a - b, cut(_oracle_add(ta, _oracle_scale(tb, -1))), order),
        (a * b, _oracle_mul(ta, tb, a, order), order),
        (a * scalar, _oracle_scale(ta, scalar), a.order),
        (scalar * b, _oracle_scale(tb, scalar), b.order),
        (a + scalar, _oracle_add(ta, {(0,) * a.num_roots: scalar}), a.order),
        (-a, _oracle_scale(ta, -1), a.order),
    ]
    for k in range(a.order + 3):
        results.append((a.truncate(k), {e: q for e, q in ta.items() if degree(e) <= k},
                        min(k, a.order)))
        results.append((a.degree_part(k), {e: q for e, q in ta.items() if degree(e) == k},
                        a.order))
    if ta.get((0,) * a.num_roots):
        results.append((a.inverse(), _oracle_inverse(ta, a), a.order))
    else:
        with pytest.raises(ValueError):
            a.inverse()
    for result, expected, expected_order in results:
        assert type(result) is type(a)
        assert result.order == expected_order
        assert dict(result.terms) == expected
        assert len(result) == len(expected)
        _assert_lowest_terms(result)
    assert a + b == b + a and hash(a + b) == hash(b + a)


@st.composite
def linear_combinations(draw):
    """A start series and up to three (series, coefficient) pairs of its kind,
    of random orders, each series with the oracle's copy of its terms."""
    kind = draw(st.sampled_from(["roots", "chern", "ring"]))
    if kind == "ring":
        model = draw(st.sampled_from(RING_MODELS))
        keys, top = st.sampled_from(model.basis()), model.dim

        def make(order, terms):
            return chow.CohClass(model, terms).truncate(order)
    else:
        cls = RootSeries if kind == "roots" else ChernSeries
        m = draw(st.integers(1, 3))
        keys, top = st.tuples(*[st.integers(0, 3)] * m), 4

        def make(order, terms):
            return cls(m, order, terms)
    operands = []
    for _ in range(draw(st.integers(1, 4))):
        order = draw(st.integers(0, top))
        terms = draw(st.dictionaries(keys, RATIONALS, max_size=8))
        series = make(order, terms)
        degree = _oracle_degree(series)
        operands.append((series, {e: q for e, q in terms.items()
                                  if q and degree(e) <= order}))
    coeffs = draw(st.lists(st.one_of(st.just(0), st.integers(-3, 3), RATIONALS),
                           min_size=len(operands) - 1, max_size=len(operands) - 1))
    return operands, coeffs


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(linear_combinations())
def test_linear_matches_pairwise_sums_and_the_fraction_oracle(case):
    (start, expected), *rest = case[0]
    pairs = [(s, q) for (s, _), q in zip(rest, case[1])]
    result = symcalc._linear(start, pairs)
    pairwise = start
    for s, q in pairs:
        pairwise = pairwise + s * q
    assert result == pairwise and hash(result) == hash(pairwise)
    order = min(s.order for s, _ in case[0])
    for (_, terms), q in zip(rest, case[1]):
        expected = _oracle_add(expected, _oracle_scale(terms, q))
    degree = _oracle_degree(start)
    assert type(result) is type(start) and result.order == order
    assert dict(result.terms) == {e: q for e, q in expected.items() if degree(e) <= order}
    _assert_lowest_terms(result)


def test_linear_keeps_the_rules_of_addition():
    x = ChernSeries.chern_class(2, 4, 1)
    assert symcalc._linear(x, []) == x
    # a zero coefficient adds no terms but still truncates
    low = symcalc._linear(x * x, [(ChernSeries.chern_class(2, 1, 1), 0)])
    assert low.order == 1 and low.is_zero()
    with pytest.raises(ValueError, match="different root counts"):
        symcalc._linear(x, [(ChernSeries.chern_class(3, 4, 1), 1)])
    with pytest.raises(TypeError):
        symcalc._linear(x, [(RootSeries.variable(2, 4, 0), 1)])
    p2, p1p1 = RING_MODELS[:2]  # two models of dimension 2
    with pytest.raises(chow.ModelError, match="different ring models"):
        symcalc._linear(p2.one(), [(p1p1.one(), 0)])
    with pytest.raises(chow.ModelError, match="different ring models"):
        symcalc._linear(p2.one(), [(p2.gen_class(0), 2), (p1p1.gen_class(0), 1)])


def test_sum_of_products_keeps_the_rules_of_addition():
    """The rules of addition hold for the (a, b, q) products of `_linear`."""
    x = ChernSeries.chern_class(2, 4, 1)
    assert symcalc._linear(x, products=[]) == x
    # a zero coefficient adds no terms but still truncates
    low = symcalc._linear(x, products=[(x, ChernSeries.chern_class(2, 1, 1), 0)])
    assert low.order == 1 and low == x.truncate(1)
    with pytest.raises(ValueError, match="different root counts"):
        symcalc._linear(x, products=[(x, ChernSeries.chern_class(3, 4, 1), 1)])
    with pytest.raises(TypeError):
        symcalc._linear(x, products=[(RootSeries.variable(2, 4, 0), x, 1)])
    p2, p1p1 = RING_MODELS[:2]  # two models of dimension 2
    with pytest.raises(chow.ModelError, match="different ring models"):
        symcalc._linear(p2.one(), products=[(p2.one(), p1p1.one(), 0)])
    with pytest.raises(chow.ModelError, match="different ring models"):
        symcalc._linear(p2.one(), [(p2.gen_class(0), 1)], [(p2.one(), p1p1.one(), 1)])


# ---------------------------------------------------------------------------
# packed products, against the tuple-keyed oracle
# ---------------------------------------------------------------------------


TOP = symcalc.MAX_ORDER
#: Models whose exponents reach the slot limit: one generator of cap TOP, and
#: two whose volume monomial has degree TOP.
WIDE_MODELS = [chow.RingModel(("h",), (TOP,), {}), chow.RingModel(("a", "b"), (TOP - 1, 1), {})]


def _near(top):
    """Integers 0..top, drawn near both ends."""
    return st.one_of(st.integers(0, min(top, 3)), st.integers(max(top - 3, 0), top))


@st.composite
def product_operands(draw):
    """Two series of one kind, of unequal orders, maybe empty, with
    fractional coefficients; some have exponents at the slot limit."""
    kind = draw(st.sampled_from(["roots", "chern", "ring"]))
    if kind == "ring":
        model = draw(st.sampled_from([chow.point()] + RING_MODELS + WIDE_MODELS))
        keys = st.tuples(*map(_near, model.caps))

        def make(terms):
            return chow.CohClass(model, terms).truncate(draw(_near(model.dim)))
    else:
        cls = RootSeries if kind == "roots" else ChernSeries
        m, top = draw(st.integers(0, 3)), draw(st.sampled_from([5, TOP]))
        keys = st.tuples(*[_near(top)] * m)

        def make(terms):
            return cls(m, draw(_near(top)), terms)
    return [make(draw(st.dictionaries(keys, RATIONALS, max_size=6))) for _ in range(2)]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(product_operands())
def test_products_match_the_tuple_oracle(operands):
    a, b = operands
    expected = product_oracle.product(a, b)
    for result in (a * b, b * a):
        assert type(result) is type(a) and result.order == expected.order
        assert result == expected
        assert dict(result.terms) == dict(expected.terms)


@st.composite
def weighted_sums(draw):
    """A start series, up to three (s, q) pairs and up to three (a, b, q)
    products of its kind: unequal orders, maybe empty operands, fractional
    coefficients and zero q."""
    kind = draw(st.sampled_from(["roots", "chern", "ring"]))
    if kind == "ring":
        model = draw(st.sampled_from([chow.point()] + RING_MODELS))
        keys, top = st.sampled_from(model.basis()), model.dim
        # one lowest order for the case, so that the products of a case at
        # the top order reach monomials that the model reduces
        low = draw(st.integers(0, top))

        def make():
            terms = draw(st.dictionaries(keys, RATIONALS, max_size=6))
            return chow.CohClass(model, terms).truncate(draw(st.integers(low, top)))
    else:
        cls = RootSeries if kind == "roots" else ChernSeries
        m = draw(st.integers(0, 3))
        keys = st.tuples(*[st.integers(0, 3)] * m)

        def make():
            return cls(m, draw(st.integers(0, 5)), draw(st.dictionaries(keys, RATIONALS, max_size=6)))
    start = make()
    scalars = st.one_of(st.just(0), st.integers(-3, 3), RATIONALS)
    pairs = [(make(), draw(scalars)) for _ in range(draw(st.integers(0, 3)))]
    return start, pairs, [(make(), make(), draw(scalars)) for _ in range(draw(st.integers(0, 3)))]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(weighted_sums())
def test_linear_mixes_pairs_and_products_like_pairwise_arithmetic_and_the_oracle(case):
    start, pairs, products = case
    # iterators, as the genera pass: each is read once
    result = symcalc._linear(start, iter(pairs), iter(products))
    pairwise = start
    for s, q in pairs:
        pairwise = pairwise + s * q
    for a, b, q in products:
        pairwise = pairwise + a * b * q
    assert type(result) is type(start) and result.order == pairwise.order
    assert result == pairwise and hash(result) == hash(pairwise)
    # again with the products of the tuple-keyed oracle, which has its own pair loop
    assert result == symcalc._linear(
        start, pairs + [(product_oracle.product(a, b), q) for a, b, q in products])
    _assert_lowest_terms(result)


def _callers(names: set[str]) -> dict[str, set[str]]:
    """The functions of the cypair modules, by qualified name, that call
    each of names, as a function or as a method."""
    found = {name: set() for name in names}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            elif isinstance(child, ast.Call):
                name = getattr(child.func, "id", None) or getattr(child.func, "attr", None)
                if name in found:
                    found[name].add(scope)
            visit(child, inner)

    for path in sorted(Path(symcalc.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def test_linear_is_the_one_weighted_sum_kernel():
    """Only a product and `_linear` run the pair loop, unpack packed keys
    and settle raw numerators."""
    for name, callers in _callers({"_add_product", "_unpacked", "_settle"}).items():
        assert callers == {"symcalc._Series.__mul__", "symcalc._linear"}, name


def test_products_at_the_slot_limit_do_not_carry():
    a = RootSeries(2, TOP, {(TOP - 1, 0): 1, (0, TOP - 1): 2, (0, 0): 3})
    b = RootSeries(2, TOP, {(1, 0): 5, (0, 1): 7})
    assert (a * b).terms == {(TOP, 0): 5, (TOP - 1, 1): 7, (1, TOP - 1): 10, (0, TOP): 14,
                             (1, 0): 15, (0, 1): 21}
    c1 = ChernSeries(1, TOP, {(TOP - 2,): 1}) * ChernSeries(1, TOP, {(2,): 3, (3,): 1})
    assert c1.terms == {(TOP,): 3}


def test_the_graded_view_is_built_once_and_is_no_part_of_the_value():
    def fresh():
        return ChernSeries(2, 5, {(0, 0): 1, (1, 0): Fraction(1, 2), (0, 2): -3})

    series, twin = fresh(), fresh()
    digest = pickle.dumps(twin)
    assert series._graded is None
    product = series * twin
    view = series._graded
    assert view is not None
    for other in (twin, series, product, 2 * series):
        series * other
        other * series
        assert series._graded is view
    assert series == twin and hash(series) == hash(twin)
    assert pickle.dumps(series) == digest
    for copied in (copy.copy(series), pickle.loads(pickle.dumps(series))):
        assert copied == series and hash(copied) == hash(series)
        assert copied._graded is None
        assert copied * twin == product
    model = RING_MODELS[2]
    cls = model.tangent_chern
    cls * cls
    assert cls._graded is not None
    for copied in (copy.copy(cls), pickle.loads(pickle.dumps(cls))):
        assert copied._graded is None
        assert copied.terms == cls.terms and copied.order == cls.order
    assert copy.copy(cls) == cls


#: sha256 of the reprs of the products of `_seeded_operands()`, one a line,
#: recorded with the tuple-keyed product.
PRODUCT_DIGEST = "d4717e73df7b20ae6a55c1d0eb9377630a3bf39efcb626ee515d7dc33655aeaf"


def _seeded_operands():
    """Pairs of root series, Chern series and ring classes, from a fixed seed."""
    bits = random.Random(2024).getrandbits

    def num(low, high):
        return inputs.draw(bits, low, high)

    def terms(keys):
        return {keys(): Fraction(num(-40, 40), num(1, 30)) for _ in range(num(0, 12))}

    pairs = []
    for cls in (RootSeries, ChernSeries):
        for _ in range(40):
            m = num(0, 4)
            orders = num(1, 8), num(1, 8)
            pairs.append(tuple(
                cls(m, order, terms(lambda: tuple(num(0, 2) for _ in range(m))))
                for order in orders))
    for model in [chow.point()] + RING_MODELS:
        for _ in range(10):
            pairs.append(tuple(
                chow.CohClass(model, terms(lambda: tuple(num(0, c) for c in model.caps)))
                .truncate(num(0, model.dim)) for _ in range(2)))
    return pairs


def test_seeded_products_match_recorded_digest():
    reprs = "\n".join(repr(a * b) for a, b in _seeded_operands())
    assert hashlib.sha256(reprs.encode()).hexdigest() == PRODUCT_DIGEST


# ---------------------------------------------------------------------------
# identity residuals
# ---------------------------------------------------------------------------


def test_identity_one_root_by_hand():
    res1, res2, res3 = verify_total_class_identities(1)
    assert res1.is_zero() and res2.is_zero() and res3.is_zero()
    # The [<=1] window of -x exp(-x)/(1 - exp(-x)) is -1 + x/2.
    td = todd_roots(1, 3)
    s1 = ch_exterior_roots(1, 1, 3) * (-1)
    window = symmetrize_to_chern((td * s1).degree_part(range(0, 2)))
    assert window == cs(1, 3, {(0,): -1, (1,): Fraction(1, 2)})


def test_total_class_identities_hold():
    for m in range(1, 7):
        for residual in verify_total_class_identities(m):
            assert residual.is_zero(), f"m={m}: {residual}"


def test_shifted_class_identities_hold():
    for m in range(1, 7):
        for residual in verify_shifted_class_identities(m):
            assert residual.is_zero(), f"m={m}: {residual}"


def test_verify_guards():
    with pytest.raises(ValueError):
        verify_total_class_identities(0)
    with pytest.raises(ValueError):
        verify_total_class_identities(symcalc.MAX_VERIFY_ROOTS + 1)
    with pytest.raises(ValueError):
        verify_shifted_class_identities(0)


def test_verify_builds_the_genera_once_per_root_count():
    for cache in (symcalc._universal, symcalc.todd, symcalc.todd_prime, symcalc.ch_exterior):
        cache.cache_clear()
    for m in range(1, 5):
        misses = symcalc._universal.cache_info().misses
        res1, _, _ = verify_total_class_identities(m)
        verify_shifted_class_identities(m)
        assert symcalc._universal.cache_info().misses == misses + 1
        assert res1.order == m + 2


def test_identity_suites_build_no_exterior_character(monkeypatch):
    # Both suites read S_w as sums of the pieces E_k alone: verifying m = 1..6
    # in increasing order (direct builds) or in decreasing order (restricted
    # from 6 roots) looks up no ch Lambda^r, and no genera sums one.
    calls = []
    exterior = symcalc.Genera.exterior
    monkeypatch.setattr(symcalc.Genera, "exterior",
                        lambda genera, r: calls.append(r) or exterior(genera, r))
    for ms in (range(1, 7), range(6, 0, -1)):
        for memo in GENUS_MEMOS:
            memo.cache_clear()
        monkeypatch.setattr(symcalc, "_LARGEST", [])
        for m in ms:
            verify_total_class_identities(m)
            verify_shifted_class_identities(m)
        assert ch_exterior.cache_info()[:2] == (0, 0)
        assert symcalc._universal.cache_info().currsize == 6
        assert calls == []


#: The weights w(r) of the alternating sums S_w = sum_r (-1)^r w(r) ch Lambda^r.
SUM_WEIGHTS = (lambda r: 1, lambda r: r, lambda r: r * (r - 1))


@pytest.mark.parametrize("m", range(1, 9))
def test_alternating_sums_equal_the_weighted_exterior_characters(monkeypatch, m):
    # S_w = sum_k q_k(w) E_k must be the sum of the ch Lambda^r that it skips,
    # from a direct build and from genera restricted from 8 roots, and
    # S_1 = (-1)^m E_m.
    order = m + 2
    big = symcalc.Genera([ChernSeries.chern_class(8, 10, k) for k in range(9)], 10)
    for source in (None, big):
        for memo in (symcalc._universal, ch_exterior, symcalc._alternating_sums):
            memo.cache_clear()
        monkeypatch.setattr(symcalc, "_LARGEST", [] if source is None else [source])
        sums = symcalc._alternating_sums(m)
        genera = symcalc._universal(m, order)
        assert symcalc._LARGEST == [source or genera]
        chs = [ch_exterior(m, r, order) for r in range(m + 1)]
        for w, got in zip(SUM_WEIGHTS, sums):
            want = ChernSeries.zero(m, order)
            for r, ch in enumerate(chs):
                want = want + ch * ((-1) ** r * w(r))
            assert _representation(got) == _representation(want), (m, source)
        s1 = genera._pieces[m] * (-1) ** m
        assert _representation(sums[0]) == _representation(s1)


# ---------------------------------------------------------------------------
# guards
# ---------------------------------------------------------------------------


#: Calls that a guard refuses: the exception class and its exact message.
GUARDS = {
    "negative root count": (lambda: RootSeries(-1, 2), ValueError,
                            "num_roots and order must be non-negative"),
    "negative order": (lambda: ChernSeries(1, -1), ValueError,
                       "num_roots and order must be non-negative"),
    "exponent vector too short": (lambda: RootSeries(2, 2, {(1,): 1}), ValueError,
                                  "exponent vector (1,) has wrong length"),
    "different root counts": (
        lambda: RootSeries.variable(2, 2, 0) + RootSeries.variable(3, 2, 0), ValueError,
        "series live over different root counts"),
    "variable index out of range": (lambda: RootSeries.variable(2, 2, 2), ValueError,
                                    "root index 2 out of range for 2 roots"),
    "univariate index out of range": (lambda: RootSeries.from_univariate(2, 2, -1, [1]),
                                      ValueError, "root index -1 out of range for 2 roots"),
    "c_k past the root count": (lambda: ChernSeries.chern_class(2, 3, 3), ValueError,
                                "c_3 undefined with 2 roots"),
    "todd of no roots": (lambda: todd(0, 2), ValueError, "Todd series needs at least one root"),
    "todd_prime of no roots": (lambda: todd_prime(0, 2), ValueError,
                               "Todd series needs at least one root"),
    "todd_roots of no roots": (lambda: todd_roots(0, 2), ValueError,
                               "Todd series needs at least one root"),
    "todd_prime_roots of no roots": (lambda: todd_prime_roots(0, 2), ValueError,
                                     "Todd series needs at least one root"),
    "root exterior power too high": (lambda: ch_exterior_roots(2, 3, 2), ValueError,
                                     "exterior power 3 out of range 0..2"),
    "exterior power too high": (lambda: ch_exterior(2, 3, 2), ValueError,
                                "exterior power 3 out of range 0..2"),
    "genera exterior power too high": (lambda: symcalc._universal(2, 5).exterior(3), ValueError,
                                       "exterior power 3 out of range 0..2"),
    "genera exterior power negative": (lambda: symcalc._universal(2, 5).exterior(-1),
                                       ValueError, "exterior power -1 out of range 0..2"),
    "negative exponent": (
        lambda: RootSeries(1, 3, {(-1,): 1, (2,): 1}), ValueError,
        "exponent vector (-1,) has an entry that is not a non-negative int"),
    "fractional exponent": (
        lambda: RootSeries(1, 3, {(1.5,): 1}), ValueError,
        "exponent vector (1.5,) has an entry that is not a non-negative int"),
    "negative Chern exponent": (
        lambda: ChernSeries(2, 3, {(0, 0): 1, (3, -1): 1}), ValueError,
        "exponent vector (3, -1) has an entry that is not a non-negative int"),
    "order past the slot limit": (lambda: ChernSeries(2, symcalc.MAX_ORDER + 1), ValueError,
                                  "order 65536 exceeds the limit 65535"),
    "float coefficient": (lambda: ChernSeries(1, 2, {(1,): 0.1}), ValueError,
                          "coefficient 0.1 of (1,) is not an int or a Fraction"),
    "text coefficient": (lambda: RootSeries(1, 2, {(0,): "1/2"}), ValueError,
                         "coefficient '1/2' of (0,) is not an int or a Fraction"),
    "float constant": (lambda: ChernSeries.constant(2, 3, 0.5), ValueError,
                       "coefficient 0.5 of (0, 0) is not an int or a Fraction"),
    "float univariate coefficient": (
        lambda: RootSeries.from_univariate(1, 2, 0, [1, 0.5]), ValueError,
        "coefficient 0.5 of (1,) is not an int or a Fraction"),
    "text factor": (lambda: ChernSeries.chern_class(2, 3, 1) * "2", TypeError,
                    "can't multiply sequence by non-int of type 'ChernSeries'"),
    "float factor": (lambda: ChernSeries.chern_class(2, 3, 1) * 0.1, TypeError,
                     "unsupported operand type(s) for *: 'ChernSeries' and 'float'"),
    "infinite factor": (lambda: float("inf") * ChernSeries.chern_class(2, 3, 1), TypeError,
                        "unsupported operand type(s) for *: 'float' and 'ChernSeries'"),
    "float summand": (lambda: RootSeries.variable(2, 2, 0) + 0.5, TypeError,
                      "unsupported operand type(s) for +: 'RootSeries' and 'float'"),
    "text subtrahend": (lambda: RootSeries.variable(2, 2, 0) - "1", TypeError,
                        "unsupported operand type(s) for -: 'RootSeries' and 'str'"),
    "float minuend": (lambda: 0.5 - RootSeries.variable(2, 2, 0), TypeError,
                      "unsupported operand type(s) for -: 'float' and 'RootSeries'"),
}


@pytest.mark.parametrize("name", GUARDS)
def test_guard_message(name):
    call, error, message = GUARDS[name]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


def test_exact_scalars_combine_and_bool_counts_as_an_int():
    c1 = ChernSeries.chern_class(2, 3, 1)
    assert c1 * Fraction(1, 2) == c1 * Fraction(2, 4) == Fraction(1, 2) * c1
    assert c1 * True == c1 and c1 + False == c1 and 1 - c1 == -(c1 - 1)
    assert ChernSeries(2, 3, {(1, 0): True}) == c1


def test_from_univariate_drops_coefficients_past_the_order():
    assert RootSeries.from_univariate(2, 2, 1, [1, 2, 3, 4, 5]) == (
        RootSeries.from_univariate(2, 2, 1, [1, 2, 3]))
    assert RootSeries.from_univariate(2, 2, 1, [1, 2, 3, 4, 5]).terms == {
        (0, 0): 1, (0, 1): 2, (0, 2): 3}
