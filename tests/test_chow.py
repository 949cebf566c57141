import hashlib
import itertools
import operator
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cypair import chow, symcalc
from cypair.chow import (
    CohClass,
    ModelError,
    RingModel,
    adiabatic_coefficient,
    ch_cotangent_exterior,
    ch_line,
    chi_twisted_hodge,
    euler_characteristic,
    fiber_integrate,
    hrr_chi,
    integrate,
    lift_from_base,
    point,
    product,
    projective_bundle,
    projective_space,
    todd_class,
)

from ring_oracle import reduce_into, reduce_raw


# ---------------------------------------------------------------------------
# projective spaces and products
# ---------------------------------------------------------------------------


def test_zero_and_constant_classes_come_from_the_model():
    # A class needs its model, so only the series with a variable count
    # have the zero/constant classmethods; RingModel builds those classes.
    for name in ("zero", "constant"):
        assert not hasattr(CohClass, name)
        assert not hasattr(symcalc._Series, name)
        for cls in (symcalc.RootSeries, symcalc.ChernSeries):
            assert getattr(cls, name)(2, 3, *([1] if name == "constant" else [])).order == 3
    model = product(projective_space(1), projective_space(2))
    zero, one = model.zero(), model.one()
    assert zero.is_zero() and zero.model is model
    assert one == model.constant(1) and one.model is model
    assert one * model.gen_class(0) == model.gen_class(0)
    assert zero + 3 == model.constant(3)


def test_point_model():
    pt = point()
    assert pt.dim == 0
    assert integrate(pt.one()) == 1
    assert euler_characteristic(pt) == 1


def test_projective_plane():
    p2 = projective_space(2)
    h = p2.gen_class("h")
    # c(T) = 1 + 3h + 3h^2 after killing the h^3 term of (1+h)^3.
    assert p2.tangent_chern == p2.one() + 3 * h + 3 * h * h
    assert euler_characteristic(p2) == 3


def test_projective_space_euler():
    for n in range(7):
        assert euler_characteristic(projective_space(n)) == n + 1


def test_integrate_examples():
    p3 = projective_space(3)
    c = p3.tangent_chern
    assert integrate(c.component(1) * c.component(2)) == 24
    for n in range(1, 5):
        pn = projective_space(n)
        h = pn.gen_class(0)
        for k in range(n):
            assert integrate(h**k) == 0
        assert integrate(h**n) == 1
    assert integrate(point().one()) == 1


def test_product_euler_multiplicative():
    p1 = projective_space(1)
    assert euler_characteristic(product(p1, p1)) == 4
    p2 = projective_space(2)
    assert euler_characteristic(product(p1, p2)) == 6


def test_product_with_point_is_identity():
    p2 = projective_space(2)
    padded = product(p2, point())
    assert padded.dim == p2.dim
    assert euler_characteristic(padded) == euler_characteristic(p2)
    assert integrate(padded.tangent_chern.component(1) ** 2) == integrate(
        p2.tangent_chern.component(1) ** 2
    )


def test_product_c1c2_oracle():
    # Expand (1 + 2h1)(1 + 3h2 + 3h2^2) by hand: c1 c2 integrates to 24.
    model = product(projective_space(1), projective_space(2))
    c = model.tangent_chern
    assert integrate(c.component(1) * c.component(2)) == 24


def test_random_product_multiplicativity():
    rng = random.Random(424)
    factories = [point] + [lambda n=n: projective_space(n) for n in range(1, 4)]
    for _ in range(20):
        a = rng.choice(factories)()
        b = rng.choice(factories)()
        assert euler_characteristic(product(a, b)) == (
            euler_characteristic(a) * euler_characteristic(b)
        )


def test_products_of_models_with_relations():
    # The Hirzebruch surface F_2 = P(O(2) + O) over P^1 rewrites xi^2 as
    # -2 h xi, and `product` must carry that rule over to its own indices,
    # on the left factor and on the right.  Its chi(Omega^p) are 1, -2, 1,
    # and Kuenneth multiplies them as polynomials in p.
    base = projective_space(1)
    f2 = projective_bundle(base, base.one() + 2 * base.gen_class(0), 1)
    for a, b, euler, chi_p in [
            (f2, projective_space(1), 8, [1, -3, 3, -1]),
            (projective_space(2), f2, 12, [1, -3, 4, -3, 1]),
            (f2, f2, 16, [1, -4, 6, -4, 1])]:
        model = product(a, b)
        assert len(model.rewrites) == len(a.rewrites) + len(b.rewrites)
        assert euler_characteristic(model) == euler
        assert [hrr_chi(model, ch_cotangent_exterior(model, p))
                for p in range(model.dim + 1)] == chi_p


# ---------------------------------------------------------------------------
# projective bundles
# ---------------------------------------------------------------------------


def test_trivial_bundle_over_point_is_projective_space():
    for r in range(1, 5):
        bundle = projective_bundle(point(), point().one(), r)
        reference = projective_space(r)
        assert bundle.dim == r
        assert len(bundle.basis()) == len(reference.basis()) == r + 1
        assert euler_characteristic(bundle) == r + 1
        xi = bundle.gen_class("xi")
        h = reference.gen_class("h")
        for k in range(r + 1):
            assert integrate(xi**k) == integrate(h**k)
        assert hrr_chi(bundle, bundle.one()) == 1


def test_basis_and_integration_support():
    model = product(projective_space(1), projective_space(2))
    monomials = model.basis()
    assert len(monomials) == 6
    assert monomials[0] == (0, 0) and monomials[-1] == (1, 2)
    # integration is supported exactly on the top-degree volume monomial
    assert [m for m in monomials if integrate(CohClass(model, {m: 1}))] == [(1, 2)]


def test_class_constructor_rejects_non_basis_monomials():
    base = projective_space(1)
    bundle = projective_bundle(base, base.one() + 2 * base.gen_class(0), 1)
    # xi^2 is not a basis monomial: kept raw it would integrate to 0, while
    # the relation xi^2 = -2 h xi gives -2.
    with pytest.raises(ModelError, match=r"\(0, 2\)"):
        CohClass(bundle, {(0, 2): 1})
    reduced = bundle.reduce_terms({(0, 2): 1}, 1)
    assert reduced == CohClass(bundle, {(1, 1): -2})
    assert integrate(reduced) == -2
    # Above the dimension a monomial is 0 in the ring and is dropped.
    assert CohClass(bundle, {(0, 3): 1, (1, 1): 1}) == bundle.gen_class(0) * bundle.gen_class(1)


def test_trivial_bundle_over_line():
    base = projective_space(1)
    bundle = projective_bundle(base, base.one(), 1)
    assert euler_characteristic(bundle) == 4


def test_bundle_euler_multiplicativity():
    base = projective_space(2)
    h = base.gen_class(0)
    for chern in (base.one(), base.one() + h, base.one() + 2 * h):
        for r in (1, 2):
            bundle = projective_bundle(base, chern, r)
            assert euler_characteristic(bundle) == (r + 1) * euler_characteristic(base)


def test_fiber_integrate():
    base = projective_space(1)
    bundle = projective_bundle(base, base.one(), 2)
    xi = bundle.gen_class("xi")
    assert fiber_integrate(bundle, bundle.one()) == base.zero()
    assert fiber_integrate(bundle, xi**2) == base.one()
    assert fiber_integrate(bundle, xi) == base.zero()


def test_hirzebruch_surface_characteristic_numbers():
    # For every twist n, the surface P(O(n) + O) over the line has
    # c_1^2 = 8 and c_2 = 4, so the Noether combination
    # (c_1^2 + c_2)/12 equals chi(O) = 1.
    base = projective_space(1)
    h = base.gen_class(0)
    for n in range(0, 4):
        surface = projective_bundle(base, base.one() + n * h, 1)
        c1 = surface.tangent_chern.component(1)
        c2 = surface.tangent_chern.component(2)
        assert integrate(c1 * c1) == 8
        assert integrate(c2) == 4
        assert hrr_chi(surface, surface.one()) == 1


def test_iterated_bundle():
    base = projective_space(1)
    once = projective_bundle(base, base.one(), 1)
    twice = projective_bundle(once, once.one(), 1)
    assert twice.dim == 3
    assert euler_characteristic(twice) == 8
    assert hrr_chi(twice, twice.one()) == 1


def test_bundle_rejects_malformed_chern():
    base = projective_space(2)
    h = base.gen_class(0)
    with pytest.raises(ModelError):
        projective_bundle(base, h, 1)  # degree-0 part is 0, not 1
    with pytest.raises(ModelError):
        projective_bundle(base, base.one() + h * h, 1)  # c_2 of a rank-1 bundle


# ---------------------------------------------------------------------------
# Euler characteristics via Riemann-Roch
# ---------------------------------------------------------------------------


def count_monomials(n: int, k: int) -> int:
    # Independent oracle: monomials of degree k in n+1 variables.
    return sum(
        1 for c in itertools.combinations_with_replacement(range(n + 1), k)
    ) if k >= 0 else 0


def test_hrr_line_bundles_match_monomial_count():
    for n in range(0, 5):
        model = projective_space(n)
        for k in range(0, 5):
            if n == 0:
                sheaf = model.one()
            else:
                sheaf = ch_line(model, model.gen_class(0) * k)
            assert hrr_chi(model, sheaf) == count_monomials(n, k) == comb(n + k, n)


def test_hrr_structure_sheaf():
    for n in range(0, 7):
        model = projective_space(n)
        assert hrr_chi(model, model.one()) == 1
        assert integrate(todd_class(model)) == 1


def test_hrr_additivity():
    model = projective_space(3)
    h = model.gen_class(0)
    a = ch_line(model, h)
    b = ch_cotangent_exterior(model, 1)
    assert hrr_chi(model, a + b) == hrr_chi(model, a) + hrr_chi(model, b)
    assert hrr_chi(model, a + 2 * b) == hrr_chi(model, a) + 2 * hrr_chi(model, b)


def test_hrr_rejects_fractional_rank():
    model = projective_space(2)
    with pytest.raises(ModelError):
        hrr_chi(model, model.constant(Fraction(1, 2)))


def test_non_integer_euler_characteristic_rejected():
    model = RingModel(("h",), (1,), {})
    model.tangent_chern = model.gen_class(0) * Fraction(1, 2) + model.one()
    with pytest.raises(ModelError):
        euler_characteristic(model)


# ---------------------------------------------------------------------------
# Hodge sheaves on projective space
# ---------------------------------------------------------------------------


def chi_omega_oracle(n: int, p: int, s: int) -> Fraction:
    """chi(Omega^p(s)) from the exterior powers of the Euler sequence.

    chi(Omega^p (s)) = C(n+1, p) chi(O(s - p)) - chi(Omega^{p-1}(s)), with
    chi(O(k)) the binomial polynomial in k.
    """
    def chi_o(k: int) -> Fraction:
        value = Fraction(1)
        for i in range(1, n + 1):
            value *= Fraction(k + i, i)
        return value

    if p == 0:
        return chi_o(s)
    return comb(n + 1, p) * chi_o(s - p) - chi_omega_oracle(n, p - 1, s)


def test_chi_twisted_hodge_against_euler_sequence():
    for n in range(1, 5):
        for p in range(0, n + 1):
            for s in range(-2, 4):
                assert chi_twisted_hodge(n, p, s) == chi_omega_oracle(n, p, s), (n, p, s)
    for n in (20, 30, 40):
        for p in (0, 1, n // 2, n - 1, n):
            for s in (-1, 0, 2):
                assert chi_twisted_hodge(n, p, s) == chi_omega_oracle(n, p, s), (n, p, s)


def test_chi_untwisted_hodge_signs():
    for n in range(1, 7):
        for p in range(0, n + 1):
            assert chi_twisted_hodge(n, p, 0) == (-1) ** p


def test_chi_twisted_vanishing_window():
    for n in range(1, 7):
        for p in range(1, n + 1):
            for s in range(1, p + 1):
                assert chi_twisted_hodge(n, p, s) == 0
    # Bott vanishing on P^9.
    assert chi_twisted_hodge(9, 4, 1) == 0


def test_chi_specific_values():
    assert chi_twisted_hodge(2, 1, 1) == 0
    assert chi_twisted_hodge(2, 1, 0) == -1


def test_hodge_alternating_sum_is_euler():
    for n in range(1, 7):
        total = sum((-1) ** p * chi_twisted_hodge(n, p, 0) for p in range(n + 1))
        assert total == n + 1


# ---------------------------------------------------------------------------
# adiabatic coefficient
# ---------------------------------------------------------------------------


def test_adiabatic_coefficient_examples():
    assert adiabatic_coefficient(projective_space(1)) == 4
    assert adiabatic_coefficient(projective_space(3)) == 36
    assert adiabatic_coefficient(point()) == 0


# ---------------------------------------------------------------------------
# products through the reduction memo
# ---------------------------------------------------------------------------

#: Projective-space factors of a base product, then fiber ranks of iterated
#: bundles over it, as in the benchmark's riemann-roch models.
SHAPES = [
    ((1,), ()), ((2,), ()), ((1, 1), ()), ((1,), (1,)), ((3,), ()),
    ((1, 1, 1), ()), ((1, 2), ()), ((1, 1), (1,)), ((1,), (2,)),
    ((1, 1, 1, 1), ()), ((2, 2), ()), ((1, 1), (2,)), ((1, 2), (1,)),
    ((1,), (1, 2)), ((1, 1, 1, 1, 1), ()), ((1,), (1, 1, 1, 1)),
    ((1, 1, 2), (1,)), ((2, 2), (1,)),
]


def shape_model(shape, rng, bundles):
    """The model of `shape`; each bundle step appends (bundle, c(N)) to `bundles`."""
    factors, ranks = shape
    model = point()
    for n in factors:
        model = product(model, projective_space(n))
    for rank in ranks:
        # c(N) = prod (1 + L_i) with L_i seeded integral degree-1 classes
        chern = model.one()
        for _ in range(rank):
            line = model.zero()
            for i in range(len(model.generators)):
                line = line + model.gen_class(i) * rng.randint(-2, 2)
            chern = chern * (model.one() + line)
        model = projective_bundle(model, chern, rank)
        bundles.append((model, chern))
    return model


def fractional_bundle(bundles):
    """A P^2-bundle over P^2 whose c(N) has non-integer coefficients."""
    base = projective_space(2)
    h = base.gen_class(0)
    chern = base.one() + h * Fraction(1, 2) + h * h * Fraction(-2, 3)
    model = projective_bundle(base, chern, 2)
    bundles.append((model, chern))
    return model


def oracle_models(bundles=None):
    bundles = [] if bundles is None else bundles
    rng = random.Random(6)
    return ([shape_model(shape, rng, bundles) for shape in SHAPES]
            + [fractional_bundle(bundles)])


def random_class(model, rng, rank=None):
    terms = {
        mono: Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        for mono in model.basis() if rng.random() < 0.7}
    if rank is not None:
        terms[(0,) * len(model.generators)] = Fraction(rank)
    return CohClass(model, terms)


def oracle_product(a, b):
    """The raw product, reduced by the unmemoized recursion."""
    raw = {}
    for ma, qa in a.terms.items():
        for mb, qb in b.terms.items():
            key = tuple(x + y for x, y in zip(ma, mb))
            raw[key] = raw.get(key, Fraction(0)) + qa * qb
    return reduce_raw(a.model, raw)


def test_memoized_product_matches_unmemoized_reduction():
    rng = random.Random(2024)
    for model in oracle_models():
        assert model.dim <= 5
        for _ in range(4):
            a, b = random_class(model, rng), random_class(model, rng)
            assert (a * b).terms == oracle_product(a, b), model
        assert model.tangent_chern.terms == oracle_product(
            model.tangent_chern, model.one())


def test_hrr_chi_matches_integrated_product():
    # On the oracle models and on P^0..P^20: random classes, and the
    # ch Lambda^p, untwisted and twisted by a line bundle, that `hrr cp` reads.
    rng = random.Random(77)
    for model in oracle_models() + [projective_space(n) for n in range(21)]:
        todd, n = todd_class(model), model.dim
        sheaves = [random_class(model, rng, rank=rng.randint(0, 3)) for _ in range(3)]
        for p in sorted({0, 1, n // 2, n} & set(range(n + 1))):
            sheaves.append(ch_cotangent_exterior(model, p))
            if n:
                twist = ch_line(model, model.gen_class(0) * rng.randint(-4, 7))
                sheaves.append(sheaves[-1] * twist)
        for sheaf in sheaves:
            assert hrr_chi(model, sheaf) == integrate(todd * sheaf), model


def test_adiabatic_coefficient_matches_integrated_product():
    for model in oracle_models() + [point(), projective_space(1), projective_space(7)]:
        n, c = model.dim, model.tangent_chern
        expected = n * euler_characteristic(model) + integrate(
            c.component(1) * c.component(n - 1)) if n else 0
        assert adiabatic_coefficient(model) == expected, model


@st.composite
def bundle_towers(draw, fractional):
    """A tower of one or two projective bundles over a product of P^1s and
    P^2s of dimension 2 or 3, of dimension 5 at most, with c(N) of integral
    or of fractional coefficients.  The first c_1(N) has a nonzero
    coefficient of the first generator, so that the top power of the last
    generator takes two rewrite steps or more.  (The oracle's cost grows
    exponentially with the number of steps.)"""
    def coeffs(values):
        values = st.sampled_from(values)
        return st.builds(Fraction, values, st.integers(1, 7)) if fractional else values

    factors = draw(st.sampled_from(((1, 1), (2,), (1, 1, 1), (1, 2), (2, 1))))
    model = point()
    for n in factors:
        model = product(model, projective_space(n))
    room = 5 - sum(factors)
    ranks = draw(st.sampled_from([rs for rs in ((1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2))
                                  if sum(rs) <= room]))
    for step, rank in enumerate(ranks):
        terms = {(0,) * len(model.generators): 1}
        for mono in model.basis():
            if 1 <= sum(mono) <= rank:
                terms[mono] = draw(coeffs(range(-3, 4)))
        if step == 0:
            terms[(1,) + (0,) * (len(model.generators) - 1)] = draw(coeffs((-3, -2, -1, 1, 2, 3)))
        model = projective_bundle(model, CohClass(model, terms), rank)
    return model


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data(), st.booleans())
def test_reduction_memo_matches_unmemoized_oracle(data, fractional):
    model = data.draw(bundle_towers(fractional))
    k, dim = len(model.generators), model.dim
    top_fiber = (0,) * (k - 1) + (dim,)
    # a monomial is the multiset of its generators' indices, of degree dim + 1 at most
    monos = [top_fiber] + [tuple(map(indices.count, range(k))) for indices in data.draw(
        st.lists(st.lists(st.integers(0, k - 1), max_size=dim + 1), max_size=6))]
    for mono in monos:
        out = {}
        steps = reduce_into(model, mono, Fraction(1), out)
        assert model.reduce_terms({mono: 1}, 1).terms == {m: q for m, q in out.items() if q}
        assert steps >= 2 or mono != top_fiber
    raw = {mono: data.draw(st.integers(-9, 9)) for mono in monos}
    den = data.draw(st.integers(1, 12))
    expected = {m: q / den for m, q in reduce_raw(model, raw).items()}
    assert model.reduce_terms(raw, den).terms == expected


def p2_bundle_over_p1_p2():
    base = product(projective_space(1), projective_space(2))
    h1, h2 = base.gen_class(0), base.gen_class(1)
    return projective_bundle(base, (base.one() + h1 - h2) * (base.one() + 2 * h2), 2)


def test_genera_built_once_per_model(monkeypatch):
    calls = []
    original = CohClass.__mul__

    def counting(self, other):
        calls.append(1)
        return original(self, other)

    for model in (product(projective_space(1), projective_space(2)),
                  p2_bundle_over_p1_p2()):
        first = [todd_class(model)] + [
            ch_cotangent_exterior(model, p) for p in range(model.dim + 1)]
        monkeypatch.setattr(CohClass, "__mul__", counting)
        second = [todd_class(model)] + [
            ch_cotangent_exterior(model, p) for p in range(model.dim + 1)]
        monkeypatch.undo()
        assert second == first
        assert not calls, model


def test_ring_genera_match_universal_series():
    # The ring path shares the power-sum algorithm with the universal
    # series, which the root-coordinate oracles in test_symcalc check; here
    # the series evaluated at c(T) must give the same classes.
    models = oracle_models() + [projective_space(n) for n in range(13)]
    for model in models:
        n, chern = model.dim, model.tangent_chern
        ring = [todd_class(model)] + [
            ch_cotangent_exterior(model, p) for p in range(n + 1)]
        if n == 0:
            assert ring == [model.one(), model.one()]
            continue
        universal = [symcalc.todd(n, n)] + [
            symcalc.ch_exterior(n, p, n) for p in range(n + 1)]
        assert ring == [chow.evaluate_chern_series(s, chern) for s in universal], model


#: The model shapes of the riemann-roch benchmark workload (dimensions 3-5).
RR_SHAPES = [
    ((1, 1, 1), ()), ((1, 2), ()), ((1, 1), (1,)), ((1,), (2,)),
    ((1, 1, 1, 1), ()), ((2, 2), ()), ((1, 1, 2), ()), ((1, 1), (2,)),
    ((1, 2), (1,)), ((1,), (1, 2)),
    ((1, 1, 1, 1, 1), ()), ((1,), (1, 1, 1, 1)), ((1, 1, 1, 2), ()),
    ((1, 1, 2), (1,)), ((2, 2), (1,)),
]

#: sha256 of the reprs, one a line, of c(T), Td(T) and every ch Lambda^p T*
#: of the `RR_SHAPES` models at seeds 3 and 8, recorded with the genera built
#: product by product, each product reduced on its own.
RING_GENERA_DIGEST = "55aa1fe6f30f88d61ed858747c63d4fbaa648602f9be46ca4810af805cd63bc4"


def test_ring_genera_match_recorded_digest():
    lines = []
    for seed in (3, 8):
        rng = random.Random(seed)
        for shape in RR_SHAPES:
            model = shape_model(shape, rng, [])
            lines += [repr(model.tangent_chern), repr(model.genera.todd)]
            lines += [repr(ch_cotangent_exterior(model, p)) for p in range(model.dim + 1)]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == RING_GENERA_DIGEST


def test_ring_genera_reduce_once_per_power_sum_and_graded_piece(monkeypatch):
    model = shape_model(((1, 1), (1, 2)), random.Random(5), [])
    assert model.dim == 5
    calls, depth = [], [0]
    original = RingModel.reduce_terms

    def counting(self, raw, den, order=None):
        # the reducer fills its memo through itself: count outside calls only
        calls.append(depth[0])
        depth[0] += 1
        try:
            return original(self, raw, den, order)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(RingModel, "reduce_terms", counting)
    model.genera.todd
    model.genera.exterior(model.dim)
    monkeypatch.undo()
    # p_2..p_5, then the pieces E_2..E_5 of Td and of ch Lambda^5; p_1 and
    # both E_1 are sums without a product and reduce nothing.  Reducing each
    # product on its own took 30 calls, and settling every kernel call 15.
    assert calls.count(0) == 12


def test_ring_sums_without_products_reach_no_reduction(monkeypatch):
    model = shape_model(((1, 1), (1, 2)), random.Random(5), [])
    divisor = model.gen_class(0) * 2 + model.gen_class(1)
    reductions, depth = [0], [0]
    plain, with_products = [], []
    reduce_terms, linear = RingModel.reduce_terms, symcalc._linear

    def counting(self, raw, den, order=None):
        # the reducer fills its memo through itself: count outside calls only
        reductions[0] += depth[0] == 0
        depth[0] += 1
        try:
            return reduce_terms(self, raw, den, order)
        finally:
            depth[0] -= 1

    def watched(start, pairs=(), products=()):
        # operands built lazily, as ch_line's powers are, are built first
        pairs, products = list(pairs), list(products)
        before = reductions[0]
        result = linear(start, pairs, products)
        (with_products if products else plain).append(reductions[0] - before)
        return result

    monkeypatch.setattr(RingModel, "reduce_terms", counting)
    monkeypatch.setattr(symcalc, "_linear", watched)
    model.genera.todd
    td_sums = len(plain)
    model.genera.exterior(model.dim)
    ch_line(model, divisor)
    monkeypatch.undo()
    # Td: p_1, E_1 and the final sum of pieces; ch Lambda^5: E_1, the five
    # parts X_n and the final sum; then ch_line's sum of powers
    assert td_sums == 3 and len(plain) == 11
    assert plain == [0] * 11
    assert with_products == [1] * 12


# ---------------------------------------------------------------------------
# classes as truncated series: inverses and models
# ---------------------------------------------------------------------------


def test_total_chern_class_inverse_on_p3():
    p3 = projective_space(3)
    h = p3.gen_class(0)
    inverse = p3.tangent_chern.inverse()  # (1 + h)^-4
    assert inverse == p3.one() - 4 * h + 10 * h**2 - 20 * h**3
    assert p3.tangent_chern * inverse == p3.one()


def test_inverse_on_a_bundle_over_p1_p2():
    bundle = p2_bundle_over_p1_p2()
    rng = random.Random(12)
    for cls in (bundle.tangent_chern, random_class(bundle, rng, rank=3)):
        assert cls * cls.inverse() == bundle.one()
        assert cls.inverse() * cls == bundle.one()


def test_classes_of_different_models_never_combine():
    # `product` builds a new model on every call.
    first = product(projective_space(1), projective_space(1))
    second = product(projective_space(1), projective_space(1))
    a, b = first.gen_class(0), second.gen_class(0)
    assert a.terms == b.terms
    assert a != b and b != a
    for op in (operator.add, operator.sub, operator.mul):
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ModelError):
                op(x, y)


# ---------------------------------------------------------------------------
# classes hold basis monomials only
# ---------------------------------------------------------------------------


def test_library_classes_hold_basis_monomials_only():
    rng = random.Random(31)
    for model in oracle_models():
        basis = set(model.basis())
        gens = [model.gen_class(i) for i in range(len(model.generators))]
        divisor = model.zero()
        for g in gens:
            divisor = divisor + g * rng.randint(-2, 2)
        a, b = random_class(model, rng), random_class(model, rng)
        classes = gens + [model.tangent_chern, todd_class(model),
                          ch_line(model, divisor), a * b, divisor ** model.dim]
        classes += [ch_cotangent_exterior(model, p) for p in range(model.dim + 1)]
        if model.base is not None:
            classes.append(lift_from_base(model, random_class(model.base, rng)))
        for cls in classes:
            assert set(cls.terms) <= basis, (model, cls)
        if model.base is not None:
            pushed = fiber_integrate(model, a * b)
            assert set(pushed.terms) <= set(model.base.basis()), (model, pushed)


def test_gen_class_reduces_a_capped_generator():
    # cap 0 with no rewrite: g = 0; cap 0 rewritten to 2a: b = 2a
    assert RingModel(("g",), (0,), {}).gen_class("g").is_zero()
    model = RingModel(("a", "b"), (1, 0), {1: {(1, 0): Fraction(2)}})
    assert model.gen_class("b") == model.gen_class("a") * 2


def double_loop_tangent_chern(bundle, chern_n):
    """c(T) of P(N + 1): c(T_base) times c((N + 1) tensor O(1)), expanded as
    sum_k sum_{i <= k} C(rank + 1 - i, k - i) c_i(N) xi^{k-i}."""
    rank = bundle.fiber_rank
    xi = bundle.gen_class(len(bundle.base.generators))
    relative = bundle.zero()
    for k in range(rank + 2):
        for i in range(min(k, rank) + 1):
            ci = lift_from_base(bundle, chern_n.component(i))
            relative = relative + ci * xi ** (k - i) * comb(rank + 1 - i, k - i)
    return lift_from_base(bundle, bundle.base.tangent_chern) * relative


def test_bundle_tangent_chern_matches_double_loop_twist_formula():
    bundles = []
    oracle_models(bundles)
    assert any(any(q.denominator > 1 for q in chern.terms.values())
               for _, chern in bundles)
    for bundle, chern_n in bundles:
        assert bundle.tangent_chern == double_loop_tangent_chern(bundle, chern_n), bundle


# ---------------------------------------------------------------------------
# guards and reprs
# ---------------------------------------------------------------------------


def _line_bundle_over_p1():
    return projective_bundle(projective_space(1), projective_space(1).one(), 1)


#: Calls that a guard refuses: the exception class and its exact message.
GUARDS = {
    "caps mismatch": (lambda: RingModel(("a", "b"), (1,), {}), ModelError,
                      "one cap per generator required"),
    "repeated generator": (lambda: RingModel(("a", "a"), (1, 1), {}), ModelError,
                           "generator names must be distinct"),
    "generator index past the last": (
        lambda: projective_space(2).gen_class(5), ModelError,
        "no generator with index 5: the generators are ('h',)"),
    "negative generator index": (
        lambda: projective_space(2).gen_class(-1), ModelError,
        "no generator with index -1: the generators are ('h',)"),
    "generator index on a point": (
        lambda: point().gen_class(0), ModelError,
        "no generator with index 0: the generators are ()"),
    "unknown generator name": (
        lambda: _line_bundle_over_p1().gen_class("eta"), ModelError,
        "no generator named 'eta': the generators are ('h', 'xi')"),
    "negative power": (lambda: projective_space(1).gen_class(0) ** -1, ValueError,
                       "negative powers are not defined"),
    "negative projective space": (lambda: projective_space(-1), ModelError,
                                  "projective space dimension must be non-negative"),
    "lift onto a non-bundle": (
        lambda: lift_from_base(projective_space(2), projective_space(1).one()),
        ModelError, "model is not a projective bundle"),
    "lift from another base": (
        lambda: lift_from_base(_line_bundle_over_p1(), projective_space(2).one()),
        ModelError, "class does not live on the bundle's base"),
    "bundle Chern class off the base": (
        lambda: projective_bundle(projective_space(1), projective_space(2).one(), 1),
        ModelError, "chern_n must live on the base model"),
    "bundle rank 0": (
        lambda: projective_bundle(projective_space(1), projective_space(1).one(), 0),
        ModelError, "bundle rank must be at least 1"),
    "fiber integral on a non-bundle": (
        lambda: fiber_integrate(projective_space(2), projective_space(2).one()),
        ModelError, "model is not a projective bundle"),
    "fiber integral of a base class": (
        lambda: fiber_integrate(_line_bundle_over_p1(), projective_space(1).one()),
        ModelError, "class does not live on this bundle"),
    "hrr_chi off the model": (
        lambda: hrr_chi(projective_space(2), projective_space(1).one()),
        ModelError, "ch class does not live on this model"),
    "ch_line off the model": (
        lambda: ch_line(projective_space(2), projective_space(1).gen_class(0)),
        ModelError, "divisor class does not live on this model"),
    "cotangent exterior power too high": (
        lambda: ch_cotangent_exterior(projective_space(2), 3), ValueError,
        "exterior power 3 out of range 0..2"),
    "cotangent exterior power negative": (
        lambda: ch_cotangent_exterior(projective_space(2), -1), ValueError,
        "exterior power -1 out of range 0..2"),
    "ring genera exterior power too high": (
        lambda: projective_space(2).genera.exterior(3), ValueError,
        "exterior power 3 out of range 0..2"),
    "ring genera exterior power negative": (
        lambda: projective_space(2).genera.exterior(-1), ValueError,
        "exterior power -1 out of range 0..2"),
    "form degree too high": (lambda: chi_twisted_hodge(2, 3, 0), ValueError,
                             "form degree 3 out of range 0..2"),
    "negative exponent": (lambda: CohClass(projective_space(2), {(-1,): 1}), ModelError,
                          "exponent vector (-1,) has an entry that is not a non-negative int"),
    "fractional exponent": (
        lambda: CohClass(projective_space(2), {(Fraction(1, 2),): 1}), ModelError,
        "exponent vector (Fraction(1, 2),) has an entry that is not a non-negative int"),
    "float constant": (lambda: projective_space(2).constant(0.1), ModelError,
                       "coefficient 0.1 of (0,) is not an int or a Fraction"),
    "text coefficient": (lambda: CohClass(projective_space(2), {(1,): "1/2"}), ModelError,
                         "coefficient '1/2' of (1,) is not an int or a Fraction"),
    "float factor": (lambda: projective_space(2).gen_class(0) * 0.5, TypeError,
                     "unsupported operand type(s) for *: 'CohClass' and 'float'"),
    "dimension past the slot limit": (
        lambda: RingModel(("h",), (symcalc.MAX_ORDER + 1,), {}), ModelError,
        "order 65536 exceeds the limit 65535"),
}


@pytest.mark.parametrize("name", GUARDS)
def test_guard_message(name):
    call, error, message = GUARDS[name]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


def test_reprs_are_pinned():
    assert repr(point()) == "RingModel(dim 0; relations none)"
    assert repr(projective_space(2)) == "RingModel(dim 2; relations h^3)"
    assert repr(_line_bundle_over_p1()) == "RingModel(dim 2; relations h^2, xi^2)"
    h = projective_space(2).gen_class(0)
    assert repr(h * h * 3 - h * Fraction(1, 2) + 1) == "1 + -1/2*h + 3*h^2"
    assert repr(projective_space(2).zero()) == "0"
