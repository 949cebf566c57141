import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from cypair import sncpair
from cypair.sncpair import (
    BlowupCheck,
    Center,
    Component,
    CpPairModel,
    ForbiddenMultiplicityError,
    PairValidationError,
    SncPair,
    Stratum,
    TableFormatError,
    blowup_transform,
    center_pair,
    check_blowup_invariance,
    chi_d,
    chi_d_via_fprime,
    cp_pair,
    divisor_on_stratum,
    exceptional_multiplicity,
    exceptional_pair,
    fibration_check,
    induced_center_pairs,
    pair_from_json,
    pair_from_obj,
    pair_to_json,
    random_blowup_instance,
    scale_check,
    validate,
    weight,
)

from tables import NOT_CLOSED_AFTER_BLOWUP_TABLE


def triangle_pair(with_center: bool) -> SncPair:
    """The plane with three lines of multiplicities 1, 1, -5 at d = 1.

    Strata: three lines of Euler number 2, three pairwise intersection
    points, no triple point.  The optional center is the point H1 * H2,
    which misses Hinf.
    """
    def meet(value):
        return value if with_center else None

    components = (
        Component("H1", 1, with_center),
        Component("H2", 1, with_center),
        Component("Hinf", -5, False),
    )
    strata = {
        0b000: Stratum(3, meet(1)),
        0b001: Stratum(2, meet(1)),
        0b010: Stratum(2, meet(1)),
        0b100: Stratum(2, meet(None)),
        0b011: Stratum(1, meet(1)),
        0b101: Stratum(1, meet(None)),
        0b110: Stratum(1, meet(None)),
    }
    return SncPair(
        d=1,
        components=components,
        strata=strata,
        center=Center(codim=2) if with_center else None,
    )


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


def test_weight_empty_subset():
    assert weight(1, (2, 3), 0) == 1
    assert weight(7, (), ()) == 1


def test_weight_products():
    assert weight(1, (2, 3), 0b11) == Fraction(1, 2)
    assert weight(1, (-5,), 0b1) == Fraction(-5, 4)


def test_weight_forbidden_multiplicity():
    with pytest.raises(ForbiddenMultiplicityError):
        weight(2, (-2,), 0b1)


def test_weight_mask_out_of_range():
    with pytest.raises(IndexError):
        weight(1, (2, 3), 0b100)
    with pytest.raises(ValueError, match="non-negative"):
        weight(1, (2, 3), -1)


def test_weight_multiplicative_over_disjoint_subsets():
    rng = random.Random(5)
    for _ in range(50):
        d = rng.choice([1, 2, 3, -1, -4])
        mults = []
        while len(mults) < 6:
            m = rng.randint(-9, 9)
            if m not in (0, -d):
                mults.append(m)
        left = rng.randint(0, 63)
        right = rng.randint(0, 63) & ~left
        assert weight(d, mults, left | right) == weight(d, mults, left) * weight(d, mults, right)


def test_weight_scale_invariance_argwise():
    rng = random.Random(6)
    for _ in range(60):
        d = rng.randint(1, 6)
        m = rng.choice([x for x in range(-9, 10) if x not in (0, -d)])
        for k in (2, 3, 5):
            assert Fraction(-k * m, k * m + k * d) == Fraction(-m, m + d)


# ---------------------------------------------------------------------------
# chi_d
# ---------------------------------------------------------------------------


def test_chi_d_empty_divisor():
    pair = SncPair(d=3, components=(), strata={0: Stratum(7)})
    assert chi_d(pair) == 7


def test_chi_d_line_pair_by_hand():
    _, pair = cp_pair(1, 1, 1, (1,))
    # 2 - 1/2 - 3/2 = 0
    assert pair.mults == (1, -3)
    assert chi_d(pair) == 2 - Fraction(1, 2) - Fraction(3, 2) == 0


def test_chi_d_triangle_by_hand():
    pair = triangle_pair(with_center=False)
    expected = (3 - 1 - 1 - Fraction(5, 2)
                + Fraction(1, 4) + Fraction(5, 8) + Fraction(5, 8))
    assert chi_d(pair) == expected == 0


def test_chi_d_rejects_inconsistent_table():
    pair = SncPair(
        d=1,
        components=(Component("A", 1), Component("B", 2)),
        strata={0: Stratum(4), 0b01: Stratum(2), 0b10: Stratum(2), 0b11: Stratum(1)},
    )
    chi_d(pair)  # consistent as given
    with pytest.raises(PairValidationError):
        SncPair(
            d=1,
            components=pair.components,
            strata={0: Stratum(4), 0b01: Stratum(2), 0b11: Stratum(1)},
        )


def test_scale_check():
    _, pair = cp_pair(1, 1, 1, (1,))
    for k in (2, 3, 5):
        assert scale_check(pair, k)
    assert scale_check(triangle_pair(with_center=False), 3)
    rng = random.Random(11)
    for _ in range(20):
        pair = random_blowup_instance(rng)
        for k in (2, 3, 5):
            assert scale_check(pair, k)


# ---------------------------------------------------------------------------
# induced divisors on strata
# ---------------------------------------------------------------------------


def test_divisor_on_stratum_whole_space():
    pair = triangle_pair(with_center=False)
    again = divisor_on_stratum(pair, 0)
    assert again.mults == pair.mults
    assert {m: s.chi for m, s in again.strata.items()} == {
        m: s.chi for m, s in pair.strata.items()}


def test_divisor_on_stratum_line():
    pair = triangle_pair(with_center=False)
    on_line = divisor_on_stratum(pair, 0b001)
    assert [c.id for c in on_line.components] == ["H2", "Hinf"]
    assert on_line.mults == (1, -5)
    assert {m: s.chi for m, s in on_line.strata.items()} == {
        0b00: 2, 0b01: 1, 0b10: 1}
    assert on_line.d == pair.d


def test_divisor_on_stratum_deepest():
    pair = triangle_pair(with_center=False)
    on_point = divisor_on_stratum(pair, 0b011)
    assert on_point.components == ()
    assert {m: s.chi for m, s in on_point.strata.items()} == {0: 1}


def test_divisor_on_stratum_empty_raises():
    pair = triangle_pair(with_center=False)
    with pytest.raises(PairValidationError):
        divisor_on_stratum(pair, 0b111)


# ---------------------------------------------------------------------------
# model pairs on projective space
# ---------------------------------------------------------------------------


def test_cp_pair_line():
    model, pair = cp_pair(1, 1, 1, (1,))
    assert model.m_infinity == -3
    assert pair.mults == (1, -3)
    assert {m: s.chi for m, s in pair.strata.items()} == {0b00: 2, 0b01: 1, 0b10: 1}
    # f(t) = (t - 1/2)(t - 3/2)
    assert model.f_poly == (Fraction(3, 4), Fraction(-2), Fraction(1))
    assert chi_d_via_fprime(model) == 0


def test_cp_pair_plane():
    model, pair = cp_pair(2, 2, 1, (1, 1))
    assert model.m_infinity == -5
    assert chi_d(pair) == 0
    assert chi_d_via_fprime(model) == 0
    # f(t) = (t - 1/2)^2 (t - 5/4)
    assert model.f_poly == (
        Fraction(-5, 16), Fraction(3, 2), Fraction(-9, 4), Fraction(1))


def test_cp_pair_no_coordinate_hyperplanes():
    model, pair = cp_pair(2, 0, 1, ())
    assert model.m_infinity == -3
    assert pair.mults == (-3,)
    assert {m: s.chi for m, s in pair.strata.items()} == {0b0: 3, 0b1: 2}
    assert chi_d(pair) == 3 + Fraction(3, -2) * 2 == 0
    assert chi_d_via_fprime(model) == 0


def test_cp_pair_validation():
    with pytest.raises(PairValidationError):
        cp_pair(1, 2, 1, (1, 1))
    with pytest.raises(PairValidationError):
        cp_pair(2, 1, 1, (-1,))
    with pytest.raises(PairValidationError):
        cp_pair(2, 1, 0, (1,))
    with pytest.raises(PairValidationError):
        cp_pair(2, 1, 1, (1, 1))


def test_cp_pair_enumeration_matches_fprime():
    rng = random.Random(321)
    for _ in range(200):
        r = rng.randint(1, 8)
        s = rng.randint(1, r)
        d = rng.randint(1, 5)
        mults = tuple(rng.randint(1, 9) for _ in range(s))
        model, pair = cp_pair(r, s, d, mults)
        by_enumeration = chi_d(pair)
        by_derivative = chi_d_via_fprime(model)
        assert by_enumeration == by_derivative == 0, (r, s, d, mults)


def test_cp_pair_f_poly_is_the_product_of_its_factors():
    rng = random.Random(1408)
    for r in range(1, 9):
        for s in range(r + 1):
            for d in (1, 2, 3):
                mults = tuple(rng.randint(1, 12) for _ in range(s))
                model, _ = cp_pair(r, s, d, mults)
                poly = [Fraction(0)] * (r - s) + [Fraction(1)]  # t^(r-s)
                for m in mults + (model.m_infinity,):
                    w = Fraction(-m, m + d)  # times (t + w)
                    poly = [w * a + b for a, b in zip(poly + [0], [0] + poly)]
                assert model.f_poly == tuple(poly), (r, s, d, mults)


# ---------------------------------------------------------------------------
# blow-up transform
# ---------------------------------------------------------------------------


def test_blowup_triangle_multiplicity():
    pair = triangle_pair(with_center=True)
    assert exceptional_multiplicity(pair) == 3


def test_blowup_triangle_table():
    pair = triangle_pair(with_center=True)
    blown = blowup_transform(pair)
    assert [c.id for c in blown.components] == ["H1", "H2", "Hinf", "E"]
    assert blown.mults == (1, 1, -5, 3)
    assert blown.center is None
    chi = {m: s.chi for m, s in blown.strata.items()}
    e = 0b1000
    assert chi[0] == 4                      # blown-up plane
    assert chi[e] == 2                      # exceptional line
    assert chi[0b0001] == chi[0b0010] == 2  # strict transforms of H1, H2
    assert chi[0b0100] == 2                 # Hinf untouched
    assert chi[e | 0b0001] == chi[e | 0b0010] == 1
    assert 0b0011 not in chi                # H1' and H2' have been separated
    assert chi[0b0101] == chi[0b0110] == 1
    assert e | 0b0100 not in chi            # E misses Hinf
    assert set(chi) == {0, e, 0b0001, 0b0010, 0b0100,
                        e | 0b0001, e | 0b0010, 0b0101, 0b0110}


def test_blowup_triangle_invariance_and_coefficients():
    pair = triangle_pair(with_center=True)
    report = check_blowup_invariance(pair)
    assert report == BlowupCheck(
        exceptional_multiplicity=3,
        before=Fraction(0),
        after=Fraction(0),
        equal=True,
        center_chi_d=Fraction(1),
        exceptional_chi_d=Fraction(1),
    )


def test_blowup_triangle_induced_pairs():
    pair = triangle_pair(with_center=True)
    on_center = center_pair(pair)
    assert on_center.components == ()
    assert chi_d(on_center) == 1
    on_exceptional = exceptional_pair(pair)
    assert [c.id for c in on_exceptional.components] == ["H1", "H2"]
    assert {m: s.chi for m, s in on_exceptional.strata.items()} == {
        0b00: 2, 0b01: 1, 0b10: 1}
    assert chi_d(on_exceptional) == 2 - Fraction(1, 2) - Fraction(1, 2) == 1
    assert induced_center_pairs(pair) == (1, 1)


def test_blowup_point_in_bare_space():
    # No divisor at all; blow up a point of codimension 2 at d = 1:
    # chi goes up by 1 and the new exceptional term contributes -1.
    for ambient_chi in (-3, 0, 7):
        pair = SncPair(
            d=1,
            components=(),
            strata={0: Stratum(ambient_chi, 1)},
            center=Center(codim=2),
        )
        report = check_blowup_invariance(pair)
        assert report.exceptional_multiplicity == 1
        assert report.before == report.after == ambient_chi
        assert report.equal


def test_blowup_requires_center():
    with pytest.raises(PairValidationError):
        blowup_transform(triangle_pair(with_center=False))


def test_blowup_rejects_negative_containing_multiplicity():
    pair = SncPair(
        d=1,
        components=(Component("A", -2, True),),
        strata={0: Stratum(3, 1), 0b1: Stratum(2, 1)},
        center=Center(codim=1),
    )
    with pytest.raises(PairValidationError) as err:
        blowup_transform(pair)
    assert "negative" in str(err.value)


def zero_exceptional_pair() -> SncPair:
    """A codimension-1 center in no component: exceptional multiplicity 0."""
    return SncPair(
        d=2,
        components=(),
        strata={0: Stratum(5, 1)},
        center=Center(codim=1),
    )


def ambiguous_containment_pair() -> SncPair:
    """The stratum A disappears (chi equals the center's Euler number) but
    {A,B} does not, which would break downward closure."""
    return SncPair(
        d=1,
        components=(Component("A", 2, True), Component("B", 1)),
        strata={0: Stratum(4, 2), 0b01: Stratum(2, 2), 0b10: Stratum(2, 1),
                0b11: Stratum(2, 1)},
        center=Center(codim=1),
    )


def test_blowup_rejects_zero_exceptional_multiplicity():
    pair = zero_exceptional_pair()
    with pytest.raises(PairValidationError) as err:
        blowup_transform(pair)
    assert "zero" in str(err.value).lower() or "0" in str(err.value)


def test_blowup_codimension_one_relabels_component():
    # Center equal to a whole component: the blow-up is an isomorphism and
    # the component reappears as the exceptional divisor with the same
    # multiplicity.
    pair = SncPair(
        d=1,
        components=(Component("A", 2, True),),
        strata={0: Stratum(4, 2), 0b1: Stratum(2, 2)},
        center=Center(codim=1),
    )
    blown = blowup_transform(pair)
    assert [c.id for c in blown.components] == ["E"]
    assert blown.mults == (2,)
    assert {m: s.chi for m, s in blown.strata.items()} == {0: 4, 0b1: 2}
    assert chi_d(blown) == chi_d(pair)


def test_blowup_rejects_ambiguous_center_containment():
    pair = ambiguous_containment_pair()
    with pytest.raises(PairValidationError) as err:
        blowup_transform(pair)
    message = str(err.value)
    assert "ambiguous center containment" in message
    assert "{A,B}" in message and "'A'" in message


@pytest.mark.parametrize("build", [zero_exceptional_pair, ambiguous_containment_pair])
def test_exceptional_pair_raises_where_blowup_does(build):
    # The pair on E is the blown-up pair restricted to E, so it does not
    # exist where the blow-up does not.
    with pytest.raises(PairValidationError):
        exceptional_pair(build())


def test_blowup_rejects_table_that_loses_downward_closure():
    pair = pair_from_obj(NOT_CLOSED_AFTER_BLOWUP_TABLE)
    with pytest.raises(PairValidationError) as err:
        blowup_transform(pair)
    assert str(err.value) == (
        "stratum {A,B,C} is marked nonempty but its subset {B,C} is empty")


def test_blowup_invariance_random_tables():
    rng = random.Random(97)
    for _ in range(150):
        pair = random_blowup_instance(rng)
        report = check_blowup_invariance(pair)
        assert report.equal, pair_to_json(pair)


def test_random_instances_validate():
    rng = random.Random(31337)
    for _ in range(200):
        validate(random_blowup_instance(rng))


# sha256 of the pair_to_json texts of the first 50 draws from Random(seed).
# The blowup-check report and the benchmark's oracle both draw the same
# instances from the same seed, so the draw order is part of the interface.
RANDOM_INSTANCE_DIGESTS = {
    1: "79f50bcd27edd315231d67f9bdfceb309695d14b6b98a6b7331e6abf4e31fe3b",
    2: "89e97582a05731d6be0de02a14f82b6ba5915770675e82d6953c2913c9a3fa58",
    3: "a60bbc9d222d72b564381975f4d8d7841750792f2aad03cec6e8de208085f420",
}


@pytest.mark.parametrize("seed", sorted(RANDOM_INSTANCE_DIGESTS))
def test_random_instances_match_recorded_digests(seed):
    rng = random.Random(seed)
    digest = hashlib.sha256()
    for _ in range(50):
        digest.update(pair_to_json(random_blowup_instance(rng)).encode())
    assert digest.hexdigest() == RANDOM_INSTANCE_DIGESTS[seed]


def test_fibration_law_random_instances():
    for seed in (0, 1):
        rng = random.Random(seed)
        for _ in range(1000):
            pair = random_blowup_instance(rng)
            assert fibration_check(pair), pair_to_json(pair)


def test_fibration_check_requires_center():
    with pytest.raises(PairValidationError):
        fibration_check(triangle_pair(with_center=False))


# Restatements of the module-docstring rules, written over sets of component
# ids so that they share no code with the bitmask implementation.


def _ids(pair: SncPair, mask: int) -> frozenset:
    return frozenset(c.id for j, c in enumerate(pair.components) if (mask >> j) & 1)


def _shape(pair: SncPair):
    """A pair as its (id, multiplicity) list and {id set: chi} table."""
    components = [(c.id, c.mult) for c in pair.components]
    return components, {_ids(pair, mask): s.chi for mask, s in pair.strata.items()}


def _expected(pair: SncPair, strata: dict):
    """Components of `pair`, in order, that `strata` has as a singleton."""
    kept = [(c.id, c.mult) for c in pair.components if frozenset([c.id]) in strata]
    return kept, strata


def expected_on_stratum(pair: SncPair, subset: int):
    # D_J carries D_(J u K) for every K outside J with D_(J u K) nonempty.
    inside = _ids(pair, subset)
    _, table = _shape(pair)
    return _expected(pair, {
        ids - inside: chi for ids, chi in table.items() if inside <= ids})


def expected_on_center(pair: SncPair):
    # Y carries Y n D_J for J among the components not containing Y.
    contains = {c.id for c in pair.components if c.contains_center}
    return _expected(pair, {
        _ids(pair, mask): s.chi_meet_center
        for mask, s in pair.strata.items()
        if s.chi_meet_center is not None and not _ids(pair, mask) & contains})


def expected_on_exceptional(pair: SncPair):
    # {E} u K is a bundle of P^(r - 1 - |K n contains|) over
    # Y n D_(K minus contains); empty if the fiber or the base is.
    contains = {c.id for c in pair.components if c.contains_center}
    meets = {_ids(pair, mask): s.chi_meet_center for mask, s in pair.strata.items()
             if s.chi_meet_center is not None}
    ids = [c.id for c in pair.components]
    strata = {}
    for size in range(len(ids) + 1):
        for chosen in itertools.combinations(ids, size):
            k = frozenset(chosen)
            fiber_dim = pair.center.codim - 1 - len(k & contains)
            base = k - contains
            if fiber_dim >= 0 and base in meets:
                strata[k] = (fiber_dim + 1) * meets[base]
    return _expected(pair, strata)


def test_induced_pairs_match_docstring_rules():
    rng = random.Random(2024)
    for _ in range(500):
        pair = random_blowup_instance(rng)
        assert _shape(exceptional_pair(pair)) == expected_on_exceptional(pair)
        assert _shape(center_pair(pair)) == expected_on_center(pair)
        for mask in pair.strata:
            assert (_shape(divisor_on_stratum(pair, mask))
                    == expected_on_stratum(pair, mask))
        assert (check_blowup_invariance(pair).exceptional_multiplicity
                == exceptional_multiplicity(pair))


def oracle_chi_d(pair: SncPair) -> Fraction:
    """sum_J chi(D_J) prod_{j in J} (-m_j)/(m_j + d), one factor at a time."""
    total = Fraction(0)
    for mask, stratum in pair.strata.items():
        term = Fraction(stratum.chi)
        for j, comp in enumerate(pair.components):
            if (mask >> j) & 1:
                term *= Fraction(-comp.mult, comp.mult + pair.d)
        total += term
    return total


def test_chi_d_matches_subset_product_oracle():
    rng = random.Random(4242)
    negative_shifts = 0
    for _ in range(500):
        pair = random_blowup_instance(rng)
        blown = blowup_transform(pair)
        for induced in (pair, blown, center_pair(pair), sncpair._on_exceptional(blown)):
            assert chi_d(induced) == oracle_chi_d(induced), pair_to_json(pair)
            negative_shifts += any(m + induced.d < 0 for m in induced.mults)
    assert negative_shifts > 100


def test_chi_d_negative_degree_by_hand():
    # d = -2: the weights are -3 (A), 1 (B) and -5/7 (C), so
    # chi_d = 4 + 2 (-3 + 1 - 5/7) + (-3 + 15/7 - 5/7) = -3.
    pair = SncPair(
        d=-2,
        components=(Component("A", 3), Component("B", 1), Component("C", -5)),
        strata={0: Stratum(4), 0b001: Stratum(2), 0b010: Stratum(2),
                0b100: Stratum(2), 0b011: Stratum(1), 0b101: Stratum(1),
                0b110: Stratum(1)},
    )
    assert chi_d(pair) == oracle_chi_d(pair) == -3


def test_chi_d_with_300_digit_multiplicities():
    big = 10 ** 299
    model, pair = cp_pair(5, 5, 7, [big + 3 * j for j in range(5)])
    assert chi_d(pair) == oracle_chi_d(pair) == chi_d_via_fprime(model) == 0


def test_chi_d_builds_one_fraction(monkeypatch):
    built = []

    class CountingFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    _, pair = cp_pair(10, 10, 1, range(1, 11))
    monkeypatch.setattr(sncpair, "Fraction", CountingFraction)
    assert chi_d(pair) == 0
    assert len(built) == 1


def test_blowup_check_validates_each_pair_once(monkeypatch):
    validated = []
    original = sncpair.validate

    def counting(pair):
        validated.append(pair)
        original(pair)

    monkeypatch.setattr(sncpair, "validate", counting)
    pair = triangle_pair(with_center=True)
    assert validated == [pair]
    check_blowup_invariance(pair)
    derived = validated[1:]
    assert derived == [blowup_transform(pair), center_pair(pair),
                       exceptional_pair(pair)]
    # each derived pair is validated on random tables too: one for the
    # blow-up, one for the center and one for the exceptional divisor
    rng = random.Random(4)
    for _ in range(50):
        pair = random_blowup_instance(rng)
        before = len(validated)
        check_blowup_invariance(pair)
        assert len(validated) - before == 3


# ---------------------------------------------------------------------------
# validation errors
# ---------------------------------------------------------------------------


def test_validate_superset_of_empty_stratum():
    pair = SncPair(
        d=1,
        components=(Component("A", 1), Component("B", 1)),
        strata={0: Stratum(3), 0b01: Stratum(2), 0b10: Stratum(2)},
    )
    validate(pair)
    with pytest.raises(PairValidationError) as err:
        SncPair(
            d=1,
            components=pair.components,
            strata={0: Stratum(3), 0b01: Stratum(2), 0b11: Stratum(1)},
        )
    assert "empty" in str(err.value)


def test_validate_forbidden_multiplicity():
    with pytest.raises(ForbiddenMultiplicityError):
        SncPair(
            d=2,
            components=(Component("A", -2),),
            strata={0: Stratum(3), 0b1: Stratum(2)},
        )


def test_validate_missing_ambient_stratum():
    with pytest.raises(PairValidationError):
        SncPair(d=1, components=(), strata={})


def test_validate_center_consistency():
    base = triangle_pair(with_center=True)
    # chi_meet_center must agree across containing components
    with pytest.raises(PairValidationError):
        SncPair(
            d=base.d,
            components=base.components,
            strata={**base.strata, 0b011: Stratum(1, 2)},
            center=base.center,
        )
    # a center of codimension 2 cannot lie in three components
    with pytest.raises(PairValidationError):
        SncPair(
            d=1,
            components=tuple(Component(f"C{j}", 1, True) for j in range(3)),
            strata={
                sum(1 << j for j in chosen): Stratum(1, 1)
                for size in range(4)
                for chosen in itertools.combinations(range(3), size)
            },
            center=Center(codim=2),
        )


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------


def test_json_roundtrip():
    for pair in (triangle_pair(True), triangle_pair(False), cp_pair(3, 2, 2, (1, 4))[1]):
        again = pair_from_json(pair_to_json(pair))
        assert again == pair
    rng = random.Random(8)
    for _ in range(25):
        pair = random_blowup_instance(rng)
        assert pair_from_json(pair_to_json(pair)) == pair


def test_json_minimal_document():
    pair = pair_from_json(
        '{"d": 3, "components": [], "strata": [{"subset": [], "chi": 7}]}')
    assert chi_d(pair) == 7


def test_json_unknown_field_rejected():
    with pytest.raises(TableFormatError) as err:
        pair_from_json(
            '{"d": 1, "components": [], "strata": '
            '[{"subset": [], "chi": 7}], "extra": 1}')
    assert "extra" in str(err.value)


def test_json_unknown_component_in_subset():
    with pytest.raises(TableFormatError) as err:
        pair_from_json(
            '{"d": 1, "components": [{"id": "A", "mult": 1}], '
            '"strata": [{"subset": [], "chi": 3}, {"subset": ["B"], "chi": 1}]}')
    assert "B" in str(err.value)


def test_json_type_errors():
    with pytest.raises(TableFormatError):
        pair_from_json('{"d": true, "components": [], "strata": [{"subset": [], "chi": 1}]}')
    with pytest.raises(TableFormatError):
        pair_from_json('{"d": 1, "components": [], "strata": [{"subset": [], "chi": 1.5}]}')
    with pytest.raises(TableFormatError):
        pair_from_json('[1, 2, 3]')


def test_json_nonempty_false_means_omitted():
    pair = pair_from_json(
        '{"d": 1, "components": [{"id": "A", "mult": 1}], "strata": ['
        '{"subset": [], "chi": 3}, {"subset": ["A"], "chi": 2}]}')
    assert len(pair.strata) == 2
    with pytest.raises(TableFormatError):
        pair_from_json(
            '{"d": 1, "components": [{"id": "A", "mult": 1}], "strata": ['
            '{"subset": [], "chi": 3}, {"subset": ["A"], "chi": 2, "nonempty": false}]}')


def test_json_validation_still_applies():
    with pytest.raises(PairValidationError):
        pair_from_json(
            '{"d": 1, "components": [{"id": "A", "mult": -1}], "strata": ['
            '{"subset": [], "chi": 3}, {"subset": ["A"], "chi": 2}]}')
