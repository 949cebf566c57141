import collections
import copy
import hashlib
import itertools
import json
import math
import pickle
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cypair import inputs, sncpair
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
    validate,
    weight,
)

from tables import (
    NOT_CLOSED_AFTER_BLOWUP_TABLE, TRIANGLE_TABLE, centered_table, coordinate_table)


def triangle_pair(with_center: bool) -> SncPair:
    """The plane with three lines of multiplicities 1, 1, -5 at d = 1.

    Strata: three lines of Euler number 2, three pairwise intersection
    points, no triple point.  The optional center is the point H1 * H2,
    which misses Hinf.
    """
    def meet(value):
        return value if with_center else None

    components = (
        Component("H1", 1),
        Component("H2", 1),
        Component("Hinf", -5),
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
        center=Center(codim=2, contains=0b011) if with_center else None,
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
        components=(Component("A", -2),),
        strata={0: Stratum(3, 1), 0b1: Stratum(2, 1)},
        center=Center(codim=1, contains=0b1),
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
        components=(Component("A", 2), Component("B", 1)),
        strata={0: Stratum(4, 2), 0b01: Stratum(2, 2), 0b10: Stratum(2, 1),
                0b11: Stratum(2, 1)},
        center=Center(codim=1, contains=0b01),
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
        components=(Component("A", 2),),
        strata={0: Stratum(4, 2), 0b1: Stratum(2, 2)},
        center=Center(codim=1, contains=0b1),
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


@pytest.mark.parametrize("operation", [
    blowup_transform, exceptional_pair, fibration_check, check_blowup_invariance])
def test_blowup_rejects_a_component_too_many(operation):
    # E would be component MAX_COMPONENTS + 1; the error names the input's
    # own count, not that of the pair the blow-up would have built.
    pair = pair_from_obj(centered_table(inputs.MAX_COMPONENTS))
    with pytest.raises(PairValidationError) as err:
        operation(pair)
    assert str(err.value) == (
        f"the blow-up adds the exceptional component 'E' to the "
        f"{inputs.MAX_COMPONENTS} components of the input, which exceeds "
        f"the supported maximum of {inputs.MAX_COMPONENTS}")


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


# sha256 of the pair_to_json texts of 30 draws at each max_components 0..8,
# in that order, from one Random(1): every stratum size has its own keep
# probability, so the draws past the default of 6 are pinned too.
RANDOM_INSTANCE_WIDTHS_DIGEST = (
    "f43dfc15dddb4cfd53946859e2594e0ba347940392d73ff5c6434cb5349c72c4")


def test_random_instances_of_every_width_match_recorded_digest():
    rng = random.Random(1)
    digest = hashlib.sha256()
    for max_components in range(9):
        for _ in range(30):
            pair = random_blowup_instance(rng, max_components)
            digest.update(pair_to_json(pair).encode())
    assert digest.hexdigest() == RANDOM_INSTANCE_WIDTHS_DIGEST


# sha256 of the pair_to_json texts of 20 draws at each max_components 9..16,
# in that order, from one Random(1), recorded when every draw walked all
# 2^l subsets: the walk over the kept strata alone draws the same tables.
RANDOM_INSTANCE_WIDE_DIGEST = (
    "de13c270a2c153a43e4e7d85d0b163c1af1b6a703242b690a09054dd0cbd00ed")


def test_random_instances_of_widths_9_to_16_match_recorded_digest():
    rng = random.Random(1)
    digest = hashlib.sha256()
    for max_components in range(9, sncpair.MAX_RANDOM_COMPONENTS + 1):
        for _ in range(20):
            pair = random_blowup_instance(rng, max_components)
            digest.update(pair_to_json(pair).encode())
    assert digest.hexdigest() == RANDOM_INSTANCE_WIDE_DIGEST


def test_wide_random_instances_hold_no_table_of_all_subsets():
    # a walk over all 2^16 subsets, cached per width, took tens of MiB
    rng = random.Random(7)
    tracemalloc.start()
    try:
        for _ in range(20):
            random_blowup_instance(rng, sncpair.MAX_RANDOM_COMPONENTS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


# sha256 of repr(check_blowup_invariance(pair)) over the first 300 draws
# from Random(5): chi_d before and after the blow-up and on the center and
# on E, read through every restriction and transform of the module.
RANDOM_CHECKS_DIGEST = "9dc5096c2cf4e2af46ea87133ebf4d2c35521c339b750c9aecc0b72934304aea"


def test_blowup_checks_of_random_instances_match_recorded_digest():
    rng = random.Random(5)
    digest = hashlib.sha256()
    for _ in range(300):
        digest.update(repr(check_blowup_invariance(random_blowup_instance(rng))).encode())
    assert digest.hexdigest() == RANDOM_CHECKS_DIGEST


@pytest.mark.parametrize("max_components", [-1, sncpair.MAX_RANDOM_COMPONENTS + 1, 40])
def test_random_instance_refuses_max_components_before_drawing(max_components):
    rng = random.Random(1)
    state = rng.getstate()
    with pytest.raises(ValueError) as info:
        random_blowup_instance(rng, max_components)
    assert str(info.value) == (f"max_components must lie in "
                               f"0..{sncpair.MAX_RANDOM_COMPONENTS}, got {max_components}")
    assert rng.getstate() == state


def test_random_component_bound_leaves_room_for_the_exceptional_component():
    assert sncpair.MAX_RANDOM_COMPONENTS <= inputs.MAX_COMPONENTS - 1


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------


def test_record_reprs_are_pinned():
    pair = random_blowup_instance(random.Random(5), max_components=2)
    assert repr(pair) == (
        "SncPair(d=3, components=(Component(id='D1', mult=2), "
        "Component(id='D2', mult=7)), "
        "strata={0: Stratum(chi=-8, chi_meet_center=-4), "
        "1: Stratum(chi=-4, chi_meet_center=-4), "
        "2: Stratum(chi=-6, chi_meet_center=-2), "
        "3: Stratum(chi=-2, chi_meet_center=-2)}, center=Center(codim=1, contains=1))")
    assert repr(check_blowup_invariance(pair)) == (
        "BlowupCheck(exceptional_multiplicity=2, before=Fraction(-69, 25), "
        "after=Fraction(-69, 25), equal=True, center_chi_d=Fraction(-13, 5), "
        "exceptional_chi_d=Fraction(-13, 5))")
    model, _ = cp_pair(2, 2, 1, (1, 1))
    assert repr(model) == (
        "CpPairModel(r=2, s=2, d=1, mults=(1, 1), m_infinity=-5, "
        "f_poly=(Fraction(-5, 16), Fraction(3, 2), Fraction(-9, 4), Fraction(1, 1)))")


@pytest.mark.parametrize("field", ["d", "components", "strata", "center"])
def test_pair_fields_cannot_be_assigned_or_deleted(field):
    pair = random_blowup_instance(random.Random(5), max_components=2)
    before = repr(pair)
    with pytest.raises(AttributeError):
        setattr(pair, field, None)
    with pytest.raises(AttributeError):
        delattr(pair, field)
    with pytest.raises(AttributeError):
        pair.extra = 1
    assert repr(pair) == before


def test_pair_is_unhashable():
    _, pair = cp_pair(2, 2, 1, (1, 1))
    with pytest.raises(TypeError):
        hash(pair)


def test_pairs_compare_by_their_fields():
    _, pair = cp_pair(2, 2, 1, (1, 1))
    _, same = cp_pair(2, 2, 1, (1, 1))
    assert pair is not same and pair == same
    assert not pair != same
    other_d = SncPair(d=2, components=pair.components, strata=pair.strata)
    assert pair != other_d
    assert pair != (pair.d, pair.components, pair.strata, pair.center)


def test_pair_copies_equal_the_pair():
    import copy
    import pickle
    pair = random_blowup_instance(random.Random(5), max_components=2)
    assert copy.copy(pair) == pair
    assert pickle.loads(pickle.dumps(pair)) == pair


def test_pair_table_is_read_only():
    table = {0: Stratum(2)}
    pair = SncPair(d=1, components=(), strata=table)
    with pytest.raises(TypeError):
        pair.strata[5] = Stratum(2)
    with pytest.raises(TypeError):
        del pair.strata[0]
    assert pair.strata == table == {0: Stratum(2)}
    assert repr(pair) == (
        "SncPair(d=1, components=(), strata={0: Stratum(chi=2, "
        "chi_meet_center=None)}, center=None)")
    for twin in (copy.copy(pair), copy.deepcopy(pair),
                 pickle.loads(pickle.dumps(pair))):
        assert twin == pair
        with pytest.raises(TypeError):
            twin.strata[5] = Stratum(2)
    # the view wraps the caller's dict; it is not a copy
    table[5] = Stratum(2)
    assert 5 in pair.strata


def test_component_and_center_are_hashable_records():
    assert Component("A", 1) == Component(id="A", mult=1)
    assert Component("A", 1) != Component("A", 2)
    assert hash(Component("A", 1)) == hash(Component("A", 1))
    assert len({Component("A", 1), Component("A", 1), Component("B", 1)}) == 2
    assert Center(2) == Center(codim=2, contains=0) != Center(3)
    assert Center(2, 0b101) != Center(2, 0b001)
    assert hash(Center(2)) == hash(Center(codim=2, contains=0))
    # NamedTuple records equal the plain tuple of their fields
    assert Component("A", 1) == ("A", 1)
    assert Center(2) == (2, 0)


def test_shown_names_cuts_lists_over_the_component_limit():
    names = [f"D{j}" for j in range(inputs.MAX_COMPONENTS + 1)]
    assert inputs.shown_names(names[:-1]) == repr(names[:-1])
    assert inputs.shown_names(names) == repr(names[:-1]) + "... (31 names)"


def test_duplicate_subset_message_lists_every_component():
    table = centered_table(inputs.MAX_COMPONENTS)
    ids = [c["id"] for c in table["components"]]
    table["strata"] = [{"subset": ids, "chi": 1}, {"subset": ids[::-1], "chi": 1}]
    with pytest.raises(TableFormatError) as info:
        pair_from_obj(table)
    assert str(info.value) == f"strata[1]: duplicate subset {sorted(ids)!r}"


@pytest.mark.parametrize("taken, expected", [(["E"], "E2"), (["E", "E2"], "E3")])
def test_exceptional_component_gets_a_free_name(taken, expected):
    table = copy.deepcopy(TRIANGLE_TABLE)
    names = dict(zip(["Hinf", "H2"], taken))
    for component in table["components"]:
        component["id"] = names.get(component["id"], component["id"])
    for stratum in table["strata"]:
        stratum["subset"] = [names.get(c, c) for c in stratum["subset"]]
    blown = blowup_transform(pair_from_obj(table))
    assert blown.components[-1] == Component(expected, 3)
    assert [c.id for c in blown.components] == [
        names.get(name, name) for name in ("H1", "H2", "Hinf")] + [expected]


class _Int(int):
    pass


@pytest.mark.parametrize("change", ["ordered entries", "int-subclass chi"])
def test_entries_off_the_accept_test_give_the_same_pair(change):
    # both fail the one accept test of `pair_from_obj`, so they take the
    # named checks, whose last step stores the stratum
    table = copy.deepcopy(TRIANGLE_TABLE)
    if change == "ordered entries":
        table["strata"] = [collections.OrderedDict(s) for s in table["strata"]]
    else:
        for stratum in table["strata"]:
            stratum["chi"] = _Int(stratum["chi"])
    pair = pair_from_obj(table)
    assert pair == pair_from_obj(TRIANGLE_TABLE)
    assert repr(pair) == repr(pair_from_obj(TRIANGLE_TABLE))


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
    contains = _ids(pair, pair.center.contains)
    return _expected(pair, {
        _ids(pair, mask): s.chi_meet_center
        for mask, s in pair.strata.items()
        if s.chi_meet_center is not None and not _ids(pair, mask) & contains})


def expected_on_exceptional(pair: SncPair):
    # {E} u K is a bundle of P^(r - 1 - |K n contains|) over
    # Y n D_(K minus contains); empty if the fiber or the base is.
    contains = _ids(pair, pair.center.contains)
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


def _remapped(pair: SncPair, entries: dict, extra=None) -> SncPair:
    """An induced pair built as `_restrict` did before its identity
    shortcut: new components and records, every mask remapped bit by bit."""
    l = len(pair.components)
    kept = [j for j in range(l) if 1 << j in entries] + ([l] if extra else [])
    position = {j: i for i, j in enumerate(kept)}
    components = [Component(pair.components[j].id, pair.components[j].mult)
                  for j in kept if j < l] + ([extra] if extra else [])
    strata = {}
    for mask, stratum in entries.items():
        new = 0
        for j in range(mask.bit_length()):
            if mask >> j & 1:
                new |= 1 << position[j]
        strata[new] = Stratum(stratum.chi)
    return SncPair(d=pair.d, components=tuple(components), strata=strata)


def _remapped_blowup(pair: SncPair) -> SncPair:
    """The blow-up by the module-docstring rules, through `_remapped`."""
    r = pair.center.codim
    contains = pair.center.contains
    e_bit = 1 << len(pair.components)
    entries = {}
    for mask, stratum in pair.strata.items():
        fiber = r - (mask & contains).bit_count()
        meets = stratum.chi_meet_center
        if meets is None:
            entries[mask] = stratum
            continue
        if not (fiber == 0 and stratum.chi == meets):
            entries[mask] = Stratum(stratum.chi + meets * (fiber - 1))
        if fiber >= 1:
            entries[mask | e_bit] = Stratum(meets * fiber)
    e_id = sncpair._unique_id((c.id for c in pair.components), "E")
    return _remapped(pair, entries, Component(e_id, exceptional_multiplicity(pair)))


def _remapped_on_stratum(pair: SncPair, subset: int) -> SncPair:
    return _remapped(pair, {mask & ~subset: stratum
                            for mask, stratum in pair.strata.items()
                            if mask & subset == subset})


def test_identity_restriction_and_reused_records_change_no_table():
    rng = random.Random(1717)
    dropped_by_blowup = missing_center = in_place = moved = squeezed_twice = 0
    for _ in range(2000):
        pair = random_blowup_instance(rng)
        ids = [c.id for c in pair.components]
        l = len(ids)
        blown = blowup_transform(pair)
        expected_blown = _remapped_blowup(pair)
        on_center = {mask: Stratum(s.chi_meet_center)
                     for mask, s in pair.strata.items()
                     if s.chi_meet_center is not None
                     and not mask & pair.center.contains}
        e_mask = 1 << (len(expected_blown.components) - 1)
        blown_ids = [c.id for c in blown.components]
        # (derived pair, its expected value, the ids it was restricted from)
        derived = [
            (blown, expected_blown, ids + blown_ids[-1:]),
            (center_pair(pair), _remapped(pair, on_center), ids),
            (exceptional_pair(pair), _remapped_on_stratum(expected_blown, e_mask),
             blown_ids),
        ] + [(divisor_on_stratum(pair, mask), _remapped_on_stratum(pair, mask), ids)
             for mask in pair.strata]
        for got, expected, source in derived:
            assert got == expected, pair_to_json(pair)
            assert all(s.chi_meet_center is None for s in got.strata.values())
            # every mask keeps its bits when the kept components are the
            # first ones, all of them when E follows
            kept = [c.id for c in got.components if c.id in ids]
            if kept == ids[:len(kept)] and (got is not blown or len(kept) == l):
                in_place += 1
            else:
                moved += 1
            # dropped components below the last kept one: bits squeezed out
            positions = [source.index(c.id) for c in got.components]
            squeezed_twice += bool(positions) and positions[-1] + 1 - len(positions) >= 2
        dropped_by_blowup += len(blown.components) < l + 1
        missing_center += any(pair.strata[1 << j].chi_meet_center is None
                              for j in range(l))
    # both paths of `_restrict` run, with components dropped by the c_J = 0
    # rule and components that miss the center, and masks lose two or more
    # bits below a kept one
    assert dropped_by_blowup >= 50
    assert missing_center >= 500
    assert in_place >= 1000 and moved >= 1000
    assert squeezed_twice >= 100


def test_tables_hold_one_record_per_value():
    # an intern table filled by earlier tests is not emptied halfway
    sncpair._RECORDS.clear()
    pair = pair_from_obj(coordinate_table(10, range(1, 11)))
    blown = blowup_transform(pair)
    records = []
    for derived in (pair, blown, center_pair(pair), exceptional_pair(pair)):
        own = list(derived.strata.values())
        assert len(set(own)) < len(own)
        records += own
    # equal records are one object across the pair and the pairs derived from it
    assert len(set(map(id, records))) == len(set(records))
    # and a pair built from records of its own shares them once blown up
    fresh = SncPair(pair.d, pair.components,
                    {mask: Stratum(*stratum) for mask, stratum in pair.strata.items()},
                    pair.center)
    assert not any(fresh.strata[mask] is stratum for mask, stratum in pair.strata.items())
    fresh_blown = blowup_transform(fresh)
    assert fresh_blown == blown
    assert all(fresh_blown.strata[mask] is stratum for mask, stratum in blown.strata.items())


def test_a_table_of_more_values_than_the_intern_table_holds_reads_back():
    l = 13
    ids = [f"D{j}" for j in range(l)]
    document = {
        "d": 1,
        "components": [{"id": name, "mult": j + 1} for j, name in enumerate(ids)],
        "strata": [{"subset": [ids[j] for j in range(l) if mask >> j & 1],
                    "chi": 1000 + mask}
                   for mask in range(1 << l)],
    }
    pair = pair_from_obj(document)
    assert len(pair.strata) > sncpair._MAX_RECORDS
    assert {mask: s.chi for mask, s in pair.strata.items()} == {
        mask: 1000 + mask for mask in range(1 << l)}
    assert pair_from_json(pair_to_json(pair)) == pair
    assert chi_d(pair) == oracle_chi_d(pair)


def test_only_int_records_are_interned():
    # a blow-up looks up the records of a pair built by hand, whatever type
    # its values have, but keeps no record of a Fraction: an equal int
    # record read later is still an int
    odd = SncPair(1, (Component("A", 1),),
                  {0: Stratum(3, 1), 1: Stratum(Fraction(-987654))}, Center(2))
    assert type(blowup_transform(odd).strata[1].chi) is Fraction
    pair = pair_from_obj({"d": 1, "components": [{"id": "A", "mult": 1}],
                          "strata": [{"subset": [], "chi": 3},
                                     {"subset": ["A"], "chi": -987654}]})
    assert type(pair.strata[1].chi) is int
    assert json.loads(pair_to_json(pair))["strata"][1]["chi"] == -987654


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


def digits(rng: random.Random, most: int = 40) -> int:
    """A nonzero integer of 1 to `most` decimal digits, of either sign."""
    k = rng.randint(1, most)
    return rng.choice((-1, 1)) * rng.randint(10 ** (k - 1), 10 ** k - 1)


def closed_table_pair(l: int, k: int, seed: int) -> SncPair:
    """A pair on l components whose table holds every subset of at most k
    of them (k lowered until that is at most 10,000 strata), the subsets of
    up to three drawn masks of at most 8 bits, less up to 20 maximal strata
    of two or more components.  chi, d and the multiplicities have 1 to 40
    digits, d has either sign, and some m_j + d are small or negative."""
    rng = random.Random(seed)
    k = min(k, l)
    while sum(math.comb(l, size) for size in range(k + 1)) > 10_000:
        k -= 1
    family = {m for m in range(1 << l) if m.bit_count() <= max(k, 1)}
    for _ in range(rng.randint(0, 3)):
        top = sum(1 << j for j in rng.sample(range(l), rng.randint(0, min(l, 8))))
        family.update(sncpair._submasks(top))
    maximal = [m for m in family if m.bit_count() >= 2
               and all(m >> j & 1 or m | 1 << j not in family for j in range(l))]
    family.difference_update(rng.sample(maximal, min(len(maximal), rng.randint(0, 20))))
    d = digits(rng)
    mults = []
    while len(mults) < l:
        m = rng.choice((digits(rng), digits(rng, 2) - d))
        if m not in (0, -d):
            mults.append(m)
    components = tuple(Component(f"D{j}", m) for j, m in enumerate(mults))
    return SncPair(d, components, {m: Stratum(digits(rng)) for m in family})


# l = 15 with k = 6 is dense (9,949 strata, 2^15 <= 4 N) and takes the
# two-level mask sum over 256 high parts; k = 5 (4,944 strata) takes the
# ordered sum.
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 2 ** 32))
@example(15, 6, 1)
@example(15, 5, 2)
@example(8, 8, 3)
def test_chi_d_folded_and_walked_match_the_oracle(l, k, seed):
    pair = closed_table_pair(l, k, seed)
    assert chi_d(pair) == oracle_chi_d(pair)


def sum_spy(monkeypatch) -> list:
    """The name of each of `chi_d`'s two sums as it runs from now on, each
    followed by the number of components of every numerator table it
    builds."""
    names = []
    for name in ("_mask_sum", "_ordered_sum"):
        real = getattr(sncpair, name)
        monkeypatch.setattr(sncpair, name, lambda *args, name=name, real=real:
                            names.append(name) or real(*args))
    real_numerators = sncpair._numerators
    monkeypatch.setattr(sncpair, "_numerators", lambda shifted, negated:
                        names.append(len(shifted)) or real_numerators(shifted, negated))
    return names


@st.composite
def small_tables(draw):
    """A pair on 0-8 components whose table is the subsets of up to four
    drawn masks, singletons included: as sparse as l + 1 strata and as
    dense as all 2^l.  d, the multiplicities and chi have up to 40 digits,
    and some m_j + d are small or negative."""
    l = draw(st.integers(0, 8))
    family = {0} | {1 << j for j in range(l)}
    for top in draw(st.lists(st.integers(0, (1 << l) - 1), max_size=4)):
        family.update(sncpair._submasks(top))
    big = st.integers(1 - inputs.INT_LIMIT, inputs.INT_LIMIT - 1)
    d = draw(big.filter(bool))
    mults = draw(st.lists(st.one_of(big, st.integers(-99, 99).map(lambda m: m - d))
                          .filter(lambda m: m not in (0, -d)), min_size=l, max_size=l))
    chis = draw(st.lists(big, min_size=len(family), max_size=len(family)))
    components = tuple(Component(f"D{j}", m) for j, m in enumerate(mults))
    return SncPair(d, components, dict(zip(sorted(family), map(Stratum, chis))))


# Both sides of the mask sum's rule, 2^l <= 4 N, on at most 8 components:
# every table of at most 4 components is dense, 2^l <= 4 (l + 1), and one
# of 5 to 8 components with few strata is not.
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(small_tables())
def test_chi_d_on_at_most_8_components_matches_the_oracle(pair):
    assert chi_d(pair) == oracle_chi_d(pair)


def first_masks_pair(l: int, n: int) -> SncPair:
    """A pair on l components whose table is the first n masks by size:
    downward closed, and every singleton is in it once n > l.  d, the
    multiplicities and chi have 1 to 40 digits."""
    rng = random.Random(10 * l + n)
    d = digits(rng)
    components = tuple(Component(f"D{j}", digits(rng, 2) - d) for j in range(l))
    masks = sorted(range(1 << l), key=lambda m: (m.bit_count(), m))[:n]
    return SncPair(d, components, {m: Stratum(digits(rng)) for m in masks})


# (l, N): the sums switch at 2^l = 4 N.  From 5 components on, 2^l = 4 N
# is dense and 2^l = 4 (N + 1), the nearest size past the bound, is not;
# every table of at most 4 components is dense, 2^l <= 4 (l + 1), so the
# smallest one, N = l + 1, is.  The full table of 8 components is dense.
# The mask sum builds one table of the numerators of all l components.
@pytest.mark.parametrize("l, n, name", [
    (0, 1, "_mask_sum"), (1, 2, "_mask_sum"), (2, 3, "_mask_sum"), (3, 4, "_mask_sum"),
    (4, 5, "_mask_sum"), (5, 8, "_mask_sum"), (5, 7, "_ordered_sum"),
    (6, 16, "_mask_sum"), (6, 15, "_ordered_sum"), (7, 32, "_mask_sum"),
    (7, 31, "_ordered_sum"), (8, 64, "_mask_sum"), (8, 63, "_ordered_sum"),
    (8, 256, "_mask_sum")])
def test_chi_d_takes_the_mask_sum_on_dense_tables_of_at_most_8_components(
        monkeypatch, l, n, name):
    names = sum_spy(monkeypatch)
    pair = first_masks_pair(l, n)
    assert chi_d(pair) == oracle_chi_d(pair)
    assert names == ([name, l] if name == "_mask_sum" else [name])


# Past sncpair._LOW_BITS = 8 components the mask sum takes its second
# level, with the same rule: 2^l = 4 N against 2^l = 4 (N + 1).  It
# builds one table for the low l // 2 components and one for the others.
@pytest.mark.parametrize("l, n, name", [
    (9, 128, "_mask_sum"), (9, 127, "_ordered_sum"),
    (10, 256, "_mask_sum"), (10, 255, "_ordered_sum")])
def test_chi_d_takes_the_two_level_mask_sum_past_8_components(
        monkeypatch, l, n, name):
    names = sum_spy(monkeypatch)
    pair = first_masks_pair(l, n)
    assert chi_d(pair) == oracle_chi_d(pair)
    assert names == ([name, l // 2, l - l // 2] if name == "_mask_sum" else [name])


def test_the_dense_sum_allocates_far_less_than_a_cube_of_its_subsets():
    """On the coordinate table of P^15 (16 components, 65,535 strata),
    `chi_d` keeps fewer bytes alive than one pointer per 8 of the 2^16
    subsets: a list of 2^l values, one per subset, took 8 times that."""
    pair = pair_from_obj(coordinate_table(15, [1 + j % 5 for j in range(15)]))
    assert 1 << 16 <= 4 * len(pair.strata)  # dense: the mask sum
    tracemalloc.start()
    try:
        value = chi_d(pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * ((1 << 16) // 8)  # an 8-byte pointer per 8 subsets
    assert value == 0  # the divisor is pluricanonical


class CountingTable(dict):
    """A stratum table that counts its lookups and its membership probes."""

    lookups = probes = 0

    def __getitem__(self, mask):
        self.lookups += 1
        return super().__getitem__(mask)

    def __contains__(self, mask):
        self.probes += 1
        return super().__contains__(mask)


def test_chi_d_reads_each_stratum_once_and_probes_no_absent_mask():
    # every subset of at most 2 of 20 components: 211 strata, too sparse
    # for the mask sum.  A walk that tried each lower bit of each stratum
    # made 1,350 membership probes here.
    l = 20
    rng = random.Random(20)
    components = tuple(Component(f"D{j}", digits(rng)) for j in range(l))
    strata = CountingTable(
        (sum(1 << j for j in chosen), Stratum(digits(rng)))
        for size in range(3) for chosen in itertools.combinations(range(l), size))
    pair = SncPair(1, components, strata)
    strata.lookups = strata.probes = 0
    value = chi_d(pair)
    assert strata.probes == 0
    assert strata.lookups <= len(strata) == 211
    assert value == oracle_chi_d(pair)


class IntPoly:
    """An integer polynomial in d, its coefficients from the constant term
    up.  `//` is exact division: it raises on a remainder."""

    __slots__ = ("coeffs",)
    __hash__ = None

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @staticmethod
    def lift(value):
        return value if isinstance(value, IntPoly) else IntPoly([value])

    def __add__(self, other):
        a, b = self.coeffs, IntPoly.lift(other).coeffs
        return IntPoly(x + y for x, y in itertools.zip_longest(a, b, fillvalue=0))

    __radd__ = __add__

    def __mul__(self, other):
        a, b = self.coeffs, IntPoly.lift(other).coeffs
        out = [0] * (len(a) + len(b))
        for i, x in enumerate(a):
            for k, y in enumerate(b):
                out[i + k] += x * y
        return IntPoly(out)

    __rmul__ = __mul__

    def __floordiv__(self, other):
        rest, divisor = list(self.coeffs), IntPoly.lift(other).coeffs
        quotient = [0] * max(len(rest) - len(divisor) + 1, 0)
        for k in reversed(range(len(quotient))):
            # a remainder here stays in rest[k + len(divisor) - 1]
            q = quotient[k] = rest[k + len(divisor) - 1] // divisor[-1]
            for i, c in enumerate(divisor):
                rest[k + i] -= q * c
        if any(rest):
            raise ArithmeticError(f"{self.coeffs} // {divisor} leaves a remainder")
        return IntPoly(quotient)

    def __eq__(self, other):
        return self.coeffs == IntPoly.lift(other).coeffs

    def at(self, d):
        return sum(c * d ** k for k, c in enumerate(self.coeffs))


@st.composite
def ring_test_pairs(draw):
    """A `random_blowup_instance` pair, or a dense coordinate-hyperplane
    pair on P^2..P^9 (3 to 10 components) with multiplicities of up to 38
    digits."""
    if draw(st.booleans()):
        return random_blowup_instance(random.Random(draw(st.integers(0, 2 ** 32))))
    r = draw(st.integers(2, 9))
    mults = draw(st.lists(st.integers(1, 10 ** 38), min_size=r, max_size=r))
    return pair_from_obj(coordinate_table(r, mults))


# The two sums use only *, + and exact //, so over Z[d], with
# shifted[j] = m_j + d, each gives sum_J chi(D_J) num[J] as a polynomial,
# and chi_d is its value at the pair's d over prod_j (m_j + d).  Tables of
# 9 and 10 components take the mask sum's second level.
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(ring_test_pairs())
def test_every_sum_runs_over_integer_polynomials_in_d(pair):
    shifted = [IntPoly([m, 1]) for m in pair.mults]
    negated = [-m for m in pair.mults]
    chis = {mask: stratum.chi for mask, stratum in pair.strata.items()}
    ordered = IntPoly.lift(sncpair._ordered_sum(sorted(chis.items()), shifted, negated))
    masked = IntPoly.lift(sncpair._mask_sum(pair.strata, shifted, negated))
    assert ordered == masked
    denominator = IntPoly.lift(math.prod(shifted))
    assert Fraction(ordered.at(pair.d), denominator.at(pair.d)) == chi_d(pair)


def test_the_sparse_sum_reads_the_table_without_a_copy():
    """On a wide table (22 components, every stratum of depth at most 4),
    `chi_d` takes the sparse sum with less memory than a dict with one
    entry per stratum."""
    l = 22
    strata = {sum(1 << j for j in subset): Stratum(10 ** 39 + sum(subset))
              for k in range(5) for subset in itertools.combinations(range(l), k)}
    pair = SncPair(3, tuple(Component(f"D{j}", 10 ** 39 + j) for j in range(l)), strata)
    assert len(strata) >= 64 and 1 << l > 4 * len(strata)  # not dense
    tracemalloc.start()
    try:
        chi_d(pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sys.getsizeof(dict.fromkeys(strata))


def toric_surface(rays: list, u: tuple, d: int) -> SncPair:
    """The smooth complete toric surface of a fan, listed in cyclic order,
    with its toric boundary curves as components, m_rho = <u, v_rho> - d.

    X has Euler number k (one per ray), each curve is a P^1, and each two
    adjacent curves meet in one point."""
    k = len(rays)
    components = tuple(Component(f"D{j}", u[0] * x + u[1] * y - d)
                       for j, (x, y) in enumerate(rays))
    strata = {0: Stratum(k)}
    for j in range(k):
        strata[1 << j] = Stratum(2)
        strata[1 << j | 1 << (j + 1) % k] = Stratum(1)
    return SncPair(d, components, strata)


# Inserting v_i + v_(i+1) between adjacent rays blows up a torus-fixed
# point, so every fan grown from P^2's this way is smooth and complete.
# With m_rho = <u, v_rho> - d the divisor is div(x^u) + d K_X, and chi_d
# is 0 exactly; at k = 30 the table has the most components allowed.
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(3, inputs.MAX_COMPONENTS), st.integers(0, 2 ** 32),
       st.tuples(st.integers(-10 ** 7, 10 ** 7), st.integers(-10 ** 7, 10 ** 7)),
       st.integers(-10 ** 7, 10 ** 7).filter(bool))
@example(inputs.MAX_COMPONENTS, 1, (9_999_999, -1_234_567), 3)
def test_toric_surfaces_have_chi_d_zero(k, seed, u, d):
    rng = random.Random(seed)
    rays = [(1, 0), (0, 1), (-1, -1)]
    while len(rays) < k:
        i = rng.randrange(len(rays))
        (a, b), (c, e) = rays[i], rays[(i + 1) % len(rays)]
        rays.insert(i + 1, (a + c, b + e))
    assume(all(u[0] * x + u[1] * y not in (d, 0) for x, y in rays))
    assert chi_d(toric_surface(rays, u, d)) == 0


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
            components=tuple(Component(f"C{j}", 1) for j in range(3)),
            strata={
                sum(1 << j for j in chosen): Stratum(1, 1)
                for size in range(4)
                for chosen in itertools.combinations(range(3), size)
            },
            center=Center(codim=2, contains=0b111),
        )


@pytest.mark.parametrize("components, strata, message", [
    ((Component("", 1),), {0: Stratum(3), 0b1: Stratum(2)},
     "component 0 must have a non-empty string id"),
    ((Component("A", 1), Component("A", 2)),
     {0: Stratum(3), 0b01: Stratum(2), 0b10: Stratum(2)},
     "duplicate component id 'A'"),
    ((Component("A", 1),), {0: Stratum(3), 0b1: Stratum(2), 0b10: Stratum(2)},
     "stratum mask 2 references unknown components"),
])
def test_validate_rules_the_parser_catches_first(components, strata, message):
    # A table document cannot reach these rules: its parser rejects an
    # empty or repeated id and a subset naming an unknown component.
    with pytest.raises(PairValidationError) as err:
        SncPair(d=1, components=components, strata=strata)
    assert str(err.value) == message


@pytest.mark.parametrize("contains", [1 << 3, -1])
def test_validate_refuses_a_containing_mask_beyond_the_components(contains):
    # A table document cannot reach this rule either: its reader sets a bit
    # of the mask for each flagged component and for nothing else.
    base = triangle_pair(with_center=True)
    with pytest.raises(PairValidationError) as err:
        SncPair(base.d, base.components, dict(base.strata), Center(2, contains))
    assert str(err.value) == (
        f"center containing mask {contains} references unknown components")


def per_stratum_center_rules(d, components, strata, center):
    """The center rules stated for every stratum J the center meets, each
    one walked on its own: J minus any element is met too, and J plus any
    containing component is a stratum.  Raises PairValidationError."""
    # the rules that do not involve the center
    SncPair(d, components, {mask: Stratum(s.chi) for mask, s in strata.items()})
    contains = center.contains
    if contains.bit_count() > center.codim or strata[0].chi_meet_center is None:
        raise PairValidationError("center header")
    for mask, stratum in strata.items():
        expected = strata[mask & ~contains].chi_meet_center
        if stratum.chi_meet_center != expected:
            raise PairValidationError("chi_meet_center differs off the center")
        if expected is None:
            continue
        for j in range(len(components)):
            bit = 1 << j
            if mask & bit and strata[mask ^ bit].chi_meet_center is None:
                raise PairValidationError("center misses a subset")
            if contains & bit and not mask & bit and mask | bit not in strata:
                raise PairValidationError("a superset inside C is empty")


def mutated_tables(rng, pair):
    """Four (table, center) pairs one change away from a valid
    centered pair: a cleared or changed chi_meet_center (on one stratum, or
    on every stratum with the same part off the center's components), a
    deleted stratum, a flipped bit of the center's containing mask, and an
    added stratum."""
    l = len(pair.components)
    contains = pair.center.contains
    masks = sorted(pair.strata)

    strata = dict(pair.strata)
    target = rng.choice(masks)
    value = rng.choice([None, rng.randint(-9, 9)])
    same_class = [m for m in masks if m & ~contains == target & ~contains]
    for mask in same_class if rng.random() < 0.5 else [target]:
        strata[mask] = Stratum(strata[mask].chi, value)
    yield strata, pair.center

    strata = dict(pair.strata)
    del strata[rng.choice(masks[1:] or masks)]
    yield strata, pair.center

    center = pair.center
    if l:
        center = center._replace(contains=contains ^ 1 << rng.randrange(l))
    yield pair.strata, center

    strata = dict(pair.strata)
    absent = [m for m in range(1 << l) if m not in strata]
    if absent:
        mask = rng.choice(absent)
        reduced = strata.get(mask & ~contains)
        meet = reduced.chi_meet_center if reduced and rng.random() < 0.8 else None
        strata[mask] = Stratum(rng.randint(-9, 9), meet)
    yield strata, pair.center


def test_center_rules_on_the_center_table_match_the_per_stratum_rules():
    rng = random.Random(1616)
    outcomes = {"accepted": 0, "rejected": 0, "misses": 0, "cannot be empty": 0}
    for _ in range(5000):
        pair = random_blowup_instance(rng)
        for strata, center in mutated_tables(rng, pair):
            try:
                SncPair(pair.d, pair.components, strata, center)
                accepted, message = True, ""
            except PairValidationError as exc:
                accepted, message = False, str(exc)
            try:
                per_stratum_center_rules(pair.d, pair.components, strata, center)
                assert accepted, (message, center, strata)
            except PairValidationError:
                assert not accepted, (center, strata)
            outcomes["accepted" if accepted else "rejected"] += 1
            for key in ("misses", "cannot be empty"):
                outcomes[key] += key in message
    assert outcomes["accepted"] + outcomes["rejected"] == 20000
    assert min(outcomes.values()) >= 100, outcomes


def walked_closed(masks, l):
    """The stratum-table closure walk of `validate`, as a verdict: every
    mask lies in range(2^l) and every mask minus one bit is a mask."""
    full = (1 << l) - 1
    for mask in masks:
        if mask & ~full:
            return False
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            if mask ^ low not in masks:
                return False
    return True


@st.composite
def mask_families(draw):
    """A mask family over l <= 14 components: all masks of at most k bits,
    the subsets of a few drawn masks (both downward closed, dense or not),
    or the drawn masks alone; then maybe one mask removed, or one added at
    2^l or above, or below 0."""
    l = draw(st.integers(0, 14))
    full = (1 << l) - 1
    kind = draw(st.sampled_from(["layers", "closure", "drawn"]))
    if kind == "layers":
        k = draw(st.integers(0, l))
        family = {m for m in range(1 << l) if m.bit_count() <= k}
    elif kind == "closure":
        # tops holding about three quarters of the bits: often dense
        tops = draw(st.lists(st.tuples(st.integers(0, full), st.integers(0, full))
                             .map(lambda pair: pair[0] | pair[1]), max_size=6))
        family = {sub for top in tops for sub in sncpair._submasks(top)}
    else:
        family = set(draw(st.lists(st.integers(0, full), max_size=6)))
    change = draw(st.sampled_from(["none", "remove", "above", "negative"]))
    if change == "remove" and family:
        family.discard(draw(st.sampled_from(sorted(family))))
    elif change == "above":
        family.add(draw(st.integers(1 << l, 1 << (l + 2))))
    elif change == "negative":
        family.add(draw(st.integers(-(1 << (l + 1)), -1)))
    return l, family


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(mask_families())
@example((14, set(range(1 << 14))))
@example((14, set(range(1 << 14)) - {0b11 << 12}))
def test_cube_closure_matches_the_walk(drawn):
    l, family = drawn
    assert sncpair._downward_closed(family, l) == walked_closed(family, l)
    assert sncpair._downward_closed(dict.fromkeys(family), l) == walked_closed(family, l)


def test_cube_closure_refuses_masks_that_are_not_ints():
    # validate's walk words what a key of another type does, or raises
    assert sncpair._downward_closed([0, 1, 2, 3], 2)
    for odd in (True, 3.0, "3"):
        assert not sncpair._downward_closed([0, 1, 2, odd], 2)


def first_fault(masks, label):
    """The message of the walk's first fault, in the table's order."""
    for mask in masks:
        for j in range(mask.bit_length()):
            if mask >> j & 1 and mask ^ 1 << j not in masks:
                return (f"stratum {label(mask)} is marked nonempty but its "
                        f"subset {label(mask ^ 1 << j)} is empty")
    return None


# (l, N): 63 and 64 strata over 6 components, and 2^l = 16 N against
# 2^l = 16 (N + 1), the nearest size past the bound 2^l <= 16 N (a power
# of two is never 16 N + 1).  The cube is consulted exactly at the dense
# sizes, and the verdict is the walk's either way.
@pytest.mark.parametrize("l, n, cube", [
    (6, 63, False), (6, 64, True), (10, 64, True), (10, 63, False),
    (11, 128, True), (11, 127, False)])
def test_validate_verdicts_agree_across_the_cube_thresholds(monkeypatch, l, n, cube):
    calls = []
    real = sncpair._downward_closed
    monkeypatch.setattr(sncpair, "_downward_closed",
                        lambda masks, l: calls.append(l) or real(masks, l))
    components = tuple(Component(f"D{j}", 1) for j in range(l))
    # the first N masks by size are downward closed, singletons included
    masks = sorted(range(1 << l), key=lambda m: (m.bit_count(), m))[:n]
    pair = SncPair(1, components, {m: Stratum(1) for m in masks})
    assert calls == ([l] if cube else [])
    # N strata again: a proper subset of the last mask is gone, and a mask
    # past the components is added after the strata that miss it
    doomed = masks[-1] & (masks[-1] - 1)
    assert doomed.bit_count() >= 2
    strata = {m: Stratum(1) for m in masks if m != doomed}
    strata[1 << l] = Stratum(1)
    with pytest.raises(PairValidationError) as err:
        SncPair(1, components, strata)
    assert str(err.value) == first_fault(strata, pair.subset_label)
    assert calls == ([l, l] if cube else [])


def _drop_center(document, kept):
    """The document with chi_meet_center cleared on every stratum whose
    part off H1, H2 is `kept`."""
    document = copy.deepcopy(document)
    for entry in document["strata"]:
        if [c for c in entry["subset"] if c not in ("H1", "H2")] == kept:
            entry["chi_meet_center"] = None
    return document


def _without(document, subset):
    document = copy.deepcopy(document)
    document["strata"] = [e for e in document["strata"] if e["subset"] != subset]
    return document


DENSE_MULTS = [1 + j % 5 for j in range(8)]
_, DENSE_CP = cp_pair(6, 6, 1, DENSE_MULTS[:6])               # 127 strata
DENSE_CENTERED = coordinate_table(8, DENSE_MULTS)             # 511 strata


@pytest.mark.parametrize("build, message", [
    (lambda: SncPair(DENSE_CP.d, DENSE_CP.components,
                     {m: s for m, s in DENSE_CP.strata.items() if m != 0b11}),
     "stratum {H1,H2,H3} is marked nonempty but its subset {H1,H2} is empty"),
    (lambda: SncPair(DENSE_CP.d, DENSE_CP.components,
                     {**DENSE_CP.strata, 1 << 7: Stratum(1)}),
     "stratum mask 128 references unknown components"),
    (lambda: pair_from_obj(_drop_center(DENSE_CENTERED, ["H3"])),
     "center meets stratum {H3,H4} but supposedly misses stratum {H3}, "
     "which contains it"),
    (lambda: pair_from_obj(_without(DENSE_CENTERED, [f"H{j}" for j in range(1, 9)])),
     "center meets stratum {H3,H4,H5,H6,H7,H8} and is contained in components "
     "{H1,H2}, so stratum {H1,H2,H3,H4,H5,H6,H7,H8} cannot be empty"),
], ids=["removed stratum", "mask out of range", "gap in the center table",
        "missing J union C"])
def test_dense_table_faults_keep_their_messages(build, message):
    # Dense enough for a presence cube: at least 64 strata, or centered
    # strata, and at least 1/16 of the 2^l subsets.
    assert len(DENSE_CP.strata) >= 64 and 1 << 7 <= 16 * len(DENSE_CP.strata)
    centered = pair_from_obj(DENSE_CENTERED)
    met = [m for m, s in centered.strata.items()
           if not m & 0b11 and s.chi_meet_center is not None]
    assert len(met) >= 64 and 1 << 9 <= 16 * len(met)
    with pytest.raises(PairValidationError) as err:
        build()
    assert str(err.value) == message


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


def _document_with(entry) -> dict:
    """Three components and five well-formed strata, then `entry` at strata[5]."""
    return {
        "d": 1,
        "components": [{"id": "A", "mult": 1}, {"id": "B", "mult": 2},
                       {"id": "C", "mult": 3}],
        "strata": [
            {"subset": [], "chi": 4, "nonempty": True, "chi_meet_center": None},
            {"subset": ["A"], "chi": 2},
            {"subset": ["B"], "chi": 2, "nonempty": True},
            {"subset": ["C"], "chi": 2, "chi_meet_center": None},
            {"subset": ["C", "A"], "chi": 1},
            entry,
            {"subset": ["B", "C"], "chi": 1},
        ],
    }


LONG_CHI = 10 ** inputs.MAX_INT_DIGITS

#: One faulty entry per named check of a stratum entry, with its message.
ENTRY_FAULTS = {
    "not an object": (["A", "B"], "strata[5]: expected an object"),
    "unknown field": ({"subset": ["A", "B"], "chi": 1, "weight": 1},
                      "strata[5]: unknown field(s) ['weight']"),
    "missing subset": ({"chi": 1}, "strata[5]: missing field(s) ['subset']"),
    "missing chi": ({"subset": ["A", "B"]}, "strata[5]: missing field(s) ['chi']"),
    "subset not a list": ({"subset": "AB", "chi": 1},
                          "strata[5].subset: expected a list of component ids"),
    "subset holds a number": ({"subset": ["A", 2], "chi": 1},
                              "strata[5].subset: expected a list of component ids"),
    "subset holds a list": ({"subset": ["A", ["B"]], "chi": 1},
                            "strata[5].subset: expected a list of component ids"),
    "unknown id": ({"subset": ["A", "Z"], "chi": 1},
                   "strata[5].subset: unknown component id 'Z'"),
    "repeated id": ({"subset": ["A", "A"], "chi": 1},
                    "strata[5].subset: repeated component id 'A'"),
    # A + A + C as bits is {B, C}, a subset not yet in the table
    "repeated id, bits carried": ({"subset": ["A", "A", "C"], "chi": 1},
                                  "strata[5].subset: repeated component id 'A'"),
    "duplicate subset": ({"subset": ["C"], "chi": 2},
                         "strata[5]: duplicate subset ['C']"),
    "duplicate subset reordered": ({"subset": ["A", "C"], "chi": 2},
                                   "strata[5]: duplicate subset ['A', 'C']"),
    "chi a bool": ({"subset": ["A", "B"], "chi": True},
                   "strata[5].chi: expected an integer, got True"),
    "chi a float": ({"subset": ["A", "B"], "chi": 1.0},
                    "strata[5].chi: expected an integer, got 1.0"),
    "chi too long": ({"subset": ["A", "B"], "chi": LONG_CHI},
                     "strata[5].chi: 41 digits exceed the limit of 40"),
    "chi too long, negative": ({"subset": ["A", "B"], "chi": -LONG_CHI},
                               "strata[5].chi: 41 digits exceed the limit of 40"),
    "nonempty a number": ({"subset": ["A", "B"], "chi": 1, "nonempty": 1},
                          "strata[5].nonempty: expected a boolean"),
    "nonempty null": ({"subset": ["A", "B"], "chi": 1, "nonempty": None},
                      "strata[5].nonempty: expected a boolean"),
    "empty with chi": ({"subset": ["A", "B"], "chi": 1, "nonempty": False},
                       "strata[5]: an empty stratum must have chi 0 and no "
                       "chi_meet_center; omit the entry instead"),
    "empty with a meet": ({"subset": ["A", "B"], "chi": 0, "nonempty": False,
                           "chi_meet_center": 0},
                          "strata[5]: an empty stratum must have chi 0 and no "
                          "chi_meet_center; omit the entry instead"),
    "meet a bool": ({"subset": ["A", "B"], "chi": 1, "chi_meet_center": False},
                    "strata[5].chi_meet_center: expected an integer, got False"),
    "meet a string": ({"subset": ["A", "B"], "chi": 1, "chi_meet_center": "1"},
                      "strata[5].chi_meet_center: expected an integer, got '1'"),
    "meet too long": ({"subset": ["A", "B"], "chi": 1, "chi_meet_center": LONG_CHI},
                      "strata[5].chi_meet_center: 41 digits exceed the limit of 40"),
}


@pytest.mark.parametrize("name", ENTRY_FAULTS)
def test_entry_fault_after_accepted_entries_keeps_its_message(name):
    entry, message = ENTRY_FAULTS[name]
    with pytest.raises(TableFormatError) as err:
        pair_from_obj(_document_with(entry))
    assert str(err.value) == message


def test_entries_at_the_digit_limit_are_accepted():
    edge = LONG_CHI - 1
    pair = pair_from_obj(_document_with(
        {"subset": ["B", "A"], "chi": -edge, "chi_meet_center": None}))
    assert pair.strata[0b011] == Stratum(-edge)
    assert pair.strata[0b110] == Stratum(1)


def test_nonempty_true_omitted_and_false_entries_parse_alike():
    rng = random.Random(17)
    marked_empty = 0
    for _ in range(300):
        pair = random_blowup_instance(rng)
        obj = sncpair.pair_to_obj(pair)
        for entry in obj["strata"]:
            if rng.random() < 0.5:
                del entry["nonempty"]
            if entry["chi_meet_center"] is None and rng.random() < 0.5:
                del entry["chi_meet_center"]
        ids = [c.id for c in pair.components]
        for mask in range(1 << len(ids)):
            if mask not in pair.strata and rng.random() < 0.5:
                empty = {"subset": [ids[j] for j in range(len(ids)) if mask >> j & 1],
                         "chi": 0, "nonempty": False}
                if rng.random() < 0.5:
                    empty["chi_meet_center"] = None
                obj["strata"].insert(rng.randrange(len(obj["strata"]) + 1), empty)
                marked_empty += 1
        assert pair_from_obj(obj) == pair
    assert marked_empty >= 1000


def test_json_validation_still_applies():
    with pytest.raises(PairValidationError):
        pair_from_json(
            '{"d": 1, "components": [{"id": "A", "mult": -1}], "strata": ['
            '{"subset": [], "chi": 3}, {"subset": ["A"], "chi": 2}]}')


LONGER = "9" * 5000


def test_decode_json_reads_long_literals_only_past_the_conversion_limit():
    # a document whose integers all convert is decoded as json.loads does
    assert inputs.decode_json('[1, ' + "9" * 41 + ']') == [1, 10 ** 41 - 1]
    # past the limit, every literal over MAX_INT_DIGITS digits is a record
    assert inputs.decode_json('[1, -' + "9" * 41 + ', ' + LONGER + ']') == [
        1, inputs.LongDecimal(41), inputs.LongDecimal(5000)]


@pytest.mark.parametrize("where", ["d", "strata[0].chi"])
def test_pair_from_json_refuses_integers_past_the_conversion_limit(where):
    table = json.loads(json.dumps(TRIANGLE_TABLE))
    if where == "d":
        table["d"] = "BIG"
    else:
        table["strata"][0]["chi"] = "BIG"
    with pytest.raises(TableFormatError) as err:
        pair_from_json(json.dumps(table).replace('"BIG"', LONGER))
    assert type(err.value) is TableFormatError
    assert str(err.value) == f"{where}: 5000 digits exceed the limit of 40"


#: In-process values past the conversion limit: where one is set, and the
#: message (or its start) that refuses it.
HUGE = 10 ** 5000
HUGE_VALUES = {
    "d": (lambda t: t.update(d=HUGE), "d: 5001 digits exceed the limit of 40"),
    "chi": (lambda t: t["strata"][0].update(chi=HUGE),
            "strata[0].chi: 5001 digits exceed the limit of 40"),
    "chi in a list": (lambda t: t["strata"][0].update(chi=[HUGE]),
                      "strata[0].chi: expected an integer, got"),
}


@pytest.mark.parametrize("name", HUGE_VALUES)
def test_pair_from_obj_refuses_ints_past_the_conversion_limit(name):
    table = json.loads(json.dumps(TRIANGLE_TABLE))
    place, message = HUGE_VALUES[name]
    place(table)
    with pytest.raises(TableFormatError) as err:
        pair_from_obj(table)
    assert str(err.value).startswith(message)


def test_pair_from_json_past_the_conversion_limit_keeps_syntax_errors():
    with pytest.raises(json.JSONDecodeError) as err:
        pair_from_json('{"d": ' + LONGER + ',\n "components": [}')
    assert (err.value.lineno, err.value.colno, err.value.msg) == (2, 17, "Expecting value")


#: Calls that a guard refuses: the exception class and its exact message.
GUARDS = {
    "weight with d = 0": (lambda: weight(0, [1], 1), PairValidationError,
                          "d must be a non-zero integer"),
    "cp_pair with r = 0": (lambda: cp_pair(0, 0, 1, []), PairValidationError,
                           "ambient dimension r must be >= 1, got 0"),
}


@pytest.mark.parametrize("name", GUARDS)
def test_guard_message(name):
    call, error, message = GUARDS[name]
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    assert str(err.value) == message
