import enum
import hashlib
import random

import pytest

from cypair import hodge
from cypair.hodge import (
    DiamondError,
    ExponentLedger,
    HodgeDiamond,
    blowup_diamond,
    correction_term,
    diamond_from_json,
    diamond_from_obj,
    diamond_to_json,
    lambda_exponent_check,
    ledger_eta,
    ledger_lambda,
    ledger_lambda_dr,
    ledger_lambda_p,
    projective_bundle_diamond,
    random_symmetric_diamond,
)
from cypair.inputs import MAX_DIAMOND_DIM

ELLIPTIC = HodgeDiamond(1, ((1, 1), (1, 1)))
QUINTIC = HodgeDiamond(3, (
    (1, 0, 0, 1),
    (0, 1, 101, 0),
    (0, 101, 1, 0),
    (1, 0, 0, 1),
))


# ---------------------------------------------------------------------------
# diamonds and Betti numbers
# ---------------------------------------------------------------------------


def test_projective_plane_betti():
    assert HodgeDiamond.projective_space(2).betti_vector() == (1, 0, 1, 0, 1)


def test_point_betti():
    assert HodgeDiamond.point().betti(0) == 1
    assert HodgeDiamond.point().betti(1) == 0


def test_elliptic_curve_betti():
    assert ELLIPTIC.betti(1) == 2
    assert ELLIPTIC.betti_vector() == (1, 2, 1)
    assert ELLIPTIC.euler() == 0


def test_betti_out_of_range_is_zero():
    assert QUINTIC.betti(-1) == 0
    assert QUINTIC.betti(7) == 0


def test_symmetry_validation():
    with pytest.raises(DiamondError):
        HodgeDiamond(1, ((1, 2), (1, 1)))
    with pytest.raises(DiamondError):
        HodgeDiamond(2, (
            (1, 0, 0),
            (0, 2, 0),
            (0, 0, 3),
        ))
    with pytest.raises(DiamondError):
        HodgeDiamond(1, ((0, 1), (1, 0)))  # nonempty but h^{0,0} = 0


@pytest.mark.parametrize("value", [1.5, "1", True], ids=["float", "str", "bool"])
def test_non_integer_entries_are_refused(value):
    with pytest.raises(DiamondError) as info:
        HodgeDiamond(1, [[1, value], [value, 1]])
    assert str(info.value) == f"h[0][1]: expected an integer, got {value!r}"


@pytest.mark.parametrize("n", [True, "1", 1.0])
def test_non_integer_dimension_is_refused(n):
    with pytest.raises(DiamondError) as info:
        HodgeDiamond(n, [[1, 0], [0, 1]])
    assert str(info.value) == f"n: expected an integer, got {n!r}"


#: Calls that a guard refuses, each with its exact DiamondError message.
GUARDS = {
    "negative dimension": (lambda: HodgeDiamond(-1, []),
                           "n: expected a non-negative integer, got -1"),
    "negative fiber dimension": (
        lambda: projective_bundle_diamond(HodgeDiamond.point(), -1),
        "fiber dimension must be non-negative"),
}


@pytest.mark.parametrize("name", GUARDS)
def test_guard_message(name):
    call, message = GUARDS[name]
    with pytest.raises(DiamondError) as info:
        call()
    assert type(info.value) is DiamondError
    assert str(info.value) == message


#: Tables that break a table rule, as (n, rows), with the message that
#: `HodgeDiamond` and the document reader both give.
TABLE_FAULTS = {
    "negative n": (-1, [], "n: expected a non-negative integer, got -1"),
    "non-integer entry": (1, [[1, 1.5], [1.5, 1]], "h[0][1]: expected an integer, got 1.5"),
    "negative entry": (1, [[1, -1], [-1, 1]],
                       "h[0][1]: expected a non-negative integer, got -1"),
    "short row": (1, [[1, 0], [0]], "h: expected a 2 x 2 table"),
    "wrong row count": (1, [[1, 0]], "h: expected a 2 x 2 table"),
    "conjugation": (1, [[1, 2], [1, 1]],
                    "conjugation symmetry fails: h^{0,1} = 2 but h^{1,0} = 1"),
    "Serre": (2, [[1, 0, 0], [0, 2, 0], [0, 0, 3]],
              "Serre duality fails: h^{0,0} = 1 but h^{2,2} = 3"),
    "h^{0,0}": (1, [[0, 1], [1, 0]], "a nonempty manifold needs h^{0,0} >= 1"),
}


def test_constructor_and_reader_word_every_table_fault_alike():
    refusals = {}
    for name, (n, rows, message) in TABLE_FAULTS.items():
        with pytest.raises(DiamondError) as built:
            HodgeDiamond(n, rows)
        with pytest.raises(DiamondError) as read:
            diamond_from_obj({"n": n, "h": rows})
        refusals[name] = (str(built.value), str(read.value))
    assert refusals == {name: (message, message)
                        for name, (_, _, message) in TABLE_FAULTS.items()}


@pytest.mark.parametrize("n, rows, message", [
    (-10 ** 5000, [], "n: expected a non-negative integer, got <int too long to show>"),
    (1, [[1, -10 ** 5000], [-10 ** 5000, 1]],
     "h[0][1]: expected a non-negative integer, got <int too long to show>"),
    (1, [[1, 10 ** 5000], [0, 1]],
     "conjugation symmetry fails: h^{0,1} = <int too long to show> but h^{1,0} = 0"),
], ids=["n", "entry", "conjugation"])
def test_constructor_shows_ints_past_the_conversion_limit(n, rows, message):
    with pytest.raises(DiamondError) as info:
        HodgeDiamond(n, rows)
    assert str(info.value) == message


def ordered_fault(n, rows):
    """The constructor's message for a table with a valid n, restated: the
    entries, then the shape, then both symmetries cell by cell, then
    h^{0,0}; None for a diamond."""
    for p, row in enumerate(rows):
        for q, v in enumerate(row):
            if isinstance(v, bool) or not isinstance(v, int):
                return f"h[{p}][{q}]: expected an integer, got {v!r}"
            if v < 0:
                return f"h[{p}][{q}]: expected a non-negative integer, got {v!r}"
    if len(rows) != n + 1 or any(len(row) != n + 1 for row in rows):
        return f"h: expected a {n + 1} x {n + 1} table"
    for p in range(n + 1):
        for q in range(n + 1):
            a, b, c = rows[p][q], rows[q][p], rows[n - p][n - q]
            if a != b:
                return (f"conjugation symmetry fails: h^{{{p},{q}}} = {a!r} "
                        f"but h^{{{q},{p}}} = {b!r}")
            if a != c:
                return (f"Serre duality fails: h^{{{p},{q}}} = {a!r} "
                        f"but h^{{{n - p},{n - q}}} = {c!r}")
    if rows[0][0] < 1 and any(any(row) for row in rows):
        return "a nonempty manifold needs h^{0,0} >= 1"
    return None


class Level(enum.IntEnum):
    ZERO = 0
    ONE = 1
    NINE = 9


def _perturbed(rng, kind, rows):
    """`rows` changed by one perturbation of the given kind at a cell drawn
    from `rng`: an entry replaced by the kind itself, a ragged row, a row
    too many or too few, a symmetry broken, or IntEnum entries."""
    n = len(rows) - 1
    p, q = rng.randrange(n + 1), rng.randrange(n + 1)
    if kind in (True, False, 1.0, "1", -1, -7):
        rows[p][q] = kind
    elif kind == "ragged":
        if rng.random() < 0.5:
            rows[p].append(0)
        else:
            rows[p].pop()
    elif kind == "rows":
        if rng.random() < 0.5:
            rows.append([0] * (n + 1))
        else:
            rows.pop()
    elif kind == "conjugation":  # Serre duality still holds
        rows[p][q] = rows[n - p][n - q] = rows[p][q] + 1
    elif kind == "Serre":  # conjugation still holds
        rows[p][q] = rows[q][p] = rows[p][q] + 1
    elif kind == "IntEnum":  # no fault: the same values as an int subclass
        rows = [[Level(v) if v in (0, 1, 9) else v for v in row] for row in rows]
    return rows


@pytest.mark.parametrize("kind", [True, False, 1.0, "1", -1, -7, "ragged", "rows",
                                  "conjugation", "Serre", "IntEnum"])
def test_accept_test_words_no_fault_itself(kind):
    rng = random.Random(7)
    outcomes = set()
    for _ in range(300):
        diamond = random_symmetric_diamond(rng)
        rows = _perturbed(rng, kind, [list(row) for row in diamond.rows])
        expected = ordered_fault(diamond.n, rows)
        try:
            built = HodgeDiamond(diamond.n, rows)
        except DiamondError as error:
            assert str(error) == expected, rows
            outcomes.add("refused")
        else:
            assert expected is None, rows
            assert built.rows == tuple(map(tuple, rows))
            outcomes.add("built")
    if kind == "IntEnum":
        assert outcomes == {"built"}
    else:
        assert "refused" in outcomes


def test_only_a_table_that_fails_the_accept_test_meets_the_ordered_checks(monkeypatch):
    checked = []
    check_table = hodge._check_table
    monkeypatch.setattr(hodge, "_check_table",
                        lambda n, table: checked.append(n) or check_table(n, table))
    rng = random.Random(3)
    for _ in range(200):
        random_symmetric_diamond(rng, max_n=8)
    assert checked == []
    # an int subclass passes the ordered checks, not the accept test
    rows = ((Level.ONE, Level.ZERO), (Level.ZERO, Level.ONE))
    built = HodgeDiamond(1, rows)
    assert checked == [1]
    assert built == HodgeDiamond(1, ((1, 0), (0, 1)))
    assert built.rows == rows


def test_orbits_partition_the_cells_closed_under_both_symmetries():
    for n in range(41):
        orbits = hodge._orbits(n)
        cells = [cell for orbit in orbits for cell in orbit]
        assert sorted(cells) == [(p, q) for p in range(n + 1) for q in range(n + 1)], n
        for orbit in orbits:
            p, q = orbit[0]
            assert set(orbit) == {(p, q), (q, p), (n - p, n - q), (n - q, n - p)}, n
            assert (p, q) == min(orbit), n
        # in the row-major order of their first cells
        firsts = [orbit[0] for orbit in orbits]
        assert firsts == sorted(firsts), n


# sha256 of the diamond_to_json texts of 10 draws at each max_n 0..12, in
# that order, from one Random(1): the orbits of every dimension are pinned.
RANDOM_DIAMOND_DIMENSIONS_DIGEST = (
    "1d35b6c8b73aa9fc0bc8e887753e207a073a3be5cfc1b83d2f506279e73ef22c")


def test_random_diamonds_of_every_dimension_match_recorded_digest():
    rng = random.Random(1)
    digest = hashlib.sha256()
    for max_n in range(13):
        for _ in range(10):
            digest.update(diamond_to_json(random_symmetric_diamond(rng, max_n)).encode())
    assert digest.hexdigest() == RANDOM_DIAMOND_DIMENSIONS_DIGEST


@pytest.mark.parametrize("max_n, message", [
    (-1, "max_n: expected a non-negative integer, got -1"),
    (MAX_DIAMOND_DIM + 1, "max_n: diamond dimension 301 exceeds the limit of 300"),
    (10 ** 6, "max_n: diamond dimension 1000000 exceeds the limit of 300"),
])
def test_random_diamond_refuses_max_n_before_drawing(max_n, message):
    rng = random.Random(1)
    state = rng.getstate()
    with pytest.raises(ValueError) as info:
        random_symmetric_diamond(rng, max_n)
    assert type(info.value) is ValueError
    assert str(info.value) == message
    assert rng.getstate() == state


class _Unread(list):
    """A table that fails the test if the reader walks it."""

    def __iter__(self):
        raise AssertionError("h was read")


def test_reader_bounds_the_dimension_before_it_reads_the_table(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("reached the constructor")

    monkeypatch.setattr(HodgeDiamond, "__init__", refuse)
    identity = [[int(p == q) for q in range(301)] for p in range(301)]
    with pytest.raises(AssertionError, match="reached the constructor"):
        diamond_from_obj({"n": 300, "h": identity})
    with pytest.raises(DiamondError) as info:
        diamond_from_obj({"n": 301, "h": _Unread(identity)})
    assert str(info.value) == "n: diamond dimension 301 exceeds the limit of 300"


def test_equal_diamonds_hash_alike():
    built = HodgeDiamond(2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert built == HodgeDiamond.projective_space(2)
    assert hash(built) == hash(HodgeDiamond.projective_space(2))
    assert len({built, HodgeDiamond.projective_space(2), ELLIPTIC}) == 2


def test_reprs_are_pinned():
    assert repr(HodgeDiamond.projective_space(2)) == "HodgeDiamond(n=2, b=(1, 0, 1, 0, 1))"
    assert repr(ExponentLedger({(1, 0): -1, (0, 1): 2, (1, 1): 0})) == (
        "ExponentLedger(det(H^{0,1})^2, det(H^{1,0})^-1)")
    assert repr(ExponentLedger()) == "ExponentLedger()"


# ---------------------------------------------------------------------------
# bundle and blow-up formulas
# ---------------------------------------------------------------------------


def test_bundle_over_point_gives_projective_space():
    for r in range(5):
        assert projective_bundle_diamond(HodgeDiamond.point(), r) == (
            HodgeDiamond.projective_space(r))


def test_hirzebruch_surface():
    surface = projective_bundle_diamond(HodgeDiamond.projective_space(1), 1)
    assert surface.hodge(1, 1) == 2
    assert surface.betti_vector() == (1, 0, 2, 0, 1)


def test_bundle_euler_multiplicative():
    rng = random.Random(14)
    for _ in range(25):
        base = random_symmetric_diamond(rng)
        fiber_dim = rng.randint(0, 3)
        total = projective_bundle_diamond(base, fiber_dim)
        assert total.euler() == (fiber_dim + 1) * base.euler()


def test_blowup_plane_at_point():
    blown = blowup_diamond(HodgeDiamond.projective_space(2), HodgeDiamond.point(), 2)
    assert blown.betti_vector() == (1, 0, 2, 0, 1)
    assert blown.euler() == 4
    assert blown.hodge(1, 1) == 2


def test_blowup_space_at_point():
    blown = blowup_diamond(HodgeDiamond.projective_space(3), HodgeDiamond.point(), 3)
    assert blown.betti_vector() == (1, 0, 2, 0, 2, 0, 1)
    assert blown.euler() == 6


def test_blowup_point_in_surface_only_touches_h11():
    rng = random.Random(21)
    for _ in range(40):
        x = random_symmetric_diamond(rng, max_n=2)
        if x.n != 2 or x.is_empty():
            continue
        blown = blowup_diamond(x, HodgeDiamond.point(), 2)
        for p in range(x.n + 1):
            for q in range(x.n + 1):
                expected = x.hodge(p, q) + (1 if p == q == 1 else 0)
                assert blown.hodge(p, q) == expected


def test_blowup_empty_center_is_identity():
    x = HodgeDiamond.projective_space(2)
    assert blowup_diamond(x, HodgeDiamond.empty(0), 2) == x


def test_blowup_dimension_mismatch():
    with pytest.raises(DiamondError):
        blowup_diamond(HodgeDiamond.projective_space(2), HodgeDiamond.point(), 3)
    with pytest.raises(DiamondError):
        blowup_diamond(HodgeDiamond.projective_space(2), HodgeDiamond.point(), 1)


def test_outputs_always_satisfy_symmetries():
    rng = random.Random(33)
    for _ in range(30):
        base = random_symmetric_diamond(rng, max_n=3)
        projective_bundle_diamond(base, rng.randint(0, 2))  # validates on build
        r = rng.randint(2, 3)
        ambient = projective_bundle_diamond(base, r)
        blowup_diamond(ambient, base, r)  # validates on build


def _gather(n, shifted):
    """The table of h^{p,q} = sum over (diamond, k) in shifted of h^{p-k,q-k}."""
    return HodgeDiamond(n, [
        [sum(d.hodge(p - k, q - k) for d, k in shifted) for q in range(n + 1)]
        for p in range(n + 1)
    ])


def test_constructions_match_gather_formulas():
    point = HodgeDiamond.point()
    for n in range(6):
        assert HodgeDiamond.projective_space(n) == _gather(
            n, [(point, k) for k in range(n + 1)])
    rng = random.Random(1414)
    for _ in range(60):
        base = random_symmetric_diamond(rng, max_n=4)
        for fiber_dim in range(4):
            assert projective_bundle_diamond(base, fiber_dim) == _gather(
                base.n + fiber_dim, [(base, k) for k in range(fiber_dim + 1)])
        center = rng.choice([base, HodgeDiamond.empty(base.n)])
        for r in range(2, 5):
            x = projective_bundle_diamond(base, r)
            assert blowup_diamond(x, center, r) == _gather(
                x.n, [(x, 0)] + [(center, k) for k in range(1, r)])


# ---------------------------------------------------------------------------
# correction term
# ---------------------------------------------------------------------------


def test_correction_term_examples():
    assert correction_term(HodgeDiamond.point()) == 0
    assert correction_term(HodgeDiamond.projective_space(1)) == -2
    # computed once by the explicit sum below and frozen
    assert correction_term(QUINTIC) == -20


def test_correction_term_direct_sum_oracle():
    for diamond in (HodgeDiamond.projective_space(3), QUINTIC, ELLIPTIC):
        n = diamond.n
        total = 0
        for k in range(0, 2 * n + 1):
            total += (-1) ** k * k * (n - k) * diamond.betti(k)
        assert correction_term(diamond) == total


def test_correction_term_serre_relabeling_identity():
    # sum (-1)^k k(n-k) b_k = sum (-1)^k (2n-k)(k-n) b_k whenever b_k = b_{2n-k}
    rng = random.Random(40)
    for _ in range(30):
        d = random_symmetric_diamond(rng)
        n = d.n
        relabeled = sum(
            (-1) ** k * (2 * n - k) * (k - n) * d.betti(k)
            for k in range(2 * n + 1))
        assert correction_term(d) == relabeled


# ---------------------------------------------------------------------------
# exponent ledgers
# ---------------------------------------------------------------------------


def test_eta_ledger_entries():
    eta = ledger_eta(2)
    assert eta.exponents[(0, 0)] == 1
    assert eta.exponents[(1, 0)] == -1
    assert eta.exponents[(1, 1)] == 1


def test_lambda_dr_spreads_de_rham_exponents():
    lam_dr = ledger_lambda_dr(2)
    # degree k = 2 pieces all carry (-1)^2 * 2
    assert lam_dr.exponents[(0, 2)] == lam_dr.exponents[(1, 1)] == 2
    assert lam_dr.exponents[(1, 0)] == -1
    assert (0, 0) not in lam_dr.exponents


def test_lambda_exponent_check_always_true():
    rng = random.Random(55)
    for _ in range(50):
        assert lambda_exponent_check(random_symmetric_diamond(rng))


def _identities_hold(n):
    # The three identities of lambda_exponent_check, restated over plain
    # dicts of nonzero exponents and recomputed on every call.
    def ledger(entries):
        return {key: v for key, v in entries if v != 0}

    cells = [(p, q) for p in range(n + 1) for q in range(n + 1)]
    lam = ledger(((p, q), (-1) ** (p + q) * p) for p, q in cells)
    lam_conj = ledger(((p, q), (-1) ** (p + q) * q) for p, q in cells)
    lam_dr = ledger(((p, q), (-1) ** (p + q) * (p + q)) for p, q in cells)
    eta = ledger(((p, q), (-1) ** (p + q)) for p, q in cells)
    lam_plus_conj = ledger(
        (key, lam.get(key, 0) + lam_conj.get(key, 0)) for key in cells)
    # row p of the Dolbeault complex carries (-1)^q at (p, q)
    lam_rows = ledger(((p, q), (-1) ** p * p * (-1) ** q) for p, q in cells)
    eta_rows = ledger(((p, q), (-1) ** p * (-1) ** q) for p, q in cells)
    return lam_dr == lam_plus_conj and lam == lam_rows and eta == eta_rows


def test_lambda_exponent_check_matches_unmemoized_restatement():
    for n in range(41):
        assert lambda_exponent_check(HodgeDiamond.projective_space(n)) \
            == _identities_hold(n)


def test_lambda_exponent_check_ignores_hodge_numbers():
    k3_like = HodgeDiamond(2, ((1, 0, 1), (0, 20, 0), (1, 0, 1)))
    for first, second in [(HodgeDiamond.projective_space(2), k3_like),
                          (QUINTIC, HodgeDiamond.empty(3))]:
        assert first.n == second.n and first != second
        assert lambda_exponent_check(first) is True
        assert lambda_exponent_check(second) is True


# sha256 of the diamond_to_json texts of the first 50 draws from
# Random(seed); `hodge ledger --random` draws them in this order.
RANDOM_DIAMOND_DIGESTS = {
    1: "d41f7876d2b526589a446f0bba54d2ff3d5ef77793a18422713acb1e25d640a0",
    2: "255dd750b91610b048befbfb1adfab3874ad2e1019bb0ed4bb067ef6c43b2932",
    3: "2b424c087d37d104ff88d954435f38db01d19e92364392672a55449feb15d0bf",
}


@pytest.mark.parametrize("seed", sorted(RANDOM_DIAMOND_DIGESTS))
def test_random_diamonds_match_recorded_digests(seed):
    rng = random.Random(seed)
    digest = hashlib.sha256()
    for _ in range(50):
        digest.update(diamond_to_json(random_symmetric_diamond(rng)).encode())
    assert digest.hexdigest() == RANDOM_DIAMOND_DIGESTS[seed]


def test_pointwise_exponent_identity():
    # at (p, q): (-1)^{p+q} p + (-1)^{p+q} q = (-1)^{p+q} (p + q)
    for n in range(5):
        lam = ledger_lambda(n)
        total = lam + lam.conjugate()
        for p in range(n + 1):
            for q in range(n + 1):
                assert total.exponents.get((p, q), 0) == (-1) ** (p + q) * (p + q)


def test_lambda_p_assembly():
    for n in range(5):
        assembled = ExponentLedger()
        for p in range(n + 1):
            assembled = assembled + ledger_lambda_p(n, p) * ((-1) ** p)
        assert assembled == ledger_eta(n)


def test_dual_ledger_regression():
    # The dual of lambda_dR is the Serre transport of lambda_dR minus 2n
    # copies of eta; frozen as a ledger-algebra regression.
    for n in range(1, 5):
        lam_dr = ledger_lambda_dr(n)
        assert -lam_dr == lam_dr.serre_transport(n) - 2 * n * ledger_eta(n)


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------


def test_diamond_json_roundtrip():
    for d in (HodgeDiamond.projective_space(3), QUINTIC, ELLIPTIC):
        assert diamond_from_json(diamond_to_json(d)) == d


def test_diamond_json_errors():
    with pytest.raises(DiamondError):
        diamond_from_json('{"n": 1}')
    with pytest.raises(DiamondError):
        diamond_from_json('{"n": 1, "h": [[1, 1], [1, 1]], "extra": 0}')
    with pytest.raises(DiamondError):
        diamond_from_json('{"n": 1, "h": [[1, 2], [1, 1]]}')
    with pytest.raises(DiamondError):
        diamond_from_json('{"n": 1, "h": [[1, 1.5], [1, 1]]}')


LONGER = "9" * 5000


#: Diamond documents with a long integer ("BIG" stands for 5,000 digits,
#: past Python's 4,300-digit conversion limit) and the message.
LONG_INTEGER_DOCUMENTS = {
    "h[0][1]": ('{"n": 1, "h": [[1, BIG], [0, 1]]}',
                "h[0][1]: 5000 digits exceed the limit of 40"),
    "n": ('{"n": BIG, "h": [[1]]}', "n: 5000 digits exceed the limit of 40"),
    "n below the conversion limit": ('{"n": ' + "9" * 4000 + ', "h": [[1]]}',
                                     "n: 4000 digits exceed the limit of 40"),
}


@pytest.mark.parametrize("name", LONG_INTEGER_DOCUMENTS)
def test_diamond_json_refuses_long_integers(name):
    text, message = LONG_INTEGER_DOCUMENTS[name]
    with pytest.raises(DiamondError) as info:
        diamond_from_json(text.replace("BIG", LONGER))
    assert str(info.value) == message


@pytest.mark.parametrize("obj, where", [
    ({"n": 10 ** 5000, "h": [[1]]}, "n"),
    ({"n": 0, "h": [[10 ** 5000]]}, "h[0][0]"),
], ids=["n", "h"])
def test_diamond_from_obj_refuses_ints_past_the_conversion_limit(obj, where):
    with pytest.raises(DiamondError) as info:
        diamond_from_obj(obj)
    assert str(info.value) == f"{where}: 5001 digits exceed the limit of 40"
