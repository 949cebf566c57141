import hashlib
import random

import pytest

from cypair.hodge import (
    DiamondError,
    ExponentLedger,
    HodgeDiamond,
    blowup_diamond,
    correction_term,
    diamond_from_json,
    diamond_to_json,
    lambda_exponent_check,
    ledger_eta,
    ledger_lambda,
    ledger_lambda_dr,
    ledger_lambda_p,
    projective_bundle_diamond,
    random_symmetric_diamond,
)

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
