"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All comparisons are exact (tolerance zero) because every computation is
exact rational arithmetic.  Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines.
"""

import itertools
import json
import random
import string
import time
from fractions import Fraction
from math import comb

from cypair import chow, hodge, sncpair, symcalc
from cypair.cli import main as cli_main

from tables import TRIANGLE_TABLE


def report(number: int, ok: bool, description: str) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_identity_suite():
    started = time.monotonic()
    failures = []
    for m in range(1, 7):
        for i, residual in enumerate(symcalc.verify_total_class_identities(m), 1):
            if not residual.is_zero():
                failures.append((m, "total", i))
        for i, residual in enumerate(symcalc.verify_shifted_class_identities(m), 1):
            if not residual.is_zero():
                failures.append((m, "shifted", i))
    elapsed = time.monotonic() - started
    ok = not failures and elapsed < 30.0
    report(1, ok, "all five identity residuals exactly zero for m = 1..6 "
                  f"in {elapsed:.2f}s (< 30s)")


def test_criterion_2_todd_expansions():
    ok = True
    for m in range(2, 7):
        pad = (0,) * (m - 2)
        expected = symcalc.ChernSeries(m, 2, {
            (0, 0) + pad: Fraction(1),
            (1, 0) + pad: Fraction(1, 2),
            (2, 0) + pad: Fraction(1, 12),
            (0, 1) + pad: Fraction(1, 12),
        })
        ok = ok and symcalc.todd(m, 2) == expected
    for m in range(1, 7):
        ratio = symcalc.todd_prime_roots(m, 2) * symcalc.todd_roots(m, 2).inverse()
        low = symcalc.symmetrize_to_chern(ratio.degree_part(range(0, 2)))
        e1 = tuple(1 if i == 0 else 0 for i in range(m))
        expected = symcalc.ChernSeries(
            m, 2, {(0,) * m: Fraction(m, 2), e1: Fraction(-1, 12)})
        ok = ok and low == expected
    report(2, ok, "Todd through degree 2 is 1 + c1/2 + (c1^2+c2)/12 for "
                  "m = 2..6 and {Td'/Td}^[<=1] = m/2 - c1/12 for m = 1..6")


def test_criterion_3_model_pair_vanishing():
    started = time.monotonic()
    rng = random.Random(1729)
    ok = True
    for _ in range(200):
        r = rng.randint(1, 8)
        s = rng.randint(1, r)
        d = rng.randint(1, 5)
        mults = tuple(rng.randint(1, 9) for _ in range(s))
        model, pair = sncpair.cp_pair(r, s, d, mults)
        by_enumeration = sncpair.chi_d(pair)
        by_derivative = sncpair.chi_d_via_fprime(model)
        ok = ok and by_enumeration == by_derivative == 0
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 10.0
    report(3, ok, "chi_d of 200 seeded model pairs vanishes by enumeration "
                  f"and by f'(1), agreeing exactly, in {elapsed:.2f}s (< 10s)")


def test_criterion_4_blowup_invariance():
    started = time.monotonic()
    triangle = sncpair.pair_from_obj(TRIANGLE_TABLE)
    result = sncpair.check_blowup_invariance(triangle)
    ok = (result.before == result.after == 0
          and result.exceptional_multiplicity == 3
          and result.center_chi_d == result.exceptional_chi_d == 1)
    rng = random.Random(4242)
    for _ in range(100):
        pair = sncpair.random_blowup_instance(rng, max_components=8)
        check = sncpair.check_blowup_invariance(pair)
        ok = ok and check.equal
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 10.0
    report(4, ok, "chi_d blow-up invariance on the worked plane example and "
                  f"100 seeded synthetic tables in {elapsed:.2f}s (< 10s)")


def test_criterion_5_riemann_roch_suite():
    ok = True
    for n in range(0, 7):
        model = chow.projective_space(n)
        for k in range(0, 7):
            if n == 0:
                sheaf = model.one()
            else:
                sheaf = chow.ch_line(model, model.gen_class(0) * k)
            by_counting = len(list(
                itertools.combinations_with_replacement(range(n + 1), k)))
            value = chow.hrr_chi(model, sheaf)
            ok = ok and value == by_counting == comb(n + k, n)
        ok = ok and chow.hrr_chi(model, model.one()) == 1
    for n in range(1, 7):
        for p in range(0, n + 1):
            ok = ok and chow.chi_twisted_hodge(n, p, 0) == (-1) ** p
            for s in range(1, p + 1):
                ok = ok and chow.chi_twisted_hodge(n, p, s) == 0
    report(5, ok, "chi(O(k)) matches monomial counting for n,k <= 6; "
                  "chi(O) = 1; chi of p-forms is (-1)^p; twisted p-forms "
                  "vanish for 1 <= s <= p <= n <= 6")


def test_criterion_6_characteristic_numbers():
    ok = True
    for n in range(0, 7):
        ok = ok and chow.euler_characteristic(chow.projective_space(n)) == n + 1
    p3 = chow.projective_space(3)
    tangent = p3.tangent_chern
    ok = ok and chow.integrate(tangent.component(1) * tangent.component(2)) == 24
    ok = ok and chow.adiabatic_coefficient(p3) == 36
    rng = random.Random(2718)
    factories = [chow.point] + [lambda n=n: chow.projective_space(n) for n in range(1, 4)]
    for _ in range(20):
        a, b = rng.choice(factories)(), rng.choice(factories)()
        ok = ok and chow.euler_characteristic(chow.product(a, b)) == (
            chow.euler_characteristic(a) * chow.euler_characteristic(b))
    report(6, ok, "top Chern numbers n+1 for n <= 6, c1c2 = 24 and adiabatic "
                  "coefficient 36 on projective 3-space, 20 random product "
                  "multiplicativity checks")


def test_criterion_7_hodge_suite():
    plane = hodge.blowup_diamond(
        hodge.HodgeDiamond.projective_space(2), hodge.HodgeDiamond.point(), 2)
    space = hodge.blowup_diamond(
        hodge.HodgeDiamond.projective_space(3), hodge.HodgeDiamond.point(), 3)
    ok = plane.betti_vector() == (1, 0, 2, 0, 1)
    ok = ok and space.betti_vector() == (1, 0, 2, 0, 2, 0, 1)
    # Euler numbers from diamonds agree with the ring models and with the
    # stratified blow-up bookkeeping on shared examples.
    for n in range(0, 7):
        ok = ok and hodge.HodgeDiamond.projective_space(n).euler() == (
            chow.euler_characteristic(chow.projective_space(n)))
    triangle = sncpair.pair_from_obj(TRIANGLE_TABLE)
    blown = sncpair.blowup_transform(triangle)
    ok = ok and plane.euler() == blown.strata[0].chi == 4
    ok = ok and hodge.correction_term(hodge.HodgeDiamond.projective_space(1)) == -2
    rng = random.Random(58)
    for _ in range(50):
        ok = ok and hodge.lambda_exponent_check(hodge.random_symmetric_diamond(rng))
    report(7, ok, "blow-up/bundle diamonds give b = (1,0,2,0,1) and "
                  "(1,0,2,0,2,0,1), Euler numbers agree across modules, "
                  "correction term of the line is -2, ledger identities hold "
                  "on 50 random diamonds")


def _fuzz_documents(count: int, seed: int):
    rng = random.Random(seed)
    alphabet = string.printable

    def random_json(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice([
                None, True, False, rng.randint(-99, 99), rng.random(),
                "".join(rng.choice("abcXYZ") for _ in range(3)),
            ])
        if rng.random() < 0.5:
            return [random_json(depth - 1) for _ in range(rng.randrange(0, 4))]
        return {
            "".join(rng.choice("dhinchesma")): random_json(depth - 1)
            for _ in range(rng.randrange(0, 4))
        }

    def mutate(node):
        if isinstance(node, dict):
            if node and rng.random() < 0.35:
                key = rng.choice(sorted(node))
                if rng.random() < 0.5:
                    del node[key]
                else:
                    node[key] = random_json(1)
            for value in node.values():
                mutate(value)
        elif isinstance(node, list):
            for value in node:
                mutate(value)

    for _ in range(count):
        kind = rng.randrange(3)
        if kind == 0:
            yield "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 120)))
        elif kind == 1:
            yield json.dumps(random_json(3))
        else:
            table = json.loads(json.dumps(TRIANGLE_TABLE))
            mutate(table)
            yield json.dumps(table)


def test_criterion_8_robustness(tmp_path, capsys):
    def run(args):
        try:
            code = cli_main(args)
        except SystemExit as exc:
            code = exc.code
        capsys.readouterr()
        return code

    ok = True
    path = tmp_path / "table.json"

    # Targeted malformed inputs must exit 2 with actionable messages.
    gap = json.loads(json.dumps(TRIANGLE_TABLE))
    gap["strata"] = [s for s in gap["strata"] if s["subset"] != ["H1"]]
    path.write_text(json.dumps(gap))
    ok = ok and run(["chi-d", "table", "--file", str(path)]) == 2

    forbidden = json.loads(json.dumps(TRIANGLE_TABLE))
    forbidden["components"][2]["mult"] = -1
    path.write_text(json.dumps(forbidden))
    ok = ok and run(["chi-d", "table", "--file", str(path)]) == 2

    negative_center = json.loads(json.dumps(TRIANGLE_TABLE))
    negative_center["components"][0]["mult"] = -2
    path.write_text(json.dumps(negative_center))
    ok = ok and run(["blowup-check", "--file", str(path)]) == 2

    # 1000 seeded fuzz cases: never crash, always a contract exit code.
    cases = 0
    for doc in _fuzz_documents(500, seed=90210):
        path.write_text(doc)
        for args in (["chi-d", "table", "--file", str(path)],
                     ["blowup-check", "--file", str(path)]):
            code = run(args)
            cases += 1
            ok = ok and code in (0, 1, 2)
    ok = ok and cases == 1000
    report(8, ok, "malformed tables exit 2 with actionable messages; "
                  "1000 fuzzed inputs handled without a crash")
