"""The four benchmark workloads: seeded inputs, the timed calls, and oracles.

Each workload has three phases, so that only the program's own work is
timed:

* ``prepare(seed, size, workdir)`` builds the inputs from the seed alone;
* ``execute(inputs)`` makes the calls into cypair and returns raw outputs;
* ``verify(inputs, outputs, gate)`` compares the outputs with an oracle
  that shares no code with what it checks, recording each comparison.

CLI calls go through ``cypair.cli.main`` with ``--json``; a call fails when it
raises, exits non-zero or reports ``"overall"`` other than ``"pass"``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, prod
from pathlib import Path

from cypair import chow, cli, sncpair

#: Sizes of the measured runs.  Each repetition is 0.5-1.5 s of work on a
#: 2-CPU machine, so that a run's medians rest on 15-25 repetitions.  The
#: cost of blowup-batch's random tables varies with the seed; 1400 of them
#: keep that within a few percent.
FULL = {
    "genera": {"max_m": 6},
    "riemann-roch": {"copies": 1},
    "strata-wide": {"table_r": 10, "cp_r": 12},
    "blowup-batch": {"count": 1400},
}

#: Sizes for the benchmark's own smoke tests.
TINY = {
    "genera": {"max_m": 3},
    "riemann-roch": {"copies": 1, "max_dim": 3},
    "strata-wide": {"table_r": 6, "cp_r": 6},
    "blowup-batch": {"count": 20},
}


@dataclass
class Gate:
    """Counts checks attempted and failed, keeping a line per failure."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok


@dataclass
class CliRun:
    argv: list[str]
    code: int | None
    stdout: str
    error: str | None = None


def run_cli(argv: list[str]) -> CliRun:
    """Call ``cypair.cli.main`` in-process, capturing what it writes."""
    buffer = io.StringIO()
    try:
        with contextlib.redirect_stdout(buffer):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:  # a raising call is a failed check
        return CliRun(argv, None, buffer.getvalue(), repr(exc))
    return CliRun(argv, code, buffer.getvalue())


def check_cli(run: CliRun, gate: Gate) -> dict | None:
    """Gate a CLI call on exit code and ``overall``; return its JSON report."""
    label = " ".join(run.argv[:2])
    if not gate.check(f"{label}: exit code", run.code == 0,
                      run.error or f"exit {run.code}"):
        return None
    try:
        report = json.loads(run.stdout)
    except json.JSONDecodeError as exc:
        gate.check(f"{label}: report parses", False, str(exc))
        return None
    gate.check(f"{label}: overall", report.get("overall") == "pass",
               f"overall {report.get('overall')!r}")
    return report


def check_values(label: str, report: dict | None, expected: dict[str, str],
                 gate: Gate) -> None:
    """Compare each named check's ``actual`` with the oracle's value."""
    actual = {} if report is None else {
        c.get("name"): c.get("actual") for c in report.get("checks", [])}
    for name, value in expected.items():
        got = actual.get(name)
        gate.check(f"{label}: {name}", got == value,
                   f"expected {value}, got {got}")


def report_bytes(outputs) -> int:
    """Bytes of report text the CLI calls of a workload wrote."""
    runs = [o for o in outputs if isinstance(o, CliRun)]
    return sum(len(r.stdout.encode()) for r in runs)


# ---------------------------------------------------------------------------
# genera: the identity suite through the CLI
# ---------------------------------------------------------------------------


def genera_prepare(seed: int, size: dict, workdir: Path) -> dict:
    # The identity suite has no free input; the seed is unused.
    return {"max_m": size["max_m"]}


def genera_execute(inputs: dict) -> list[CliRun]:
    return [run_cli(["identities", "--max-m", str(inputs["max_m"]), "--json"])]


def genera_verify(inputs: dict, outputs: list[CliRun], gate: Gate) -> None:
    report = check_cli(outputs[0], gate)
    names = [f"m{m}-todd-identity-{i}" for m in range(1, inputs["max_m"] + 1)
             for i in (1, 2, 3)]
    names += [f"m{m}-todd-prime-identity-{i}"
              for m in range(1, inputs["max_m"] + 1) for i in (1, 2)]
    got = [] if report is None else sorted(
        str(c.get("name")) for c in report.get("checks", []))
    gate.check("identities: check names", got == sorted(names),
               f"{len(got)} checks, expected {len(names)}")
    # Every identity is a theorem: each residual is exactly zero.
    check_values("identities", report, {n: "0" for n in names}, gate)


# ---------------------------------------------------------------------------
# riemann-roch: Euler characteristics on seeded ring models
# ---------------------------------------------------------------------------

#: Model shapes of dimension 3..5: the projective-space factors of the base
#: product, then the fiber ranks of iterated projective bundles over it.
#: Cost grows with the ring basis (up to 2^5 monomials): the five-dimensional
#: shapes take about three quarters of the time.  The seed picks only the
#: twisting classes and the divisor.
SHAPES = [
    ((1, 1, 1), ()), ((1, 2), ()), ((1, 1), (1,)), ((1,), (2,)),
    ((1, 1, 1, 1), ()), ((2, 2), ()), ((1, 1, 2), ()), ((1, 1), (2,)),
    ((1, 2), (1,)), ((1,), (1, 2)),
    ((1, 1, 1, 1, 1), ()), ((1,), (1, 1, 1, 1)), ((1, 1, 1, 2), ()),
    ((1, 1, 2), (1,)), ((2, 2), (1,)),
]


def _model_dim(shape) -> int:
    factors, ranks = shape
    return sum(factors) + sum(ranks)


def rr_prepare(seed: int, size: dict, workdir: Path) -> list[dict]:
    rng = random.Random(seed)
    max_dim = size.get("max_dim", 5)
    specs = []
    for _ in range(size["copies"]):
        for factors, ranks in SHAPES:
            if _model_dim((factors, ranks)) > max_dim:
                continue
            gens = len(factors)
            bundles = []
            for rank in ranks:
                # c(N) = prod (1 + L_i), L_i a seeded integral degree-1 class
                # on the current model (whose generators grow by one each step)
                linear = [[rng.randint(-2, 2) for _ in range(gens)]
                          for _ in range(rank)]
                bundles.append((rank, linear))
                gens += 1
            divisor = [rng.randint(1, 2) for _ in factors]
            specs.append({"factors": list(factors), "bundles": bundles,
                          "divisor": divisor})
    return specs


def build_model(spec: dict) -> chow.RingModel:
    model = None
    for n in spec["factors"]:
        factor = chow.projective_space(n)
        model = factor if model is None else chow.product(model, factor)
    for rank, linear in spec["bundles"]:
        chern = model.one()
        for coeffs in linear:
            line = model.zero()
            for i, a in enumerate(coeffs):
                line = line + model.gen_class(i) * a
            chern = chern * (model.one() + line)
        model = chow.projective_bundle(model, chern, rank)
    return model


def rr_execute(specs: list[dict]) -> list[dict]:
    results = []
    for spec in specs:
        try:
            model = build_model(spec)
            divisor = model.zero()
            for i, a in enumerate(spec["divisor"]):
                divisor = divisor + model.gen_class(i) * a
            results.append({
                "dim": model.dim,
                "euler": chow.euler_characteristic(model),
                "adiabatic": chow.adiabatic_coefficient(model),
                "chi_o": chow.hrr_chi(model, model.one()),
                "chi_omega": [
                    chow.hrr_chi(model, chow.ch_cotangent_exterior(model, p))
                    for p in range(model.dim + 1)],
                "chi_kd": [
                    chow.hrr_chi(model, chow.ch_line(model, divisor * k))
                    for k in (1, 2)],
            })
        except Exception as exc:  # a raising check counts as failed
            results.append({"error": repr(exc)})
    return results


def rr_expected(spec: dict) -> dict:
    """Oracle values from the model's construction alone.

    Every model is a tower of projective bundles over a product of projective
    spaces, so its cohomology is spanned by (p, p) classes with Poincare
    polynomial prod (1 + t + ... + t^n) (Kunneth, Leray-Hirsch).  Then:

    * chi(O) = 1 and chi(Omega^p) = (-1)^p b_2p (Hodge theory);
    * the Euler number is the Betti sum, multiplicative over products and
      (rank + 1) times the base's for a bundle;
    * int c_1 c_{n-1} follows from the Libgober-Wood identity
      sum_p (-1)^p p (p - 1) chi(Omega^p) = int c_1 c_{n-1} / 6 + n (3n - 5) e / 12;
    * the divisor is pulled back from the base product, and a bundle
      projection has R pi_* O = O, so chi(O(kD)) = prod_i C(n_i + k a_i, n_i).
    """
    poly = [1]
    for n in spec["factors"] + [rank for rank, _ in spec["bundles"]]:
        poly = [sum(poly[i - j] for j in range(n + 1) if 0 <= i - j < len(poly))
                for i in range(len(poly) + n)]
    dim = len(poly) - 1
    euler = sum(poly)
    c1_top = 6 * (sum(p * (p - 1) * b for p, b in enumerate(poly))
                  - Fraction(dim * (3 * dim - 5) * euler, 12))
    return {
        "dim": dim,
        "euler": euler,
        "adiabatic": dim * euler + c1_top,
        "chi_o": 1,
        "chi_omega": [(-1) ** p * b for p, b in enumerate(poly)],
        "chi_kd": [prod(comb(n + k * a, n)
                        for n, a in zip(spec["factors"], spec["divisor"]))
                   for k in (1, 2)],
    }


def rr_verify(specs: list[dict], results: list[dict], gate: Gate) -> None:
    gate.check("riemann-roch: model count", len(results) == len(specs),
               f"{len(results)} results for {len(specs)} models")
    for i, (spec, got) in enumerate(zip(specs, results)):
        if not gate.check(f"model {i}: runs", "error" not in got,
                          got.get("error", "")):
            continue
        want = rr_expected(spec)
        for key, value in want.items():
            gate.check(f"model {i}: {key}", got[key] == value,
                       f"expected {value}, got {got[key]}")
        # Sum over p of (-1)^p chi(Omega^p) is the top Chern number.
        alternating = sum((-1) ** p * v for p, v in enumerate(got["chi_omega"]))
        gate.check(f"model {i}: sum (-1)^p chi(Omega^p) = e",
                   alternating == got["euler"],
                   f"{alternating} != {got['euler']}")


# ---------------------------------------------------------------------------
# strata-wide: two large coordinate-hyperplane tables through the CLI
# ---------------------------------------------------------------------------

CENTER_CODIM = 2  # the center is H1 cap H2, a coordinate P^(r-2)


def _weights(d: int, mults) -> list[Fraction]:
    return [Fraction(-m, m + d) for m in mults]


def _elementary(values) -> list[Fraction]:
    """e_0..e_n of the values, by the product recurrence."""
    e = [Fraction(1)]
    for v in values:
        e = [a + v * b for a, b in zip(e + [0], [0] + e)]
    return e


def hyperplane_chi_d(weights, r: int) -> Fraction:
    """chi_d of general hyperplanes with these weights on P^r.

    Any k of them meet in a P^(r-k), Euler number r + 1 - k, so the subset
    sum collapses to sum_k e_k(w) (r + 1 - k) over k <= r.
    """
    e = _elementary(weights)
    return sum((e[k] * (r + 1 - k) for k in range(min(r, len(e) - 1) + 1)),
               Fraction(0))


def balancing_mult(r: int, d: int, mults) -> int:
    """m_inf that makes the divisor on P^r pluricanonical of degree d."""
    return -sum(mults) - r * d - d


def table_document(r: int, d: int, mults) -> dict:
    """The coordinate-hyperplane pair on P^r, with center H1 cap H2.

    Built from geometry, not from cypair: D_J is a P^(r - |J|), and the
    center meets it in a P^(r - 2 - |J minus C|), or misses it when that
    dimension is negative.
    """
    ids = [f"H{j + 1}" for j in range(len(mults))] + ["Hinf"]
    all_mults = list(mults) + [balancing_mult(r, d, mults)]
    strata = []
    for size in range(r + 1):
        for chosen in itertools.combinations(range(len(ids)), size):
            outside = sum(1 for j in chosen if j >= CENTER_CODIM)
            meet = r - CENTER_CODIM - outside + 1
            strata.append({"subset": [ids[j] for j in chosen],
                           "chi": r + 1 - size,
                           "chi_meet_center": meet if meet >= 1 else None})
    return {
        "d": d,
        "components": [{"id": i, "mult": m, "contains_center": j < CENTER_CODIM}
                       for j, (i, m) in enumerate(zip(ids, all_mults))],
        "center": {"codim": CENTER_CODIM},
        "strata": strata,
    }


def _seeded_mults(rng: random.Random, n: int, fixed: int = 0) -> list[int]:
    """A fixed multiset of n multiplicities 1..5; the seed orders all but
    the first ``fixed``."""
    mults = [1 + j % 5 for j in range(n)]
    rest = mults[fixed:]
    return mults[:fixed] + rng.sample(rest, len(rest))


def strata_prepare(seed: int, size: dict, workdir: Path) -> dict:
    # The seed orders the multiplicities, so each seed gives another table,
    # with every coefficient moved to another stratum.  The components that
    # contain the center keep theirs (1 and 2), so the exceptional divisor's
    # multiplicity and the multiset of coefficients, and with them the cost,
    # are the same for every seed.
    rng = random.Random(seed)
    r, rc = size["table_r"], size["cp_r"]
    table = {"r": r, "d": 1, "mults": _seeded_mults(rng, r, CENTER_CODIM)}
    cp = {"r": rc, "d": 1, "mults": _seeded_mults(rng, rc)}
    path = workdir / "strata-wide-table.json"
    path.write_text(json.dumps(table_document(r, table["d"], table["mults"])),
                    encoding="utf-8")
    return {"path": str(path), "table": table, "cp": cp}


def strata_execute(inputs: dict) -> list[CliRun]:
    path, cp = inputs["path"], inputs["cp"]
    return [
        run_cli(["chi-d", "table", "--file", path, "--json"]),
        run_cli(["blowup-check", "--file", path, "--json"]),
        run_cli(["chi-d", "cp", "--r", str(cp["r"]), "--s", str(cp["r"]),
                 "--d", str(cp["d"]),
                 "--mults", ",".join(map(str, cp["mults"])), "--json"]),
    ]


def strata_expected(inputs: dict) -> dict[str, dict[str, str]]:
    t, cp = inputs["table"], inputs["cp"]
    r, d, mults = t["r"], t["d"], t["mults"]
    w = _weights(d, mults + [balancing_mult(r, d, mults)])
    chi_d = str(hyperplane_chi_d(w, r))
    # Induced pair on the center P^(r-2): the other r - 1 hyperplanes.
    center = hyperplane_chi_d(w[CENTER_CODIM:], r - CENTER_CODIM)
    # On E, a P^1-bundle over the center, a stratum through at most one of
    # H1, H2 has fiber dimension 2 - |A|: the sum factors.
    exceptional = center * (2 + w[0] + w[1])
    cw = _weights(cp["d"], cp["mults"] + [
        balancing_mult(cp["r"], cp["d"], cp["mults"])])
    # f(t) = prod (t + w_j), so f'(1) = sum_j prod_{i != j} (1 + w_i).
    fprime = sum((prod((1 + v for i, v in enumerate(cw) if i != j), start=Fraction(1))
                  for j in range(len(cw))), Fraction(0))
    return {
        "chi-d table": {"chi-d": chi_d},
        "blowup-check": {
            "exceptional-multiplicity": str(mults[0] + mults[1]
                                            + (CENTER_CODIM - 1) * d),
            "chi-d-before": chi_d,
            "chi-d-after": chi_d,
            "center-coefficient": str(center),
            "exceptional-coefficient": str(exceptional),
        },
        "chi-d cp": {"chi-d-enumeration": str(hyperplane_chi_d(cw, cp["r"])),
                     "fprime-at-1": str(fprime)},
    }


def strata_verify(inputs: dict, outputs: list[CliRun], gate: Gate) -> None:
    expected = strata_expected(inputs)  # keyed in the order of the calls
    for label, run in zip(expected, outputs):
        check_values(label, check_cli(run, gate), expected[label], gate)
    # The balanced pairs have chi_d = 0 (and so f'(1) = 0); a nonzero
    # oracle value means the generator, not the program, is wrong.
    for label, name in [("chi-d table", "chi-d"), ("chi-d cp", "fprime-at-1")]:
        gate.check(f"{label}: oracle vanishes", expected[label][name] == "0",
                   expected[label][name])


# ---------------------------------------------------------------------------
# blowup-batch: thousands of small random tables, and Hodge ledgers
# ---------------------------------------------------------------------------


def batch_prepare(seed: int, size: dict, workdir: Path) -> dict:
    return {"seed": seed, "count": size["count"]}


def batch_execute(inputs: dict) -> list[CliRun]:
    count, seed = str(inputs["count"]), str(inputs["seed"])
    return [
        run_cli(["blowup-check", "--random", count, "--seed", seed, "--json"]),
        run_cli(["hodge", "ledger", "--random", count, "--seed", seed, "--json"]),
    ]


def subset_chi_d(pair: sncpair.SncPair) -> Fraction:
    """chi_d by direct subset enumeration, independent of sncpair.chi_d."""
    w = _weights(pair.d, [c.mult for c in pair.components])
    total = Fraction(0)
    for mask, stratum in pair.strata.items():
        term = Fraction(stratum.chi)
        for j, v in enumerate(w):
            if mask >> j & 1:
                term *= v
        total += term
    return total


def batch_verify(inputs: dict, outputs: list[CliRun], gate: Gate) -> None:
    count = inputs["count"]
    # The same instances the CLI drew; chi_d is recomputed here, and the
    # blow-up must leave it unchanged (the invariance theorem).
    rng = random.Random(inputs["seed"])
    expected = {}
    for i in range(count):
        value = str(subset_chi_d(sncpair.random_blowup_instance(rng)))
        expected[f"instance-{i:04d}"] = (value, value)
    report = check_cli(outputs[0], gate)
    got = {} if report is None else {
        c.get("name"): (c.get("expected"), c.get("actual"))
        for c in report.get("checks", [])}
    gate.check("blowup-check: instance count", len(got) == count,
               f"{len(got)} checks, expected {count}")
    for name, value in expected.items():
        gate.check(f"blowup-check: {name}", got.get(name) == value,
                   f"expected {value}, got {got.get(name)}")
    # The determinant-line identities hold for every diamond.
    report = check_cli(outputs[1], gate)
    check_values("hodge ledger", report,
                 {f"diamond-{i:04d}": "True" for i in range(count)}, gate)
    gate.check("hodge ledger: diamond count",
               report is not None and len(report.get("checks", [])) == count,
               "wrong number of checks")


@dataclass(frozen=True)
class Workload:
    prepare: object
    execute: object
    verify: object


def check(workload: Workload, inputs, outputs) -> Gate:
    """Run the workload's oracle; an oracle that raises is a failed check."""
    gate = Gate()
    try:
        workload.verify(inputs, outputs, gate)
    except Exception as exc:  # e.g. a report of another shape
        gate.check("verify", False, repr(exc))
    return gate


WORKLOADS = {
    "genera": Workload(genera_prepare, genera_execute, genera_verify),
    "riemann-roch": Workload(rr_prepare, rr_execute, rr_verify),
    "strata-wide": Workload(strata_prepare, strata_execute, strata_verify),
    "blowup-batch": Workload(batch_prepare, batch_execute, batch_verify),
}
