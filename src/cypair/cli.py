"""Command-line front end.

Subcommands: `identities`, `chi-d cp|table`, `blowup-check`, `hrr cp`,
and `hodge bundle|blowup|correction|ledger`.  Every command produces a
report of named checks; `--json` emits it as a single deterministic JSON
document (rationals rendered as strings, checks sorted by name) and
`--out` redirects the report to a file.

Exit codes: 0 when every check passes, 1 when a mathematical check
fails, 2 for invalid input of any kind.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import chow, hodge, sncpair, symcalc

DEFAULT_SEED = 7

#: Largest accepted `hrr cp --n`.  Td and every ch Lambda^p are built in
#: the ring of P^n, in O(n^2) class products: `hrr cp --n 75 --p 37` with a
#: 39-digit `--twist` takes 2.1-2.9 s and n = 80 takes 2.7-3.7 s on a 2-CPU
#: Xeon VM; at 75 a machine 3x slower stays under 10 s.
MAX_HRR_N = 75

#: Largest accepted `chi-d cp --r`.  The model pair on projective r-space
#: with s = r hyperplanes has 2^(r+1) - 1 strata.  With `--d` and every
#: multiplicity at the `sncpair.MAX_INT_DIGITS` limit, `chi-d cp --r 18
#: --s 18` takes 3.1-3.4 s and r = 19 takes 6.1 s on a 2-CPU Xeon VM.
MAX_CP_R = 18

#: Largest accepted Hodge diamond dimension, for a loaded diamond (builtin
#: name or file) and for the result of `hodge bundle`.  On a 2-CPU Xeon VM,
#: `hodge ledger --diamond cp300` takes 0.5-1.0 s and cp400 1.1 s;
#: `hodge bundle --base point --fiber-dim 300` takes 0.2-0.3 s and `hodge
#: blowup --x cp300 --y point --codim 300` 0.2-0.4 s.
MAX_DIAMOND_DIM = 300

#: Largest accepted `--random COUNT`.  Check names carry the index in four
#: digits, so up to 10,000 of them still sort in numeric order in `--json`.
MAX_RANDOM = 10_000

#: Largest accepted stratum-table or diamond file, in bytes.  A table's cost
#: is linear in its size, about 0.25-0.33 s per MB: `blowup-check --file`
#: on a 13.4 MB table (r = 16, 131,071 strata) takes 3.3-4.4 s and 165 MiB
#: on a 2-CPU Xeon VM.
MAX_INPUT_BYTES = 16 * 1024 * 1024


class CliInputError(ValueError):
    pass


@dataclass
class Check:
    name: str
    status: str  # "pass" | "fail"
    expected: str
    actual: str


@dataclass
class Report:
    command: str
    checks: list[Check]
    notes: list[str]

    @property
    def overall(self) -> str:
        return "pass" if all(c.status == "pass" for c in self.checks) else "fail"


def _check(name: str, actual, expected=None) -> Check:
    """A named check; without an expectation it is informational and passes."""
    if expected is None:
        rendered = str(actual)
        return Check(name, "pass", rendered, rendered)
    ok = actual == expected
    return Check(name, "pass" if ok else "fail", str(expected), str(actual))


def _emit(report: Report, args) -> int:
    report.checks.sort(key=lambda c: c.name)
    if args.json:
        payload = {
            "command": report.command,
            "overall": report.overall,
            "checks": [
                {"name": c.name, "status": c.status,
                 "expected": c.expected, "actual": c.actual}
                for c in report.checks
            ],
        }
        text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    else:
        lines = list(report.notes)
        for c in report.checks:
            lines.append(
                f"[{c.status.upper()}] {c.name}: "
                f"expected {c.expected}, actual {c.actual}")
        lines.append(f"overall: {report.overall}")
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report.overall == "pass" else 1


def _parse_file(path: str, parse):
    """`parse` applied to the UTF-8 text of a file of at most MAX_INPUT_BYTES.

    Every failure, from reading, decoding or parsing, names the path.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read(MAX_INPUT_BYTES + 1)
    except OSError as exc:
        raise CliInputError(f"{path}: {exc.strerror or exc}")
    if len(data) > MAX_INPUT_BYTES:
        raise CliInputError(
            f"{path}: file is larger than the limit of {MAX_INPUT_BYTES} bytes")
    try:
        data = data.decode("utf-8")  # the bytes are freed before parsing
        return parse(data)
    except json.JSONDecodeError as exc:
        raise CliInputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    except ValueError as exc:  # also a UnicodeDecodeError
        raise CliInputError(f"{path}: {exc}")


def _check_diamond_dim(n: int, flag: str) -> None:
    if n > MAX_DIAMOND_DIM:
        raise CliInputError(
            f"{flag}: diamond dimension {n} exceeds the limit of {MAX_DIAMOND_DIM}")


def _load_diamond(source: str, flag: str) -> hodge.HodgeDiamond:
    """A builtin diamond name (point, cpN) or a JSON file path."""
    if source == "point":
        return hodge.HodgeDiamond.point()
    match = re.fullmatch(r"cp(\d+)", source)
    if match:
        n = int(match.group(1))
        _check_diamond_dim(n, flag)
        return hodge.HodgeDiamond.projective_space(n)
    diamond = _parse_file(source, hodge.diamond_from_json)
    _check_diamond_dim(diamond.n, flag)
    return diamond


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_identities(args) -> Report:
    if not 1 <= args.max_m <= symcalc.MAX_VERIFY_ROOTS:
        raise CliInputError(
            f"--max-m must lie in 1..{symcalc.MAX_VERIFY_ROOTS}, got {args.max_m}")

    checks = []
    for m in range(1, args.max_m + 1):
        for i, residual in enumerate(symcalc.verify_total_class_identities(m), 1):
            checks.append(_check(f"m{m}-todd-identity-{i}", repr(residual), "0"))
        for i, residual in enumerate(symcalc.verify_shifted_class_identities(m), 1):
            checks.append(_check(f"m{m}-todd-prime-identity-{i}", repr(residual), "0"))
    return Report("identities", checks, [])


def _random_generator(args) -> random.Random:
    """The generator seeded by `--seed`, once `--random COUNT` is in range."""
    if not 1 <= args.random <= MAX_RANDOM:
        raise CliInputError(
            f"--random must lie in 1..{MAX_RANDOM}, got {args.random}")
    return random.Random(args.seed)


def _parse_mults(raw: str | None) -> tuple[int, ...]:
    if not raw:
        return ()
    try:
        return tuple(int(chunk) for chunk in raw.split(","))
    except ValueError:
        raise CliInputError(f"--mults must be a comma-separated integer list, got {raw!r}")


def _check_digits(values, flag: str) -> None:
    for value in values:
        message = sncpair.digits_error(value, flag)
        if message is not None:
            raise CliInputError(message)


def cmd_chi_d_cp(args) -> Report:
    if args.r > MAX_CP_R:
        raise CliInputError(f"--r must be at most {MAX_CP_R}, got {args.r}")
    mults = _parse_mults(args.mults)
    _check_digits([args.d], "--d")
    _check_digits(mults, "--mults")
    model, pair = sncpair.cp_pair(args.r, args.s, args.d, mults)
    by_enumeration = sncpair.chi_d(pair)
    by_derivative = sncpair.chi_d_via_fprime(model)
    checks = [
        _check("chi-d-enumeration", by_enumeration),
        _check("fprime-at-1", by_derivative),
        _check("enumeration-matches-fprime", by_enumeration, by_derivative),
        _check("chi-d-vanishes", by_enumeration, Fraction(0)),
    ]
    notes = [f"model pair on projective {args.r}-space, "
             f"multiplicities {pair.mults}"]
    return Report("chi-d cp", checks, notes)


def cmd_chi_d_table(args) -> Report:
    pair = _parse_file(args.file, sncpair.pair_from_json)
    value = sncpair.chi_d(pair)
    return Report("chi-d table", [_check("chi-d", value)], [])


def cmd_blowup_check(args) -> Report:
    if (args.file is None) == (args.random is None):
        raise CliInputError("exactly one of --file or --random is required")
    if args.file is not None:
        pair = _parse_file(args.file, sncpair.pair_from_json)
        result = sncpair.check_blowup_invariance(pair)
        checks = [
            _check("exceptional-multiplicity", result.exceptional_multiplicity),
            _check("chi-d-before", result.before),
            _check("chi-d-after", result.after),
            _check("invariance", result.after, result.before),
            _check("center-coefficient", result.center_chi_d),
            _check("exceptional-coefficient", result.exceptional_chi_d),
        ]
        return Report("blowup-check", checks, [])

    rng = _random_generator(args)
    checks = []
    for i in range(args.random):
        pair = sncpair.random_blowup_instance(rng)
        result = sncpair.check_blowup_invariance(pair)
        checks.append(
            _check(f"instance-{i:04d}", result.after, result.before))
    notes = [f"{args.random} synthetic stratum tables, seed {args.seed}"]
    return Report("blowup-check", checks, notes)


def cmd_hrr_cp(args) -> Report:
    if not 0 <= args.n <= MAX_HRR_N:
        raise CliInputError(f"--n must lie in 0..{MAX_HRR_N}, got {args.n}")
    if not 0 <= args.p <= args.n:
        raise CliInputError(f"--p must lie in 0..{args.n}")
    _check_digits([args.twist], "--twist")
    value = chow.chi_twisted_hodge(args.n, args.p, args.twist)
    checks = []
    if 1 <= args.twist <= args.p:
        checks.append(_check("twisted-forms-vanish", value, Fraction(0)))
    elif args.twist == 0:
        checks.append(_check("untwisted-forms-sign", value, Fraction((-1) ** args.p)))
    else:
        checks.append(_check("chi", value))
    notes = [f"chi of projective {args.n}-space with values in "
             f"Omega^{args.p} twisted by O({args.twist}): {value}"]
    return Report("hrr cp", checks, notes)


def cmd_hodge_bundle(args) -> Report:
    base = _load_diamond(args.base, "--base")
    if args.fiber_dim < 0:
        raise CliInputError("--fiber-dim must be non-negative")
    _check_diamond_dim(base.n + args.fiber_dim, "--fiber-dim")
    total = hodge.projective_bundle_diamond(base, args.fiber_dim)
    checks = [
        _check("betti-vector", ",".join(map(str, total.betti_vector()))),
        _check("euler", total.euler(), (args.fiber_dim + 1) * base.euler()),
    ]
    return Report("hodge bundle", checks, [total.pretty()])


def cmd_hodge_blowup(args) -> Report:
    _check_digits([args.codim], "--codim")
    ambient = _load_diamond(args.x, "--x")
    center = _load_diamond(args.y, "--y")
    blown = hodge.blowup_diamond(ambient, center, args.codim)
    expected_euler = ambient.euler() + (args.codim - 1) * center.euler()
    checks = [
        _check("betti-vector", ",".join(map(str, blown.betti_vector()))),
        _check("euler", blown.euler(), expected_euler),
    ]
    return Report("hodge blowup", checks, [blown.pretty()])


def cmd_hodge_correction(args) -> Report:
    diamond = _load_diamond(args.diamond, "--diamond")
    coefficient = hodge.correction_term(diamond)
    checks = [
        _check("correction-coefficient", coefficient),
        _check("correction-units", "(log 2pi)/2"),
    ]
    notes = [f"correction term: {coefficient} * (log 2pi)/2"]
    return Report("hodge correction", checks, notes)


def cmd_hodge_ledger(args) -> Report:
    if (args.diamond is None) == (args.random is None):
        raise CliInputError("exactly one of --diamond or --random is required")
    checks = []
    if args.diamond is not None:
        diamond = _load_diamond(args.diamond, "--diamond")
        checks.append(
            _check("ledger-identities", hodge.lambda_exponent_check(diamond), True))
    else:
        rng = _random_generator(args)
        for i in range(args.random):
            diamond = hodge.random_symmetric_diamond(rng)
            checks.append(
                _check(f"diamond-{i:04d}", hodge.lambda_exponent_check(diamond), True))
    return Report("hodge ledger", checks, [])


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true",
                        help="emit the report as a single JSON document")
    parser.add_argument("--out", metavar="PATH",
                        help="write the report to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cypair",
        description="Exact checks for simple normal crossing pair combinatorics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("identities",
                       help="verify the Todd / exterior-character identities")
    p.add_argument("--max-m", type=int, default=6,
                   help="verify for every root count up to this bound "
                        f"(at most {symcalc.MAX_VERIFY_ROOTS})")
    _add_output_flags(p)
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser("chi-d", help="weighted Euler characteristics")
    chi_sub = p.add_subparsers(dest="mode", required=True)
    pc = chi_sub.add_parser("cp", help="model pair on projective r-space")
    pc.add_argument("--r", type=int, required=True,
                    help=f"ambient dimension (at most {MAX_CP_R})")
    pc.add_argument("--s", type=int, required=True,
                    help="number of coordinate hyperplanes")
    pc.add_argument("--d", type=int, required=True,
                    help="pluricanonical degree (at most "
                         f"{sncpair.MAX_INT_DIGITS} digits)")
    pc.add_argument("--mults", default="",
                    help="comma-separated positive multiplicities, one per "
                         f"hyperplane (at most {sncpair.MAX_INT_DIGITS} digits each)")
    _add_output_flags(pc)
    pc.set_defaults(func=cmd_chi_d_cp)
    pt = chi_sub.add_parser("table", help="stratum table from a JSON file")
    pt.add_argument("--file", required=True, help="stratum-table document")
    _add_output_flags(pt)
    pt.set_defaults(func=cmd_chi_d_table)

    p = sub.add_parser("blowup-check",
                       help="check blow-up invariance of chi_d")
    p.add_argument("--file", help="stratum table with center metadata")
    p.add_argument("--random", type=int, metavar="COUNT",
                   help="run COUNT random synthetic tables instead "
                        f"(at most {MAX_RANDOM})")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"seed for --random (default {DEFAULT_SEED})")
    _add_output_flags(p)
    p.set_defaults(func=cmd_blowup_check)

    p = sub.add_parser("hrr", help="Riemann-Roch Euler characteristics")
    hrr_sub = p.add_subparsers(dest="mode", required=True)
    ph = hrr_sub.add_parser("cp", help="twisted Hodge sheaves on projective space")
    ph.add_argument("--n", type=int, required=True,
                    help=f"ambient dimension (at most {MAX_HRR_N})")
    ph.add_argument("--p", type=int, required=True, help="form degree")
    ph.add_argument("--twist", type=int, default=0, help="line-bundle twist")
    _add_output_flags(ph)
    ph.set_defaults(func=cmd_hrr_cp)

    p = sub.add_parser("hodge", help="Hodge diamond bookkeeping")
    hodge_sub = p.add_subparsers(dest="mode", required=True)
    pb = hodge_sub.add_parser("bundle", help="projective bundle diamond")
    pb.add_argument("--base", required=True,
                    help="builtin name (point, cpN) or diamond JSON file")
    pb.add_argument("--fiber-dim", type=int, required=True,
                    help="fiber dimension (base plus fiber at most "
                         f"{MAX_DIAMOND_DIM})")
    _add_output_flags(pb)
    pb.set_defaults(func=cmd_hodge_bundle)
    pl = hodge_sub.add_parser("blowup", help="blow-up diamond")
    pl.add_argument("--x", required=True, help="ambient diamond (name or file)")
    pl.add_argument("--y", required=True, help="center diamond (name or file)")
    pl.add_argument("--codim", type=int, required=True,
                    help="codimension of the center (at most "
                         f"{sncpair.MAX_INT_DIGITS} digits)")
    _add_output_flags(pl)
    pl.set_defaults(func=cmd_hodge_blowup)
    pco = hodge_sub.add_parser("correction", help="normalization correction term")
    pco.add_argument("--diamond", required=True, help="diamond (name or file)")
    _add_output_flags(pco)
    pco.set_defaults(func=cmd_hodge_correction)
    ple = hodge_sub.add_parser("ledger", help="determinant-line exponent identities")
    ple.add_argument("--diamond", help="diamond (name or file)")
    ple.add_argument("--random", type=int, metavar="COUNT",
                     help="check COUNT random symmetric diamonds instead "
                          f"(at most {MAX_RANDOM}); the identities depend on "
                          "the dimension alone, so every seed gives the same "
                          "report")
    ple.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_output_flags(ple)
    ple.set_defaults(func=cmd_hodge_ledger)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _emit(report, args)


if __name__ == "__main__":
    sys.exit(main())
