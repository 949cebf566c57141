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
from fractions import Fraction
from typing import NamedTuple

from . import chow, hodge, sncpair, symcalc
from .inputs import (MAX_DIAMOND_DIM, MAX_INT_DIGITS, LongDecimal, bounded_dim,
                     bounded_int, decimal, shown)

DEFAULT_SEED = 7

#: Largest accepted `hrr cp --n`.  Td and every ch Lambda^p are built in
#: the ring of P^n, in O(n^2) class products: `hrr cp --n 75 --p 37` with a
#: 39-digit `--twist` takes 2.1-2.9 s and n = 80 takes 2.7-3.7 s on a 2-CPU
#: Xeon VM; at 75 a machine 3x slower stays under 10 s.
MAX_HRR_N = 75

#: Largest accepted `chi-d cp --r`.  The model pair on projective r-space
#: with s = r hyperplanes has 2^(r+1) - 1 strata.  With `--d` and every
#: multiplicity at the `inputs.MAX_INT_DIGITS` limit, `chi-d cp --r 18
#: --s 18` takes 0.4-0.6 s and 57 MiB peak RSS in a child process, and
#: r = 19 takes 0.7-1.0 s and 98 MiB, on a 2-CPU Xeon VM.
MAX_CP_R = 18

#: Largest accepted `--random COUNT`.  Check names carry the index in four
#: digits, so up to 10,000 of them still sort in numeric order in `--json`.
#: On a 2-CPU Xeon VM, `blowup-check --random 10000` takes 1.5-1.9 s and
#: `hodge ledger --random 10000` 0.24-0.34 s, in child processes.
MAX_RANDOM = 10_000

#: Largest accepted stratum-table or diamond file, in bytes.  A table's cost
#: is linear in its size, about 0.07-0.12 s per MB: `blowup-check --file`
#: on a 13.4 MB table (r = 16, 131,071 strata) takes 0.9-1.6 s and 156 MiB
#: in a child process on a 2-CPU Xeon VM.
MAX_INPUT_BYTES = 16 * 1024 * 1024


class CliInputError(ValueError):
    pass


class Check(NamedTuple):
    name: str
    status: str  # "pass" | "fail"
    expected: str
    actual: str


class Report(NamedTuple):
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
            "checks": [c._asdict() for c in report.checks],
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
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            # an unwritable PATH is bad input (2), not a failed check (1)
            print(f"error: {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
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
    except CliInputError:
        raise
    # ValueError is also a UnicodeDecodeError; RecursionError is JSON
    # nested deeper than the decoder's stack
    except (ValueError, RecursionError) as exc:
        raise CliInputError(f"{path}: {exc}")


def _load_diamond(source: str, flag: str) -> hodge.HodgeDiamond:
    """A builtin diamond name (point, cpN) or a JSON file path."""
    if source == "point":
        return hodge.HodgeDiamond.point()
    match = re.fullmatch(r"cp(\d+)", source)
    if match:
        n = bounded_int(decimal(match.group(1)), flag, CliInputError)
        return hodge.HodgeDiamond.projective_space(bounded_dim(n, flag, CliInputError))
    return _parse_file(source, hodge.diamond_from_json)


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


def _integer(text: str):
    """`inputs.decimal` as an argparse type, which keeps its message."""
    try:
        return decimal(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parse_mults(raw: str | None) -> tuple[int, ...]:
    if not raw:
        return ()
    try:
        mults = [decimal(chunk) for chunk in raw.split(",")]
    except ValueError:
        raise CliInputError("--mults must be a comma-separated integer list, "
                            f"got {shown(raw)}")
    return tuple(bounded_int(m, "--mults", CliInputError) for m in mults)


def cmd_chi_d_cp(args) -> Report:
    if args.r > MAX_CP_R:
        raise CliInputError(f"--r must be at most {MAX_CP_R}, got {args.r}")
    mults = _parse_mults(args.mults)
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

    # Each instance reports chi_d before and after alone, so the induced
    # pairs on the center and on E, which the full check adds, are not built.
    rng = _random_generator(args)
    checks = []
    for i in range(args.random):
        pair = sncpair.random_blowup_instance(rng)
        blown = sncpair.blowup_transform(pair)
        checks.append(
            _check(f"instance-{i:04d}", sncpair.chi_d(blown), sncpair.chi_d(pair)))
    notes = [f"{args.random} synthetic stratum tables, seed {args.seed}"]
    return Report("blowup-check", checks, notes)


def cmd_hrr_cp(args) -> Report:
    if not 0 <= args.n <= MAX_HRR_N:
        raise CliInputError(f"--n must lie in 0..{MAX_HRR_N}, got {args.n}")
    if not 0 <= args.p <= args.n:
        raise CliInputError(f"--p must lie in 0..{args.n}")
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
    bounded_dim(base.n + args.fiber_dim, "--fiber-dim", CliInputError)
    total = hodge.projective_bundle_diamond(base, args.fiber_dim)
    checks = [
        _check("betti-vector", ",".join(map(str, total.betti_vector()))),
        _check("euler", total.euler(), (args.fiber_dim + 1) * base.euler()),
    ]
    return Report("hodge bundle", checks, [total.pretty()])


def cmd_hodge_blowup(args) -> Report:
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


def _command(parser: argparse.ArgumentParser, func) -> None:
    """End a subcommand's parser: the output flags after its own, then its handler."""
    parser.add_argument("--json", action="store_true",
                        help="emit the report as a single JSON document")
    parser.add_argument("--out", metavar="PATH",
                        help="write the report to a file instead of stdout")
    parser.set_defaults(func=func)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The whole parser, or, when `command` names a subcommand, one that lists
    all five but adds only that one's arguments.  Each call builds a new
    parser, bound to the `cmd_*` handlers of the time."""
    parser = argparse.ArgumentParser(
        prog="cypair",
        description="Exact checks for simple normal crossing pair combinatorics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    every = command not in ("identities", "chi-d", "blowup-check", "hrr", "hodge")

    def add(name: str, help_line: str) -> argparse.ArgumentParser | None:
        p = sub.add_parser(name, help=help_line)
        return p if every or name == command else None

    if p := add("identities", "verify the Todd / exterior-character identities"):
        p.add_argument("--max-m", type=_integer, default=6,
                       help="verify for every root count up to this bound "
                            f"(at most {symcalc.MAX_VERIFY_ROOTS})")
        _command(p, cmd_identities)

    if p := add("chi-d", "weighted Euler characteristics"):
        chi_sub = p.add_subparsers(dest="mode", required=True)
        pc = chi_sub.add_parser("cp", help="model pair on projective r-space")
        pc.add_argument("--r", type=_integer, required=True,
                        help=f"ambient dimension (at most {MAX_CP_R})")
        pc.add_argument("--s", type=_integer, required=True,
                        help="number of coordinate hyperplanes")
        pc.add_argument("--d", type=_integer, required=True,
                        help="pluricanonical degree (at most "
                             f"{MAX_INT_DIGITS} digits)")
        pc.add_argument("--mults", default="",
                        help="comma-separated positive multiplicities, one per "
                             f"hyperplane (at most {MAX_INT_DIGITS} digits each)")
        _command(pc, cmd_chi_d_cp)
        pt = chi_sub.add_parser("table", help="stratum table from a JSON file")
        pt.add_argument("--file", required=True, help="stratum-table document")
        _command(pt, cmd_chi_d_table)

    if p := add("blowup-check", "check blow-up invariance of chi_d"):
        mode = p.add_mutually_exclusive_group(required=True)
        mode.add_argument("--file", help="stratum table with center metadata")
        mode.add_argument("--random", type=_integer, metavar="COUNT",
                          help="run COUNT random synthetic tables instead "
                               f"(at most {MAX_RANDOM})")
        p.add_argument("--seed", type=_integer, default=DEFAULT_SEED,
                       help=f"seed for --random (default {DEFAULT_SEED})")
        _command(p, cmd_blowup_check)

    if p := add("hrr", "Riemann-Roch Euler characteristics"):
        hrr_sub = p.add_subparsers(dest="mode", required=True)
        ph = hrr_sub.add_parser("cp", help="twisted Hodge sheaves on projective space")
        ph.add_argument("--n", type=_integer, required=True,
                        help=f"ambient dimension (at most {MAX_HRR_N})")
        ph.add_argument("--p", type=_integer, required=True, help="form degree")
        ph.add_argument("--twist", type=_integer, default=0, help="line-bundle twist")
        _command(ph, cmd_hrr_cp)

    if p := add("hodge", "Hodge diamond bookkeeping"):
        hodge_sub = p.add_subparsers(dest="mode", required=True)
        pb = hodge_sub.add_parser("bundle", help="projective bundle diamond")
        pb.add_argument("--base", required=True,
                        help="builtin name (point, cpN) or diamond JSON file")
        pb.add_argument("--fiber-dim", type=_integer, required=True,
                        help="fiber dimension (base plus fiber at most "
                             f"{MAX_DIAMOND_DIM})")
        _command(pb, cmd_hodge_bundle)
        pl = hodge_sub.add_parser("blowup", help="blow-up diamond")
        pl.add_argument("--x", required=True, help="ambient diamond (name or file)")
        pl.add_argument("--y", required=True, help="center diamond (name or file)")
        pl.add_argument("--codim", type=_integer, required=True,
                        help="codimension of the center (at most "
                             f"{MAX_INT_DIGITS} digits)")
        _command(pl, cmd_hodge_blowup)
        pco = hodge_sub.add_parser("correction", help="normalization correction term")
        pco.add_argument("--diamond", required=True, help="diamond (name or file)")
        _command(pco, cmd_hodge_correction)
        ple = hodge_sub.add_parser("ledger", help="determinant-line exponent identities")
        mode = ple.add_mutually_exclusive_group(required=True)
        mode.add_argument("--diamond", help="diamond (name or file)")
        mode.add_argument("--random", type=_integer, metavar="COUNT",
                          help="check COUNT random symmetric diamonds instead "
                               f"(at most {MAX_RANDOM}); the identities depend on "
                               "the dimension alone, so every seed gives the same "
                               "report")
        ple.add_argument("--seed", type=_integer, default=DEFAULT_SEED,
                         help=f"seed for --random (default {DEFAULT_SEED})")
        _command(ple, cmd_hodge_ledger)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        for name, value in vars(args).items():
            if isinstance(value, LongDecimal):
                bounded_int(value, "--" + name.replace("_", "-"), CliInputError)
        report = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _emit(report, args)


if __name__ == "__main__":
    sys.exit(main())
