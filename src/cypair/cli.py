"""Command-line front end.

Subcommands: `identities`, `chi-d cp|table`, `blowup-check`, `hrr cp`,
and `hodge bundle|blowup|correction|ledger`.  Every command produces a
report of named checks; `--json` emits it as a single deterministic JSON
document (rationals rendered as strings, checks sorted by name) and
`--out` redirects the report to a file.  Either form is written one check
at a time, so no second copy of a report is held.

At module level this imports only what every command uses; each handler
imports the layer it runs (`symcalc`, `sncpair`, `chow` or `hodge`), so a
command compiles and loads none of the others.

Exit codes: 0 when every check passes, 1 when a mathematical check
fails, 2 for invalid input of any kind.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from json.encoder import encode_basestring_ascii as _json_str
from typing import TYPE_CHECKING, NamedTuple

from .inputs import (MAX_DIAMOND_DIM, MAX_INT_DIGITS, LongDecimal, bounded_dim,
                     bounded_int, decimal, shown)

if TYPE_CHECKING:  # the handlers import what they run
    import random

    from . import hodge

DEFAULT_SEED = 7

#: Largest accepted `hrr cp --n`.  Td and ch Lambda^p are built in the
#: ring of P^n, the latter from the graded pieces E_0..E_p alone, so
#: --p n is the slowest: with a 39-digit `--twist`, `hrr cp --n 75 --p 75`
#: takes 0.58-0.92 s (`--p 37` 0.43-0.54 s) and n = 80 takes 0.79-1.33 s on a
#: 2-CPU Xeon VM, in child processes, with CPython 3.11; at 75 a machine 7x
#: slower stays under 10 s.
MAX_HRR_N = 75

#: Largest accepted `chi-d cp --r`.  The model pair on projective r-space
#: with s = r hyperplanes has 2^(r+1) - 1 strata.  With `--d` and every
#: multiplicity at the `inputs.MAX_INT_DIGITS` limit, `chi-d cp --r 18
#: --s 18` takes 0.4-0.6 s and 57 MiB peak RSS in a child process, and
#: r = 19 takes 0.7-1.0 s and 98 MiB, on a 2-CPU Xeon VM.
MAX_CP_R = 18

#: Largest accepted `--random COUNT`.  Check names carry the index in four
#: digits, so up to 10,000 of them still sort in numeric order in `--json`.
#: On a 2-CPU Xeon VM, in child processes, text or `--json`,
#: `blowup-check --random 10000` takes 0.73-1.26 s (medians 0.77-0.94 s)
#: and 19 MiB peak RSS and `hodge ledger --random 10000` 0.16-0.26 s
#: (medians 0.17-0.18 s) and 19 MiB: `_emit` writes the report one check
#: at a time, where a whole `--json` text took 6 MiB more.
MAX_RANDOM = 10_000

#: Largest accepted stratum-table or diamond file, in bytes.  A table's cost
#: is linear in its size, about 0.05-0.1 s per MB: `blowup-check --file`
#: on a 13.4 MB table (r = 16, 131,071 strata) takes 0.7-1.3 s and 156 MiB
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
    """A named check; without an expectation it is informational and passes.

    When expected and actual print alike, both fields hold one string."""
    rendered = str(actual)
    if expected is None:
        return Check(name, "pass", rendered, rendered)
    shown_expected = str(expected)
    if shown_expected == rendered:
        shown_expected = rendered
    return Check(name, "pass" if actual == expected else "fail", shown_expected, rendered)


#: One `--json` check: the keys in sorted order and each value, always a
#: `str`, encoded as `json.dumps` encodes it, so a report's bytes equal
#: `json.dumps(payload, sort_keys=True, separators=(",", ":"))`.
_JSON_CHECK = '{"actual":%s,"expected":%s,"name":%s,"status":%s}'


def _write_report(write, report: Report, overall: str, as_json: bool) -> None:
    """Write the sorted report through `write`, one check at a time."""
    if as_json:
        write('{"checks":[')
        separator = ""
        for name, status, expected, actual in report.checks:
            write(separator + _JSON_CHECK % (
                _json_str(actual), _json_str(expected), _json_str(name), _json_str(status)))
            separator = ","
        write(f'],"command":{_json_str(report.command)},'
              f'"overall":{_json_str(overall)}}}\n')
        return
    for note in report.notes:
        write(note + "\n")
    for name, status, expected, actual in report.checks:
        write(f"[{status.upper()}] {name}: expected {expected}, actual {actual}\n")
    write(f"overall: {overall}\n")


def _emit(report: Report, args) -> int:
    # sorted by name, then by the other fields; the tuples compare without
    # the list of keys that a key function allocates
    report.checks.sort()
    overall = report.overall
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                _write_report(handle.write, report, overall, args.json)
        except OSError as exc:
            # an unwritable PATH is bad input (2), not a failed check (1)
            print(f"error: {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        _write_report(sys.stdout.write, report, overall, args.json)
    return 0 if overall == "pass" else 1


def _parse_file(path: str, parse):
    """`parse` applied to the UTF-8 text of a file of at most MAX_INPUT_BYTES.

    Every failure, from reading, decoding or parsing, names the path.
    """
    chunks, size = [], 0
    try:
        with open(path, "rb") as handle:
            # by the MiB: read(MAX_INPUT_BYTES + 1) allocates that many bytes
            while size <= MAX_INPUT_BYTES and (chunk := handle.read(1 << 20)):
                chunks.append(chunk)
                size += len(chunk)
    except OSError as exc:
        raise CliInputError(f"{path}: {exc.strerror or exc}")
    if size > MAX_INPUT_BYTES:
        raise CliInputError(
            f"{path}: file is larger than the limit of {MAX_INPUT_BYTES} bytes")
    try:
        text = b"".join(chunks).decode("utf-8")
        chunks.clear()  # the bytes are freed before parsing
        return parse(text)
    except json.JSONDecodeError as exc:
        raise CliInputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    # ValueError is also a UnicodeDecodeError; RecursionError is JSON
    # nested deeper than the decoder's stack
    except (ValueError, RecursionError) as exc:
        raise CliInputError(f"{path}: {exc}")


def _load_diamond(source: str, flag: str) -> hodge.HodgeDiamond:
    """A builtin diamond name (point, cpN) or a JSON file path."""
    from . import hodge

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
    from . import symcalc

    if not 1 <= args.max_m <= symcalc.MAX_VERIFY_ROOTS:
        raise CliInputError(
            f"--max-m must lie in 1..{symcalc.MAX_VERIFY_ROOTS}, got {args.max_m}")

    # From the largest root count down: its genera are built once and every
    # smaller count restricts them (`symcalc._universal`); `_emit` sorts.
    checks = []
    for m in range(args.max_m, 0, -1):
        for i, residual in enumerate(symcalc.verify_total_class_identities(m), 1):
            checks.append(_check(f"m{m}-todd-identity-{i}", repr(residual), "0"))
        for i, residual in enumerate(symcalc.verify_shifted_class_identities(m), 1):
            checks.append(_check(f"m{m}-todd-prime-identity-{i}", repr(residual), "0"))
    return Report("identities", checks, [])


def _random_generator(args) -> random.Random:
    """The generator seeded by `--seed`, once `--random COUNT` is in range."""
    import random

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
    from . import sncpair

    if not 1 <= args.r <= MAX_CP_R:
        raise CliInputError(f"--r must lie in 1..{MAX_CP_R}, got {args.r}")
    mults = _parse_mults(args.mults)
    model, pair = sncpair.cp_pair(args.r, args.s, args.d, mults)
    by_enumeration = sncpair.chi_d(pair)
    by_derivative = sncpair.chi_d_via_fprime(model)
    checks = [
        _check("chi-d-enumeration", by_enumeration),
        _check("fprime-at-1", by_derivative),
        _check("enumeration-matches-fprime", by_enumeration, by_derivative),
        _check("chi-d-vanishes", by_enumeration, 0),
    ]
    notes = [f"model pair on projective {args.r}-space, "
             f"multiplicities {pair.mults}"]
    return Report("chi-d cp", checks, notes)


def cmd_chi_d_table(args) -> Report:
    from . import sncpair

    pair = _parse_file(args.file, sncpair.pair_from_json)
    value = sncpair.chi_d(pair)
    return Report("chi-d table", [_check("chi-d", value)], [])


def cmd_blowup_check(args) -> Report:
    from . import sncpair

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
    from . import chow

    if not 0 <= args.n <= MAX_HRR_N:
        raise CliInputError(f"--n must lie in 0..{MAX_HRR_N}, got {args.n}")
    if not 0 <= args.p <= args.n:
        raise CliInputError(f"--p must lie in 0..{args.n}, got {args.p}")
    value = chow.chi_twisted_hodge(args.n, args.p, args.twist)
    checks = []
    if 1 <= args.twist <= args.p:
        checks.append(_check("twisted-forms-vanish", value, 0))
    elif args.twist == 0:
        checks.append(_check("untwisted-forms-sign", value, (-1) ** args.p))
    else:
        checks.append(_check("chi", value))
    notes = [f"chi of projective {args.n}-space with values in "
             f"Omega^{args.p} twisted by O({args.twist}): {value}"]
    return Report("hrr cp", checks, notes)


def cmd_hodge_bundle(args) -> Report:
    from . import hodge

    base = _load_diamond(args.base, "--base")
    if args.fiber_dim < 0:
        raise CliInputError(f"--fiber-dim must be non-negative, got {args.fiber_dim}")
    bounded_dim(base.n + args.fiber_dim, "--fiber-dim", CliInputError)
    total = hodge.projective_bundle_diamond(base, args.fiber_dim)
    checks = [
        _check("betti-vector", ",".join(map(str, total.betti_vector()))),
        _check("euler", total.euler(), (args.fiber_dim + 1) * base.euler()),
    ]
    return Report("hodge bundle", checks, [total.pretty()])


def cmd_hodge_blowup(args) -> Report:
    from . import hodge

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
    from . import hodge

    diamond = _load_diamond(args.diamond, "--diamond")
    coefficient = hodge.correction_term(diamond)
    checks = [
        _check("correction-coefficient", coefficient),
        _check("correction-units", "(log 2pi)/2"),
    ]
    notes = [f"correction term: {coefficient} * (log 2pi)/2"]
    return Report("hodge correction", checks, notes)


def cmd_hodge_ledger(args) -> Report:
    from . import hodge

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
        from . import symcalc

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
