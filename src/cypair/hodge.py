"""Hodge diamond and determinant-line exponent bookkeeping.

A `HodgeDiamond` is the table h^{p,q} of a compact Kaehler manifold,
validated against conjugation symmetry h^{p,q} = h^{q,p} and Serre
duality h^{p,q} = h^{n-p,n-q}.  Blow-ups and projective bundles act on
diamonds by shifted sums of the lower-dimensional table, so Betti numbers
and Euler characteristics can be cross-checked against the stratified
Euler computations elsewhere in this package.

An `ExponentLedger` tracks formal tensor products of the determinant
lines det H^{p,q} raised to integer powers: enough to express the lines

    lambda_p = (x)_q (det H^{p,q})^((-1)^q)
    eta      = (x)_k (det H^k_dR)^((-1)^k)      = (x)_p lambda_p^((-1)^p)
    lambda   = (x)_{p,q} (det H^{p,q})^((-1)^{p+q} p)
    lambda_dR= (x)_{k>=1} (det H^k_dR)^((-1)^k k) = lambda (x) conj(lambda)

and to verify those equalities as pure exponent arithmetic.  Signs and
metric normalizations stay out: ledgers are integer bookkeeping only.
"""

from __future__ import annotations

import functools
import json
from typing import TYPE_CHECKING, Iterable, Mapping

from .inputs import bounded_dim, bounded_int, decode_json, draw, expect_object, shown

if TYPE_CHECKING:  # only the annotations name it: drawing calls the generator's methods
    import random


class DiamondError(ValueError):
    """Raised for tables violating the Hodge symmetries or the file format."""


class HodgeDiamond:
    """The h^{p,q} table of an n-dimensional manifold (possibly empty).

    The dimension and every entry must be a non-negative `int`; a bool, a
    float or a string is refused, not converted.  Faults name the fields of
    a diamond document (`n`, `h[p][q]`, `h`); entries come before shape.
    """

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: Iterable[Iterable[int]]):
        if isinstance(n, bool) or not isinstance(n, int):
            raise DiamondError(f"n: expected an integer, got {shown(n)}")
        if n < 0:
            raise DiamondError(f"n: expected a non-negative integer, got {shown(n)}")
        table = tuple(map(tuple, rows))
        size = n + 1
        # one accept test; a table that fails it is worded by _check_table
        if not (len(table) == size
                and all(len(row) == size for row in table)
                and all(type(v) is int and v >= 0 for row in table for v in row)
                and table == tuple(zip(*table))
                and table == tuple(row[::-1] for row in reversed(table))):
            _check_table(n, table)
        self.n = n
        self.rows = table
        if table[0][0] < 1 and any(any(row) for row in table):
            raise DiamondError("a nonempty manifold needs h^{0,0} >= 1")

    # -- constructors -----------------------------------------------------

    @classmethod
    def point(cls) -> "HodgeDiamond":
        return cls(0, ((1,),))

    @classmethod
    def empty(cls, n: int) -> "HodgeDiamond":
        return cls(n, tuple((0,) * (n + 1) for _ in range(n + 1)))

    @classmethod
    def projective_space(cls, n: int) -> "HodgeDiamond":
        rows = [[0] * (n + 1) for _ in range(n + 1)]
        _add_shifted(rows, cls.point(), range(n + 1))
        return cls(n, rows)

    # -- access -----------------------------------------------------------

    def hodge(self, p: int, q: int) -> int:
        if 0 <= p <= self.n and 0 <= q <= self.n:
            return self.rows[p][q]
        return 0

    def is_empty(self) -> bool:
        return not any(any(row) for row in self.rows)

    def betti(self, k: int) -> int:
        """The Betti number sum over p + q = k; 0 outside 0..2n."""
        return sum(self.hodge(p, k - p) for p in range(max(0, k - self.n), self.n + 1))

    def betti_vector(self) -> tuple[int, ...]:
        return tuple(self.betti(k) for k in range(2 * self.n + 1))

    def euler(self) -> int:
        return sum((-1) ** k * self.betti(k) for k in range(2 * self.n + 1))

    def __eq__(self, other):
        return (
            isinstance(other, HodgeDiamond)
            and self.n == other.n
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        return f"HodgeDiamond(n={self.n}, b={self.betti_vector()})"

    def pretty(self) -> str:
        width = max(len(str(v)) for row in self.rows for v in row)
        lines = []
        for k in range(2 * self.n, -1, -1):
            cells = [
                str(self.rows[p][k - p]).rjust(width)
                for p in range(min(k, self.n), max(0, k - self.n) - 1, -1)
            ]
            indent = (self.n + 1 - len(cells)) * (width + 1) // 2
            lines.append(" " * indent + (" " * (width + 1)).join(cells))
        return "\n".join(lines)


def _check_table(n: int, table: tuple[tuple, ...]) -> None:
    """Raise DiamondError for the first fault of an (n + 1) x (n + 1) table:
    an entry that is not a non-negative int, then the shape, then the two
    symmetries, cell by cell in row-major order.  An int subclass passes."""
    for p, row in enumerate(table):
        for q, v in enumerate(row):
            if isinstance(v, bool) or not isinstance(v, int):
                raise DiamondError(f"h[{p}][{q}]: expected an integer, got {shown(v)}")
            if v < 0:
                raise DiamondError(
                    f"h[{p}][{q}]: expected a non-negative integer, got {shown(v)}")
    if len(table) != n + 1 or any(len(row) != n + 1 for row in table):
        raise DiamondError(f"h: expected a {n + 1} x {n + 1} table")
    for p in range(n + 1):
        for q in range(n + 1):
            a, b, c = table[p][q], table[q][p], table[n - p][n - q]
            if a != b:
                raise DiamondError(f"conjugation symmetry fails: h^{{{p},{q}}} = "
                                   f"{shown(a)} but h^{{{q},{p}}} = {shown(b)}")
            if a != c:
                raise DiamondError(f"Serre duality fails: h^{{{p},{q}}} = {shown(a)} "
                                   f"but h^{{{n - p},{n - q}}} = {shown(c)}")


# ---------------------------------------------------------------------------
# geometric constructions
# ---------------------------------------------------------------------------


def _add_shifted(rows: list[list[int]], diamond: HodgeDiamond, shifts: Iterable[int]) -> None:
    """Add h^{p,q} of the diamond to rows[p + k][q + k] for every shift k,
    walking the diamond's nonzero entries only."""
    nonzero = [(p, q, v) for p, row in enumerate(diamond.rows)
               for q, v in enumerate(row) if v]
    for k in shifts:
        for p, q, v in nonzero:
            rows[p + k][q + k] += v


def projective_bundle_diamond(base: HodgeDiamond, fiber_dim: int) -> HodgeDiamond:
    """Diamond of a projective bundle with the given fiber dimension.

    h^{p,q} of the total space is the shifted sum over j = 0..fiber_dim of
    h^{p-j,q-j} of the base.
    """
    if fiber_dim < 0:
        raise DiamondError("fiber dimension must be non-negative")
    n = base.n + fiber_dim
    rows = [[0] * (n + 1) for _ in range(n + 1)]
    _add_shifted(rows, base, range(fiber_dim + 1))
    return HodgeDiamond(n, rows)


def blowup_diamond(x: HodgeDiamond, y: HodgeDiamond, r: int) -> HodgeDiamond:
    """Diamond of the blow-up of x along a center y of codimension r.

    Adds r - 1 shifted copies of the center's diamond:
    h^{p,q}(X') = h^{p,q}(X) + sum_{k=1}^{r-1} h^{p-k,q-k}(Y).
    """
    if r < 2:
        raise DiamondError("blow-up centers have codimension at least 2")
    if y.n + r != x.n:
        raise DiamondError(
            f"dimension mismatch: center of dimension {y.n} plus codimension "
            f"{r} does not give {x.n}")
    rows = [list(row) for row in x.rows]
    _add_shifted(rows, y, range(1, r))
    return HodgeDiamond(x.n, rows)


def correction_term(diamond: HodgeDiamond) -> int:
    """The alternating weighted Betti sum  sum_k (-1)^k k (n - k) b_k.

    Returned exactly as an integer; callers that want the normalization
    constant apply the symbolic factor (log 2 pi)/2 themselves -- nothing
    here touches floating point.
    """
    n = diamond.n
    return sum(
        (-1) ** k * k * (n - k) * diamond.betti(k) for k in range(2 * n + 1))


# ---------------------------------------------------------------------------
# determinant-line exponent ledgers
# ---------------------------------------------------------------------------


class ExponentLedger:
    """Integer exponents of the lines det H^{p,q} in a formal tensor product."""

    __slots__ = ("exponents",)

    def __init__(self, exponents: Mapping[tuple[int, int], int] | None = None):
        self.exponents = {
            key: int(v) for key, v in (exponents or {}).items() if v != 0}

    def __add__(self, other: "ExponentLedger") -> "ExponentLedger":
        merged = dict(self.exponents)
        for key, v in other.exponents.items():
            merged[key] = merged.get(key, 0) + v
        return ExponentLedger(merged)

    def __neg__(self) -> "ExponentLedger":
        return ExponentLedger({key: -v for key, v in self.exponents.items()})

    def __sub__(self, other: "ExponentLedger") -> "ExponentLedger":
        return self + (-other)

    def __mul__(self, scalar: int) -> "ExponentLedger":
        return ExponentLedger(
            {key: v * scalar for key, v in self.exponents.items()})

    __rmul__ = __mul__

    def conjugate(self) -> "ExponentLedger":
        """Transport exponents along complex conjugation (p,q) -> (q,p)."""
        return ExponentLedger(
            {(q, p): v for (p, q), v in self.exponents.items()})

    def serre_transport(self, n: int) -> "ExponentLedger":
        """Transport exponents along Serre duality (p,q) -> (n-p,n-q)."""
        return ExponentLedger(
            {(n - p, n - q): v for (p, q), v in self.exponents.items()})

    def __eq__(self, other):
        return isinstance(other, ExponentLedger) and self.exponents == other.exponents

    def __repr__(self):
        inside = ", ".join(
            f"det(H^{{{p},{q}}})^{v}" for (p, q), v in sorted(self.exponents.items()))
        return f"ExponentLedger({inside})"


def ledger_lambda_p(n: int, p: int) -> ExponentLedger:
    """det of the p-th Dolbeault row: exponent (-1)^q at (p, q)."""
    return ExponentLedger({(p, q): (-1) ** q for q in range(n + 1)})


def ledger_eta(n: int) -> ExponentLedger:
    """det of full de Rham cohomology: exponent (-1)^{p+q} everywhere."""
    return ExponentLedger(
        {(p, q): (-1) ** (p + q) for p in range(n + 1) for q in range(n + 1)})


def ledger_lambda(n: int) -> ExponentLedger:
    """Exponent (-1)^{p+q} p at (p, q)."""
    return ExponentLedger(
        {(p, q): (-1) ** (p + q) * p for p in range(n + 1) for q in range(n + 1)})


def ledger_lambda_dr(n: int) -> ExponentLedger:
    """det H^k_dR to the (-1)^k k, spread over the Hodge pieces with p+q=k."""
    out: dict[tuple[int, int], int] = {}
    for k in range(1, 2 * n + 1):
        for p in range(max(0, k - n), min(k, n) + 1):
            out[(p, k - p)] = (-1) ** k * k
    return ExponentLedger(out)


def lambda_exponent_check(diamond: HodgeDiamond) -> bool:
    """Verify the determinant-line identities as exponent arithmetic.

    Checks, over the (p, q) range of the diamond:
    * lambda_dR = lambda tensor conj(lambda);
    * lambda assembles from the rows as tensor of lambda_p^((-1)^p p);
    * eta assembles from the rows as tensor of lambda_p^((-1)^p).

    The identities are about exponents only, so the result depends on the
    dimension n alone, not on the Hodge numbers; it is computed once per n
    and memoized.  Both row sums accumulate in place, in O(n^2).
    """
    return _exponent_identities_hold(diamond.n)


@functools.lru_cache(maxsize=None)
def _exponent_identities_hold(n: int) -> bool:
    lam = ledger_lambda(n)
    if ledger_lambda_dr(n) != lam + lam.conjugate():
        return False
    lam_rows: dict[tuple[int, int], int] = {}
    eta_rows: dict[tuple[int, int], int] = {}
    for p in range(n + 1):
        sign = (-1) ** p
        for key, v in ledger_lambda_p(n, p).exponents.items():
            lam_rows[key] = lam_rows.get(key, 0) + sign * p * v
            eta_rows[key] = eta_rows.get(key, 0) + sign * v
    return lam == ExponentLedger(lam_rows) and ledger_eta(n) == ExponentLedger(eta_rows)


#: Largest Hodge number `random_symmetric_diamond` draws.
RANDOM_ENTRY_MAX = 9


@functools.lru_cache(maxsize=8)
def _orbits(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The cells (p, q) of an (n + 1) x (n + 1) table, one tuple per orbit of
    conjugation and Serre duality, in the row-major order of their first
    cells.  Kept for 8 dimensions: the orbits of n = 300 hold 90,601 cells."""
    orbits = []
    seen: set[tuple[int, int]] = set()
    for p in range(n + 1):
        for q in range(n + 1):
            if (p, q) not in seen:
                orbit = sorted({(p, q), (q, p), (n - p, n - q), (n - q, n - p)})
                seen.update(orbit)
                orbits.append(tuple(orbit))
    return tuple(orbits)


def random_symmetric_diamond(rng: random.Random, max_n: int = 4) -> HodgeDiamond:
    """A random table satisfying both symmetries, with h^{0,0} = 1.

    The dimension and one entry per orbit of cells, in row-major order, are
    drawn by `inputs.draw`, which draws the bits `rng.randint` draws, so a
    seed gives the diamonds it gave through `randint`.  `max_n` must lie in
    0..MAX_DIAMOND_DIM; otherwise ValueError is raised before anything is
    drawn.
    """
    if max_n < 0:
        raise ValueError(f"max_n: expected a non-negative integer, got {max_n}")
    bits = rng.getrandbits
    n = draw(bits, 0, bounded_dim(max_n, "max_n", ValueError))
    rows = [[0] * (n + 1) for _ in range(n + 1)]
    for orbit in _orbits(n):
        value = draw(bits, 0, RANDOM_ENTRY_MAX)
        for p, q in orbit:
            rows[p][q] = value
    rows[0][0] = rows[n][n] = 1
    return HodgeDiamond(n, rows)


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------


def diamond_from_obj(obj) -> HodgeDiamond:
    """The diamond of a decoded document {"n": int, "h": [[int, ...], ...]}.

    Known fields, then `n` within the digit and dimension limits, checked
    before the O(n^2) table is read, then `h` a list of lists of integers
    within the digit limit; signs, shape and symmetries are `HodgeDiamond`'s.
    """
    expect_object(obj, "top level", {"n", "h"}, set(), DiamondError)
    n = bounded_dim(bounded_int(obj["n"], "n", DiamondError), "n", DiamondError)
    rows = obj["h"]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise DiamondError("h: expected a list of rows")
    for p, row in enumerate(rows):
        for q, v in enumerate(row):
            bounded_int(v, f"h[{p}][{q}]", DiamondError)
    return HodgeDiamond(n, rows)


def diamond_from_json(text: str) -> HodgeDiamond:
    """Parse {"n": int, "h": [[...]]}, row-major in p; symmetries enforced."""
    return diamond_from_obj(decode_json(text))


def diamond_to_json(diamond: HodgeDiamond) -> str:
    return json.dumps(
        {"n": diamond.n, "h": [list(row) for row in diamond.rows]},
        sort_keys=True)
