"""Exact truncated series calculus in Chern roots and Chern classes.

Every series is a sparse polynomial in m variables, truncated at a fixed
order, and one class, `_Series`, implements their arithmetic.  Its three
subclasses differ only in the grading and in what a product settles to:

* `RootSeries`: polynomials in formal Chern roots x_1, ..., x_m, graded
  by total degree;
* `ChernSeries`: polynomials in the classes c_1, ..., c_m, where c_k is
  the k-th elementary symmetric polynomial of the roots, graded by the
  weighted degree sum(k * e_k) of a monomial c_1^{e_1} * ... * c_m^{e_m};
* `chow.CohClass`: classes on a ring model, in its generators, graded by
  total degree and truncated at the model's dimension; a product is the
  truncated series product followed by the model's `reduce_terms`.

Coefficients are exact rationals, kept as integer numerators over one
denominator in lowest terms: nothing here ever rounds, equal series have
equal representations and a zero series has no terms.  Series of
different classes never combine.

Exponents are non-negative ints, and a term's exponents are at most its
degree, so at most the order, which is at most `MAX_ORDER`.  A product
therefore adds exponent vectors packed into one int each, `SLOT_BITS` bits
per variable (`_Packing`, one per root count): one integer addition per
term pair, with no carry between slots.  Each series packs its terms,
sorted by degree, once, on its first product, and keeps that view for
every later one; both loops of a product stop at the first term past the
order.  Only the product's distinct exponent vectors are unpacked, so
terms, reductions and memos stay keyed by tuples.

Every genus below is a weighted sum of series and of products of series,
and one kernel, `_linear(start, pairs, products)`, returns
start + sum q * s + sum q * (a * b) in one pass: each product's pair
loop, the one `*` runs too (`_add_product`), adds into one dict of packed
keys over one common denominator, the distinct keys are unpacked once,
and a sum with products is settled once, as a single product is: brought
to lowest terms, or, for a ring class, reduced by one call of the model's
reducer, which is linear.  `+`, the graded exponential (Td and
ch Lambda^r), Newton's identities and `chow`'s relative tangent class
call it.

Generators implemented here:

* the Todd series prod_j x_j / (1 - exp(-x_j));
* its derivative under a uniform shift of all roots x_j -> x_j + t;
* the Chern characters of exterior powers of the dual bundle, packaged by
  the generating function prod_j (1 - t * exp(-x_j)).

`todd`, `todd_prime` and `ch_exterior` build them in the Chern basis,
where a series of order n has as many terms as there are partitions of
the degrees up to n.  Newton's identities give the power sums p_k of the
roots from c_1..c_m (p_0 = m); Td = exp(sum_k a_k p_k), with a_k the
coefficients of log(x / (1 - exp(-x))), is a graded exponential.  The
uniform shift acts on power sums as the derivation p_k -> k p_{k-1}, so
Td' = Td * sum_k k a_k p_{k-1}.  ch Lambda^r E* = e_r(exp(-x)) comes from
Newton's identities for z_j = exp(-x_j) - 1 and
e_r(1 + z) = sum_k C(m - k, r - k) e_k(z).  `Genera` runs these steps on
given Chern classes: it builds the p_k, Td and each piece e_k(z) once and
sums a ch Lambda^r from the pieces on each read.  The universal series are
read one per root count and order (`todd`, `todd_prime` and `ch_exterior`
memoize them), and `chow` reads one `Genera` per ring model.

The universal series are stable in the rank: c_k = 0 for k > m makes the
extra roots 0, which add nothing to p_1, p_2, ..., so Td, every p_k with
k >= 1 and the pieces e_k(z) of m roots are those of M > m roots with
every term in c_{m+1}..c_M dropped.  Only p_0 = m, the binomials
C(m - k, r - k) and, through p_0, Td' see m.  So `_universal` builds the
genera of the most roots asked for once and restricts p_1.., Td and the
pieces to every smaller root count and order (`_restricted`), to exactly
the series a direct build gives; the identity suite verifies m from the
largest down.  The genera of a ring model are never restricted.

`todd_roots`, `todd_prime_roots` (with a nilpotent shift variable,
t^2 = 0) and `ch_exterior_roots` build the same series in root
coordinates, with C(m + n, m) monomials; `symmetrize_to_chern` folds them
back by leading-term reduction.  No production path uses them: they are
the independent reference the tests compare the Chern-basis series with.

`verify_total_class_identities` and `verify_shifted_class_identities`
multiply the Chern-basis generators out and return the residuals of the
five closed-form identities they satisfy; a residual is an ordinary
result, so a nonzero residual is reported, not raised.  Both read every
series from the one memo of order m + 2, and the alternating sums
S_w = sum_r (-1)^r w(r) ch Lambda^r, w(r) = 1, r, r(r - 1), from one memo of
sums per root count.  As ch Lambda^r = sum_k C(m - k, r - k) E_k, each is
S_w = sum_k q_k(w) E_k with integer weights q_k(w) that vanish for k < m - 2:
a sum of at most three pieces E_k, and no ch Lambda^r is built.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, factorial, gcd, lcm

Exponents = tuple[int, ...]
Coeffs = Mapping[Exponents, Fraction]

#: Bits per variable of a packed exponent vector (see `_Packing`).
SLOT_BITS = 16
#: Largest truncation order a series accepts.  Every exponent of a term is
#: at most its degree, so at most the order, and so is every exponent of a
#: product's term: with the order below 2^SLOT_BITS no slot carries over.
MAX_ORDER = (1 << SLOT_BITS) - 1

#: Largest number of roots the identity-verification entry points accept.
#: The series live in the Chern basis, so cost grows with the number of
#: partitions of the truncation order m + 2, and the largest m is the one
#: built: `cypair identities --max-m 15` takes 0.31-0.34 s (20 MiB peak RSS)
#: and 16 takes 0.45-0.50 s (22 MiB) on a 2-CPU Intel Xeon VM, in child
#: processes, with CPython 3.11.7.
MAX_VERIFY_ROOTS = 15

#: What a series combines with besides a series of its own kind: exact scalars.
_SCALARS = (int, Fraction)


class SymmetryError(ValueError):
    """Raised when a root series claimed to be symmetric is not."""


@lru_cache(maxsize=None)
def _weighted_degree(expo: Exponents) -> int:
    return sum((k + 1) * e for k, e in enumerate(expo))


class _Packing:
    """Exponent vectors of one length as ints, and back, both ways memoized.

    The vector (e_1, ..., e_m) is the int sum_i e_i * 2^(SLOT_BITS * (m - i)):
    one slot per variable, the first variable in the highest, so keys
    compare as their vectors do.  While every entry and every entry of a sum
    stays within a slot, adding two keys adds their vectors.
    """

    __slots__ = ("keys", "vectors", "_shifts")

    def __init__(self, num_roots: int):
        self.keys: dict[Exponents, int] = {}
        self.vectors: dict[int, Exponents] = {}
        self._shifts = range(SLOT_BITS * (num_roots - 1), -1, -SLOT_BITS)

    def key(self, expo: Exponents) -> int:
        """The key of expo, which `keys` then holds."""
        key = self.keys[expo] = sum(e << s for e, s in zip(expo, self._shifts))
        return key

    def vector(self, key: int) -> Exponents:
        """The vector of key, which `vectors` then holds, as a tuple of ints."""
        # MAX_ORDER = 2^SLOT_BITS - 1 masks one slot
        expo = self.vectors[key] = tuple((key >> s) & MAX_ORDER for s in self._shifts)
        self.keys[expo] = key
        return expo


@lru_cache(maxsize=None)
def _packing(num_roots: int) -> _Packing:
    return _Packing(num_roots)


@lru_cache(maxsize=None)
def _slot_names(cls) -> tuple[str, ...]:
    return tuple(name for c in cls.__mro__ for name in getattr(c, "__slots__", ()))


class _Terms(Mapping):
    """The coefficients num[e] / den as `Fraction`s, read-only; `len` is free."""

    __slots__ = ("_num", "_den")

    def __init__(self, num: dict[Exponents, int], den: int):
        self._num, self._den = num, den

    def __getitem__(self, expo: Exponents) -> Fraction:
        return Fraction(self._num[expo], self._den)

    def __iter__(self):
        return iter(self._num)

    def __len__(self) -> int:
        return len(self._num)


def _lowest(num: dict[Exponents, int], den: int) -> tuple[dict[Exponents, int], int]:
    """num / den, for den > 0, without zero numerators and with gcd(den, *num) 1.

    May return `num` itself, which the caller must then leave unchanged.
    """
    g = gcd(den, *num.values())  # zero numerators leave the gcd unchanged
    if 0 in num.values():
        num = {e: n for e, n in num.items() if n}
    if g == 1:
        return num, den
    return {e: n // g for e, n in num.items()}, den // g


def _integer_form(terms: Coeffs) -> tuple[dict[Exponents, int], int]:
    """Rational coefficients as numerators over their lcm denominator, in lowest terms."""
    fracs = [(e, q if type(q) is Fraction else Fraction(q)) for e, q in terms.items()]
    den = lcm(*(q.denominator for _, q in fracs))
    return {e: q.numerator * (den // q.denominator) for e, q in fracs if q}, den


class _Series:
    """Sparse polynomial in m variables, truncated at a graded order.

    The coefficients are integer numerators `_num` over one denominator
    `_den`, in lowest terms (see `_lowest`).  That form is unique, so
    equality and hashing compare it; `terms` shows it as `Fraction`s.  A
    subclass fixes the grading, `_degree` of an exponent vector, and the
    letter `_symbol` its variables print with.  Instances are immutable;
    every operation builds its result through `_new`.  Addition and
    multiplication truncate at the smaller of the two operand orders, and
    only series of the same class combine.  A sum, and every weighted sum
    of series and of products, goes through one kernel, `_linear`, which
    settles once.  A subclass may replace these
    rules (`_compatible`), the product's result (`_settle`), the printed
    variable names (`_names`), what equal series share (`_space`) and the
    error its constructor raises (`_error`).  Besides a series of its own
    class, a series combines with the exact scalars, `int` and `Fraction`,
    only: any other operand is a `TypeError`, and any other coefficient
    the constructor's `_error`.

    A product runs over packed exponent vectors: every exponent is a
    non-negative int no larger than the order, at most `MAX_ORDER`, so a
    vector packs into one int (`_Packing`) and a sum of vectors is one
    integer addition.  Each series builds its packed terms, sorted by
    degree, once, on its first product (`_graded_terms`), and keeps them in
    the slot `_graded` for every later product.  The view is a cache, not
    state: equality, hashing, copies and pickles ignore it.  One pair loop,
    `_add_product`, runs over those views for `*` and for `_linear`, which
    adds all of its products into one packed dict and settles the sum once
    (`_settle`), however many products it adds.
    """

    __slots__ = ("num_roots", "order", "_num", "_den", "_graded")
    _error = ValueError

    def __init__(self, num_roots: int, order: int, terms: Coeffs | None = None):
        if num_roots < 0 or order < 0:
            raise self._error("num_roots and order must be non-negative")
        if order > MAX_ORDER:
            raise self._error(f"order {order} exceeds the limit {MAX_ORDER}")
        degree = self._degree
        kept = {}
        for expo, q in (terms or {}).items():
            if len(expo) != num_roots:
                raise self._error(f"exponent vector {expo} has wrong length")
            if not all(type(e) is int and e >= 0 for e in expo):
                raise self._error(
                    f"exponent vector {expo} has an entry that is not a non-negative int")
            if not isinstance(q, _SCALARS):
                raise self._error(f"coefficient {q!r} of {expo} is not an int or a Fraction")
            if degree(expo) <= order:
                kept[expo] = q
        self.num_roots = num_roots
        self.order = order
        self._num, self._den = _integer_form(kept)
        self._graded = None

    @classmethod
    def _make(cls, num_roots: int, order: int, num: dict, den: int) -> "_Series":
        """A series from numerators already in lowest terms, unchecked."""
        out = object.__new__(cls)
        out.num_roots, out.order, out._num, out._den = num_roots, order, num, den
        out._graded = None
        return out

    def __getstate__(self):
        """Every slot but the cached view, which a copy builds again on use."""
        state = {name: getattr(self, name) for name in _slot_names(type(self))}
        state["_graded"] = None
        return None, state

    def _graded_terms(self) -> list[tuple[int, int, int]]:
        """(degree, packed exponent vector, numerator) of each term, by degree."""
        view = self._graded
        if view is None:
            packing, degree = _packing(self.num_roots), self._degree
            known, key = packing.keys.get, packing.key
            view = self._graded = sorted(
                (degree(e), known(e) or key(e), n) for e, n in self._num.items())
        return view

    # -- hooks a subclass may replace ----------------------------------

    def _new(self, order: int, num: dict[Exponents, int], den: int) -> "_Series":
        """A series of the same kind as self from numerators in lowest terms."""
        return self._make(self.num_roots, order, num, den)

    def _compatible(self, other: "_Series") -> int:
        """Check that other combines with self; the order of the result."""
        if self.num_roots != other.num_roots:
            raise ValueError("series live over different root counts")
        return min(self.order, other.order)

    def _settle(self, order: int, raw: dict[Exponents, int], den: int) -> "_Series":
        """The product whose coefficients are raw[e] / den."""
        return self._new(order, *_lowest(raw, den))

    def _names(self) -> list[str]:
        return [f"{self._symbol}{i}" for i in range(1, self.num_roots + 1)]

    def _space(self):
        """What two equal series share besides their class and coefficients."""
        return self.num_roots, self.order

    # -- arithmetic ------------------------------------------------------

    @property
    def terms(self) -> Mapping[Exponents, Fraction]:
        return _Terms(self._num, self._den)

    def __len__(self) -> int:
        return len(self._num)

    def __add__(self, other):
        if type(other) is not type(self):
            if not isinstance(other, _SCALARS):
                return NotImplemented
            const = {(0,) * self.num_roots: other.numerator} if other else {}
            other = self._new(self.order, const, other.denominator)
        return _linear(self, [(other, 1)])

    __radd__ = __add__

    def __neg__(self):
        return self._new(self.order, {e: -n for e, n in self._num.items()}, self._den)

    def __sub__(self, other):
        if type(other) is not type(self) and not isinstance(other, _SCALARS):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if not isinstance(other, _SCALARS):
            return NotImplemented
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not type(self):
            if not isinstance(other, _SCALARS):
                return NotImplemented
            n = other.numerator
            scaled = {e: c * n for e, c in self._num.items()}
            return self._new(self.order, *_lowest(scaled, self._den * other.denominator))
        order = self._compatible(other)
        out: dict[int, int] = {}
        _add_product(out, self, other, order, 1)
        return self._settle(order, _unpacked(self.num_roots, out), self._den * other._den)

    def __eq__(self, other):
        return (type(other) is type(self) and self._space() == other._space()
                and self._den == other._den and self._num == other._num)

    def __hash__(self):
        return hash((self._space(), self._den, frozenset(self._num.items())))

    # -- structure -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._num

    def truncate(self, order: int) -> "_Series":
        """The series through degree `order`; its own order if that is smaller."""
        if order >= self.order:
            return self
        return self._part(order, range(order + 1))

    def degree_part(self, p) -> "_Series":
        """Extract the homogeneous part of degree p, or of a range of degrees."""
        return self._part(self.order, range(p, p + 1) if isinstance(p, int) else p)

    def _part(self, order: int, degrees) -> "_Series":
        degree = self._degree
        kept = {e: n for e, n in self._num.items() if degree(e) in degrees}
        return self._new(order, *_lowest(kept, self._den))

    def constant_term(self) -> Fraction:
        return Fraction(self._num.get((0,) * self.num_roots, 0), self._den)

    def inverse(self) -> "_Series":
        """Multiplicative inverse; requires a nonzero constant term c0.

        u = 1 - self / c0 has no constant term, so u^(order + 1) vanishes
        and 1 / self = (1 + u + ... + u^order) / c0, summed by Horner's rule.
        """
        c0 = self.constant_term()
        if c0 == 0:
            raise ValueError("series with zero constant term is not invertible")
        u = 1 - self * (1 / c0)
        inv = self._new(self.order, {}, 1) + 1
        for _ in range(self.order):
            inv = inv * u + 1
        return inv * (1 / c0)

    def __repr__(self):
        if not self._num:
            return "0"
        names = self._names()
        bits = []
        for expo in sorted(self._num, key=lambda e: (self._degree(e), e)):
            mono = "*".join(
                names[i] + (f"^{k}" if k > 1 else "") for i, k in enumerate(expo) if k
            )
            q = Fraction(self._num[expo], self._den)
            bits.append(f"{q}" if not mono else f"{q}*{mono}")
        return " + ".join(bits)


def _linear(start: _Series, pairs: Iterable[tuple[_Series, int | Fraction]] = (),
            products: Iterable[tuple[_Series, _Series, int | Fraction]] = ()) -> _Series:
    """start + sum of q * s over the (s, q) pairs + sum of q * (a * b) over
    the (a, b, q) products, by the rules of `+` and `*`, in one pass.

    Every s, a and b must combine with start, and the result is truncated
    at the smallest order of them all; a zero q adds no terms.  Over one
    common denominator, start's numerators are copied, each s's added, and
    the products' pair loops (`_add_product`) fill one packed dict that is
    unpacked once.  A sum of basis classes is a basis class, so a sum with
    no product is only brought to lowest terms; one with a product is
    settled by `_settle`, for a ring class one (linear) `reduce_terms` call.
    """
    kind, order, top = type(start), start.order, start.order
    operands, scaled, live = [], [], []
    for s, q in pairs:
        operands.append(s)
        top = max(top, s.order)  # a product's pair loop stops at the order itself
        if q:
            scaled.append((s._den * q.denominator, q.numerator, s._num))
    for a, b, q in products:
        operands += a, b
        if q:
            live.append((a._den * b._den * q.denominator, q.numerator, a, b))
    for s in operands:
        if type(s) is not kind:
            raise TypeError(f"cannot combine {kind.__name__} with {type(s).__name__}")
        order = min(order, start._compatible(s))
    den = lcm(start._den, *[t[0] for t in scaled + live])
    scale = den // start._den
    num = {e: n * scale for e, n in start._num.items()} if scale > 1 else dict(start._num)
    get = num.get
    for d, q, terms in scaled:
        scale = q * (den // d)
        for e, n in terms.items():
            num[e] = get(e, 0) + n * scale
    if top > order:
        degree = start._degree
        num = {e: n for e, n in num.items() if degree(e) <= order}
    if not live:
        return start._new(order, *_lowest(num, den))
    out: dict[int, int] = {}
    for d, q, a, b in live:
        _add_product(out, a, b, order, q * (den // d))
    raw = _unpacked(start.num_roots, out)
    get = raw.get
    for e, n in num.items():
        raw[e] = get(e, 0) + n
    return start._settle(order, raw, den)


def _add_product(out: dict[int, int], a: _Series, b: _Series, order: int, scale: int) -> None:
    """Add scale times the numerators of a * b through degree `order` into out,
    keyed by packed exponent vectors: the one pair loop of every product.

    Both graded views are sorted by degree, so the outer loop, over the
    shorter view, and the inner loop stop at the first term past the order.
    """
    outer, inner = a._graded_terms(), b._graded_terms()
    if len(inner) < len(outer):
        outer, inner = inner, outer
    get = out.get
    for da, ka, na in outer:
        room = order - da
        if room < 0:
            break
        na *= scale
        for db, kb, nb in inner:
            if db > room:
                break
            k = ka + kb
            out[k] = get(k, 0) + na * nb


def _unpacked(num_roots: int, packed: dict[int, int]) -> dict[Exponents, int]:
    """The numerators of packed, keyed by exponent vectors."""
    packing = _packing(num_roots)
    known, vector = packing.vectors.get, packing.vector
    return {known(k) or vector(k): n for k, n in packed.items()}


def _zero(cls, num_roots: int, order: int):
    return cls(num_roots, order)


def _constant(cls, num_roots: int, order: int, value):
    return cls(num_roots, order, {(0,) * num_roots: value})


class RootSeries(_Series):
    """Sparse polynomial in the roots x_1..x_m, truncated by total degree."""

    __slots__ = ()
    _degree = staticmethod(sum)
    _symbol = "x"
    # Own entry: the benchmark's tracer times it as `symcalc.root_mul`.
    __mul__ = __rmul__ = _Series.__mul__
    zero = classmethod(_zero)
    constant = classmethod(_constant)

    @classmethod
    def variable(cls, num_roots: int, order: int, j: int) -> "RootSeries":
        """The single root x_{j+1} (0-indexed j)."""
        if not 0 <= j < num_roots:
            raise ValueError(f"root index {j} out of range for {num_roots} roots")
        expo = tuple(1 if i == j else 0 for i in range(num_roots))
        return cls(num_roots, order, {expo: Fraction(1)})

    @classmethod
    def from_univariate(
        cls, num_roots: int, order: int, j: int, coeffs: Iterable
    ) -> "RootSeries":
        """Substitute the root x_{j+1} into a one-variable series."""
        if not 0 <= j < num_roots:
            raise ValueError(f"root index {j} out of range for {num_roots} roots")
        terms = {}
        for k, q in enumerate(coeffs):
            if k > order:
                break
            expo = tuple(k if i == j else 0 for i in range(num_roots))
            terms[expo] = q
        return cls(num_roots, order, terms)


class ChernSeries(_Series):
    """Sparse polynomial in c_1..c_m, truncated by weighted degree.

    The exponent vector (e_1, ..., e_m) stands for c_1^{e_1} ... c_m^{e_m}
    and has weighted degree sum(k * e_k), matching the degree of its root
    expansion.  Expanding to roots and re-symmetrizing is the identity.
    """

    __slots__ = ()
    _degree = staticmethod(_weighted_degree)
    _symbol = "c"
    # Own entry: the benchmark's tracer times it as `symcalc.chern_mul`.
    __mul__ = __rmul__ = _Series.__mul__
    zero = classmethod(_zero)
    constant = classmethod(_constant)

    @classmethod
    def chern_class(cls, num_roots: int, order: int, k: int) -> "ChernSeries":
        """The single class c_k; c_0 is the constant 1."""
        if not 0 <= k <= num_roots:
            raise ValueError(f"c_{k} undefined with {num_roots} roots")
        if k == 0:
            return cls.constant(num_roots, order, 1)
        expo = tuple(1 if i == k - 1 else 0 for i in range(num_roots))
        return cls(num_roots, order, {expo: Fraction(1)})


# ---------------------------------------------------------------------------
# basis conversion
# ---------------------------------------------------------------------------


def elementary_symmetric(num_roots: int, k: int, order: int | None = None) -> RootSeries:
    """The elementary symmetric polynomial e_k(x_1, ..., x_m).

    `order` defaults to k, the degree of e_k itself; a smaller explicit
    order truncates the result away entirely.
    """
    if not 0 <= k <= num_roots:
        raise ValueError(
            f"elementary symmetric index {k} out of range 0..{num_roots}"
        )
    if order is None:
        order = k
    terms: dict[Exponents, Fraction] = {}
    for subset in itertools.combinations(range(num_roots), k):
        expo = tuple(1 if i in subset else 0 for i in range(num_roots))
        terms[expo] = Fraction(1)
    return RootSeries(num_roots, order, terms)


@lru_cache(maxsize=None)
def _elementary_cached(num_roots: int, k: int, order: int) -> RootSeries:
    return elementary_symmetric(num_roots, k, order)


def expand_to_roots(series: ChernSeries, order: int | None = None) -> RootSeries:
    """Substitute c_k = e_k(x) into a Chern-basis series."""
    if order is None:
        order = series.order
    m = series.num_roots
    total = RootSeries.zero(m, order)
    for expo, n in series._num.items():
        acc = RootSeries.constant(m, order, n)
        for k, e in enumerate(expo, start=1):
            if not e:
                continue
            ek = _elementary_cached(m, k, order)
            for _ in range(e):
                acc = acc * ek
        total = total + acc
    return total * Fraction(1, series._den)


def _check_symmetric(series: RootSeries) -> None:
    m, num, den = series.num_roots, series._num, series._den
    for i in range(m - 1):
        for expo, n in num.items():
            swapped = list(expo)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            other = num.get(tuple(swapped), 0)
            if other != n:
                raise SymmetryError(
                    f"series is not symmetric: swapping x{i + 1} and x{i + 2} "
                    f"sends the coefficient of {expo} from {Fraction(n, den)} "
                    f"to {Fraction(other, den)}"
                )


def symmetrize_to_chern(series: RootSeries) -> ChernSeries:
    """Rewrite a symmetric root series in the Chern-class basis.

    Uses the classical leading-term reduction: the lex-largest monomial of
    a symmetric polynomial has non-increasing exponents (a_1, ..., a_m) and
    is the leading monomial of c_1^{a_1-a_2} ... c_{m-1}^{a_{m-1}-a_m} c_m^{a_m}.
    Raises SymmetryError, naming a violating transposition, if the input is
    not invariant under all root permutations.
    """
    _check_symmetric(series)
    m, order = series.num_roots, series.order
    # Numerators over series._den throughout: a Chern monomial expands to
    # integer root coefficients.
    work = dict(series._num)
    out: dict[Exponents, int] = {}
    while work:
        alpha = max(work)
        coeff = work[alpha]
        cexpo = tuple(
            alpha[k] - alpha[k + 1] if k < m - 1 else alpha[k] for k in range(m)
        )
        out[cexpo] = out.get(cexpo, 0) + coeff
        expansion = expand_to_roots(ChernSeries(m, order, {cexpo: 1}), order)
        for e, q in expansion._num.items():
            val = work.get(e, 0) - coeff * q
            if val == 0:
                work.pop(e, None)
            else:
                work[e] = val
    return ChernSeries._make(m, order, *_lowest(out, series._den))


# ---------------------------------------------------------------------------
# univariate building blocks
# ---------------------------------------------------------------------------


def _exp_neg_coeffs(order: int) -> list[Fraction]:
    """Taylor coefficients of exp(-x) through degree `order`."""
    out = [Fraction(1)]
    fact = 1
    for k in range(1, order + 1):
        fact *= k
        out.append(Fraction((-1) ** k, fact))
    return out


#: Row n holds the degree-n Taylor coefficients (g_n, h_n, a_n) of
#: (1 - exp(-x)) / x, of its inverse x / (1 - exp(-x)) and of
#: log(x / (1 - exp(-x))).  Every order reads a prefix of these rows, so
#: `_todd_coeff_rows` appends each row once, whole.
_TODD_ROWS: list[tuple[Fraction, Fraction, Fraction]] = [(Fraction(1), Fraction(1), Fraction(0))]


def _todd_coeff_rows(order: int) -> list[tuple[Fraction, Fraction, Fraction]]:
    """The rows through degree `order` at least.

    g_n = (-1)^n / (n + 1)!, and h is g's inverse by exact power-series
    division, the convolution recurrence h_n = -sum_{k=1}^{n} g_k h_{n-k}:
    this is where all the Bernoulli-type denominators enter.  With
    h = exp(L) and h' = L' h, the coefficients a of L satisfy
    n h_n = sum_{k=1}^{n} k a_k h_{n-k}.
    """
    rows = _TODD_ROWS
    for n in range(len(rows), order + 1):
        g, h, a = zip(*rows)
        g_n = Fraction((-1) ** n, factorial(n + 1))
        h_n = -sum(g[k] * h[n - k] for k in range(1, n)) - g_n
        rows.append((g_n, h_n, (n * h_n - sum(k * a[k] * h[n - k] for k in range(1, n))) / n))
    return rows


@lru_cache(maxsize=None)
def _todd_factor_coeffs(order: int) -> tuple[Fraction, ...]:
    """Taylor coefficients of x / (1 - exp(-x)) through degree `order`."""
    return tuple(h for _, h, _ in _todd_coeff_rows(order)[:order + 1])


# ---------------------------------------------------------------------------
# genus generators in root coordinates: the reference oracle
# ---------------------------------------------------------------------------


def todd_roots(num_roots: int, order: int) -> RootSeries:
    """The Todd series prod_j x_j / (1 - exp(-x_j)) in root coordinates."""
    if num_roots < 1:
        raise ValueError("Todd series needs at least one root")
    factor = _todd_factor_coeffs(order)
    acc = RootSeries.constant(num_roots, order, 1)
    for j in range(num_roots):
        acc = acc * RootSeries.from_univariate(num_roots, order, j, factor)
    return acc


def todd_prime_roots(num_roots: int, order: int) -> RootSeries:
    """Derivative of Todd under the uniform root shift x_j -> x_j + t.

    Evaluated literally with a nilpotent shift variable: each factor
    becomes h(x_j) + t * h'(x_j) with t^2 = 0, the factors are multiplied
    as dual numbers, and the t-coefficient of the product is returned.
    """
    if num_roots < 1:
        raise ValueError("Todd series needs at least one root")
    base = _todd_factor_coeffs(order + 1)
    deriv = [k * q for k, q in enumerate(base)][1:]
    value = RootSeries.constant(num_roots, order, 1)
    slope = RootSeries.zero(num_roots, order)
    for j in range(num_roots):
        aj = RootSeries.from_univariate(num_roots, order, j, base[: order + 1])
        bj = RootSeries.from_univariate(num_roots, order, j, deriv)
        value, slope = value * aj, value * bj + slope * aj
    return slope


@lru_cache(maxsize=None)
def _exterior_levels(num_roots: int, order: int) -> tuple[RootSeries, ...]:
    """e_r(exp(-x_1), ..., exp(-x_m)) for every r at once, by one pass of
    the elementary-symmetric recurrence over the factors."""
    expo = _exp_neg_coeffs(order)
    levels = [RootSeries.constant(num_roots, order, 1)] + [
        RootSeries.zero(num_roots, order) for _ in range(num_roots)
    ]
    for j in range(num_roots):
        uj = RootSeries.from_univariate(num_roots, order, j, expo)
        for k in range(min(num_roots, j + 1), 0, -1):
            levels[k] = levels[k] + levels[k - 1] * uj
    return tuple(levels)


def ch_exterior_roots(num_roots: int, r: int, order: int) -> RootSeries:
    """Chern character of the r-th exterior power of the dual bundle.

    Equals e_r(exp(-x_1), ..., exp(-x_m)), the coefficient of (-t)^r in
    prod_j (1 - t * exp(-x_j)); r = 0 gives the constant 1.
    """
    if not 0 <= r <= num_roots:
        raise ValueError(f"exterior power {r} out of range 0..{num_roots}")
    return _exterior_levels(num_roots, order)[r]


# ---------------------------------------------------------------------------
# genus generators in the Chern basis
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _log_todd_factor_coeffs(order: int) -> tuple[Fraction, ...]:
    """Taylor coefficients a_0..a_order of log(x / (1 - exp(-x)))."""
    return tuple(a for _, _, a in _todd_coeff_rows(order)[:order + 1])


def _graded_exp(parts: list[_Series], pieces: list[_Series]) -> list[_Series]:
    """Extend `pieces`, the graded pieces E_0 = 1, E_1, ... of
    exp(X_1 t + ... + X_n t^n), in place through E_n, and return it.

    `parts` holds X_1..X_n.  d E_d = sum_{k=1}^{d} k X_k E_{d-k}, the
    recurrence that d/dt exp(X) = X' exp(X) gives degree by degree:
    E_d = X_d + sum_{k=1}^{d-1} (k / d) X_k E_{d-k}.
    """
    for d in range(len(pieces), len(parts) + 1):
        pieces.append(_linear(parts[d - 1], products=(
            (parts[k - 1], pieces[d - k], Fraction(k, d)) for k in range(1, d))))
    return pieces


class Genera:
    """The genera of a bundle with m Chern roots, built on first use.

    `chern` holds its Chern classes [c_0 = 1, c_1, ..., c_m], all
    `ChernSeries` (the universal series) or all classes of one ring model;
    every genus is computed through degree `order` from them alone.  The
    power sums, Td and each graded piece are built once; each read of
    `exterior` sums the pieces again.
    """

    def __init__(self, chern: Iterable[_Series], order: int):
        self.chern = tuple(chern)
        self.order, self.rank = order, len(self.chern) - 1
        self._zero = self.chern[0] * 0
        # what `_graded_pieces` has built: the parts X_1.., the Stirling
        # numbers S(i, n) of the last part X_n, and the pieces E_0..; the
        # parts and numbers are dropped once the pieces are complete, and a
        # restricted universal genera holds pieces alone (`_universal`)
        self._parts: list[_Series] = []
        self._stirling = [1] + [0] * order
        self._pieces = [self.chern[0]]

    @cached_property
    def power_sums(self) -> tuple[_Series, ...]:
        """The power sums p_0 = m, p_1, ..., p_order of the roots.

        Newton's identities: p_k = sum_{i=1}^{k-1} (-1)^{i-1} c_i p_{k-i}
        + (-1)^{k-1} k c_k, where c_i = 0 for i > m.
        """
        chern, m = self.chern, self.rank
        sums = [chern[0] * m]
        for k in range(1, self.order + 1):
            top = [(chern[k], (-1) ** (k - 1) * k)] if k <= m else []
            sums.append(_linear(self._zero, top, (
                (chern[i], sums[k - i], (-1) ** (i - 1)) for i in range(1, min(k - 1, m) + 1))))
        return tuple(sums)

    @cached_property
    def todd(self) -> _Series:
        """Td = exp(sum_k a_k p_k), a_k the coefficients of log(x / (1 - exp(-x))).

        a_k p_k has degree k: the graded exponential yields Td degree by degree."""
        unit = self.chern[0]
        a = _log_todd_factor_coeffs(self.order)
        parts = [p * a_k for p, a_k in zip(self.power_sums[1:], a[1:])]
        return _linear(unit, ((piece, 1) for piece in _graded_exp(parts, [unit])[1:]))

    def exterior(self, r: int) -> _Series:
        """ch Lambda^r E* of the rank-m bundle E, for 0 <= r <= m.

        ch Lambda^r E* = e_r(y) with y_j = exp(-x_j) = 1 + z_j.  The power
        sums of z are P_n = sum_i [x^i](exp(-x) - 1)^n p_i, where
        [x^i](exp(-x) - 1)^n = (-1)^i n! S(i, n) / i! with S the Stirling
        numbers of the second kind.  Newton's identities,
        k e_k = sum_{i=1}^{k} (-1)^{i-1} e_{k-i} P_i, are the graded
        exponential of X_n = (-1)^{n-1} P_n / n, and e_k(z) starts in degree k.
        Finally e_r(1 + z) = sum_k C(m - k, r - k) e_k(z), k <= min(r, order).
        Each X_n and E_k is built once, when the first r that needs it is read.
        """
        if not 0 <= r <= self.rank:
            raise ValueError(f"exterior power {r} out of range 0..{self.rank}")
        top, m = min(r, self.order), self.rank
        pieces = self._graded_pieces(top)
        return _linear(self._zero, ((pieces[k], comb(m - k, r - k)) for k in range(top + 1)))

    def _graded_pieces(self, top: int) -> list[_Series]:
        """The pieces E_0..E_top of `exterior` at least, top <= min(m, order),
        each built once: a part X_n is built only to extend the pieces
        through E_n.  Once the pieces reach E_min(m, order), which every
        r <= m reads, the parts and the Stirling numbers are dropped."""
        sums, order, zero = self.power_sums, self.order, self._zero
        stirling = self._stirling  # S(i, n), i = 0..order: n S(i-1, n) + S(i-1, n-1)
        for n in range(len(self._pieces), top + 1):
            stirling = list(itertools.accumulate(
                stirling[:-1], lambda left, up: n * left + up, initial=0))
            sign = (-1) ** (n - 1) * factorial(n - 1)
            self._parts.append(_linear(zero, (
                (sums[i], Fraction((-1) ** i * sign * stirling[i], factorial(i)))
                for i in range(n, order + 1))))
        self._stirling = stirling
        pieces = _graded_exp(self._parts, self._pieces)
        if len(pieces) > min(self.rank, order):
            self._parts, self._stirling = [], []
        return pieces


#: The universal genera with the most roots that `_universal` has built
#: directly (at most one entry; of equal root counts, the last built).
_LARGEST: list[Genera] = []


def _restricted(series: ChernSeries, num_roots: int, order: int) -> ChernSeries:
    """series with c_k = 0 for k > num_roots, over c_1..c_num_roots, through
    degree `order`, in lowest terms.

    Read off the graded view: it is sorted by degree, and c_k, k > num_roots,
    fill the lowest slots of a packed key (`_Packing`), so a term is kept
    when those slots are zero, and shifting them out gives its key over
    num_roots roots.
    """
    shift = SLOT_BITS * (series.num_roots - num_roots)
    dropped = (1 << shift) - 1
    packing = _packing(num_roots)
    known, vector = packing.vectors.get, packing.vector
    num = {}
    for d, key, n in series._graded_terms():
        if d > order:
            break
        if not key & dropped:
            key >>= shift
            num[known(key) or vector(key)] = n
    return ChernSeries._make(num_roots, order, *_lowest(num, series._den))


@lru_cache(maxsize=None)
def _universal(num_roots: int, order: int) -> Genera:
    """The genera of m roots in the c-basis, through degree `order`.

    When the genera in `_LARGEST` have at least m roots and at least this
    order, p_1.., Td and the pieces E_0..E_min(m, order) are theirs
    restricted (`_restricted`, exact by the rank stability of the module
    docstring), and p_0 is set to m.  `Genera.exterior` sums those pieces
    with m's binomials; they reach every r <= m, so it builds no part.
    Otherwise the genera are built directly, and become the record if they
    have at least as many roots.
    """
    chern = [ChernSeries.chern_class(num_roots, order, k) for k in range(num_roots + 1)]
    genera = Genera(chern, order)
    source = _LARGEST[0] if _LARGEST else None
    if source is None or source.rank < num_roots or source.order < order:
        if source is None or source.rank <= num_roots:
            _LARGEST[:] = [genera]
        return genera
    top = min(num_roots, order)
    pieces = source._graded_pieces(top)
    genera.power_sums = (chern[0] * num_roots,) + tuple(
        _restricted(p, num_roots, order) for p in source.power_sums[1:order + 1])
    genera.todd = _restricted(source.todd, num_roots, order)
    genera._pieces = [_restricted(e, num_roots, order) for e in pieces[:top + 1]]
    return genera


@lru_cache(maxsize=None)
def todd(num_roots: int, order: int) -> ChernSeries:
    """The Todd series prod_j x_j / (1 - exp(-x_j)) in the Chern-class basis."""
    if num_roots < 1:
        raise ValueError("Todd series needs at least one root")
    return _universal(num_roots, order).todd


@lru_cache(maxsize=None)
def todd_prime(num_roots: int, order: int) -> ChernSeries:
    """Derivative of Todd under the uniform root shift x_j -> x_j + t.

    The shift is the derivation p_k -> k p_{k-1} of the power sums, so
    Td' = Td * d/dt (sum_k a_k p_k) = Td * sum_k k a_k p_{k-1}.
    """
    if num_roots < 1:
        raise ValueError("Todd series needs at least one root")
    a = _log_todd_factor_coeffs(order + 1)
    genera = _universal(num_roots, order)
    slope = _linear(genera.chern[0] * 0, (
        (genera.power_sums[k - 1], k * a[k]) for k in range(1, order + 2)))
    return genera.todd * slope


@lru_cache(maxsize=None)
def ch_exterior(num_roots: int, r: int, order: int) -> ChernSeries:
    """ch of the r-th exterior power of the dual bundle, in the c-basis.

    Equals e_r(exp(-x_1), ..., exp(-x_m)); r = 0 gives the constant 1.
    """
    return _universal(num_roots, order).exterior(r)


# ---------------------------------------------------------------------------
# identity verification
# ---------------------------------------------------------------------------


def _guard_verify_roots(m: int) -> None:
    if not 1 <= m <= MAX_VERIFY_ROOTS:
        raise ValueError(
            f"number of roots must lie in 1..{MAX_VERIFY_ROOTS}, got {m}")


@lru_cache(maxsize=None)
def _alternating_sums(m: int) -> tuple[ChernSeries, ...]:
    """S_1, S_r and S_{r(r-1)} of m roots through degree m + 2, each one sum
    of the pieces E_k of `Genera.exterior`.

    ch Lambda^r = sum_k C(m - k, r - k) E_k (every k <= r, as r <= m < m + 2),
    so S_w = sum_r (-1)^r w(r) ch Lambda^r = sum_k q_k(w) E_k with
    q_k(w) = sum_{r=k}^{m} (-1)^r w(r) C(m - k, r - k).  That is (-1)^m times
    the (m - k)-th forward difference of w at k, zero for k < m - 2 as w has
    degree <= 2: each S_w sums at most three pieces, and S_1 = (-1)^m E_m.
    No ch Lambda^r is built.
    """
    order = m + 2
    pieces = _universal(m, order)._graded_pieces(m)
    sums = []
    for w in (lambda r: 1, lambda r: r, lambda r: r * (r - 1)):
        weights = (sum((-1) ** r * w(r) * comb(m - k, r - k) for r in range(k, m + 1))
                   for k in range(m + 1))
        sums.append(_linear(ChernSeries.zero(m, order),
                            [(e, q) for e, q in zip(pieces, weights) if q]))
    return tuple(sums)


def verify_total_class_identities(m: int) -> tuple[ChernSeries, ChernSeries, ChernSeries]:
    """Residuals of the three Todd / exterior-character identities.

    With S_w = sum_r (-1)^r w(r) ch of the r-th exterior dual power, read
    as S_w = sum_k q_k(w) E_k from the pieces E_k (`_alternating_sums`):

      (i)   Td * S_1                 =  c_m               (all degrees);
      (ii)  {Td * S_r}^[<= m]        = -c_{m-1} + (m/2) c_m;
      (iii) {Td * S_{r(r-1)}}^[m]    =  (1/6) c_1 c_{m-1} + m(3m-5)/12 c_m.

    Identity (i) is exact in every degree; it is checked at truncation
    m + 2, two degrees beyond the interesting window, to guard against
    truncation bugs.  Identities (ii) and (iii) are restricted to their
    stated degree windows, read off the same series truncated at m.
    Returns LHS - RHS for each; all-zero results mean the identities hold.
    """
    _guard_verify_roots(m)
    wide = m + 2
    td_wide = todd(m, wide)
    td = td_wide.truncate(m)

    def c(k: int, truncation: int) -> ChernSeries:
        return ChernSeries.chern_class(m, truncation, k)

    s1, sr, srr = _alternating_sums(m)
    res1 = td_wide * s1 - c(m, wide)

    # Truncated at order m, the product is its own [<= m] window.
    res2 = td * sr.truncate(m) - (-c(m - 1, m) + c(m, m) * Fraction(m, 2))

    lhs3 = (td * srr.truncate(m)).degree_part(m)
    rhs3 = c(1, m) * c(m - 1, m) * Fraction(1, 6) + c(m, m) * Fraction(
        m * (3 * m - 5), 12
    )
    res3 = lhs3 - rhs3.degree_part(m)

    return res1, res2, res3


def verify_shifted_class_identities(m: int) -> tuple[ChernSeries, ChernSeries]:
    """Residuals of the two shifted-Todd identities.

      (i)  {Td' * S_1}^[m] = (m/2) c_m;
      (ii) {Td' * S_r}^[m] = (1/12) c_1 c_{m-1} + (m^2/4) c_m.

    Returns LHS - RHS in the stated top-degree window for each.
    """
    _guard_verify_roots(m)
    tdp = todd_prime(m, m + 2).truncate(m)

    def c(k: int) -> ChernSeries:
        return ChernSeries.chern_class(m, m, k)

    s1, sr, _ = _alternating_sums(m)
    res1 = (tdp * s1.truncate(m)).degree_part(m) - c(m) * Fraction(m, 2)

    lhs2 = (tdp * sr.truncate(m)).degree_part(m)
    rhs2 = c(1) * c(m - 1) * Fraction(1, 12) + c(m) * Fraction(m * m, 4)
    res2 = lhs2 - rhs2.degree_part(m)

    return res1, res2
