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
e_r(1 + z) = sum_k C(m - k, r - k) e_k(z).  One memo, `Genera`, runs these
steps on given Chern classes and builds each result once: the universal
series read one per root count and order, and `chow` one per ring model.

`todd_roots`, `todd_prime_roots` (with a nilpotent shift variable,
t^2 = 0) and `ch_exterior_roots` build the same series in root
coordinates, with C(m + n, m) monomials; `symmetrize_to_chern` folds them
back by leading-term reduction.  No production path uses them: they are
the independent reference the tests compare the Chern-basis series with.

`verify_total_class_identities` and `verify_shifted_class_identities`
multiply the Chern-basis generators out and return the residuals of the
five closed-form identities they satisfy; a residual is an ordinary
result, so a nonzero residual is reported, not raised.  Both read every
series from the one memo of order m + 2, and the weighted sums of the
exterior characters from one memo of sums per root count.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, factorial, gcd, lcm
from operator import add

Exponents = tuple[int, ...]
Coeffs = Mapping[Exponents, Fraction]

#: Largest number of roots the identity-verification entry points accept.
#: The series live in the Chern basis, so cost grows with the number of
#: partitions of the truncation order m + 2: `cypair identities --max-m 15`
#: takes 3.9-4.4 s and 16 takes 6.5-6.6 s on a 2-CPU Xeon VM.
MAX_VERIFY_ROOTS = 15


class SymmetryError(ValueError):
    """Raised when a root series claimed to be symmetric is not."""


@lru_cache(maxsize=None)
def _weighted_degree(expo: Exponents) -> int:
    return sum((k + 1) * e for k, e in enumerate(expo))


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
    of series, goes through one linear pass, `_linear`, which reduces to
    lowest terms once.  A subclass may replace these
    rules (`_compatible`), the product's result (`_settle`), the printed
    variable names (`_names`) and what equal series share (`_space`).
    """

    __slots__ = ("num_roots", "order", "_num", "_den")

    def __init__(self, num_roots: int, order: int, terms: Coeffs | None = None):
        if num_roots < 0 or order < 0:
            raise ValueError("num_roots and order must be non-negative")
        degree = self._degree
        kept = {}
        for expo, q in (terms or {}).items():
            if len(expo) != num_roots:
                raise ValueError(f"exponent vector {expo} has wrong length")
            if degree(expo) <= order:
                kept[expo] = q
        self.num_roots = num_roots
        self.order = order
        self._num, self._den = _integer_form(kept)

    @classmethod
    def _make(cls, num_roots: int, order: int, num: dict, den: int) -> "_Series":
        """A series from numerators already in lowest terms, unchecked."""
        out = object.__new__(cls)
        out.num_roots, out.order, out._num, out._den = num_roots, order, num, den
        return out

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
            q = Fraction(other)
            const = {(0,) * self.num_roots: q.numerator} if q else {}
            other = self._new(self.order, const, q.denominator)
        return _linear(self, [(other, 1)])

    __radd__ = __add__

    def __neg__(self):
        return self._new(self.order, {e: -n for e, n in self._num.items()}, self._den)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not type(self):
            q = Fraction(other)
            n = q.numerator
            scaled = {e: c * n for e, c in self._num.items()}
            return self._new(self.order, *_lowest(scaled, self._den * q.denominator))
        order = self._compatible(other)
        degree = self._degree
        a, b = self._num, other._num
        if len(b) < len(a):
            a, b = b, a
        graded_b = sorted((degree(eb), eb, nb) for eb, nb in b.items())
        out: dict[Exponents, int] = {}
        get = out.get
        for ea, na in a.items():
            room = order - degree(ea)
            for db, eb, nb in graded_b:
                if db > room:
                    break
                e = tuple(map(add, ea, eb))
                out[e] = get(e, 0) + na * nb
        return self._settle(order, out, self._den * other._den)

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


def _linear(start: _Series, pairs: Iterable[tuple[_Series, int | Fraction]]) -> _Series:
    """start + sum of q * s over the (s, q) pairs, by the rules of `+`, in one pass.

    Every s must combine with start, and the result is truncated at the
    smallest order of them all; a zero q adds no terms.  The numerators
    are summed over one common denominator and brought to lowest terms
    once, not once per scalar product and sum.  A combination of basis
    classes is a basis class, so the result is built by `start._new`.
    """
    pairs = list(pairs)
    order = start.order
    for s, _ in pairs:
        if type(s) is not type(start):
            raise TypeError(f"cannot combine {type(start).__name__} with {type(s).__name__}")
        order = min(order, start._compatible(s))
    wide = start.order > order or any(s.order > order for s, _ in pairs)
    scaled = [(s._num, s._den * q.denominator, q.numerator) for s, q in pairs if q]
    den = lcm(start._den, *(d for _, d, _ in scaled))
    scale = den // start._den
    num = {e: n * scale for e, n in start._num.items()} if scale > 1 else dict(start._num)
    get = num.get
    for terms, d, q in scaled:
        scale = q * (den // d)
        for e, n in terms.items():
            num[e] = get(e, 0) + n * scale
    if wide:
        degree = start._degree
        num = {e: n for e, n in num.items() if degree(e) <= order}
    return start._new(order, *_lowest(num, den))


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
            terms[expo] = Fraction(q)
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


def _todd_factor_coeffs(order: int) -> list[Fraction]:
    """Taylor coefficients of x / (1 - exp(-x)) through degree `order`.

    Computed by exact power-series division: (1 - exp(-x))/x has constant
    term 1, and the inverse follows from the convolution recurrence.  This
    is where all the Bernoulli-type denominators enter.
    """
    g = [Fraction((-1) ** k, 1) for k in range(order + 1)]
    fact = 1
    for k in range(order + 1):
        fact = fact * (k + 1)
        g[k] /= fact  # g_k = (-1)^k / (k+1)!
    h = [Fraction(1)]
    for n in range(1, order + 1):
        h.append(-sum(g[k] * h[n - k] for k in range(1, n + 1)))
    return h


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


def _log_todd_factor_coeffs(order: int) -> list[Fraction]:
    """Taylor coefficients a_0..a_order of log(x / (1 - exp(-x))).

    With h = exp(L) and h' = L' h, the coefficients satisfy
    n h_n = sum_{k=1}^{n} k a_k h_{n-k}.
    """
    h = _todd_factor_coeffs(order)
    a = [Fraction(0)]
    for n in range(1, order + 1):
        a.append((n * h[n] - sum(k * a[k] * h[n - k] for k in range(1, n))) / n)
    return a


def _graded_exp(parts: list[_Series], unit: _Series) -> list[_Series]:
    """The graded pieces E_0, ..., E_n of exp(X_1 t + ... + X_n t^n).

    `parts` holds X_1..X_n.  E_0 = 1 and d E_d = sum_{k=1}^{d} k X_k E_{d-k},
    the recurrence that d/dt exp(X) = X' exp(X) gives degree by degree:
    E_d = X_d + sum_{k=1}^{d-1} (k / d) X_k E_{d-k}.
    """
    pieces = [unit]
    for d in range(1, len(parts) + 1):
        pieces.append(_linear(parts[d - 1], (
            (parts[k - 1] * pieces[d - k], Fraction(k, d)) for k in range(1, d))))
    return pieces


class Genera:
    """The genera of a bundle with m Chern roots, each built once on first use.

    `chern` holds its Chern classes [c_0 = 1, c_1, ..., c_m], all
    `ChernSeries` (the universal series) or all classes of one ring model;
    every genus is computed through degree `order` from them alone.
    """

    def __init__(self, chern: Iterable[_Series], order: int):
        self.chern = tuple(chern)
        self.order, self.rank = order, len(self.chern) - 1

    @cached_property
    def power_sums(self) -> tuple[_Series, ...]:
        """The power sums p_0 = m, p_1, ..., p_order of the roots.

        Newton's identities: p_k = sum_{i=1}^{k-1} (-1)^{i-1} c_i p_{k-i}
        + (-1)^{k-1} k c_k, where c_i = 0 for i > m.
        """
        chern, m = self.chern, self.rank
        zero = chern[0] * 0
        sums = [chern[0] * m]
        for k in range(1, self.order + 1):
            top = [(chern[k], (-1) ** (k - 1) * k)] if k <= m else []
            sums.append(_linear(zero, top + [
                (chern[i] * sums[k - i], (-1) ** (i - 1)) for i in range(1, min(k - 1, m) + 1)]))
        return tuple(sums)

    @cached_property
    def todd(self) -> _Series:
        """Td = exp(sum_k a_k p_k), a_k the coefficients of log(x / (1 - exp(-x))).

        a_k p_k has degree k: the graded exponential yields Td degree by degree."""
        unit = self.chern[0]
        a = _log_todd_factor_coeffs(self.order)
        parts = [p * a_k for p, a_k in zip(self.power_sums[1:], a[1:])]
        return _linear(unit, ((piece, 1) for piece in _graded_exp(parts, unit)[1:]))

    @cached_property
    def exterior(self) -> tuple[_Series, ...]:
        """ch Lambda^r E*, r = 0..m, of the rank-m bundle E.

        ch Lambda^r E* = e_r(y) with y_j = exp(-x_j) = 1 + z_j.  The power
        sums of z are P_n = sum_i [x^i](exp(-x) - 1)^n p_i, where
        [x^i](exp(-x) - 1)^n = (-1)^i n! S(i, n) / i! with S the Stirling
        numbers of the second kind.  Newton's identities,
        k e_k = sum_{i=1}^{k} (-1)^{i-1} e_{k-i} P_i, are the graded
        exponential of X_n = (-1)^{n-1} P_n / n, and e_k(z) starts in degree k.
        Finally e_r(1 + z) = sum_k C(m - k, r - k) e_k(z).
        """
        sums, order, unit, m = self.power_sums, self.order, self.chern[0], self.rank
        zero = unit * 0
        top = min(m, order)
        stirling = [1] + [0] * order  # S(i, n), i = 0..order: n S(i-1, n) + S(i-1, n-1)
        parts = []
        for n in range(1, top + 1):
            stirling = list(itertools.accumulate(
                stirling[:-1], lambda left, up: n * left + up, initial=0))
            sign = (-1) ** (n - 1) * factorial(n - 1)
            parts.append(_linear(zero, (
                (sums[i], Fraction((-1) ** i * sign * stirling[i], factorial(i)))
                for i in range(n, order + 1))))
        elementary = _graded_exp(parts, unit)
        return tuple(
            _linear(zero, ((elementary[k], comb(m - k, r - k)) for k in range(min(r, top) + 1)))
            for r in range(m + 1)
        )


@lru_cache(maxsize=None)
def _universal(num_roots: int, order: int) -> Genera:
    """The genera of m roots in the c-basis, through degree `order`."""
    return Genera([ChernSeries.chern_class(num_roots, order, k)
                   for k in range(num_roots + 1)], order)


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
    if not 0 <= r <= num_roots:
        raise ValueError(f"exterior power {r} out of range 0..{num_roots}")
    return _universal(num_roots, order).exterior[r]


# ---------------------------------------------------------------------------
# identity verification
# ---------------------------------------------------------------------------


def _guard_verify_roots(m: int) -> None:
    if not 1 <= m <= MAX_VERIFY_ROOTS:
        raise ValueError(
            f"number of roots must lie in 1..{MAX_VERIFY_ROOTS}, got {m}")


@lru_cache(maxsize=None)
def _alternating_sums(m: int) -> tuple[ChernSeries, ...]:
    """S_1, S_r and S_{r(r-1)} of m roots through degree m + 2, from one read of each ch."""
    order = m + 2
    chs = [ch_exterior(m, r, order) for r in range(m + 1)]
    return tuple(
        _linear(ChernSeries.zero(m, order), ((ch, (-1) ** r * w(r)) for r, ch in enumerate(chs)))
        for w in (lambda r: 1, lambda r: r, lambda r: r * (r - 1)))


def verify_total_class_identities(m: int) -> tuple[ChernSeries, ChernSeries, ChernSeries]:
    """Residuals of the three Todd / exterior-character identities.

    With S_w = sum_r (-1)^r w(r) ch of the r-th exterior dual power:

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
