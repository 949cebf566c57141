"""Finite cohomology-ring models with exact integration.

The supported family is deliberately closed: the point, projective spaces,
finite products, and iterated projective bundles P(N + 1) whose twisting
bundle N is described by its total Chern class on an already-modeled base.
Every model is a quotient presentation

    Q[g_1, ..., g_k] / (g_i^{cap_i + 1} - rewrite_i)

where each generator g_i has degree one, the basis consists of the
monomials with per-generator exponents bounded by the caps, and the
integration functional sends the volume monomial prod_i g_i^{cap_i} to 1
and every other basis monomial to 0.  Rewriting a monomial only ever
lowers the exponent of the generator being rewritten while touching
generators introduced earlier, so reduction terminates and the family is
confluent.

Chern classes of tangent bundles are carried along: (1+h)^{n+1} for
projective space, Whitney products across products, and the relative
Euler sequence for projective bundles.  `hrr_chi` integrates
Td(T) * ch(E).  Td(T) and every ch Lambda^p T* come from `RingModel.genera`,
the `symcalc.Genera` of the model's classes c_k(T): the same class, and the
same algorithms, that build `symcalc`'s universal series.

A class is a `symcalc` series in the model's generators, graded by total
degree and truncated at the dimension, that holds coefficients of basis
monomials only; its arithmetic is the series arithmetic, on integer
numerators over one denominator.  Raw monomials are brought to the basis
by one reducer, `RingModel.reduce_terms`, which takes that integer form,
maps each distinct raw monomial through a per-model memo once and scatters
the memo's integer vectors into the class.  The memo fills itself through
the same reducer: a monomial over a cap is rewritten once by its rule,
held as integer numerators over one denominator, and the rewritten sum
goes back to `reduce_terms`, so each of its monomials is reduced once per
model, in integers.  A class product is the truncated series product,
whose raw monomials go to that reducer instead of becoming coefficients.

`hrr_chi` applies a linear functional to ch: the model's `todd_pairing`,
b -> integral of Td(T) * b on the basis monomials b, built once per model
from the top-degree entries of the memo.  A call is one pass over the
terms of ch, and neither Td * ch nor its reduction is formed.
`adiabatic_coefficient` integrates c_1 c_{dim-1} by the same pairing of
complementary degrees.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, repeat
from math import factorial, lcm, prod
from operator import add, mul
from typing import Mapping

from . import symcalc

Monomial = tuple[int, ...]


class ModelError(ValueError):
    """Raised for malformed model inputs or inconsistent model data."""


class RingModel:
    """A finite graded ring presentation with an integration functional."""

    def __init__(
        self,
        generators: tuple[str, ...],
        caps: tuple[int, ...],
        rewrites: Mapping[int, Mapping[Monomial, Fraction]],
        *,
        base: "RingModel | None" = None,
        fiber_rank: int | None = None,
    ):
        if len(generators) != len(caps):
            raise ModelError("one cap per generator required")
        if len(set(generators)) != len(generators):
            raise ModelError("generator names must be distinct")
        self.generators = generators
        self.caps = caps
        self.dim = sum(caps)
        self.rewrites = {i: dict(rule) for i, rule in rewrites.items()}
        # generator -> (numerators, denominator) of its rule, made once
        self._rules = {i: symcalc._integer_form(rule) for i, rule in self.rewrites.items()}
        self.base = base
        self.fiber_rank = fiber_rank
        self.tangent_chern: CohClass = self.one()  # set once by the constructors
        # raw exponent tuple -> (denominator, ((basis monomial, numerator), ...))
        self._reduced: dict[Monomial, tuple[int, tuple[tuple[Monomial, int], ...]]] = {}

    @cached_property
    def genera(self) -> symcalc.Genera:
        """Td and the ch Lambda^p of the tangent bundle, each piece built on first use."""
        return symcalc.Genera(map(self.tangent_chern.component, range(self.dim + 1)), self.dim)

    @cached_property
    def todd_pairing(self) -> tuple[dict[Monomial, int], int]:
        """The functional b -> integral of Td(T) * b on every basis monomial b."""
        return self._pairing(self.genera.todd, self.basis())

    # -- class constructors ----------------------------------------------

    def zero(self) -> "CohClass":
        return _class(self, {}, 1)

    def one(self) -> "CohClass":
        return self.constant(1)

    def constant(self, value) -> "CohClass":
        return CohClass(self, {(0,) * len(self.generators): value})

    def gen_class(self, which) -> "CohClass":
        """The degree-one class of a generator, by index or by name."""
        gens = self.generators
        if isinstance(which, int):
            if not 0 <= which < len(gens):
                raise ModelError(f"no generator with index {which}: the generators are {gens}")
            idx = which
        elif which in gens:
            idx = gens.index(which)
        else:
            raise ModelError(f"no generator named {which!r}: the generators are {gens}")
        expo = tuple(1 if i == idx else 0 for i in range(len(gens)))
        return self.reduce_terms({expo: 1}, 1)

    def basis(self) -> list[Monomial]:
        """All basis monomials (exponents within the caps), sorted by degree."""
        from itertools import product as cartesian

        monomials = [
            tuple(expo) for expo in cartesian(*(range(c + 1) for c in self.caps))
        ]
        monomials.sort(key=lambda m: (sum(m), m))
        return monomials

    # -- monomial reduction ----------------------------------------------

    def reduce_terms(self, raw: Mapping[Monomial, int], den: int, order=None) -> "CohClass":
        """The class sum_m raw[m] * m / den, for integers raw[m] and den > 0, of order
        `order` (default: the dimension), which no raw monomial's degree exceeds."""
        memo = self._reduced
        vectors = [memo.get(mono) or self._reduced_vector(mono) for mono in raw]
        common = lcm(*(d for d, _ in vectors))
        out: dict[Monomial, int] = {}
        get = out.get
        for n, (d, vector) in zip(raw.values(), vectors):
            if common != 1:
                n *= common // d
            for mono, v in vector:
                out[mono] = get(mono, 0) + n * v
        return _class(self, *symcalc._lowest(out, den * common), order)

    def _reduced_vector(self, mono: Monomial) -> tuple[int, tuple[tuple[Monomial, int], ...]]:
        """The memoized reduction of one raw monomial: (denominator, numerators)."""
        entry = self._reduced.get(mono)
        if entry is None:
            entry = self._reduced[mono] = self._rewrite(mono)
        return entry

    def _rewrite(self, mono: Monomial) -> tuple[int, tuple[tuple[Monomial, int], ...]]:
        """One raw monomial brought to the basis, as `_reduced_vector` holds it.

        A monomial above the dimension is 0 and a basis monomial is itself.
        Otherwise the last generator over its cap is rewritten once by its
        rule, and the rewritten sum goes through `reduce_terms`, so that each
        of its monomials is reduced through the memo too.
        """
        if sum(mono) > self.dim:
            return 1, ()
        for i in reversed(range(len(mono))):
            if mono[i] > self.caps[i]:
                if i not in self._rules:
                    return 1, ()  # g_i^{cap+1} = 0
                num, den = self._rules[i]
                rest = list(mono)
                rest[i] -= self.caps[i] + 1
                cls = self.reduce_terms(
                    {tuple(map(add, rest, rmono)): n for rmono, n in num.items()}, den)
                return cls._den, tuple(cls._num.items())
        return 1, ((mono, 1),)

    def _pairing(self, cls: "CohClass", monomials) -> tuple[dict[Monomial, int], int]:
        """b -> integral of cls * b on the given basis monomials b, as integer
        numerators over one denominator (zero values left out).

        Only the terms of cls of complementary degree pair with b, and only
        the volume coefficient of their memoized reduction is read, so the
        product is never formed.
        """
        by_degree: dict[int, list[Monomial]] = {}
        for b in monomials:
            by_degree.setdefault(self.dim - sum(b), []).append(b)
        volume = self.caps
        pairs = []
        for t, nt in cls._num.items():
            for b in by_degree.get(sum(t), ()):
                d, vector = self._reduced_vector(tuple(map(add, t, b)))
                pairs.extend((b, nt * v, d) for mono, v in vector if mono == volume)
        common = lcm(*(d for _, _, d in pairs))
        out: dict[Monomial, int] = {}
        for b, n, d in pairs:
            out[b] = out.get(b, 0) + n * (common // d)
        return symcalc._lowest(out, cls._den * common)

    def __repr__(self):
        gens = ", ".join(
            f"{g}^{c + 1}" for g, c in zip(self.generators, self.caps)
        )
        return f"RingModel(dim {self.dim}; relations {gens or 'none'})"


class CohClass(symcalc._Series):
    """A cohomology class: an exact-coefficient sum of basis monomials.

    A `symcalc` series in the model's generators, graded by total degree
    and truncated at the model's dimension, whose `terms` hold basis
    monomials (every exponent within its cap) only: the constructor drops
    monomials above the dimension, which are 0, and rejects any other
    monomial outside the basis.  A product's raw monomials go through
    `RingModel.reduce_terms`, as must any other sum of raw monomials.
    Only classes on the same model combine.
    """

    __slots__ = ("model",)
    _degree = staticmethod(sum)
    _error = ModelError
    # Own entry: the benchmark's tracer times it as `chow.mul`.
    __mul__ = __rmul__ = symcalc._Series.__mul__

    def __init__(self, model: RingModel, terms: Mapping[Monomial, Fraction]):
        self.model = model
        symcalc._Series.__init__(self, len(model.generators), model.dim, terms)
        for mono in self._num:
            if any(e > cap for e, cap in zip(mono, model.caps)):
                raise ModelError(f"monomial {mono} exceeds the caps {model.caps}: "
                                 "not a basis monomial (see reduce_terms)")

    def _new(self, order: int, num: dict[Monomial, int], den: int) -> "CohClass":
        return _class(self.model, num, den, order)

    def _compatible(self, other: "CohClass") -> int:
        if self.model is not other.model:
            raise ModelError("classes belong to different ring models")
        return min(self.order, other.order)

    def _settle(self, order: int, raw: dict[Monomial, int], den: int) -> "CohClass":
        return self.model.reduce_terms(raw, den, order)

    def _names(self) -> tuple[str, ...]:
        return self.model.generators

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not defined")
        result = self._new(self.order, {}, 1) + 1
        for _ in range(k):
            result = result * self
        return result

    def _space(self) -> RingModel:
        return self.model

    #: The part of total degree p.
    component = symcalc._Series.degree_part


def _class(model: RingModel, num: dict[Monomial, int], den: int, order=None) -> CohClass:
    """The class num / den, basis numerators in lowest terms, of order `order` or dim."""
    out = CohClass._make(len(model.generators), model.dim if order is None else order, num, den)
    out.model = model
    return out


# ---------------------------------------------------------------------------
# model constructors
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def point() -> RingModel:
    model = RingModel((), (), {})
    model.tangent_chern = model.one()
    return model


@lru_cache(maxsize=None)
def projective_space(n: int) -> RingModel:
    """Q[h]/(h^{n+1}) with integral of h^n equal to 1 and c(T) = (1+h)^{n+1}."""
    if n < 0:
        raise ModelError("projective space dimension must be non-negative")
    if n == 0:
        return point()
    model = RingModel(("h",), (n,), {})
    h = model.gen_class(0)
    model.tangent_chern = (model.one() + h) ** (n + 1)
    return model


def _unique_names(taken: list[str], names: tuple[str, ...]) -> tuple[str, ...]:
    out = []
    for name in names:
        candidate = name
        suffix = 2
        while candidate in taken:
            candidate = f"{name}{suffix}"
            suffix += 1
        taken.append(candidate)
        out.append(candidate)
    return tuple(out)


def _pad_terms(terms, left: int, right: int):
    return {
        (0,) * left + mono + (0,) * right: q for mono, q in terms.items()
    }


def product(a: RingModel, b: RingModel) -> RingModel:
    """Tensor product of two models; integration and tangent classes multiply."""
    taken: list[str] = []
    names = _unique_names(taken, a.generators) + _unique_names(taken, b.generators)
    la, lb = len(a.generators), len(b.generators)
    rewrites: dict[int, dict[Monomial, Fraction]] = {}
    for i, rule in a.rewrites.items():
        rewrites[i] = _pad_terms(rule, 0, lb)
    for i, rule in b.rewrites.items():
        rewrites[la + i] = _pad_terms(rule, la, 0)
    model = RingModel(names, a.caps + b.caps, rewrites)
    ta, tb = a.tangent_chern, b.tangent_chern
    model.tangent_chern = (_class(model, _pad_terms(ta._num, 0, lb), ta._den)
                           * _class(model, _pad_terms(tb._num, la, 0), tb._den))
    return model


def lift_from_base(model: RingModel, cls: CohClass) -> CohClass:
    """Pull a class on the base of a projective bundle back to the bundle."""
    if model.base is None:
        raise ModelError("model is not a projective bundle")
    if cls.model is not model.base:
        raise ModelError("class does not live on the bundle's base")
    return _class(model, _pad_terms(cls._num, 0, 1), cls._den)


def projective_bundle(base: RingModel, chern_n: CohClass, rank: int) -> RingModel:
    """The bundle P(N + trivial line) over `base`, with c(N) = `chern_n`.

    Adds one generator of degree one subject to the Grothendieck relation
    of N + 1; fibers are projective spaces of dimension `rank`, and the
    fiberwise integral of the top power of the new generator is 1.
    """
    if chern_n.model is not base:
        raise ModelError("chern_n must live on the base model")
    if rank < 1:
        raise ModelError("bundle rank must be at least 1")
    if chern_n.component(0) != base.one():
        raise ModelError("a total Chern class must have degree-0 part 1")
    for p in range(rank + 1, base.dim + 1):
        if not chern_n.component(p).is_zero():
            raise ModelError(
                f"total Chern class has a nonzero part in degree {p} > rank {rank}"
            )

    taken = list(base.generators)
    (xi_name,) = _unique_names(taken, ("xi",))
    names = base.generators + (xi_name,)
    nb = len(base.generators)
    rewrites: dict[int, dict[Monomial, Fraction]] = {
        i: _pad_terms(rule, 0, 1) for i, rule in base.rewrites.items()
    }
    # xi^{rank+1} = - sum_{i=1..rank} c_i(N) xi^{rank+1-i}
    relation: dict[Monomial, Fraction] = {}
    for i in range(1, rank + 1):
        for mono, q in chern_n.component(i).terms.items():
            relation[mono + (rank + 1 - i,)] = -q
    if relation:
        rewrites[nb] = relation
    model = RingModel(names, base.caps + (rank,), rewrites,
                      base=base, fiber_rank=rank)

    # Relative tangent class c((N + 1) tensor O(1)), by the twist formula
    # for a bundle of rank rank+1 with c_i = c_i(N) (Fulton, Intersection
    # Theory, 3.2): sum_{i=0..rank} c_i(N) (1 + xi)^{rank+1-i}.
    one_plus_xi = model.one() + model.gen_class(nb)
    powers = accumulate(repeat(one_plus_xi, rank + 1), mul)  # (1 + xi)^1, ..., ^(rank+1)
    relative = symcalc._linear(model.zero(), products=(
        (lift_from_base(model, chern_n.component(i)), power, 1)
        for i, power in zip(reversed(range(rank + 1)), powers)))
    model.tangent_chern = lift_from_base(model, base.tangent_chern) * relative
    return model


def fiber_integrate(model: RingModel, cls: CohClass) -> CohClass:
    """Push a class on a projective bundle down to its base.

    Only the coefficient of the top fiber power survives: the pushforward
    of xi^k vanishes for k below the fiber rank and is 1 at the rank.
    """
    if model.base is None or model.fiber_rank is None:
        raise ModelError("model is not a projective bundle")
    if cls.model is not model:
        raise ModelError("class does not live on this bundle")
    nb = len(model.base.generators)
    top = {mono[:nb]: n for mono, n in cls._num.items() if mono[nb] == model.fiber_rank}
    return _class(model.base, *symcalc._lowest(top, cls._den))


# ---------------------------------------------------------------------------
# integration and Riemann-Roch
# ---------------------------------------------------------------------------


def integrate(cls: CohClass) -> Fraction:
    """The coefficient of the volume monomial; zero without a top-degree part."""
    return Fraction(cls._num.get(cls.model.caps, 0), cls._den)


def euler_characteristic(model: RingModel) -> int:
    """The integral of the top Chern class of the tangent bundle."""
    value = integrate(model.tangent_chern)
    if value.denominator != 1:
        raise ModelError(
            f"Euler characteristic {value} is not an integer; model is inconsistent"
        )
    return int(value)


def adiabatic_coefficient(model: RingModel) -> Fraction:
    """dim * chi + the integral of c_1 c_{dim-1} of the tangent bundle.

    The coefficient that scales logarithmically in the collapsing-fiber
    limit of a trivial fibration; zero by convention on a point.
    """
    n = model.dim
    if n == 0:
        return Fraction(0)
    chi = euler_characteristic(model)
    c1 = model.tangent_chern.component(1)
    top_minus = model.tangent_chern.component(n - 1)
    return n * chi + _paired(model._pairing(c1, top_minus._num), top_minus)


def evaluate_chern_series(series: symcalc.ChernSeries, total_chern: CohClass) -> CohClass:
    """Evaluate a universal polynomial in c_1..c_m at actual Chern classes.

    No genus is computed this way: the ring genera are checked against it.
    """
    model = total_chern.model
    power = lru_cache(maxsize=None)(lambda k, e: total_chern.component(k) ** e)
    total = model.zero()
    for expo, n in series._num.items():
        if symcalc._weighted_degree(expo) <= model.dim:
            acc = prod((power(k, e) for k, e in enumerate(expo, 1) if e), start=model.one())
            total = total + acc * n
    return total * Fraction(1, series._den)


def todd_class(model: RingModel) -> CohClass:
    """Td of the tangent bundle, as a class on the model."""
    return model.genera.todd


def hrr_chi(model: RingModel, ch_sheaf: CohClass) -> Fraction:
    """The Riemann-Roch Euler characteristic: integral of Td(T) * ch.

    The integral of Td * b is read for each basis monomial b of ch from the
    model's `todd_pairing`, so neither the product Td * ch nor its
    reduction is formed: one pass over the terms of ch.
    """
    if ch_sheaf.model is not model:
        raise ModelError("ch class does not live on this model")
    rank = ch_sheaf.constant_term()
    if rank.denominator != 1:
        raise ModelError(f"ch has non-integral rank {rank}")
    return _paired(model.todd_pairing, ch_sheaf)


def _paired(pairing: tuple[dict[Monomial, int], int], cls: CohClass) -> Fraction:
    """A `RingModel._pairing` functional applied to the class cls."""
    values, den = pairing
    return Fraction(sum(n * values.get(b, 0) for b, n in cls._num.items()), den * cls._den)


def ch_line(model: RingModel, divisor: CohClass) -> CohClass:
    """Chern character exp(D) of a line bundle with first Chern class D."""
    if divisor.model is not model:
        raise ModelError("divisor class does not live on this model")
    powers = accumulate(repeat(divisor, model.dim), mul)  # D, D^2, ..., D^dim
    return symcalc._linear(model.one(), (
        (power, Fraction(1, factorial(k))) for k, power in enumerate(powers, 1)))


def ch_cotangent_exterior(model: RingModel, p: int) -> CohClass:
    """ch of the p-th exterior power of the cotangent bundle."""
    return model.genera.exterior(p)


def chi_twisted_hodge(n: int, p: int, s: int) -> Fraction:
    """chi of projective n-space with values in Omega^p twisted by O(s)."""
    if not 0 <= p <= n:
        raise ValueError(f"form degree {p} out of range 0..{n}")
    model = projective_space(n)
    sheaf = ch_cotangent_exterior(model, p)
    if n > 0 and s != 0:
        sheaf = sheaf * ch_line(model, model.gen_class(0) * s)
    return hrr_chi(model, sheaf)
