"""Weighted Euler characteristics of simple normal crossing pairs.

A pair here is the combinatorial skeleton of a compact manifold together
with a divisor sum(m_j D_j) whose components intersect transversally: a
nonzero integer d, one multiplicity per component, and a stratum table
recording the topological Euler characteristic of every nonempty
intersection D_J of components.  The weighted Euler characteristic

    chi_d = sum_J w_d^J chi(D_J),   w_d^J = prod_{j in J} (-m_j)/(m_j + d)

is the quantity everything in this module computes, transforms, and
checks.

Stratum tables
--------------
Subsets J are bitmasks over component indices; the table maps masks of
*nonempty* strata to `Stratum` records.  An absent mask means an empty
stratum, never "chi happens to be 0": a torus stratum is stored as an
explicit entry with chi = 0.  The empty mask (the ambient space) is
mandatory, singleton masks are mandatory (components are nonempty), and
presence is downward closed: a superset of an empty stratum must be empty.

A pair is validated once, when it is constructed: `SncPair` runs
`validate` on itself, so an inconsistent table never becomes a pair.
Functions that take a pair assume it is valid; pairs they derive are
validated by their own construction.

Blow-up centers
---------------
A pair may carry center metadata: the codimension r of a connected
submanifold Y meeting all strata transversally, a flag on each component
recording whether it contains Y, and, per stratum, chi(Y intersect D_J)
in the `chi_meet_center` slot (None when Y misses the stratum; the value
for J equals the value for J minus the containing components, and the
validator enforces that redundancy).  `blowup_transform` consumes this
metadata and produces the pair of the blown-up space:

* a stratum away from the new exceptional component is the blow-up of
  D_J along Y intersect D_J, whose codimension in D_J is
  c_J = r - |J intersect contains|, so its Euler number gains
  chi(Y intersect D_J) * (c_J - 1);
* a stratum through the exceptional component E, indexed by {E} union K,
  is a projective bundle with fiber dimension r - 1 - |K intersect
  contains| over Y intersect D_(K minus contains), empty as soon as the
  fiber dimension is negative or the base is empty.

When c_J = 0 the center is a union of connected components of D_J and
the blow-up deletes it from the stratum.  Euler data cannot distinguish
"deleted some components" from "deleted everything", so this module uses
the convention that the stratum disappears exactly when
chi(D_J) = chi(Y intersect D_J); tables whose surviving strata then
violate downward closure are rejected as ambiguous rather than guessed
at.

Induced pairs
-------------
The pairs induced on a stratum, on the center and on the blown-up space
are all built by `_restrict` from their stratum table alone: it keeps the
components whose singleton stratum survives in that table, which downward
closure makes the right set.  The pair induced on the exceptional divisor
is the blown-up pair restricted to E, so the projective-bundle rule above
is written once, in `blowup_transform`.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, NamedTuple

MAX_COMPONENTS = 30

#: Most decimal digits accepted in every integer of a table document: d,
#: the multiplicities, the center's codimension and the Euler numbers (the
#: CLI bounds `chi-d cp --d` and `--mults` by it too).  The numerators in
#: `chi_d` grow with the product of all m_j + d, so the cost of a table
#: grows with these digits.
MAX_INT_DIGITS = 40


class PairValidationError(ValueError):
    """Raised when pair data is internally inconsistent."""


class ForbiddenMultiplicityError(PairValidationError):
    """Raised when some multiplicity equals -d, where weights blow up."""


class TableFormatError(ValueError):
    """Raised when a stratum-table document cannot be parsed."""


@dataclass(frozen=True)
class Component:
    id: str
    mult: int
    contains_center: bool = False


@dataclass(frozen=True)
class Center:
    codim: int


class Stratum(NamedTuple):
    chi: int
    chi_meet_center: int | None = None


#: A stratum table maps bitmask subsets to `Stratum` records; only
#: nonempty strata appear.
StratumTable = dict[int, Stratum]


@dataclass(frozen=True)
class SncPair:
    """The combinatorial skeleton of a pair (X, sum m_j D_j) of degree d.

    Construction validates the pair once (see `validate`) and raises
    PairValidationError if it is inconsistent; every function taking a
    pair assumes it is valid.
    """

    d: int
    components: tuple[Component, ...]
    strata: StratumTable
    center: Center | None = None

    def __post_init__(self) -> None:
        validate(self)

    @property
    def mults(self) -> tuple[int, ...]:
        return tuple(c.mult for c in self.components)

    @property
    def contains_mask(self) -> int:
        mask = 0
        for j, c in enumerate(self.components):
            if c.contains_center:
                mask |= 1 << j
        return mask

    def subset_label(self, mask: int) -> str:
        names = [c.id for j, c in enumerate(self.components) if (mask >> j) & 1]
        return "{" + ",".join(names) + "}"


def _submasks(mask: int):
    """All subsets of a bitmask, the mask itself and 0 included."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def validate(pair: SncPair) -> None:
    """Check every structural invariant; raise PairValidationError if any fails."""
    if pair.d == 0:
        raise PairValidationError("d must be a non-zero integer")
    l = len(pair.components)
    if l > MAX_COMPONENTS:
        raise PairValidationError(
            f"{l} components exceed the supported maximum of {MAX_COMPONENTS}")
    seen = set()
    for i, comp in enumerate(pair.components):
        if not comp.id or not isinstance(comp.id, str):
            raise PairValidationError(f"component {i} must have a non-empty string id")
        if comp.id in seen:
            raise PairValidationError(f"duplicate component id {comp.id!r}")
        seen.add(comp.id)
        if comp.mult == 0:
            raise PairValidationError(f"component {comp.id!r} has multiplicity 0")
        if comp.mult == -pair.d:
            raise ForbiddenMultiplicityError(
                f"component {comp.id!r} has forbidden multiplicity {comp.mult} = -d")

    full = (1 << l) - 1
    strata = pair.strata
    if 0 not in strata:
        raise PairValidationError(
            "the empty-subset stratum (the ambient space) is mandatory")
    for mask in strata:
        if mask & ~full:
            raise PairValidationError(f"stratum mask {mask} references unknown components")
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            if mask ^ low not in strata:
                raise PairValidationError(
                    f"stratum {pair.subset_label(mask)} is marked nonempty but its "
                    f"subset {pair.subset_label(mask ^ low)} is empty")
    for j, comp in enumerate(pair.components):
        if (1 << j) not in strata:
            raise PairValidationError(
                f"component {comp.id!r} has an empty singleton stratum; "
                "divisor components must be nonempty")

    contains = pair.contains_mask
    if pair.center is None:
        if contains:
            raise PairValidationError(
                "components are flagged contains_center but no center is declared")
        for mask, stratum in strata.items():
            if stratum.chi_meet_center is not None:
                raise PairValidationError(
                    f"stratum {pair.subset_label(mask)} carries chi_meet_center "
                    "but no center is declared")
        return

    r = pair.center.codim
    if r < 1:
        raise PairValidationError(f"center codimension must be >= 1, got {r}")
    s = contains.bit_count()
    if s > r:
        raise PairValidationError(
            f"{s} components contain the center but its codimension is only {r}")
    if strata[0].chi_meet_center is None:
        raise PairValidationError(
            "chi_meet_center of the empty subset (the Euler number of the "
            "center itself) is required when a center is declared")
    for mask, stratum in strata.items():
        reduced = mask & ~contains
        expected = strata[reduced].chi_meet_center
        if stratum.chi_meet_center != expected:
            raise PairValidationError(
                f"chi_meet_center of {pair.subset_label(mask)} is "
                f"{stratum.chi_meet_center} but the center lies inside the "
                f"containing components, so it must equal the value "
                f"{expected} recorded for {pair.subset_label(reduced)}")
        if expected is None:
            continue
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            if strata[mask ^ low].chi_meet_center is None:
                raise PairValidationError(
                    f"center meets stratum {pair.subset_label(mask)} but "
                    f"supposedly misses stratum {pair.subset_label(mask ^ low)}, "
                    "which contains it")
        rest = contains & ~mask
        while rest:
            low = rest & -rest
            rest ^= low
            if mask | low not in strata:
                raise PairValidationError(
                    f"center meets stratum {pair.subset_label(mask)} and is "
                    f"contained in component "
                    f"{pair.components[low.bit_length() - 1].id!r}, so "
                    f"stratum {pair.subset_label(mask | low)} cannot be empty")


# ---------------------------------------------------------------------------
# weights and chi_d
# ---------------------------------------------------------------------------


def weight(d: int, mults: Iterable[int], subset) -> Fraction:
    """The stratum weight prod_{j in J} (-m_j) / (m_j + d); 1 on the empty set."""
    if d == 0:
        raise PairValidationError("d must be a non-zero integer")
    mults = tuple(mults)
    if isinstance(subset, int):
        if subset < 0:
            raise ValueError(f"a subset mask is non-negative, got {subset}")
        subset = [j for j in range(subset.bit_length()) if subset >> j & 1]
    value = Fraction(1)
    for j in subset:
        m = mults[j]
        if m == -d:
            raise ForbiddenMultiplicityError(
                f"multiplicity {m} equals -d; the weight is undefined")
        value *= Fraction(-m, m + d)
    return value


def chi_d(pair: SncPair) -> Fraction:
    """The weighted Euler characteristic sum_J w_d^J chi(D_J), exactly.

    Every weight is taken over the common denominator
    D = prod_j (m_j + d): the integer numerator of w_d^J is
    num[J] = D * prod_{j in J} (-m_j) / (m_j + d).  Each nonempty J is
    reached from J minus its lowest bit j, which is in the table by
    downward closure, and

        num[empty] = D,   num[J] = num[J - {j}] // (m_j + d) * (-m_j),

    where the division is exact whatever the signs, because the factor
    m_j + d of D is still present in num[J - {j}].  The walk is depth
    first, so only the numerators on the current path are alive.  The sum
    of chi(D_J) * num[J] is an integer, and one Fraction divides it by D.
    """
    strata = pair.strata
    mults = pair.mults
    shifted = [m + pair.d for m in mults]
    negated = [-m for m in mults]
    denominator = 1
    for factor in shifted:
        denominator *= factor
    total = 0
    # (mask, num[mask], bits below the lowest bit of mask)
    stack = [(0, denominator, len(shifted))]
    while stack:
        mask, num, below = stack.pop()
        total += strata[mask].chi * num
        for j in range(below):
            child = mask | 1 << j
            if child in strata:
                stack.append((child, num // shifted[j] * negated[j], j))
    return Fraction(total, denominator)


def scale_check(pair: SncPair, k: int) -> bool:
    """Whether chi_d is unchanged by replacing (d, m_j) with (k d, k m_j).

    True for every pair, since each weight factor satisfies
    (-k m)/(k m + k d) = (-m)/(m + d).
    """
    if k < 1:
        raise ValueError("scale factor must be a positive integer")
    scaled = SncPair(
        d=pair.d * k,
        components=tuple(replace(c, mult=c.mult * k) for c in pair.components),
        strata=pair.strata,
        center=pair.center,
    )
    return chi_d(scaled) == chi_d(pair)


def _restrict(pair: SncPair, entries: StratumTable,
              extra: Component | None = None) -> SncPair:
    """The induced pair whose stratum table is `entries`, in the old bits.

    The components kept, in order, are those whose singleton stratum is
    in `entries`; bit len(pair.components) stands for `extra`, appended
    as the last component.  The result carries no center metadata.
    """
    new_bit: dict[int, int] = {}  # old bit -> new bit
    components = []
    for j, comp in enumerate(pair.components):
        if (1 << j) in entries:
            new_bit[1 << j] = 1 << len(components)
            components.append(Component(comp.id, comp.mult))
    if extra is not None:
        new_bit[1 << len(pair.components)] = 1 << len(components)
        components.append(extra)
    strata: StratumTable = {}
    for mask, stratum in entries.items():
        new = 0
        while mask:
            low = mask & -mask
            mask ^= low
            new |= new_bit[low]
        strata[new] = stratum
    return SncPair(d=pair.d, components=tuple(components), strata=strata)


def divisor_on_stratum(pair: SncPair, subset: int) -> SncPair:
    """The induced pair on the stratum D_J.

    The divisor of the induced pluricanonical section on D_J is
    sum_{j not in J} m_j D_(J union {j}); its stratum table is the
    restriction of the original one.
    """
    if subset not in pair.strata:
        raise PairValidationError(
            f"stratum {pair.subset_label(subset)} is empty; no induced pair")
    entries = {
        mask & ~subset: Stratum(stratum.chi)
        for mask, stratum in pair.strata.items()
        if mask & subset == subset
    }
    return _restrict(pair, entries)


# ---------------------------------------------------------------------------
# model pairs on projective space
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CpPairModel:
    """The coordinate-hyperplane pair on projective r-space.

    The divisor is m_1 H_1 + ... + m_s H_s + m_inf H_inf with coordinate
    hyperplanes H_j, the hyperplane at infinity H_inf, and the balancing
    multiplicity m_inf = -m_1 - ... - m_s - r d - d.  `f_poly` holds the
    coefficients (constant first) of

        f(t) = t^(r-s) * prod_j (t - m_j / (m_j + d)),

    the polynomial whose derivative at 1 reproduces chi_d of the pair.
    """

    r: int
    s: int
    d: int
    mults: tuple[int, ...]
    m_infinity: int
    f_poly: tuple[Fraction, ...]


def _elementary(weights: Iterable[Fraction]) -> list[Fraction]:
    """e_0, e_1, ... of the weights: the coefficients of prod_j (1 + w_j t)."""
    elementary = [Fraction(1)]
    for w in weights:
        elementary = [a + w * b for a, b in zip(elementary + [0], [0] + elementary)]
    return elementary


def cp_pair(r: int, s: int, d: int, mults: Iterable[int]) -> tuple[CpPairModel, SncPair]:
    """Build the model pair on projective r-space with s coordinate hyperplanes.

    Any k of the s + 1 hyperplanes meet in a projective subspace of
    dimension r - k (Euler number r + 1 - k), empty exactly when k > r.
    """
    mults = tuple(mults)
    if r < 1:
        raise PairValidationError(f"fiber dimension r must be >= 1, got {r}")
    if not 0 <= s <= r:
        raise PairValidationError(f"need 0 <= s <= r, got s={s}, r={r}")
    if len(mults) != s:
        raise PairValidationError(f"expected {s} multiplicities, got {len(mults)}")
    if any(m < 1 for m in mults):
        raise PairValidationError("model multiplicities must be positive integers")
    if d < 1:
        raise PairValidationError(f"model pairs require d >= 1, got {d}")

    m_inf = -sum(mults) - r * d - d
    components = tuple(
        [Component(f"H{j + 1}", m) for j, m in enumerate(mults)]
        + [Component("Hinf", m_inf)]
    )
    by_size = [Stratum(r + 1 - size) for size in range(s + 2)]
    strata: StratumTable = {}
    for mask in range(1 << (s + 1)):
        size = mask.bit_count()
        if size <= r:
            strata[mask] = by_size[size]
    pair = SncPair(d=d, components=components, strata=strata)

    # prod_j (t + w_j) over the s + 1 weights has e_k at t^(s + 1 - k)
    e = _elementary(Fraction(-m, m + d) for m in mults + (m_inf,))
    model = CpPairModel(r=r, s=s, d=d, mults=mults, m_infinity=m_inf,
                        f_poly=(Fraction(0),) * (r - s) + tuple(reversed(e)))
    return model, pair


def chi_d_via_fprime(model: CpPairModel) -> Fraction:
    """Evaluate f'(1) by exact polynomial differentiation."""
    return sum(
        (k * coeff for k, coeff in enumerate(model.f_poly)), start=Fraction(0))


# ---------------------------------------------------------------------------
# blow-up transform
# ---------------------------------------------------------------------------


def _require_center(pair: SncPair) -> Center:
    if pair.center is None:
        raise PairValidationError("this operation requires blow-up center metadata")
    if pair.d <= 0:
        raise PairValidationError(
            f"blow-up operations require d > 0, got d = {pair.d}")
    for comp in pair.components:
        if comp.contains_center and comp.mult < 0:
            raise PairValidationError(
                f"center lies inside component {comp.id!r} of negative "
                f"multiplicity {comp.mult}; blow-up requires positive "
                "multiplicities on containing components")
    return pair.center


def exceptional_multiplicity(pair: SncPair) -> int:
    """m_0 = m_1 + ... + m_s + r d - d over the containing components."""
    center = _require_center(pair)
    m0 = sum(c.mult for c in pair.components if c.contains_center)
    m0 += (center.codim - 1) * pair.d
    return m0


def _unique_id(taken: Iterable[str], base: str) -> str:
    taken = set(taken)
    candidate = base
    suffix = 2
    while candidate in taken:
        candidate = f"{base}{suffix}"
        suffix += 1
    return candidate


def blowup_transform(pair: SncPair) -> SncPair:
    """The pair of the blow-up of the ambient space along the center.

    The exceptional component E receives multiplicity m_0 and comes last;
    strict transforms keep theirs.  The new stratum table follows the two
    rules in the module docstring.  The result carries no center metadata.
    """
    m0 = exceptional_multiplicity(pair)
    if m0 == 0:
        raise PairValidationError(
            "exceptional multiplicity would be 0 (codimension-1 center "
            "contained in no component); the result is not a valid pair")
    r = pair.center.codim
    contains = pair.contains_mask

    l = len(pair.components)
    e_bit = 1 << l
    entries: StratumTable = {}
    for mask, stratum in pair.strata.items():
        fiber = r - (mask & contains).bit_count()
        meets = stratum.chi_meet_center
        if meets is None:
            entries[mask] = Stratum(stratum.chi)
            continue
        if not (fiber == 0 and stratum.chi == meets):
            entries[mask] = Stratum(stratum.chi + meets * (fiber - 1))
        if fiber >= 1:
            entries[mask | e_bit] = Stratum(meets * fiber)

    dropped = sum(1 << j for j in range(l) if (1 << j) not in entries)
    for mask in entries:
        orphans = mask & dropped
        if orphans:
            orphan = (orphans & -orphans).bit_length() - 1
            raise PairValidationError(
                f"ambiguous center containment: stratum "
                f"{pair.subset_label(mask & ~e_bit)} survives the blow-up "
                f"although component {pair.components[orphan].id!r} does not")
    exceptional = Component(_unique_id((c.id for c in pair.components), "E"), m0)
    return _restrict(pair, entries, exceptional)


def center_pair(pair: SncPair) -> SncPair:
    """The induced pair on the center: components not containing it, restricted."""
    _require_center(pair)
    contains = pair.contains_mask
    entries = {
        mask: Stratum(stratum.chi_meet_center)
        for mask, stratum in pair.strata.items()
        if not mask & contains and stratum.chi_meet_center is not None
    }
    return _restrict(pair, entries)


def _on_exceptional(blown: SncPair) -> SncPair:
    """A blown-up pair restricted to its exceptional component, the last one."""
    return divisor_on_stratum(blown, 1 << (len(blown.components) - 1))


def exceptional_pair(pair: SncPair) -> SncPair:
    """The induced pair on the exceptional divisor E of the blow-up.

    It is the blown-up pair restricted to E, so the projective-bundle rule
    of the module docstring is written once, in `blowup_transform`.  It
    raises PairValidationError wherever `blowup_transform` does: when the
    exceptional multiplicity is 0 and when center containment is ambiguous.
    """
    return _on_exceptional(blowup_transform(pair))


def induced_center_pairs(pair: SncPair) -> tuple[Fraction, Fraction]:
    """chi_d of the induced pairs on the center and on the exceptional divisor."""
    return chi_d(center_pair(pair)), chi_d(exceptional_pair(pair))


def fibration_check(pair: SncPair) -> bool:
    """Whether chi_d of the exceptional divisor is F times chi_d of the center.

    The exceptional divisor E is a P^(r-1)-bundle over the center Y.  The
    components not containing Y restrict to E as pull-backs from Y, and
    the strict transforms of the s containing ones cut every fiber in s
    coordinate hyperplanes, any k of which meet in a P^(r-1-k) with Euler
    number r - k (empty once k >= r).  So chi_d(E) = F chi_d(Y) with

        F = sum_{K subset C, |K| < r} (r - |K|) prod_{m in K} (-m)/(m + d)

    over the multiplicities C of the containing components.  The sum is
    taken through the elementary symmetric functions e_k of those weights;
    validation keeps |C| <= r, and the k = r term is 0.
    """
    r = _require_center(pair).codim
    elementary = _elementary(Fraction(-c.mult, c.mult + pair.d)
                             for c in pair.components if c.contains_center)
    factor = sum((r - k) * e for k, e in enumerate(elementary))
    center_value, exceptional_value = induced_center_pairs(pair)
    return exceptional_value == factor * center_value


@dataclass(frozen=True)
class BlowupCheck:
    exceptional_multiplicity: int
    before: Fraction
    after: Fraction
    equal: bool
    center_chi_d: Fraction
    exceptional_chi_d: Fraction


def check_blowup_invariance(pair: SncPair) -> BlowupCheck:
    """Compare chi_d before and after the blow-up; they must agree exactly.

    The blow-up is built once: the exceptional multiplicity and the
    induced pair on E are read off its last component.
    """
    blown = blowup_transform(pair)
    before = chi_d(pair)
    after = chi_d(blown)
    center_value = chi_d(center_pair(pair))
    return BlowupCheck(
        exceptional_multiplicity=blown.components[-1].mult,
        before=before,
        after=after,
        equal=before == after,
        center_chi_d=center_value,
        exceptional_chi_d=chi_d(_on_exceptional(blown)),
    )


# ---------------------------------------------------------------------------
# synthetic instances
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _subsets_in_order(l: int) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """(size, mask, masks one element smaller) for every nonempty subset of
    range(l), in the order of `itertools.combinations` taken size by size."""
    out = []
    for size in range(1, l + 1):
        for chosen in itertools.combinations(range(l), size):
            mask = sum(1 << j for j in chosen)
            out.append((size, mask, tuple(mask ^ (1 << j) for j in chosen)))
    return tuple(out)


def random_blowup_instance(rng: random.Random, max_components: int = 6) -> SncPair:
    """A random consistent pair with center metadata, for property suites.

    Draws a downward-closed family of nonempty strata with arbitrary Euler
    numbers, a center codimension, a containing set among the positive
    components, and a consistent family of center intersections.  Every
    output validates and admits `blowup_transform`.
    """
    l = rng.randint(0, max_components)
    d = rng.randint(1, 5)
    mults = []
    for _ in range(l):
        m = 0
        while m == 0 or m == -d:
            m = rng.randint(-9, 9)
        mults.append(m)
    positive = [j for j, m in enumerate(mults) if m > 0]
    r = rng.randint(1, 4)
    s = rng.randint(0, min(r, len(positive)))
    if r == 1 and s == 0:
        r = rng.randint(2, 4)
    contains = sum(1 << j for j in rng.sample(positive, s))

    def chi() -> int:
        return rng.randint(-9, 9)

    subsets = _subsets_in_order(l)
    present: dict[int, int] = {0: chi()}
    for size, mask, lower in subsets:
        for sub in lower:
            if sub not in present:
                break
        else:
            if size == 1 or rng.random() < max(0.25, 0.95 - 0.2 * size):
                present[mask] = chi()
    # the center sits inside every intersection of its containing components
    for sub in _submasks(contains):
        if sub not in present:
            present[sub] = chi()

    if s == r and rng.random() < 0.5:
        # center equals the full intersection of its containing components
        meets = {
            mask: present[mask | contains]
            for mask in present
            if not mask & contains and (mask | contains) in present
        }
    else:
        # the subsets of the non-containing components, in the same order
        meets = {0: chi()}
        for _, mask, lower in subsets:
            if mask & contains or mask not in present:
                continue
            for sub in lower:
                if sub not in meets:
                    break
            else:
                if rng.random() < 0.75:
                    meets[mask] = chi()
        for mask in meets:
            for sub in _submasks(contains):
                if (mask | sub) not in present:
                    present[mask | sub] = chi()
        if s == r:
            # keep strict transforms unambiguous: a stratum through all
            # containing components must not carry the Euler number of its
            # center slice unless it is the slice
            for mask in meets:
                if present[mask | contains] == meets[mask]:
                    present[mask | contains] += 1

    strata: StratumTable = {}
    for mask, value in present.items():
        meet = meets.get(mask & ~contains)
        strata[mask] = Stratum(value, meet)
    components = tuple(
        Component(f"D{j + 1}", mults[j], bool((contains >> j) & 1))
        for j in range(l)
    )
    return SncPair(d=d, components=components, strata=strata, center=Center(codim=r))


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------


def _expect_keys(obj: dict, where: str, required: set, optional: set) -> None:
    unknown = set(obj) - required - optional
    if unknown:
        raise TableFormatError(
            f"{where}: unknown field(s) {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise TableFormatError(f"{where}: missing field(s) {sorted(missing)}")


def digits_error(value: int, where: str) -> str | None:
    """The message for an integer over `MAX_INT_DIGITS` digits, else None."""
    if abs(value) < 10 ** MAX_INT_DIGITS:
        return None
    return (f"{where}: {len(str(abs(value)))} digits exceed the limit of "
            f"{MAX_INT_DIGITS}")


def _expect_bounded_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TableFormatError(f"{where}: expected an integer, got {value!r}")
    message = digits_error(value, where)
    if message is not None:
        raise TableFormatError(message)
    return value


def pair_from_obj(obj) -> SncPair:
    """Build and validate a pair from a decoded stratum-table document."""
    if not isinstance(obj, dict):
        raise TableFormatError("top level: expected an object")
    _expect_keys(obj, "top level", {"d", "components", "strata"}, {"center"})
    d = _expect_bounded_int(obj["d"], "d")

    raw_components = obj["components"]
    if not isinstance(raw_components, list):
        raise TableFormatError("components: expected a list")
    components = []
    for i, entry in enumerate(raw_components):
        where = f"components[{i}]"
        if not isinstance(entry, dict):
            raise TableFormatError(f"{where}: expected an object")
        _expect_keys(entry, where, {"id", "mult"}, {"contains_center"})
        if not isinstance(entry["id"], str) or not entry["id"]:
            raise TableFormatError(f"{where}.id: expected a non-empty string")
        mult = _expect_bounded_int(entry["mult"], f"{where}.mult")
        flag = entry.get("contains_center", False)
        if not isinstance(flag, bool):
            raise TableFormatError(f"{where}.contains_center: expected a boolean")
        components.append(Component(entry["id"], mult, flag))
    index = {c.id: j for j, c in enumerate(components)}
    if len(index) != len(components):
        raise TableFormatError("components: duplicate ids")

    raw_center = obj.get("center")
    if raw_center is None:
        center = None
    elif isinstance(raw_center, dict):
        _expect_keys(raw_center, "center", {"codim"}, set())
        center = Center(codim=_expect_bounded_int(raw_center["codim"], "center.codim"))
    else:
        raise TableFormatError("center: expected an object or null")

    raw_strata = obj["strata"]
    if not isinstance(raw_strata, list):
        raise TableFormatError("strata: expected a list")
    strata: StratumTable = {}
    for i, entry in enumerate(raw_strata):
        where = f"strata[{i}]"
        if not isinstance(entry, dict):
            raise TableFormatError(f"{where}: expected an object")
        _expect_keys(entry, where, {"subset", "chi"},
                     {"nonempty", "chi_meet_center"})
        subset = entry["subset"]
        if not isinstance(subset, list) or not all(isinstance(x, str) for x in subset):
            raise TableFormatError(f"{where}.subset: expected a list of component ids")
        mask = 0
        for name in subset:
            if name not in index:
                raise TableFormatError(f"{where}.subset: unknown component id {name!r}")
            bit = 1 << index[name]
            if mask & bit:
                raise TableFormatError(f"{where}.subset: repeated component id {name!r}")
            mask |= bit
        if mask in strata:
            raise TableFormatError(f"{where}: duplicate subset {sorted(subset)}")
        chi_value = _expect_bounded_int(entry["chi"], f"{where}.chi")
        nonempty = entry.get("nonempty", True)
        if not isinstance(nonempty, bool):
            raise TableFormatError(f"{where}.nonempty: expected a boolean")
        meet = entry.get("chi_meet_center")
        if meet is not None:
            meet = _expect_bounded_int(meet, f"{where}.chi_meet_center")
        if not nonempty:
            if chi_value != 0 or meet is not None:
                raise TableFormatError(
                    f"{where}: an empty stratum must have chi 0 and no "
                    "chi_meet_center; omit the entry instead")
            continue
        strata[mask] = Stratum(chi_value, meet)

    return SncPair(d=d, components=tuple(components), strata=strata, center=center)


def pair_from_json(text: str) -> SncPair:
    """Parse a stratum-table JSON document; strict about unknown fields.

    json.JSONDecodeError (with line/column information) propagates for
    syntactically malformed input; TableFormatError and
    PairValidationError report semantic problems.
    """
    return pair_from_obj(json.loads(text))


def pair_to_obj(pair: SncPair) -> dict:
    strata = []
    for mask in sorted(pair.strata, key=lambda m: (m.bit_count(), m)):
        stratum = pair.strata[mask]
        strata.append({
            "subset": [c.id for j, c in enumerate(pair.components) if (mask >> j) & 1],
            "chi": stratum.chi,
            "nonempty": True,
            "chi_meet_center": stratum.chi_meet_center,
        })
    return {
        "d": pair.d,
        "components": [
            {"id": c.id, "mult": c.mult, "contains_center": c.contains_center}
            for c in pair.components
        ],
        "center": None if pair.center is None else {"codim": pair.center.codim},
        "strata": strata,
    }


def pair_to_json(pair: SncPair) -> str:
    return json.dumps(pair_to_obj(pair), indent=1, sort_keys=True)
