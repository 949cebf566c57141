"""Weighted Euler characteristics of simple normal crossing pairs.

A pair here is the combinatorial skeleton of a compact manifold together
with a divisor sum(m_j D_j) whose components intersect transversally: a
nonzero integer d, one multiplicity per component, and a stratum table
recording the topological Euler characteristic of every nonempty
intersection D_J of components.  The weighted Euler characteristic

    chi_d = sum_J w_d^J chi(D_J),   w_d^J = prod_{j in J} (-m_j)/(m_j + d)

is the quantity everything in this module computes, transforms, and
checks; its table reader applies the input rules of `cypair.inputs`.

Stratum tables
--------------
Subsets J are bitmasks over component indices; the table maps masks of
*nonempty* strata to `Stratum` records.  An absent mask means an empty
stratum, never "chi happens to be 0": a torus stratum is stored as an
explicit entry with chi = 0.  The empty mask (the ambient space) is
mandatory, singleton masks are mandatory (components are nonempty), and
presence is downward closed: a superset of an empty stratum must be empty.
A dense table (at least 64 strata, and at least one per 16 of the 2^l
subsets) has its closure decided at once on a presence cube; any other
table, and any table that is not closed, is walked mask by mask, and the
walk words every fault.  `chi_d` sums a table in one of two ways, by
its density (see there).  Both take the values by mask, the factors
m_j + d and the factors -m_j, and use only `*`, `+` and exact `//` on
them, so they run over any exact ring, not just the integers.
A table holds few distinct values, so every record that the reader, the
transforms, the model pairs and the random tables build comes from one
process-wide intern table (`_RECORDS`): equal records of int values are
one object, within a table and across tables, and a large table gives
the garbage collector a few records to walk, not one per stratum.  The
table holds at most `_MAX_RECORDS` records and is emptied when full, so a
table of more distinct values holds equal records that are not all one
object, with no other change.

A pair is validated once, when it is constructed: `SncPair` runs
`validate` on itself, so an inconsistent table never becomes a pair.  A
pair is immutable: its fields cannot be assigned or deleted, and its
stratum table is read-only (a view of the dict it was built from).
Functions that take a pair assume it is valid; pairs they derive are
validated by their own construction.

Blow-up centers
---------------
A pair may carry a `Center`: the codimension r of a connected
submanifold Y meeting all strata transversally and the mask `contains`
of the components that contain Y.  Per stratum, chi(Y intersect D_J) is
in the `chi_meet_center` slot (None when Y misses the stratum).  With C
the containing components, the validator requires the value for J to
equal the value for J minus C, and checks two rules once, on the
center's own table of strata K off C that Y meets: (a) the table is
downward closed, and (b) K union C is a stratum for every K in it.
Together these close every stratum J that Y meets: dropping j in C keeps
J's value, dropping j outside C reduces to (J minus C) minus j, and
J union {c} lies inside (J minus C) union C.  `blowup_transform`
consumes this metadata and produces the pair of the blown-up space:

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
closure makes the right set, and squeezes each dropped bit out of every
mask, one pass over the table per bit.  The pair induced on the
exceptional divisor is the blown-up pair restricted to E, so the
projective-bundle rule above is written once, in `blowup_transform`.
"""

from __future__ import annotations

import functools
import json
from fractions import Fraction
from math import prod
from types import MappingProxyType
from typing import TYPE_CHECKING, Collection, Iterable, Mapping, NamedTuple

from .inputs import (INT_LIMIT, MAX_COMPONENTS, bounded_int, cut, decode_json, draw,
                     expect_object, shown, shown_names)

if TYPE_CHECKING:  # only the annotations name it: drawing calls the generator's methods
    import random


class PairValidationError(ValueError):
    """Raised when pair data is internally inconsistent."""


class ForbiddenMultiplicityError(PairValidationError):
    """Raised when some multiplicity equals -d, where weights blow up."""


class TableFormatError(ValueError):
    """Raised when a stratum-table document cannot be parsed."""


class Component(NamedTuple):
    id: str
    mult: int


class Center(NamedTuple):
    codim: int
    #: the mask of the components that contain the center
    contains: int = 0


class Stratum(NamedTuple):
    chi: int
    chi_meet_center: int | None = None


#: A stratum table maps bitmask subsets to `Stratum` records; only
#: nonempty strata appear.
StratumTable = dict[int, Stratum]


#: Builds a record without the Python frame of a NamedTuple's __new__.
_new_record = tuple.__new__

#: Most records the intern table holds.
_MAX_RECORDS = 4096


class _InternTable(dict):
    """The process-wide table of shared `Stratum` records:
    `_RECORDS[chi, meet]` is the one record of those values.

    A record is kept under itself, since it equals and hashes as the tuple
    of its fields, so a lookup that finds it runs no Python code.  Only a
    record of an int chi and an int or None meet is kept, so an int lookup
    never gets a record of another type; a lookup by equal values of
    another type, such as a Fraction, may get the int record.  The table
    is emptied when it holds `_MAX_RECORDS` records.
    """

    __slots__ = ()

    def __missing__(self, key) -> Stratum:
        record = _new_record(Stratum, key)
        chi, meet = key
        if chi.__class__ is int and (meet is None or meet.__class__ is int):
            if len(self) >= _MAX_RECORDS:
                self.clear()
            self[record] = record
        return record


_RECORDS = _InternTable()


#: Sets a field of a new `SncPair`, whose own __setattr__ refuses.
_set_field = object.__setattr__


class SncPair:
    """The combinatorial skeleton of a pair (X, sum m_j D_j) of degree d.

    Construction validates the pair once (see `validate`) and raises
    PairValidationError if it is inconsistent; every function taking a
    pair assumes it is valid.  Its four fields cannot be assigned or
    deleted; pairs compare by them and, since the stratum table is a
    mapping, are not hashable.  `strata` is a read-only view
    (`types.MappingProxyType`) of the dict the pair is built from, which
    is wrapped, not copied.
    """

    __slots__ = ("d", "components", "strata", "center")

    d: int
    components: tuple[Component, ...]
    strata: Mapping[int, Stratum]
    center: Center | None

    def __init__(self, d: int, components: tuple[Component, ...],
                 strata: StratumTable, center: Center | None = None) -> None:
        _set_field(self, "d", d)
        _set_field(self, "components", components)
        _set_field(self, "strata", MappingProxyType(strata))
        _set_field(self, "center", center)
        validate(self)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return self.d, self.components, self.strata, self.center

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (f"SncPair(d={self.d!r}, components={self.components!r}, "
                f"strata={dict(self.strata)!r}, center={self.center!r})")

    def __reduce__(self):
        # copy and pickle rebuild the pair, validating it again; a view
        # cannot be pickled, so they are handed a dict
        return SncPair, (self.d, self.components, dict(self.strata), self.center)

    @property
    def mults(self) -> tuple[int, ...]:
        return tuple(c.mult for c in self.components)

    def subset_label(self, mask: int) -> str:
        names = [cut(c.id)
                 for j, c in enumerate(self.components) if (mask >> j) & 1]
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
    """Check every structural invariant; raise PairValidationError if any fails.

    Downward closure, of the stratum table and of the center's own table,
    is decided by `_downward_closed` when the table is dense enough for its
    presence cube to pay; otherwise, and whenever the table is not closed,
    each mask's one-bit-smaller subsets are looked up in turn, so a fault
    is worded by that walk and reported in table order.
    """
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
            raise PairValidationError(f"duplicate component id {shown(comp.id)}")
        seen.add(comp.id)
        if comp.mult == 0:
            raise PairValidationError(f"component {shown(comp.id)} has multiplicity 0")
        if comp.mult == -pair.d:
            raise ForbiddenMultiplicityError(
                f"component {shown(comp.id)} has forbidden multiplicity "
                f"{comp.mult} = -d")

    full = (1 << l) - 1
    strata = pair.strata
    if 0 not in strata:
        raise PairValidationError(
            "the empty-subset stratum (the ambient space) is mandatory")
    if not _closed_on_cube(strata, l):
        for mask in strata:
            if mask & ~full:
                raise PairValidationError(
                    f"stratum mask {mask} references unknown components")
            rest = mask
            while rest:
                low = rest & -rest
                rest ^= low
                if mask ^ low not in strata:
                    raise PairValidationError(
                        f"stratum {pair.subset_label(mask)} is marked nonempty "
                        f"but its subset {pair.subset_label(mask ^ low)} is empty")
    for j, comp in enumerate(pair.components):
        if (1 << j) not in strata:
            raise PairValidationError(
                f"component {shown(comp.id)} has an empty singleton stratum; "
                "divisor components must be nonempty")

    if pair.center is None:
        for mask, stratum in strata.items():
            if stratum.chi_meet_center is not None:
                raise PairValidationError(
                    f"stratum {pair.subset_label(mask)} carries chi_meet_center "
                    "but no center is declared")
        return

    r, contains = pair.center
    if r < 1:
        raise PairValidationError(f"center codimension must be >= 1, got {r}")
    if contains & ~full:
        raise PairValidationError(
            f"center containing mask {contains} references unknown components")
    s = contains.bit_count()
    if s > r:
        raise PairValidationError(
            f"{s} components contain the center but its codimension is only {r}")
    if strata[0].chi_meet_center is None:
        raise PairValidationError(
            "chi_meet_center of the empty subset (the Euler number of the "
            "center itself) is required when a center is declared")
    for mask, stratum in strata.items() if contains else ():  # else each is reduced
        reduced = mask & ~contains
        expected = strata[reduced].chi_meet_center
        if stratum.chi_meet_center != expected:
            raise PairValidationError(
                f"chi_meet_center of {pair.subset_label(mask)} is "
                f"{stratum.chi_meet_center} but the center lies inside the "
                f"containing components, so it must equal the value "
                f"{expected} recorded for {pair.subset_label(reduced)}")
    # Given that equality, rules (a) and (b) of the module docstring, checked
    # on the center's own table, hold for every stratum the center meets.
    on_center = _center_table(strata, contains)
    walk = not _closed_on_cube(on_center, l)
    for mask in on_center:
        rest = mask if walk else 0
        while rest:
            low = rest & -rest
            rest ^= low
            if mask ^ low not in on_center:
                raise PairValidationError(
                    f"center meets stratum {pair.subset_label(mask)} but "
                    f"supposedly misses stratum {pair.subset_label(mask ^ low)}, "
                    "which contains it")
        if mask | contains not in strata:
            raise PairValidationError(
                f"center meets stratum {pair.subset_label(mask)} and is "
                f"contained in components {pair.subset_label(contains)}, so "
                f"stratum {pair.subset_label(mask | contains)} cannot be empty")


def _downward_closed(masks: Collection[int], l: int) -> bool:
    """Whether every mask is an int in range(2^l) and every mask minus one
    of its bits is a mask too, decided on a presence cube.

    Byte m of the cube is 1 when m is a mask.  For each bit j, shifting the
    bytes of the masks holding j down by 2^j bytes lands each on the mask
    minus j, and the family is closed when none lands on a 0 byte.  That is
    O(N) Python steps and O(l 2^l) bytes of integer work, where walking
    every mask's subsets takes sum |J| lookups.
    """
    if set(map(type, masks)) - {int}:
        return False
    size = 1 << l
    if masks and (min(masks) < 0 or max(masks) >= size):
        return False
    flags = bytearray(size)
    for mask in masks:
        flags[mask] = 1
    cube = int.from_bytes(flags, "little")
    for j in range(l):
        h = 1 << j
        upper = int.from_bytes((bytes(h) + b"\1" * h) * (size >> (j + 1)), "little")
        if (cube & upper) >> 8 * h & ~cube:
            return False
    return True


def _closed_on_cube(masks: Collection[int], l: int) -> bool:
    """`_downward_closed` for a family of at least 64 masks whose cube takes
    at most 16 bytes per mask; False for any other family, whose closure
    the caller then walks, as it does to word the fault of an open one."""
    n = len(masks)
    return n >= 64 and 1 << l <= 16 * n and _downward_closed(masks, l)


def _center_table(strata: Mapping[int, Stratum], contains: int) -> dict[int, int]:
    """chi(Y intersect D_K) for each stratum K off the containing components
    `contains` that the center Y meets: the Euler numbers of the center's
    strata."""
    return {mask: stratum.chi_meet_center
            for mask, stratum in strata.items()
            if not mask & contains and stratum.chi_meet_center is not None}


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


#: The most components whose numerators `_mask_sum` takes from one table.
_LOW_BITS = 8


def _numerators(shifted: list, negated: list) -> list:
    """prod_{j in J} negated[j] prod_{j not in J} shifted[j] by mask J:
    component j doubles the list, times shifted[j] or negated[j]."""
    nums = [1]
    for s, n in zip(shifted, negated):
        nums = [x * f for f in (s, n) for x in nums]
    return nums


def _mask_sum(strata: Mapping[int, Stratum], shifted: list, negated: list):
    """sum_J chi(D_J) prod_{j in J} negated[j] prod_{j not in J} shifted[j]
    over a stratum table, from the numerators of all masks.

    Past _LOW_BITS components, the numerators of the low
    min(_LOW_BITS, l // 2) bits come from one table and those of the
    others from a second: each stratum adds chi times its low numerator
    into the sum of its high part, and each of those sums is multiplied
    once by its high numerator.  Only `*` and `+` are used.
    """
    l = len(shifted)
    if l <= _LOW_BITS:
        nums = _numerators(shifted, negated)
        total = 0
        for mask, stratum in strata.items():
            total += nums[mask] * stratum.chi
        return total
    bits = min(_LOW_BITS, l // 2)
    low = _numerators(shifted[:bits], negated[:bits])
    sums = [0] * (1 << l - bits)
    low_mask = len(low) - 1
    for mask, stratum in strata.items():
        sums[mask >> bits] += low[mask & low_mask] * stratum.chi
    del low  # freed before the high table is built, which lowers the peak
    total = 0
    for num, part in zip(_numerators(shifted[bits:], negated[bits:]), sums):
        total += num * part
    return total


def _ordered_sum(items: Iterable[tuple[int, object]], shifted: list, negated: list):
    """`_mask_sum`'s sum over (mask, value) items, given in increasing
    mask order, whose masks form a downward closed set.

    With j the lowest bit of J, num[J] = num[J - {j}] // shifted[j] *
    negated[j] from num[empty] = prod shifted: exact, as shifted[j] divides
    num[J - {j}].  Increasing order is a depth-first preorder (the children
    J + {j} of J, j below lowbit(J), lie in [J, J + lowbit(J))), so only
    the path of ancestors is kept: at most l + 1 numerators.  Only `*`,
    `+` and exact `//` are used.
    """
    items = iter(items)
    _, value = next(items)  # the empty mask's
    path = [(0, prod(shifted))]
    total = value * path[0][1]
    for mask, value in items:
        low = mask & -mask
        while path[-1][0] != mask ^ low:
            path.pop()
        j = low.bit_length() - 1
        num = path[-1][1] // shifted[j] * negated[j]
        path.append((mask, num))
        total += value * num
    return total


def chi_d(pair: SncPair) -> Fraction:
    """The weighted Euler characteristic sum_J w_d^J chi(D_J), exactly.

    Every weight is taken over the common denominator
    D = prod_j (m_j + d): the integer numerator of w_d^J is
    num[J] = prod_{j in J} (-m_j) prod_{j not in J} (m_j + d), the sum
    of chi(D_J) * num[J] is an integer, and one Fraction divides it by D.

    A dense table (at least one stratum per 4 of the 2^l subsets) takes
    `_mask_sum`.  Up to _LOW_BITS components it builds a numerator per
    subset, so it pays only at 4 times the density of `_closed_on_cube`,
    which sets one byte a subset; past them its two tables hold at most
    2^max(_LOW_BITS, l - _LOW_BITS) numerators each, 4 N / 256 or fewer
    from 17 components on.  Any other table takes `_ordered_sum`: one
    step per stratum, and no lookup of an absent mask.
    """
    negated = [-comp.mult for comp in pair.components]
    shifted = [pair.d - n for n in negated]
    strata = pair.strata
    if 1 << len(shifted) > 4 * len(strata):
        order = sorted(strata)
        total = _ordered_sum(zip(order, [strata[m].chi for m in order]), shifted, negated)
    else:
        total = _mask_sum(strata, shifted, negated)
    return Fraction(total, prod(shifted))


def _restrict(d: int, components: tuple[Component, ...],
              entries: StratumTable) -> SncPair:
    """The induced pair of degree d whose stratum table is `entries`, in
    the bits of `components`.

    The components kept, in order, are those whose singleton stratum is
    in `entries`, each reused as it is.  Every caller passes a table whose
    masks hold only kept bits.  Each dropped bit below a kept one is
    squeezed out of every mask, highest first, so the bits above it move
    down by one.  When no dropped bit lies below a kept one, no mask moves
    and `entries` itself becomes the new pair's table, so callers pass a
    dict that nothing else holds.  The result carries no center, so no
    component of it contains one.
    """
    kept = []
    dropped = []
    below = 0  # the number of dropped bits below some kept bit
    for j, comp in enumerate(components):
        if 1 << j in entries:
            kept.append(comp)
            below = len(dropped)
        else:
            dropped.append(j)
    strata = entries
    for j in reversed(dropped[:below]):
        low = (1 << j) - 1
        # bit j is 0: the bits below it double, then the shift restores
        # them and moves the bits above it down by one
        strata = {(mask + (mask & low)) >> 1: stratum for mask, stratum in strata.items()}
    return SncPair(d=d, components=tuple(kept), strata=strata)


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
        mask & ~subset:
            stratum if stratum.chi_meet_center is None else _RECORDS[stratum.chi, None]
        for mask, stratum in pair.strata.items()
        if mask & subset == subset
    }
    return _restrict(pair.d, pair.components, entries)


# ---------------------------------------------------------------------------
# model pairs on projective space
# ---------------------------------------------------------------------------


class CpPairModel(NamedTuple):
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
        raise PairValidationError(f"ambient dimension r must be >= 1, got {r}")
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
    by_size = [_RECORDS[r + 1 - size, None] for size in range(s + 2)]
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
    contains = pair.center.contains
    for j, comp in enumerate(pair.components):
        if contains >> j & 1 and comp.mult < 0:
            raise PairValidationError(
                f"center lies inside component {shown(comp.id)} of negative "
                f"multiplicity {comp.mult}; blow-up requires positive "
                "multiplicities on containing components")
    return pair.center


def exceptional_multiplicity(pair: SncPair) -> int:
    """m_0 = m_1 + ... + m_s + r d - d over the containing components."""
    r, contains = _require_center(pair)
    m0 = sum(c.mult for j, c in enumerate(pair.components) if contains >> j & 1)
    return m0 + (r - 1) * pair.d


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
    It raises PairValidationError when the input already has
    MAX_COMPONENTS components, since E would be one more.
    """
    m0 = exceptional_multiplicity(pair)
    l = len(pair.components)
    e_id = _unique_id((c.id for c in pair.components), "E")
    if l >= MAX_COMPONENTS:
        raise PairValidationError(
            f"the blow-up adds the exceptional component {e_id!r} to the {l} "
            f"components of the input, which exceeds the supported maximum "
            f"of {MAX_COMPONENTS}")
    if m0 == 0:
        raise PairValidationError(
            "exceptional multiplicity would be 0 (codimension-1 center "
            "contained in no component); the result is not a valid pair")
    r, contains = pair.center

    e_bit = 1 << l
    entries: StratumTable = {}
    dropped = 0
    for mask, stratum in pair.strata.items():
        fiber = r - (mask & contains).bit_count()
        meets = stratum.chi_meet_center
        if meets is None:
            # interned too, so a pair built from its own records shares them
            entries[mask] = _RECORDS[stratum]
            continue
        if not (fiber == 0 and stratum.chi == meets):
            entries[mask] = _RECORDS[stratum.chi + meets * (fiber - 1), None]
        elif not mask & (mask - 1):  # a deleted singleton; the input has each
            dropped |= mask
        if fiber >= 1:
            entries[mask | e_bit] = _RECORDS[meets * fiber, None]

    if dropped:
        for mask in entries:
            orphans = mask & dropped
            if orphans:
                orphan = (orphans & -orphans).bit_length() - 1
                raise PairValidationError(
                    f"ambiguous center containment: stratum "
                    f"{pair.subset_label(mask & ~e_bit)} survives the blow-up "
                    f"although component {shown(pair.components[orphan].id)} does not")
    return _restrict(pair.d, pair.components + (_new_record(Component, (e_id, m0)),),
                     entries)


def center_pair(pair: SncPair) -> SncPair:
    """The induced pair on the center: components not containing it, restricted."""
    table = _center_table(pair.strata, _require_center(pair).contains)
    return _restrict(pair.d, pair.components,
                     {mask: _RECORDS[chi, None] for mask, chi in table.items()})


def _on_exceptional(blown: SncPair) -> SncPair:
    """A blown-up pair restricted to its exceptional component, the last one."""
    return divisor_on_stratum(blown, 1 << (len(blown.components) - 1))


def exceptional_pair(pair: SncPair) -> SncPair:
    """The induced pair on the exceptional divisor E of the blow-up.

    It is the blown-up pair restricted to E, so the projective-bundle rule
    of the module docstring is written once, in `blowup_transform`.  It
    raises PairValidationError wherever `blowup_transform` does: when the
    exceptional multiplicity is 0, when center containment is ambiguous and
    when E would be one component too many.
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
    r, contains = _require_center(pair)
    elementary = _elementary(Fraction(-c.mult, c.mult + pair.d)
                             for j, c in enumerate(pair.components) if contains >> j & 1)
    factor = sum((r - k) * e for k, e in enumerate(elementary))
    center_value, exceptional_value = induced_center_pairs(pair)
    return exceptional_value == factor * center_value


class BlowupCheck(NamedTuple):
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


#: Largest `max_components` of `random_blowup_instance`.  Its walks visit
#: only the strata a table may hold, not all 2^l subsets, so a draw costs
#: time and memory in the size of its table: on a 2-CPU Xeon VM, 200
#: draws at 16 from `random.Random(7)` take 0.03-0.05 s and raise the peak
#: RSS by 0.25 MiB, where a walk over all 2^16 subsets took 0.48-0.61 s
#: and 57 MiB.
MAX_RANDOM_COMPONENTS = 16

#: The chance that `random_blowup_instance` keeps a stratum of a given size
#: of at least 2 whose one-smaller subsets are all kept.
_KEEP = tuple(max(0.25, 0.95 - 0.2 * size) for size in range(MAX_RANDOM_COMPONENTS + 1))

#: The component ids of the random tables.
_RANDOM_IDS = tuple(f"D{j + 1}" for j in range(MAX_RANDOM_COMPONENTS))

#: The single bits of the random tables' masks.
_BITS = tuple(1 << j for j in range(MAX_RANDOM_COMPONENTS))


def random_blowup_instance(rng: random.Random, max_components: int = 6) -> SncPair:
    """A random consistent pair with center metadata, for property suites.

    Draws a downward-closed family of nonempty strata with arbitrary Euler
    numbers, a center codimension, a containing set among the positive
    components, and a consistent family of center intersections.  Every
    output validates and admits `blowup_transform`.  Each integer is drawn
    by `inputs.draw`, which draws the bits `rng.randint` draws, and the
    containing set as `rng.sample` draws it, so a seed gives the pairs it
    gave through `randint` and `sample`.  `max_components` must lie
    in 0..MAX_RANDOM_COMPONENTS; otherwise ValueError is raised before
    anything is drawn.
    """
    if not 0 <= max_components <= MAX_RANDOM_COMPONENTS:
        raise ValueError(f"max_components must lie in 0..{MAX_RANDOM_COMPONENTS}, "
                         f"got {max_components}")
    bits = rng.getrandbits
    l = draw(bits, 0, max_components)
    d = draw(bits, 1, 5)
    mults = []
    for _ in range(l):
        m = 0
        while m == 0 or m == -d:
            m = draw(bits, -9, 9)
        mults.append(m)
    positive = [j for j, m in enumerate(mults) if m > 0]
    r = draw(bits, 1, 4)
    s = draw(bits, 0, min(r, len(positive)))
    if r == 1 and s == 0:
        r = draw(bits, 2, 4)
    # rng.sample(positive, s) by the pool method it takes for up to 21 items
    contains = 0
    for top in range(len(positive) - 1, len(positive) - 1 - s, -1):
        j = draw(bits, 0, top)
        contains |= 1 << positive[j]
        positive[j] = positive[top]
    contained = list(_submasks(contains))

    chi = functools.partial(draw, bits, -9, 9)
    # The strata are drawn size by size, in the order of
    # itertools.combinations, on which a seed's pairs depend, and only
    # those whose one-smaller subsets are all kept are visited.  A singleton
    # is always kept and draws no float; from size 2 on, each kept stratum
    # is extended by every component above its top one.  A stratum is
    # reached from one kept stratum, itself without its top component, and
    # extending the kept strata in order, by increasing components, keeps
    # the order of itertools.combinations.
    singles = _BITS[:l]
    present: dict[int, int] = {0: chi()}
    for bit in singles:
        present[bit] = chi()
    level = singles
    for size in range(2, l + 1):
        if not level:
            break
        keep = _KEEP[size]
        kept = []
        for low in level:
            for bit in singles[low.bit_length():]:
                mask = low | bit
                rest = low
                while rest:
                    sub = rest & -rest
                    if mask ^ sub not in present:
                        break
                    rest ^= sub
                else:
                    if rng.random() < keep:
                        present[mask] = chi()
                        kept.append(mask)
        level = kept
    # the center sits inside every intersection of its containing components
    for sub in contained:
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
        # the strata off the containing components, in the order above:
        # the strata added for the center all meet a containing component
        meets = {0: chi()}
        for mask in present:
            if not mask or mask & contains:
                continue
            rest = mask
            while rest:
                sub = rest & -rest
                if mask ^ sub not in meets:
                    break
                rest ^= sub
            else:
                if rng.random() < 0.75:
                    meets[mask] = chi()
        for mask in meets:
            for sub in contained:
                if (mask | sub) not in present:
                    present[mask | sub] = chi()
        if s == r:
            # keep strict transforms unambiguous: a stratum through all
            # containing components must not carry the Euler number of its
            # center slice unless it is the slice
            for mask in meets:
                if present[mask | contains] == meets[mask]:
                    present[mask | contains] += 1

    strata: StratumTable = {mask: _RECORDS[value, meets.get(mask & ~contains)]
                            for mask, value in present.items()}
    components = tuple([_new_record(Component, (_RANDOM_IDS[j], mults[j]))
                        for j in range(l)])
    return SncPair(d=d, components=components, strata=strata,
                   center=_new_record(Center, (r, contains)))


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------


#: The fields a stratum entry may have.
_STRATUM_FIELDS = frozenset({"subset", "chi", "nonempty", "chi_meet_center"})


def _subset_mask(subset, bits: dict[str, int]) -> int | None:
    """The mask of a list of distinct known component ids, else None."""
    if type(subset) is not list:
        return None
    try:
        mask = sum(map(bits.__getitem__, subset))
    except (KeyError, TypeError):
        return None
    # a repeated id carries into another bit, so fewer bits are set
    return mask if mask.bit_count() == len(subset) else None


def pair_from_obj(obj) -> SncPair:
    """Build and validate a pair from a decoded stratum-table document.

    Each stratum entry first meets one accept test, which passes only an
    entry that every named check would accept as a nonempty stratum: an
    object of known fields whose subset lists distinct known ids and is
    new to the table, whose `chi` and `chi_meet_center` (or null) are
    integers within `inputs.MAX_INT_DIGITS` digits, and whose `nonempty` is true
    or omitted.  Any other entry goes through the named checks, which
    raise with a message that says where, or skip an entry marked empty.
    """
    expect_object(obj, "top level", {"d", "components", "strata"}, {"center"},
                  TableFormatError)
    d = bounded_int(obj["d"], "d", TableFormatError)

    raw_components = obj["components"]
    if not isinstance(raw_components, list):
        raise TableFormatError("components: expected a list")
    components = []
    contains = 0
    for i, entry in enumerate(raw_components):
        where = f"components[{i}]"
        expect_object(entry, where, {"id", "mult"}, {"contains_center"},
                      TableFormatError)
        if not isinstance(entry["id"], str) or not entry["id"]:
            raise TableFormatError(f"{where}.id: expected a non-empty string")
        mult = bounded_int(entry["mult"], f"{where}.mult", TableFormatError)
        flag = entry.get("contains_center", False)
        if not isinstance(flag, bool):
            raise TableFormatError(f"{where}.contains_center: expected a boolean")
        contains |= flag << i
        components.append(Component(entry["id"], mult))
    bits = {c.id: 1 << j for j, c in enumerate(components)}
    if len(bits) != len(components):
        raise TableFormatError("components: duplicate ids")

    raw_center = obj.get("center")
    if raw_center is None:
        center = None
    elif isinstance(raw_center, dict):
        expect_object(raw_center, "center", {"codim"}, set(), TableFormatError)
        center = Center(bounded_int(raw_center["codim"], "center.codim", TableFormatError),
                        contains)
    else:
        raise TableFormatError("center: expected an object or null")

    raw_strata = obj["strata"]
    if not isinstance(raw_strata, list):
        raise TableFormatError("strata: expected a list")
    strata: StratumTable = {}
    for i, entry in enumerate(raw_strata):
        # the accept test; an entry that fails it takes the named checks
        if type(entry) is dict and entry.keys() <= _STRATUM_FIELDS:
            mask = _subset_mask(entry.get("subset"), bits)
            chi_value = entry.get("chi")
            meet = entry.get("chi_meet_center")
            if (mask is not None and mask not in strata
                    and type(chi_value) is int
                    and -INT_LIMIT < chi_value < INT_LIMIT
                    and (meet is None or type(meet) is int
                         and -INT_LIMIT < meet < INT_LIMIT)
                    and entry.get("nonempty", True) is True):
                strata[mask] = _RECORDS[chi_value, meet]
                continue
        where = f"strata[{i}]"
        expect_object(entry, where, {"subset", "chi"}, {"nonempty", "chi_meet_center"},
                      TableFormatError)
        subset = entry["subset"]
        if not isinstance(subset, list) or not all(isinstance(x, str) for x in subset):
            raise TableFormatError(f"{where}.subset: expected a list of component ids")
        mask = 0
        for name in subset:
            if name not in bits:
                raise TableFormatError(
                    f"{where}.subset: unknown component id {shown(name)}")
            bit = bits[name]
            if mask & bit:
                raise TableFormatError(
                    f"{where}.subset: repeated component id {shown(name)}")
            mask |= bit
        if mask in strata:
            raise TableFormatError(
                f"{where}: duplicate subset {shown_names(sorted(subset))}")
        chi_value = bounded_int(entry["chi"], f"{where}.chi", TableFormatError)
        nonempty = entry.get("nonempty", True)
        if not isinstance(nonempty, bool):
            raise TableFormatError(f"{where}.nonempty: expected a boolean")
        meet = entry.get("chi_meet_center")
        if meet is not None:
            meet = bounded_int(meet, f"{where}.chi_meet_center", TableFormatError)
        if not nonempty:
            if chi_value != 0 or meet is not None:
                raise TableFormatError(
                    f"{where}: an empty stratum must have chi 0 and no "
                    "chi_meet_center; omit the entry instead")
            continue
        strata[mask] = _RECORDS[chi_value, meet]

    if center is None and contains:
        # the flags are refused after the rules on d, the components and the
        # table, and before the rule on chi_meet_center without a center
        SncPair(d, tuple(components), {mask: _RECORDS[stratum.chi, None]
                                       for mask, stratum in strata.items()})
        raise PairValidationError(
            "components are flagged contains_center but no center is declared")
    return SncPair(d=d, components=tuple(components), strata=strata, center=center)


def pair_from_json(text: str) -> SncPair:
    """Parse a stratum-table JSON document; strict about unknown fields.

    json.JSONDecodeError (with line/column information) propagates for
    syntactically malformed input; TableFormatError and
    PairValidationError report semantic problems.
    """
    return pair_from_obj(decode_json(text))


def pair_to_obj(pair: SncPair) -> dict:
    contains = 0 if pair.center is None else pair.center.contains
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
            {"id": c.id, "mult": c.mult, "contains_center": contains >> j & 1 == 1}
            for j, c in enumerate(pair.components)
        ],
        "center": None if pair.center is None else {"codim": pair.center.codim},
        "strata": strata,
    }


def pair_to_json(pair: SncPair) -> str:
    return json.dumps(pair_to_obj(pair), indent=1, sort_keys=True)
