"""The rules for outside input: the integers of stratum-table and diamond
documents and of the command line, and the values error messages repeat.

`expect_object`, `bounded_int` and `bounded_dim` state the field rules
that every reader shares, raising its own error class; `draw` turns a
seeded generator's bits into the integers of the random inputs.  It
imports no other cypair module, so every reader can build on it.
"""

from __future__ import annotations

import json
import re
from typing import Callable, Iterable, NamedTuple

#: Most components a pair may have.  `sncpair.blowup_transform` adds the
#: exceptional component, so it takes pairs with at most MAX_COMPONENTS - 1.
MAX_COMPONENTS = 30

#: Most decimal digits accepted in every integer of a table document: d,
#: the multiplicities, the center's codimension and the Euler numbers (the
#: CLI bounds every integer flag and `chi-d cp --mults` by it too, and
#: `hodge.diamond_from_obj` the dimension and every Hodge number).  The
#: numerators in `sncpair.chi_d` grow with the product of all m_j + d, so
#: the cost of a table grows with these digits.
MAX_INT_DIGITS = 40

#: The integers of at most MAX_INT_DIGITS digits are those of absolute
#: value below this.
INT_LIMIT = 10 ** MAX_INT_DIGITS

#: Largest accepted Hodge diamond dimension: of a diamond document's `n`, of
#: a builtin `cp<N>` name and of the result of `hodge bundle`.  On a 2-CPU
#: Xeon VM, `hodge ledger --diamond cp300` takes 0.5-1.0 s and cp400 1.1 s;
#: `hodge bundle --base point --fiber-dim 300` takes 0.2-0.3 s and `hodge
#: blowup --x cp300 --y point --codim 300` 0.2-0.4 s.
MAX_DIAMOND_DIM = 300


class LongDecimal(NamedTuple):
    """An integer over MAX_INT_DIGITS digits, kept as its digit count alone."""
    digits: int


#: Most characters of a user-supplied value that an error message repeats
#: (see `shown`); the CLI cuts its flag values the same way.
MAX_SHOWN_CHARS = 40


def cut(text: str) -> str:
    """`text`, or its first MAX_SHOWN_CHARS characters and its length."""
    if len(text) <= MAX_SHOWN_CHARS:
        return text
    return f"{text[:MAX_SHOWN_CHARS]}... ({len(text)} characters)"


def shown(value) -> str:
    """repr(value) for an error message, cut when long.

    A string over MAX_SHOWN_CHARS characters is shown as the repr of its
    first MAX_SHOWN_CHARS and its length; any other value's repr is cut
    the same way.  A shorter string is its repr, unchanged.
    """
    if isinstance(value, str):
        if len(value) <= MAX_SHOWN_CHARS:
            return repr(value)
        return f"{value[:MAX_SHOWN_CHARS]!r}... ({len(value)} characters)"
    try:
        return cut(repr(value))
    except ValueError:  # it holds an int past Python's 4,300-digit limit
        return f"<{type(value).__name__} too long to show>"


def shown_names(names: Iterable[str]) -> str:
    """A list of names as its repr shows it, each name cut by `shown`.

    A list over MAX_COMPONENTS names, more than a subset of a valid pair
    holds, shows its first MAX_COMPONENTS and its length.
    """
    names = list(names)
    text = "[" + ", ".join(map(shown, names[:MAX_COMPONENTS])) + "]"
    if len(names) > MAX_COMPONENTS:
        text += f"... ({len(names)} names)"
    return text


def digits_error(value: int | LongDecimal, where: str) -> str | None:
    """The message for an int or `LongDecimal` over `MAX_INT_DIGITS` digits, else None."""
    if not isinstance(value, LongDecimal):
        if -INT_LIMIT < value < INT_LIMIT:
            return None
        # counted without str(), which fails past 4,300 digits: log10(2) is
        # taken from below, so 10 ** digits <= 2 ** (bits - 1) <= abs(value)
        digits = (abs(value).bit_length() - 1) * 30_102_999_566 // 10 ** 11
        while abs(value) >= 10 ** digits:
            digits += 1
        value = LongDecimal(digits)
    return f"{where}: {value.digits} digits exceed the limit of {MAX_INT_DIGITS}"


def expect_object(obj, where: str, required: set, optional: set,
                  error: type[ValueError]) -> None:
    """Raise `error` unless `obj` is a dict of every `required` field and
    no field outside `required` and `optional`; unknown fields come first."""
    if not isinstance(obj, dict):
        raise error(f"{where}: expected an object")
    unknown = obj.keys() - required - optional
    if unknown:
        raise error(f"{where}: unknown field(s) {shown_names(sorted(unknown))}")
    missing = required - obj.keys()
    if missing:
        raise error(f"{where}: missing field(s) {sorted(missing)}")


def bounded_int(value, where: str, error: type[ValueError]) -> int:
    """`value` if it is an int, not a bool, within MAX_INT_DIGITS digits;
    else raise `error`.  A `LongDecimal` is refused by its digit count."""
    if isinstance(value, bool) or not isinstance(value, (int, LongDecimal)):
        raise error(f"{where}: expected an integer, got {shown(value)}")
    message = digits_error(value, where)
    if message is not None:
        raise error(message)
    return value


def bounded_dim(n: int, where: str, error: type[ValueError]) -> int:
    """`n` if it is at most MAX_DIAMOND_DIM, else raise `error`; a range
    rule only, for an int the caller has bounded otherwise."""
    if n > MAX_DIAMOND_DIM:
        raise error(
            f"{where}: diamond dimension {n} exceeds the limit of {MAX_DIAMOND_DIM}")
    return n


def draw(getrandbits: Callable[[int], int], low: int, high: int) -> int:
    """An integer of low..high, drawn from `getrandbits` as
    `random.Random.randint(low, high)` draws it.

    It draws k = n.bit_length() bits, with n = high - low + 1, and draws
    again while they read n or more, so it takes the same bits from the
    generator and returns the same value as `randint`, in fewer steps.
    This function owns how a `--seed` becomes integers: every integer of
    `sncpair.random_blowup_instance` and `hodge.random_symmetric_diamond`
    is drawn here.  An empty range (high < low) raises ValueError.
    """
    n = high - low + 1
    if n < 1:
        raise ValueError(f"empty range {low}..{high}")
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return low + r


#: A decimal as int() reads it: a sign, digits, single underscores between them.
_DECIMAL = re.compile(r"\s*([+-]?)(\d(?:_?\d)*)\s*")


def decimal(text: str) -> int | LongDecimal:
    """The value of a decimal, or a `LongDecimal` over MAX_INT_DIGITS digits.

    It reads every integer of the command line and, past int()'s 4,300-digit
    limit, every integer literal of a JSON document (see `decode_json`).
    Only the sign and the significant digits are converted, so int() never
    meets that limit.  Malformed text raises ValueError, cut by `shown`.
    """
    match = _DECIMAL.fullmatch(text)
    if match is None:
        raise ValueError(f"invalid int value: {shown(text)}")
    sign, digits = match.groups()
    digits = digits.replace("_", "")
    if not digits.isascii():  # \d is any script's digit; its zero counts too
        digits = "".join(map(str, map(int, digits)))
    digits = digits.lstrip("0")
    if len(digits) > MAX_INT_DIGITS:
        return LongDecimal(len(digits))
    value = int(digits or "0")
    return -value if sign == "-" else value


def decode_json(text: str):
    """json.loads(text), reading integers past int()'s 4,300-digit limit.

    A document whose integers all convert is decoded once, by json.loads.
    Only when a literal is past the conversion limit is the text decoded
    again, with every literal over MAX_INT_DIGITS digits a `LongDecimal`,
    which the readers refuse by field and digit count.  A malformed
    document raises json.JSONDecodeError either way.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:  # int()'s conversion limit
        return json.loads(text, parse_int=decimal)
