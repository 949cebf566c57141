import ast
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cypair import cli, hodge, inputs, sncpair
from cypair.inputs import (INT_LIMIT, MAX_INT_DIGITS, LongDecimal, bounded_int, decimal,
                           digits_error, expect_object)
from tables import TRIANGLE_TABLE


@pytest.mark.parametrize("sign", [1, -1])
def test_digits_error_counts_digits_around_every_power_of_ten(sign):
    for k in range(1, 5001):
        power = 10 ** k
        # 10**k - 1 has k digits; 10**k and 10**k + 1 have k + 1
        for value, digits in [(power - 1, k), (power, k + 1), (power + 1, k + 1)]:
            expected = (None if digits <= MAX_INT_DIGITS else
                        f"x: {digits} digits exceed the limit of {MAX_INT_DIGITS}")
            assert digits_error(sign * value, "x") == expected, (sign, k, value - power)


def test_shown_names_the_type_of_a_value_repr_cannot_show():
    assert inputs.shown([10 ** 5000]) == "<list too long to show>"
    assert inputs.shown({"chi": -10 ** 5000}) == "<dict too long to show>"
    assert inputs.shown([10 ** 4000]).endswith("... (4003 characters)")


class Refused(ValueError):
    """A reader's own error class."""


@pytest.mark.parametrize("obj, message", [
    ([], "x: expected an object"),
    (None, "x: expected an object"),
    ({"a": 1, "y": 2, "c": 3}, "x: unknown field(s) ['c', 'y']"),
    ({"b": 1}, "x: missing field(s) ['a']"),
    ({}, "x: missing field(s) ['a']"),
    # both at once: the unknown fields are named first
    ({"b": 1, "z": 2}, "x: unknown field(s) ['z']"),
])
def test_expect_object_refuses_with_the_readers_error(obj, message):
    with pytest.raises(Refused) as info:
        expect_object(obj, "x", {"a"}, {"b"}, Refused)
    assert type(info.value) is Refused
    assert str(info.value) == message


def test_expect_object_passes_every_required_and_optional_field():
    assert expect_object({"a": 1}, "x", {"a"}, {"b"}, Refused) is None
    assert expect_object({"a": 1, "b": 2}, "x", {"a"}, {"b"}, Refused) is None
    assert expect_object({}, "x", set(), set(), Refused) is None


@pytest.mark.parametrize("value, message", [
    (True, "x: expected an integer, got True"),
    (1.0, "x: expected an integer, got 1.0"),
    ("3", "x: expected an integer, got '3'"),
    (None, "x: expected an integer, got None"),
    (LongDecimal(41), "x: 41 digits exceed the limit of 40"),
    (10 ** 40, "x: 41 digits exceed the limit of 40"),
    (-10 ** 40, "x: 41 digits exceed the limit of 40"),
    (10 ** 5000, "x: 5001 digits exceed the limit of 40"),
], ids=["bool", "float", "str", "None", "LongDecimal", "41 digits", "-41 digits",
        "5001 digits"])
def test_bounded_int_refuses_with_the_readers_error(value, message):
    with pytest.raises(Refused) as info:
        bounded_int(value, "x", Refused)
    assert type(info.value) is Refused
    assert str(info.value) == message


@pytest.mark.parametrize("value", [0, -1, 7, INT_LIMIT - 1, 1 - INT_LIMIT])
def test_bounded_int_returns_an_int_in_range_unchanged(value):
    assert bounded_int(value, "x", Refused) is value


@pytest.mark.parametrize("low", [0, -9, -2 ** 41])
@pytest.mark.parametrize("width", [1, 2, 10, 16, 19, 32, 2 ** 40 + 3])
def test_draw_takes_the_bits_randint_takes(width, low):
    high = low + width - 1
    for seed in range(5):
        ours, theirs = random.Random(seed), random.Random(seed)
        got = [inputs.draw(ours.getrandbits, low, high) for _ in range(200)]
        assert got == [theirs.randint(low, high) for _ in range(200)]
        assert ours.getstate() == theirs.getstate()


def _no_bits(k):
    raise AssertionError("drew bits")


@pytest.mark.parametrize("low, high", [(1, 0), (5, -5), (-2 ** 41, -2 ** 42)])
def test_draw_refuses_an_empty_range_before_drawing(low, high):
    with pytest.raises(ValueError) as info:
        inputs.draw(_no_bits, low, high)
    assert str(info.value) == f"empty range {low}..{high}"


def test_only_draw_turns_a_seed_into_integers():
    """No cypair module calls `randint`, `randrange`, or `sample`,
    `choice`, `choices` and `shuffle`, which draw integer indices; their
    integers come from `inputs.draw`.  `random()` coins are allowed."""
    drawing = {"randint", "randrange", "sample", "choice", "choices", "shuffle"}
    callers = set()
    for path in sorted(Path(inputs.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if getattr(node, "attr", None) in drawing:
                callers.add(path.stem)
    assert callers == set()


@pytest.mark.parametrize("max_components", [6, sncpair.MAX_RANDOM_COMPONENTS])
def test_containing_set_takes_the_bits_sample_takes(max_components):
    """`random_blowup_instance` draws its containing set as `rng.sample`
    draws it: the integers before it replayed by `randint`, the set is
    `sample`'s, and the next integer, the ambient space's chi, is the one
    `randint` draws after `sample`."""
    sizes = set()
    for seed in range(300):
        pair = sncpair.random_blowup_instance(random.Random(seed), max_components)
        rng = random.Random(seed)
        l, d = rng.randint(0, max_components), rng.randint(1, 5)
        mults = []
        for _ in range(l):
            m = 0
            while m in (0, -d):
                m = rng.randint(-9, 9)
            mults.append(m)
        positive = [j for j, m in enumerate(mults) if m > 0]
        r = rng.randint(1, 4)
        s = rng.randint(0, min(r, len(positive)))
        if r == 1 and s == 0:
            rng.randint(2, 4)
        assert pair.contains_mask == sum(1 << j for j in rng.sample(positive, s))
        assert pair.strata[0].chi == rng.randint(-9, 9)
        sizes.add(s)
    assert sizes == {0, 1, 2, 3, 4}


def _refusal(read, document):
    with pytest.raises(ValueError) as info:
        read(document)
    return str(info.value)


def test_table_and_diamond_readers_word_a_fault_alike():
    diamond = {"n": 1, "h": [[1, 0], [0, 1]]}
    read_table, read_diamond = sncpair.pair_from_obj, hodge.diamond_from_obj
    # a string where an integer field belongs, d in a table and n in a diamond
    assert _refusal(read_table, dict(TRIANGLE_TABLE, d="3")) == (
        "d: expected an integer, got '3'")
    assert _refusal(read_diamond, dict(diamond, n="3")) == (
        "n: expected an integer, got '3'")
    # an unknown top-level key
    assert (_refusal(read_table, dict(TRIANGLE_TABLE, extra=1))
            == _refusal(read_diamond, dict(diamond, extra=1))
            == "top level: unknown field(s) ['extra']")


def test_only_inputs_states_the_digit_rule():
    """No module but `inputs` names `digits_error`, and no module but
    `inputs` and `cli` names `LongDecimal`."""
    allowed = {"digits_error": {"inputs"}, "LongDecimal": {"inputs", "cli"}}
    users = {name: set() for name in allowed}
    for path in sorted(Path(inputs.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            for name in (getattr(node, "id", None), getattr(node, "attr", None),
                         getattr(node, "name", None), getattr(node, "asname", None)):
                if name in users:
                    users[name].add(path.stem)
    for name, modules in users.items():
        assert "inputs" in modules and modules <= allowed[name], (name, modules)


def test_only_inputs_words_the_diamond_dimension_refusal():
    words = set()
    for path in sorted(Path(inputs.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and "diamond dimension" in node.value):
                words.add(path.stem)
    assert words == {"inputs"}


@st.composite
def written_decimals(draw):
    """An int of up to 60 digits and a text int() reads as it: a sign,
    leading zeros, single underscores between digits and whitespace."""
    size = draw(st.integers(1, 60))
    n = draw(st.integers(10 ** (size - 1) if size > 1 else 0, 10 ** size - 1))
    sign = draw(st.sampled_from(["", "+", "-"]))
    if sign == "-":
        n = -n
    digits = "0" * draw(st.integers(0, 5)) + str(abs(n))
    cuts = draw(st.sets(st.integers(1, max(len(digits) - 1, 1)), max_size=5))
    digits = "".join(("_" if j in cuts else "") + c for j, c in enumerate(digits))
    space = st.sampled_from(["", " ", "\t", " \n "])
    return n, draw(space) + sign + digits + draw(space)


#: The ASCII digits to the Arabic-Indic digits U+0660-U+0669.
ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(written_decimals())
def test_one_decimal_reader_for_flags_and_documents(case):
    n, text = case
    expected = n if -INT_LIMIT < n < INT_LIMIT else LongDecimal(len(str(abs(n))))
    assert int(text) == n
    assert decimal(text) == cli._integer(text) == expected
    # in Arabic-Indic digits, behind more than MAX_INT_DIGITS more zeros
    first = next(j for j, c in enumerate(text) if c.isdigit())
    spelled = (text[:first] + "0" * (MAX_INT_DIGITS + 1) + text[first:]).translate(ARABIC_INDIC)
    assert int(spelled) == n
    assert decimal(spelled) == cli._integer(spelled) == expected
    # the decoder's second pass, forced by a literal past the conversion limit
    assert inputs.decode_json(f"[{n}, {'9' * 5000}]")[0] == decimal(str(n))
