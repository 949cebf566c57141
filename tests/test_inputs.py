import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cypair import cli, inputs
from cypair.inputs import INT_LIMIT, MAX_INT_DIGITS, LongDecimal, decimal, digits_error


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


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(written_decimals())
def test_one_decimal_reader_for_flags_and_documents(case):
    n, text = case
    expected = n if -INT_LIMIT < n < INT_LIMIT else LongDecimal(len(str(abs(n))))
    assert int(text) == n
    assert decimal(text) == cli._integer(text) == expected
    # the decoder's second pass, forced by a literal past the conversion limit
    assert inputs.decode_json(f"[{n}, {'9' * 5000}]")[0] == decimal(str(n))
