"""Refusals echo an offending value in bounded form."""

import pytest

from repro.sweep.spec import SweepSpec
from repro.util.checks import MAX_SHOWN, check_number, describe, describe_names


def nested(depth: int) -> list:
    value: list = []
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize(
    "value, shown",
    [
        ("bogus", "'bogus'"),
        (True, "bool True"),
        (None, "NoneType None"),
        (1.5, "float 1.5"),
        ([1, 2], "list [1, 2]"),
        ({"n": 1}, "dict {'n': 1}"),
    ],
)
def test_short_values_show_whole(value, shown):
    """A string shows as its repr (the quotes name its type); anything
    else after its type's name."""
    assert describe(value) == shown


@pytest.mark.parametrize(
    "value",
    [nested(975), list(range(10_000)), "x" * 10_000, {str(i): i for i in range(1000)}, 7**5000],
    ids=["deep-list", "long-list", "long-string", "wide-dict", "huge-int"],
)
def test_large_values_are_cut(value):
    shown = describe(value)
    assert "\n" not in shown
    assert len(shown) <= len(type(value).__name__) + 1 + MAX_SHOWN


def test_number_refusals_stay_short():
    with pytest.raises(ValueError) as err:
        check_number(nested(975), "seed", integer=True)
    assert str(err.value) == "seed must be an integer, got list [[[[[[[...]]]]]]]"
    with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
        check_number(-1, "seed", integer=True, positive=False)
    with pytest.raises(ValueError) as err:
        check_number(-(10**4000), "seed", integer=True, positive=False)
    assert len(str(err.value)) <= len("seed must be non-negative, got ") + MAX_SHOWN


def test_names_print_plain_unless_they_are_not_text():
    assert describe_names(["colour", "gpu_count"]) == "colour, gpu_count"
    assert describe_names(["a\nb", "ok"]) == "'a\\nb', ok"
    assert len(describe_names(["k" * 50] * 100)) == MAX_SHOWN


def test_unknown_key_with_a_newline_is_refused_in_one_line():
    with pytest.raises(ValueError) as err:
        SweepSpec.from_dict({"name": "s", "repeat": {"\n": None}})
    assert str(err.value) == "unknown repeat keys: '\\n'"
