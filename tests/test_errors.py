"""The one type rule for JSON read from outside: `json_fits` and `json_misfit`."""
import json

import pytest

from eegraph.errors import json_fits, json_misfit

NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("value, annotation, fits", [
    (True, int, False),              # a bool is never a number
    (False, float, False),
    (True, bool, True),
    (1, bool, False),
    (3, int, True),
    (3.0, int, False),               # nor is a float a count
    (3, float, True),                # an int also fits a float field
    (0.5, float, True),
    (NAN, float, False),             # a float must be finite
    (INF, float, False),
    (-INF, float, False),
    (10**400, float, False),         # no float holds it
    (10**400, int, True),
    ("3", int, False),
    ([1, 2], list[int], True),
    ([], list[int], True),
    ([1, True], list[int], False),   # list elements by exact type
    ([1, 2.0], list[int], False),
    ([1, "2"], list[int], False),
    ("ab", list[str], False),        # a string is not a list of names
    ({"ids": [1]}, list[int], False),
    ([1, 2.5], list[float], True),
    ([1, NAN], list[float], False),  # floats inside a list one by one
    (None, int | None, True),        # unions with None
    (None, int, False),
    (2, int | None, True),
    (2.5, int | None, False),
    (None, list[str] | None, True),
    (["a"], list[str] | None, True),
    ([None], list[str] | None, False),
    ("seed3", str | int, True),
    (3.0, str | int, False),
    ({}, dict, True),
    ([], dict, False),
])
def test_json_fits(value, annotation, fits):
    assert json_fits(value, annotation) is fits


def test_parsed_json_is_judged_as_written():
    doc = json.loads('{"n": 1, "x": 1.0, "flag": true, "ids": [1, 2], "name": null}')
    schema = {"n": int, "x": float, "flag": bool, "ids": list[int], "name": str | None}
    assert json_misfit(doc, schema) is None
    assert json_misfit({**doc, "x": True}, schema) == "x must be a finite JSON number"


def test_a_misfit_names_the_field_not_its_value():
    # a mistyped 50k-id list is reported in one short line
    ids = [0.5] * 50_000
    assert json_misfit({"n": 3, "ids": ids}, {"n": int, "ids": list[int]}) == \
        "ids must be a list of JSON integers"
    assert json_misfit({"s": 3.5}, {"s": str | int | None}) == \
        "s must be a JSON string or a JSON integer or null"
