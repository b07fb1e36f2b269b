"""The splice's one layout rule on key sets the solvers never make: a
header's JSON fields and an outcome's keys, with or without ``latent_s``,
laid out by ``records._layout`` and filled with the encoded values, give
``json.dumps(record, sort_keys=True)`` whatever the keys and values are."""

from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from distdlog.records import JSON_ENCODER, _layout

SLOTS = ("latent_s", "retries", "seed")

# Header keys that sort before every outcome key and trial slot, between
# them and after them all.
HEADERS = {
    "none": {},
    "before": {"a": 1, "aa": "x"},
    "between": {"latent_r": 2, "latent_t": [1, 2], "m_b": None, "ret": "r", "s": {"k": 1}},
    "after": {"zz": {"y": [None, {"z": 1}]}, "sef": 3, "seed_": True},
    "all": {"a": 0, "latent_r": None, "m_b": "0101", "s": [], "zz": {"b": {"a": 1}}},
}
OUTCOMES = {
    "one": ["m_a"],
    "solver-like": ["g_hat", "m_a", "mhat_a", "success", "node_measurements"],
    "around-slots": ["b", "latent_", "n", "retriez", "see", "x"],
}
VALUES = {
    "null": None,
    "int": -12,
    "string": "0110\"qé",
    "list": [1, "a", None, [2]],
    "nested": {"b": {"d": [1, {"c": None}]}, "a": "x"},
}


def spliced(header: dict, outcome: dict, trial: dict) -> str:
    """The line ``_layout`` lays out for these fields, filled as
    ``RunRecord.to_json_dict`` fills it: the outcome's values in key order,
    the trial slots' values, then the literals."""
    latent = "latent_s" in trial
    pick, literals = _layout(header, outcome, latent)
    parts = [JSON_ENCODER.encode(outcome[key]) for key in sorted(outcome)]
    parts += [JSON_ENCODER.encode(trial[key]) for key in SLOTS if key in trial]
    return "".join(pick(parts + literals))


@pytest.mark.parametrize("latent", [False, True], ids=["no-latent", "latent"])
@pytest.mark.parametrize("kind", VALUES)
@pytest.mark.parametrize("keys", OUTCOMES)
@pytest.mark.parametrize("header", HEADERS)
def test_layout_equals_sorted_dumps(header, keys, kind, latent):
    header = HEADERS[header]
    outcome = {key: VALUES[kind] for key in OUTCOMES[keys]}
    trial = {"retries": 3, "seed": None if kind == "null" else 12}
    if latent:
        trial["latent_s"] = 4
    record = {**header, **outcome, **trial}
    assert spliced(header, outcome, trial) == json.dumps(record, sort_keys=True)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@given(
    fields=st.dictionaries(
        st.text(max_size=6).filter(lambda key: key not in SLOTS), JSON_VALUES, min_size=1,
        max_size=10,
    ),
    split=st.integers(0, 10),
    trial=st.fixed_dictionaries(
        {"retries": st.integers(0, 64), "seed": st.none() | st.integers(0, 2**70)},
        optional={"latent_s": st.integers(0, 2**40)},
    ),
)
def test_layout_equals_sorted_dumps_on_any_keys(fields, split, trial):
    """Any keys and values, the first ``split`` of the fields the header's,
    the rest the outcome's, which has at least one."""
    items = list(fields.items())
    split = min(split, len(items) - 1)
    header, outcome = dict(items[:split]), dict(items[split:])
    record = {**header, **outcome, **trial}
    assert spliced(header, outcome, trial) == json.dumps(record, sort_keys=True)
