"""The ndjson record of one solve, and its one encoder.

A ``RunRecord`` is three parts: the solve's ``RecordHeader`` (width, mode,
node widths and resources, with their JSON fields, built once per solver
configuration), the last attempt's ``Outcome`` (the joined estimates,
their post-processing, the node pairs and the fallback flag) and the
trial's own retries, seed and latent branch. Every prefix is a plain int
from the draw to the record, whose ndjson form alone writes it as a bit
string of its width; an outcome builds those JSON fields once, on its first
record's ``to_json_dict``.

A memoised outcome also encodes its fields' values once as text, in key
order and joined by NUL, and its records' lines are spliced by one rule:
the header's layout (``_layout``) holds every key, the header's values and
the separators, in the sorted encoder's order, and the outcome's values
and the trial's retries, seed and latent branch fill its gaps. Fresh and
analytic outcomes are written once each, so their records are encoded
whole. The nested values records share, ``resources`` and
``node_measurements``, are read-only (``ReadOnlyDict``, ``ReadOnlyList``),
so no line can disagree with its mapping. Every line, spliced or encoded,
equals ``json.dumps(payload, sort_keys=True)`` (``json_line``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING

from .resources import ResourceReport

if TYPE_CHECKING:
    from .dlp import Pairs, PostprocessResult

MODES = ("statevector", "analytic")

# The one encoder of record lines and of the header's and outcomes' values
# spliced into them: json.dumps(payload, sort_keys=True) builds its encoder
# anew on every call, and no record holds a cycle to check for.
JSON_ENCODER = json.JSONEncoder(sort_keys=True, check_circular=False)


def json_line(payload: dict) -> str:
    """``json.dumps(payload, sort_keys=True)``: the line a record mapping
    carries (``SplicedRecord``) while it is unchanged, else the one
    encoder's."""
    line = getattr(payload, "line", None)
    return JSON_ENCODER.encode(payload) if line is None else line


def _layout(header: dict, keys, latent: bool) -> tuple[itemgetter, list[str]]:
    """The sorted layout of a memoised outcome's record line: ``(pick,
    literals)``, for a header with JSON fields ``header``, an outcome with
    ``keys`` and ``latent_s`` present or not.

    The line is ``"".join(pick(parts))``, where ``parts`` lists the
    outcome's values as text in key order (``Outcome.text`` split at NUL),
    the trial slots' values (``latent_s`` if present, ``retries``,
    ``seed``) and then ``literals``: the braces, every key, the header's
    values and the separators, in the order the sorted encoder writes
    them.
    """
    slots = ("latent_s", "retries", "seed") if latent else ("retries", "seed")
    part = {key: i for i, key in enumerate([*sorted(keys), *slots])}  # the part of key's value
    base = len(part)
    literals, picks, text = [], [], "{"
    for n, key in enumerate(sorted([*header, *part])):
        text += (", " if n else "") + JSON_ENCODER.encode(key) + ": "
        if key in header:
            text += JSON_ENCODER.encode(header[key])
            continue
        picks += (base + len(literals), part[key])
        literals.append(text)
        text = ""
    picks.append(base + len(literals))
    literals.append(text + "}")
    return itemgetter(*picks), literals


_DICT_MUTATORS = ("__setitem__", "__delitem__", "__ior__", "clear", "pop", "popitem", "setdefault",
                  "update")
_LIST_MUTATORS = ("__setitem__", "__delitem__", "__iadd__", "__imul__", "append", "clear", "extend",
                  "insert", "pop", "remove", "reverse", "sort")


class ReadOnlyDict(dict):
    """A dict whose mutators raise TypeError: the nested JSON values a
    record shares with its header (``resources``) and its outcome
    (``node_measurements``' entries), which a spliced line has already
    written. It equals, and encodes as, the plain dict; its copies, pickled
    or not, are plain, as they are no longer shared."""

    __slots__ = ()

    def __reduce__(self):
        return dict, (dict(self),)


class ReadOnlyList(list):
    """A list whose mutators raise TypeError, as ``ReadOnlyDict``: the
    shared ``node_measurements`` of an outcome's JSON fields."""

    __slots__ = ()

    def __reduce__(self):
        return list, (list(self),)


def _read_only(self, *args, **kwargs):
    raise TypeError(f"a record's shared {type(self).__name__} is read-only; copy it to change it")


for _cls, _names in ((ReadOnlyDict, _DICT_MUTATORS), (ReadOnlyList, _LIST_MUTATORS)):
    for _name in _names:
        setattr(_cls, _name, _read_only)
del _cls, _names, _name


class SplicedRecord(dict):
    """A memoised outcome's record mapping with its ndjson ``line``, spliced
    from the header's layout and the outcome's values; every mutator sets
    ``line`` to None, so ``json_line`` encodes a changed mapping afresh. The
    nested ``resources`` and ``node_measurements`` values are shared with
    the header and the outcome, and read-only (``ReadOnlyDict``,
    ``ReadOnlyList``), so the line cannot disagree with them."""

    __slots__ = ("line",)


def _dropping_line(name: str):
    method = getattr(dict, name)

    def mutate(self, *args, **kwargs):
        self.line = None
        return method(self, *args, **kwargs)

    mutate.__name__ = mutate.__qualname__ = name
    return mutate


for _name in _DICT_MUTATORS:
    setattr(SplicedRecord, _name, _dropping_line(_name))
del _name


@dataclass(frozen=True, slots=True)
class RecordHeader:
    """The record fields a solve fixes for all its trials, with their JSON
    fields, built once with it and shared by every record of the solve.

    ``width`` is the estimates' width (t for Alg. 2, the plan's total width
    for Alg. 4), ``measured`` Alg. 4's node widths; ``json`` holds
    ``mode``, ``resources`` and, for Alg. 4, ``comm_qubits``, its hand-off
    cost, read from the resources. ``layouts`` keeps the sorted layouts
    (``_layout``) of the lines of memoised outcomes, per outcome key set and
    ``latent_s`` presence. Alg. 2 keeps one per (L, t, mode)
    (``dlp.single_node_header``), Alg. 4 one per plan, r, L and mode
    (``dist.record_header``).
    """

    width: int
    mode: str
    measured: tuple[int, ...] | None = None
    resources: ResourceReport | None = None
    json: dict = field(init=False, repr=False, compare=False)
    layouts: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        fields: dict = {"mode": self.mode}
        if self.measured is not None:
            fields["comm_qubits"] = self.comm_qubits
        if self.resources is not None:
            fields["resources"] = ReadOnlyDict(self.resources.to_json_dict())
        object.__setattr__(self, "json", fields)
        object.__setattr__(self, "layouts", {})

    @property
    def comm_qubits(self) -> int:
        """The resources' hand-off cost, 0 without resources."""
        return 0 if self.resources is None else self.resources.comm_qubits


@dataclass(frozen=True, slots=True)
class Outcome:
    """One attempt's result, a pure function of the drawn pairs and the
    join: the two joined estimates, their post-processing, and for Alg. 4
    the node pairs and the alignment's fallback flag. The memo of
    ``dlp.joint_cdf``'s entry keeps one per drawn flat index, ``memoised``,
    which every record that draws it shares. It compares by value; its JSON
    fields and, once memoised, their values' text, built on the first
    ``json_fields`` and ``text`` calls and kept, take no part."""

    m_a: int
    m_b: int
    detail: PostprocessResult
    node_measurements: Pairs | None = None
    correct_fallback: bool = False
    memoised: bool = field(default=False, repr=False, compare=False)
    _json: dict | None = field(default=None, init=False, repr=False, compare=False)
    _text: str | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def success(self) -> bool:
        return self.detail.g_hat is not None

    def json_fields(self, header: RecordHeader) -> dict:
        """The outcome's record fields, read-only: each estimate and node
        pair written as a zero-padded bit string of the ``header``'s width,
        the rounded values, the verdict and the fallback flag. The header is
        that of the solve that made the outcome, and a memo entry is only
        drawn by solves of one join, which fixes both widths."""
        fields = self._json
        if fields is None:
            width, detail = header.width, self.detail
            fields = {
                "m_a": bin(self.m_a)[2:].zfill(width),
                "m_b": bin(self.m_b)[2:].zfill(width),
                "mhat_a": detail.mhat_a,
                "mhat_b": detail.mhat_b,
                "g_hat": detail.g_hat,
                "success": self.success,
            }
            if self.node_measurements is not None:
                fields["node_measurements"] = ReadOnlyList([
                    ReadOnlyDict(m_a=bin(ma)[2:].zfill(m), m_b=bin(mb)[2:].zfill(m))
                    for (ma, mb), m in zip(self.node_measurements, header.measured)
                ])
                fields["correct_fallback"] = self.correct_fallback
            object.__setattr__(self, "_json", fields)
        return fields

    def text(self, header: RecordHeader) -> str:
        """The values of the outcome's JSON fields as text, read-only: each
        encoded once, in key order, joined by NUL, which no JSON text
        holds."""
        text = self._text
        if text is None:
            fields = self.json_fields(header)
            text = "\0".join(JSON_ENCODER.encode(fields[key]) for key in sorted(fields))
            object.__setattr__(self, "_text", text)
        return text


@dataclass(slots=True)
class RunRecord:
    """One end-to-end solve: the last attempt's ``outcome``, the solve's
    ``header`` and the trial's own counters.

    Every field of the old flat record (``m_a``, ``g_hat``, ``success``,
    ``mode``, ``resources``, ...) reads through as a read-only property.
    Each solve builds a fresh record, and ``harness.run_batch`` sets its
    ``seed`` in place, so it is not frozen; ``dataclasses.replace`` works.
    """

    outcome: Outcome
    retries: int
    header: RecordHeader
    seed: int | None = None
    latent_s: int | None = None

    m_a = property(attrgetter("outcome.m_a"))
    m_b = property(attrgetter("outcome.m_b"))
    mhat_a = property(attrgetter("outcome.detail.mhat_a"))
    mhat_b = property(attrgetter("outcome.detail.mhat_b"))
    g_hat = property(attrgetter("outcome.detail.g_hat"))
    success = property(attrgetter("outcome.success"))
    node_measurements = property(attrgetter("outcome.node_measurements"))
    correct_fallback = property(attrgetter("outcome.correct_fallback"))
    width = property(attrgetter("header.width"))
    mode = property(attrgetter("header.mode"))
    measured = property(attrgetter("header.measured"))
    comm_qubits = property(attrgetter("header.comm_qubits"))
    resources = property(attrgetter("header.resources"))

    def to_json_dict(self) -> dict:
        """A fresh dict of the header's and the outcome's shared JSON fields
        and the trial's ``retries``, ``seed`` and, if set, ``latent_s``.

        For a memoised outcome it is a ``SplicedRecord`` that carries its
        line: the header's layout filled with the outcome's values and the
        trial's. A trial value is spliced only when it is exactly an int,
        or None for ``seed``; any other leaves a plain dict to the encoder,
        which writes it, or refuses it, as ``json.dumps`` does. Fresh and
        analytic outcomes are written once each, so they go to the encoder
        whole."""
        header, outcome = self.header, self.outcome
        retries, seed, latent_s = self.retries, self.seed, self.latent_s
        fields = outcome.json_fields(header)
        record = {**header.json, **fields, "retries": retries, "seed": seed}
        if latent_s is not None:
            record["latent_s"] = latent_s
        if not (
            outcome.memoised and type(retries) is int
            and (seed is None or type(seed) is int)
            and (latent_s is None or type(latent_s) is int)
        ):
            return record
        key = (outcome.node_measurements is None, latent_s is None)
        layout = header.layouts.get(key)
        if layout is None:
            layout = header.layouts[key] = _layout(header.json, fields, latent_s is not None)
        pick, literals = layout
        parts = outcome.text(header).split("\0")
        if latent_s is not None:
            parts.append(str(latent_s))
        parts.append(str(retries))
        parts.append("null" if seed is None else str(seed))
        parts += literals
        record = SplicedRecord(record)
        record.line = "".join(pick(parts))
        return record
