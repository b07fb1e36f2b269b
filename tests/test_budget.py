"""The byte budget: every dense build is sized by an upper bound in bytes and
refused by ``statevec.check_bytes``, the one comparison of a bound with the
one cap ``statevec.BYTES_CAP``.

Every caller is held to the contract at its own bound: with the cap one byte
below it, the call raises ``QubitBudgetError`` in the one message shape
before any node table or joint law is built, and with the cap at it, the
small case runs. Beside ``test_surface.py``'s guard, a structural guard
keeps the cap read in one place, and the CLI refuses every over-budget
command with exit 2, one ``error:`` line and no output.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from distdlog import dist, dlp, statevec, verify
from distdlog.cli import main
from distdlog.numtheory import validate_instance

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "distdlog"
SHAPE = r"needs about \d+ MiB \(cap \d+ MiB\)(; use analytic mode)?"
ANALYTIC = "; use analytic mode"

INSTANCE = validate_instance(11, 3, 9)  # r = 5
PLAN = dist.make_plan(INSTANCE, k=2, h=2, epsilon="0.25", epsilon_prime="0.2")
ALG2 = dlp.ShorConfig.for_instance(INSTANCE, "0.25")


def _law_bytes(nodes, mode):
    """``joint_law``'s bound: the law, one branch term and its CDF, 8
    bytes an entry each, and the build."""
    return (24 << 2 * sum(m for _, _, m in nodes)) + dlp._build_bytes(INSTANCE, nodes, mode)


# id: (what, advice, bound, call), each call a small case of its site
SITES = {
    "node-run": (
        "node run", ANALYTIC,
        lambda: dlp._RUN_BYTES * INSTANCE.r << 4,
        lambda: dlp.node_columns(INSTANCE, 4, 0, 1),
    ),
    "chain-run": (
        "chain run", ANALYTIC,
        lambda: dlp._chain_bytes(INSTANCE.r, PLAN.nodes),
        lambda: dlp.measure_chain(INSTANCE, PLAN.nodes, np.random.default_rng(0)),
    ),
    "joint-law-statevector": (
        "joint law", "",
        lambda: _law_bytes(PLAN.nodes, "statevector"),
        lambda: dlp.joint_law.__wrapped__(INSTANCE, PLAN.nodes, "statevector"),
    ),
    "joint-law-analytic": (
        "joint law", "",
        lambda: _law_bytes(PLAN.nodes, "analytic"),
        lambda: dlp.joint_law.__wrapped__(INSTANCE, PLAN.nodes, "analytic"),
    ),
    "mass-statevector": (
        "exact success mass", "",
        lambda: dlp._mass_bytes(INSTANCE, ALG2.nodes, "statevector"),
        lambda: dlp.success_mass(INSTANCE, ALG2.nodes, dlp.identity_join, ALG2.t, "statevector"),
    ),
    "mass-analytic": (
        "exact success mass", "",
        lambda: dlp._mass_bytes(INSTANCE, PLAN.nodes, "analytic"),
        lambda: dlp.success_mass(INSTANCE, PLAN.nodes, PLAN.join, PLAN.total_width, "analytic"),
    ),
    "step-7": (
        "step-7 check", "",
        lambda: dlp._build_bytes(INSTANCE, PLAN.nodes, "statevector"),
        lambda: dist.compare_step7_state(INSTANCE, PLAN),
    ),
    "case-sweep": (
        "an alignment sweep of 100 cases", "",
        lambda: 100 * verify._CASE_BYTES,
        lambda: verify.run_suite("correct", cases=100),
    ),
    "oracle-layout": (
        "gate-level layout", "",
        lambda: 16 << 10,
        lambda: statevec.RegisterLayout((("a", 6), ("b", 4))),
    ),
}


@pytest.mark.parametrize("site", SITES)
def test_refused_one_byte_under_its_bound_and_run_at_it(site, monkeypatch):
    """One byte under the site's bound, the call is refused in the one
    message shape, naming the bound and the cap in MiB, before any node
    table or joint law is built; at the bound, it runs."""
    what, advice, bound, call = SITES[site]
    nbytes = bound()
    monkeypatch.setattr(statevec, "BYTES_CAP", nbytes - 1)
    dlp.node_tables.cache_clear()
    law_misses = dlp.joint_law.cache_info().misses
    with pytest.raises(statevec.QubitBudgetError) as refused:
        call()
    message = str(refused.value)
    assert re.fullmatch(re.escape(what) + " " + SHAPE, message)
    cap = (nbytes - 1) >> 20
    assert message == f"{what} needs about {nbytes >> 20} MiB (cap {cap} MiB){advice}"
    assert dlp.node_tables.cache_info().misses == 0
    assert dlp.joint_law.cache_info().misses == law_misses
    monkeypatch.setattr(statevec, "BYTES_CAP", nbytes)
    call()


def test_oracle_layouts_fit_to_24_qubits():
    """The gate-level oracle's 16 bytes an amplitude admit 24 qubits under
    the 256 MiB cap and refuse 25."""
    assert statevec.RegisterLayout((("a", 20), ("b", 4))).total_width == 24
    with pytest.raises(
        statevec.QubitBudgetError, match=r"^gate-level layout needs about 512 MiB \(cap 256 MiB\)$"
    ):
        statevec.RegisterLayout((("a", 20), ("b", 5)))


def _cap_names(node: ast.AST, where: str | None):
    """(enclosing function or None, load or store) of every ``BYTES_CAP``
    name or attribute under ``node``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        where = node.name
    name = getattr(node, "id", None) or getattr(node, "attr", None)
    if name == "BYTES_CAP":
        yield where, type(node.ctx).__name__
    for child in ast.iter_child_nodes(node):
        yield from _cap_names(child, where)


def test_the_cap_has_one_reader():
    """``BYTES_CAP`` is set once, at the top of ``statevec``, and read only
    by ``check_bytes``; no other ``1 << 28`` and none of the caps and
    checks it replaced remain in ``src/``."""
    uses, literals = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        uses |= {(path.name, *use) for use in _cap_names(ast.parse(text), None)}
        literals += [(path.name, line) for line in text.splitlines()
                     if re.search(r"1\s*<<\s*28\b|2\s*\*\*\s*28\b|268435456", line)]
        for gone in ("MAX_QUBITS", "_LAW_BYTES_CAP", "_CASES_BYTES_CAP", "_check_run_bytes"):
            assert gone not in text, (path.name, gone)
    assert uses == {("statevec.py", None, "Store"), ("statevec.py", "check_bytes", "Load")}
    assert literals == [("statevec.py", "BYTES_CAP = 1 << 28")]


R16001 = ["--N", "32003", "--a", "4", "--b", "17236"]
N23_K3 = ["--N", "23", "--a", "2", "--b", "3", "--k", "3", "--h", "2",
          "--epsilon", "0.5", "--epsilon-prime", "0.25"]
REFUSALS = {
    "solve-fresh": ["solve", *R16001, "--trials", "5", "--seed", "7", "--no-reuse"],
    "solve-cached": ["solve", *R16001, "--trials", "5", "--seed", "7"],
    "solve-dist-fresh": ["solve-dist", *R16001, "--k", "2", "--seed", "7", "--no-reuse"],
    "solve-dist-cached": ["solve-dist", *R16001, "--k", "2", "--seed", "7"],
    "dist-compare-r16001": ["dist-compare", *R16001, "--k", "2"],
    "dist-compare-N23-k3": ["dist-compare", *N23_K3],
    "verify-cases": ["verify", "--suite", "correct", "--cases", "100000000"],
    "verify-all-cases": ["verify", "--suite", "all", "--cases", "100000000"],
    "verify-mass": ["verify", "--suite", "dlp-mass", "--epsilon", "0.000001"],
}


@pytest.mark.parametrize("argv", REFUSALS.values(), ids=REFUSALS)
def test_cli_refusals_exit_2_with_one_error_line(argv, capsys, tmp_path):
    """Each over-budget command exits 2 with no stdout and, given
    ``--output``, creates no file. Its stderr ends in one ``error:`` line of
    the budget's shape; a cached run's note on its law before it has the
    same shape."""
    path = tmp_path / "out.ndjson"
    writes = argv[0] != "verify"
    code = main(argv + ["--output", str(path)] if writes else argv)
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert not path.exists()
    *notes, error = err.splitlines()
    assert re.fullmatch(r"error: [-\w ]+ " + SHAPE, error), error
    for note in notes:
        assert re.fullmatch(
            r"note: joint law " + SHAPE + ", so it is not cached; every attempt reruns the circuit",
            note,
        ), note
