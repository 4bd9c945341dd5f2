"""The trace bus has one vocabulary: :data:`repro.sim.trace.KINDS`.

Static guard over ``src/``: every literal record kind handed to a bus's
``publish`` / ``active`` / ``subscribe`` / ``unsubscribe`` is in ``KINDS``,
and every entry of ``KINDS`` has a ``publish`` site.  A kind typed twice
differently (``ldp.converged`` vs ``ldp.converge``) reaches no subscriber
and fails nothing else, so it is caught here.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.obs.spans import ConvergenceTracer
from repro.sim.trace import KINDS
from repro.topology import Network

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
BUS_METHODS = {"publish", "active", "subscribe", "unsubscribe"}


def _kind_literals() -> dict[str, set[tuple[str, str]]]:
    """Bus method -> {(kind, "file:line")} for every literal kind in src/."""
    found: dict[str, set[tuple[str, str]]] = {m: set() for m in BUS_METHODS}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in BUS_METHODS
                and node.args
            ):
                continue
            # ``publish("link.up" if up else "link.down", ...)`` names two.
            for const in ast.walk(node.args[0]):
                if isinstance(const, ast.Constant) and isinstance(const.value, str):
                    where = f"{path.relative_to(SRC)}:{node.lineno}"
                    found[node.func.attr].add((const.value, where))
    return found


def test_every_literal_kind_is_in_the_vocabulary():
    unknown = sorted(
        (method, kind, where)
        for method, uses in _kind_literals().items()
        for kind, where in uses
        if kind not in KINDS
    )
    assert unknown == []


def test_every_kind_has_a_publisher():
    published = {kind for kind, _ in _kind_literals()["publish"]}
    assert published, "the scan found no publish call at all"
    assert sorted(set(KINDS) - published) == []


def test_convergence_tracer_subscribes_only_to_known_kinds():
    # Its kinds sit in a (kind, handler) table, not in subscribe() calls.
    net = Network()
    ConvergenceTracer(net).attach()
    subscribed = set(net.trace._subs)
    assert subscribed and subscribed <= set(KINDS)
