"""Shared benchmark plumbing.

Every experiment benchmark regenerates one DESIGN.md §3 experiment: it
runs the experiment once under pytest-benchmark (wall-clock of the whole
experiment is itself a useful number for a simulator) and prints the result
table the paper-style analysis reads.  Use ``pytest benchmarks/
--benchmark-only -s`` to see the tables inline; they are printed to stdout
either way.

The four wall-clock suites (``test_*_performance.py``) measure what the
performance ledger (``benchmarks/ledger``) has no row for yet.  They time
with ``perf_counter`` themselves, so they run unchanged under
``--benchmark-disable``, and share two fixtures: ``record`` writes a
measurement to ``benchmarks/out/<suite>.json`` (git-ignored; CI uploads
the directory) and ``require_floor`` holds a ratio to its floor.
"""

import json
import os
from pathlib import Path

import pytest

OUT_DIR = Path(__file__).resolve().parent / "out"


@pytest.fixture
def run_once(benchmark):
    """Run an experiment exactly once under the benchmark clock."""

    def _run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)

    return _run


@pytest.fixture
def record(request):
    """``record(section, payload)``: merge one measurement into
    ``benchmarks/out/<suite>.json`` (``test_obs_performance`` -> ``obs``)."""
    suite = request.module.__name__.removeprefix("test_").removesuffix("_performance")
    path = OUT_DIR / f"{suite}.json"

    def _record(section: str, payload: dict) -> None:
        try:
            data = json.loads(path.read_text())
        except (FileNotFoundError, ValueError):
            data = {}
        data[section] = payload
        OUT_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")

    return _record


@pytest.fixture
def require_floor():
    """``require_floor(value, floor, msg, soft=False)``: fail when ``value <
    floor``.  A miss downgrades to xfail when the caller says the floor
    cannot hold on this box (``soft``) or under ``BENCH_PERF_NONBLOCKING=1``
    (shared CI runners, where a noisy neighbour inside a timing window can
    sink any ratio); the number is recorded either way."""

    def _require(value: float, floor: float, msg: str, soft: bool = False) -> None:
        if value >= floor:
            return
        if soft or os.environ.get("BENCH_PERF_NONBLOCKING") == "1":
            pytest.xfail(msg)
        pytest.fail(msg)

    return _require
