"""Tests for the benchmark's own helpers.

Run from the repository root with
``python -m pytest layerbench/tests -q``.
"""

from __future__ import annotations

import importlib
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

from harness import MIN_OPS, Pass, PercentileSupportError, percentile, rounds_for  # noqa: E402
from hot_daemon import zipf_counts  # noqa: E402
from layers import TARGETS, Tracer, aggregate  # noqa: E402


# -- percentile with support ------------------------------------------------
def test_percentile_interpolates_and_counts_support():
    samples = list(range(100, 0, -1))  # 1..100, unsorted
    p50, beyond50 = percentile(samples, 0.5)
    p90, beyond90 = percentile(samples, 0.9)
    assert (p50, beyond50) == (pytest.approx(50.5), 50)
    assert (p90, beyond90) == (pytest.approx(90.1), 10)
    assert p90 == pytest.approx(float(np.percentile(samples, 90)))


def test_percentile_refuses_without_ten_samples_beyond():
    with pytest.raises(PercentileSupportError, match="p90 needs 10"):
        percentile(range(91), 0.9)
    with pytest.raises(PercentileSupportError, match="p99"):
        percentile(range(900), 0.99)
    with pytest.raises(PercentileSupportError):
        percentile([], 0.5)
    assert percentile(range(92), 0.9)[1] == 10
    assert percentile(range(1000), 0.99)[1] == 10


def test_rounds_depend_only_on_arguments_and_cover_min_ops():
    assert rounds_for(30, 4.7, 25) == 6
    assert rounds_for(1, 4.7, 25) * 25 >= MIN_OPS
    assert rounds_for(30, 5.0, 1200) == 6


def test_throughput_drops_the_extreme_rounds():
    run = Pass(round_rates=[5.0, 1.0, 6.0, 7.0, 50.0])
    assert run.throughput() == pytest.approx(6.0)
    assert Pass(round_rates=[2.0, 4.0]).throughput() == pytest.approx(3.0)


def test_zipf_counts_fill_the_total_in_rank_order():
    counts = zipf_counts(600, 3, 1.2)
    assert sum(counts) == 600
    assert counts == sorted(counts, reverse=True)


# -- self time from nested spans ------------------------------------------
def test_aggregate_self_time_from_nested_spans():
    spans = [
        ["outer", 0.0, 10.0, -1, None],
        ["inner", 1.0, 4.0, 0, None],
        ["leaf", 2.0, 3.0, 1, None],
        ["inner", 5.0, 8.0, 0, None],
        ["outer", 6.5, 7.5, 3, None],  # recursion: busy counts the outer call once
        ["inner", 20.0, 30.0, -1, None],  # outside the window
    ]
    stats = aggregate(spans, 0.0, 10.0)
    assert stats["outer"] == (2, pytest.approx(10.0), pytest.approx((10.0 - 3.0 - 3.0) + 1.0))
    assert stats["inner"] == (2, pytest.approx(6.0), pytest.approx((3.0 - 1.0) + (3.0 - 1.0)))
    assert stats["leaf"] == (1, pytest.approx(1.0), pytest.approx(1.0))
    assert sum(s.self_s for s in stats.values()) == pytest.approx(10.0)


def test_live_spans_close_when_a_wrapped_call_raises():
    tracer = Tracer()

    def leaf(fail):
        if fail:
            raise ValueError("boom")
        return 1

    leaf = tracer.wrap("leaf", leaf)

    def outer():
        total = leaf(False)
        with pytest.raises(ValueError):
            leaf(True)
        return total

    outer = tracer.wrap("outer", outer)
    assert outer() == 1
    assert outer() == 1  # the stack unwound: the second call is a root again
    names = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    assert names == ["outer", "leaf", "leaf", "outer", "leaf", "leaf"]
    assert parents == [-1, 0, 0, -1, 3, 3]
    assert all(s[2] >= s[1] > 0.0 for s in tracer.spans)
    stats = aggregate(tracer.spans, 0.0, float("inf"))
    children = sum(s[2] - s[1] for s in tracer.spans if s[0] == "leaf")
    outer_total = sum(s[2] - s[1] for s in tracer.spans if s[0] == "outer")
    assert stats["leaf"].calls == 4
    assert stats["outer"].self_s == pytest.approx(outer_total - children)


# -- install / remove ---------------------------------------------------------
def _bindings():
    found = []
    for target in TARGETS:
        owner = importlib.import_module(target.module)
        *path, attr = target.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        found.append((owner, attr, vars(owner)[attr]))
    return found


def _serve(path: str) -> bytes:
    from repro.service import ReleaseSession
    from repro.service.batch import serve_jsonl

    lines = [
        json.dumps({"id": i, "graph": path, "estimator": est, "epsilon": 1.0, "seed": i})
        for i, est in enumerate(["cc", "sf", "cc"])
    ]
    return b"".join(
        json.dumps(r, sort_keys=True).encode() + b"\n"
        for r in serve_jsonl(lines, ReleaseSession())
    )


def test_install_then_remove_restores_bindings_and_output(tmp_path):
    from repro.graphs.store import save_npz
    from repro.lp.forest_core import clear_solve_cache
    from giant_lp import random_graph

    path = str(tmp_path / "g.npz")
    save_npz(random_graph(30, 45, np.random.default_rng(3)), path)
    originals = _bindings()
    clear_solve_cache()
    plain = _serve(path)

    tracer = Tracer()
    with tracer:
        for owner, attr, original in originals:
            assert vars(owner)[attr] is not original
        clear_solve_cache()
        traced = _serve(path)
    assert {s[0] for s in tracer.spans} >= {"lp.solve", "flow.max_flow", "session.query"}
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} not restored"
    clear_solve_cache()
    assert traced == plain == _serve(path)
