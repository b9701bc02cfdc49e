"""Shared helpers for the experiment benchmarks.

Each benchmark regenerates one numbered experiment, named in its module
docstring (the paper has no empirical tables, so the experiments
instantiate its quantitative theorems and Section 1.1.4 corollaries;
the README's "Paper mapping" section maps them to the paper).  Tables are
printed (visible with ``pytest -s``) *and* written to
``benchmarks/results/<experiment>.txt`` so the artifacts survive capture.
"""

from __future__ import annotations

import os
import resource
import sys

from repro.analysis.tables import format_table

_RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def peak_rss_bytes() -> int:
    """Peak resident set size of this process so far, in bytes.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; the value is
    a high-water mark, so deltas between two calls bound the additional
    memory a workload touched.  Recorded into every benchmark's
    ``extra_info`` (see ``conftest.py``) so the perf-trajectory JSON
    carries a memory axis alongside the timing one.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform != "darwin":
        peak *= 1024
    return int(peak)


def emit_table(
    experiment_id: str,
    headers: list[str],
    rows: list[list],
    title: str,
) -> str:
    """Format, print, and persist one experiment table."""
    table = format_table(headers, rows, title=f"[{experiment_id}] {title}")
    os.makedirs(_RESULTS_DIR, exist_ok=True)
    path = os.path.join(_RESULTS_DIR, f"{experiment_id}.txt")
    mode = "a" if os.path.exists(path) else "w"
    with open(path, mode, encoding="utf-8") as handle:
        handle.write(table + "\n\n")
    print()
    print(table)
    return table


def reset_results(experiment_id: str) -> None:
    """Truncate a previous run's artifact for this experiment."""
    os.makedirs(_RESULTS_DIR, exist_ok=True)
    path = os.path.join(_RESULTS_DIR, f"{experiment_id}.txt")
    with open(path, "w", encoding="utf-8"):
        pass
