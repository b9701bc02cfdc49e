"""Streaming contact-graph serving: edit batches interleaved with
private re-releases.

The wire format extends the ``repro serve-batch`` JSONL protocol
(:mod:`repro.service.batch`) with one new event kind.  A line carrying
an ``edits`` field is an **edit event** applied to the current graph
version:

``{"edits": [["+", 0, 1], ["-", 3, 4]], "id": "day-2"}``

* each row is an ``[op, u, v]`` triple, ``op`` one of ``"+"`` (insert)
  or ``"-"`` (delete);
* the batch goes through :meth:`CompactGraph.apply_edits` — inserts of
  present edges and deletes of absent edges are no-ops, the vertex set
  is fixed;
* the acknowledgement record echoes the id and reports what actually
  changed: effective insert/delete counts, the touched component ids in
  the old and new version, and the new version's size and fingerprint.

Every other non-blank line is an ordinary release request served
against the **current** graph version (requests naming an explicit
``graph`` path bypass the stream's version and are served unchanged).
Responses use the global line index as the entropy index, exactly like
:func:`repro.service.batch.serve_jsonl` — so for a fixed event stream
the output is a deterministic function of the input, byte-identical
across reruns.

Determinism across serving modes is the pinned contract: a session with
component promotion enabled (the incremental path — only components
touched since the last promotion recompute) produces byte-identical
output to a session with ``component_promotion=False`` and no cache (a
cold full rebuild per version).  The ``incremental-smoke`` CI job
byte-diffs exactly these two runs.

Failure semantics match batch serving: a malformed edit event (bad op,
self-loop, endpoint out of range, an edge both inserted and deleted)
produces a structured ``{"id", "error", "error_type"}`` record in its
slot and **leaves the current graph version unchanged**; the stream
always runs to completion.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator

from ..graphs.compact import as_compact
from .batch import _RequestServer
from .session import ReleaseSession

__all__ = ["serve_edit_stream", "parse_edit_event"]


def parse_edit_event(edits) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Split an ``edits`` array into ``(inserts, deletes)`` pair lists.

    Raises :class:`ValueError` on anything that is not a list of
    ``[op, u, v]`` triples with ``op`` in ``{"+", "-"}`` and int-like
    endpoints; endpoint range and self-loop validation happens in
    :meth:`CompactGraph.apply_edits`.
    """
    if not isinstance(edits, list):
        raise ValueError("'edits' must be an array of [op, u, v] triples")
    inserts: list[tuple[int, int]] = []
    deletes: list[tuple[int, int]] = []
    for row in edits:
        if not isinstance(row, (list, tuple)) or len(row) != 3:
            raise ValueError(
                f"edit rows must be [op, u, v] triples, got {row!r}"
            )
        op, u, v = row
        if isinstance(u, bool) or isinstance(v, bool) or not (
            isinstance(u, int) and isinstance(v, int)
        ):
            raise ValueError(f"edit endpoints must be integers, got {row!r}")
        if op == "+":
            inserts.append((u, v))
        elif op == "-":
            deletes.append((u, v))
        else:
            raise ValueError(f"edit op must be '+' or '-', got {op!r}")
    return inserts, deletes


def serve_edit_stream(
    lines: Iterable[str],
    session: ReleaseSession,
    base_graph,
    *,
    base_seed: int = 0,
) -> Iterator[dict]:
    """Serve a stream of interleaved edit events and release requests.

    Parameters
    ----------
    lines:
        Event lines (blank lines and ``#`` comments are skipped).
        Lines with an ``edits`` field advance the current graph
        version; all others are release requests against it.
    session:
        The :class:`ReleaseSession` serving the releases.  After every
        applied batch it is handed the batch's lineage
        (:meth:`ReleaseSession.record_edit`: parent and child
        fingerprints and the touched component ids, no graph), so a
        promoting session derives the new version's extension from the
        parent's on its first miss.  Whether it promotes component
        tables (the incremental path) or rebuilds cold per version
        never changes the yielded records, only their cost.
    base_graph:
        Version zero of the evolving graph.
    base_seed:
        Root entropy for requests without an explicit ``seed``
        (per-request streams are spawned from the global line index,
        matching :func:`repro.service.batch.serve_jsonl`).

    Yields
    ------
    dict
        One record per event, in stream order: edit acknowledgements,
        release responses, or structured error records.
    """
    graph = as_compact(base_graph)
    server = _RequestServer(
        session, default_graph=graph, base_seed=base_seed
    )
    for index, raw in enumerate(lines):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            event = json.loads(line)
        except ValueError:
            event = None  # serve_line reproduces the standard error
        if not isinstance(event, dict) or "edits" not in event:
            response = server.serve_line(index, raw)
            if response is not None:
                yield response
            continue
        request_id = event.get("id", index)
        try:
            inserts, deletes = parse_edit_event(event["edits"])
            result = graph.apply_edits(inserts=inserts, deletes=deletes)
        except Exception as exc:  # noqa: BLE001 - per-line isolation
            yield {
                "id": request_id,
                "error": str(exc),
                "error_type": type(exc).__name__,
            }
            continue
        if result.graph is not graph:
            session.record_edit(
                graph.fingerprint(),
                result.graph.fingerprint(),
                result.touched_old,
                result.touched_new,
            )
        graph = result.graph
        server.set_default_graph(graph)
        yield {
            "id": request_id,
            "applied": {
                "inserted": result.inserted,
                "deleted": result.deleted,
            },
            "touched_components": {
                "old": sorted(result.touched_old),
                "new": sorted(result.touched_new),
            },
            "vertices": graph.number_of_vertices(),
            "edges": graph.number_of_edges(),
            "fingerprint": graph.fingerprint(),
        }
