"""Serving layer: amortized private releases over the estimator registry.

:class:`ReleaseSession` caches the expensive per-graph kernel work
(component decomposition + whole-grid Lipschitz-extension table) in a
fingerprint-keyed LRU and answers many ``(estimator, epsilon)`` queries
on the same graph under one optional shared privacy budget;
:class:`ExtensionCache` makes that warm state durable on disk
(content-addressed by graph fingerprint + candidate grid), so cold
processes warm-start across restarts;
:func:`serve_jsonl` is the JSONL request/response loop behind
``repro serve-batch`` and :func:`serve_jsonl_parallel` shards it across
worker processes by graph fingerprint; the subpackage
:mod:`repro.service.daemon` wraps the same hot path in a long-lived
multi-tenant HTTP daemon (``repro serve``) with durable per-tenant
budget accounts and an append-only audit log.
"""

from .batch import ParallelServeResult, serve_jsonl, serve_jsonl_parallel
from .cache import (
    CacheStats,
    ExtensionCache,
    component_extension_key,
    extension_key,
)
from .daemon import ReleaseDaemon
from .session import ReleaseSession, SessionStats
from .streaming import serve_edit_stream

__all__ = [
    "CacheStats",
    "ExtensionCache",
    "ParallelServeResult",
    "ReleaseDaemon",
    "ReleaseSession",
    "SessionStats",
    "component_extension_key",
    "extension_key",
    "serve_edit_stream",
    "serve_jsonl",
    "serve_jsonl_parallel",
]
