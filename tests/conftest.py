"""Shared pytest fixtures."""

from __future__ import annotations

import errno
import os

import numpy as np
import pytest

# The shared "repro" hypothesis profile is registered in the repo-root
# conftest.py (selected via addopts in pyproject.toml).


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic RNG; per-test reproducibility."""
    return np.random.default_rng(20230413)  # the paper's arXiv v2 date


@pytest.fixture
def rng_factory():
    """Factory for independently-seeded RNGs inside one test."""

    def make(seed: int) -> np.random.Generator:
        return np.random.default_rng(seed)

    return make


@pytest.fixture
def io_fault(monkeypatch):
    """Arm one live I/O fault for the next durable append.

    ``io_fault("fsync_eio")``: the next ``os.fsync`` raises EIO after
    the bytes were written.  ``io_fault("short_write_enospc")``: the
    next ``os.write`` lands half its bytes and the retry raises ENOSPC.
    ``undo_fails=True`` also makes every ``os.ftruncate`` raise EIO.
    Later calls pass through to the real functions.
    """

    def arm(kind: str, *, undo_fails: bool = False) -> None:
        real_fsync, real_write = os.fsync, os.write
        calls: list[int] = []
        if kind == "fsync_eio":

            def fsync(fd):
                calls.append(fd)
                if len(calls) == 1:
                    raise OSError(errno.EIO, "injected EIO")
                return real_fsync(fd)

            monkeypatch.setattr(os, "fsync", fsync)
        elif kind == "short_write_enospc":

            def write(fd, data):
                calls.append(fd)
                if len(calls) == 1:
                    return real_write(fd, bytes(data[: len(data) // 2]))
                if len(calls) == 2:
                    raise OSError(errno.ENOSPC, "injected ENOSPC")
                return real_write(fd, data)

            monkeypatch.setattr(os, "write", write)
        else:
            raise ValueError(f"unknown fault {kind!r}")
        if undo_fails:

            def ftruncate(fd, length):
                raise OSError(errno.EIO, "injected EIO")

            monkeypatch.setattr(os, "ftruncate", ftruncate)

    return arm
