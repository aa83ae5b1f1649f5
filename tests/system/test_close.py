"""Closing a deployment releases everything it started."""

import gc
import tempfile
import threading
import warnings
from pathlib import Path

import pytest

from repro.ec.params import TOY80
from repro.errors import SchemeError
from repro.system.workflow import CloudStorageSystem


def _store_dirs() -> int:
    return len(list(Path(tempfile.gettempdir()).glob("repro-system-*")))


def test_closing_twenty_systems_leaves_no_thread_or_store_behind():
    threads, stores = threading.active_count(), _store_dirs()
    for seed in range(20):
        with CloudStorageSystem(TOY80, seed=seed) as system:
            system.add_authority("aa", ["x"])
            system.add_owner("alice")
            system.add_user("bob")
            system.issue_keys("bob", "aa", ["x"], "alice")
            system.upload("alice", "rec", {"c": (b"data", "aa:x")})
            assert system.read("bob", "rec", "c") == b"data"
            assert _store_dirs() == stores + 1
    assert threading.active_count() == threads
    assert _store_dirs() == stores


def test_close_is_idempotent():
    threads = threading.active_count()
    system = CloudStorageSystem(TOY80, seed=1)
    system.add_owner("alice")
    system.close()
    system.close()
    assert threading.active_count() == threads


def test_a_closed_system_refuses_calls_with_a_typed_error():
    system = CloudStorageSystem(TOY80, seed=2)
    system.close()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no "coroutine was never awaited"
        with pytest.raises(SchemeError, match="closed"):
            system.add_owner("alice")
        gc.collect()
