"""The benchmark's traced run reaches into ``steinerkit`` by name: its tracer
swaps module attributes for wrappers, and its runner uses the cache methods
of ``rl.instance_static`` and ``train``'s per-round hook.  A refactor that
deletes or renames one of these breaks ``perfbench/run.py --trace 1``, so
this fast test checks every name the benchmark relies on."""

import inspect
import sys
from pathlib import Path

import steinerkit.rl as rl

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracing  # noqa: E402


def test_traced_names_resolve():
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracing.SWAPS
               if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_instance_static_is_an_lru_cache():
    assert callable(rl.instance_static.cache_info)
    assert callable(rl.instance_static.cache_clear)


def test_train_accepts_train_hook():
    assert "train_hook" in inspect.signature(rl.train).parameters
