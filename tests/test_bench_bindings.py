"""The cubesum names the benchmark tracer binds must keep resolving.

perfbench/tracer.py wraps cubesum functions by dotted name
("module.function"); a refactor that renames or removes one would otherwise
only fail when the benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

import cubesum.factorization

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve_to_callables():
    tracer = _load_tracer()
    names = tracer.SPANNED + tracer.AGGREGATED
    assert names
    broken = []
    for name in names:
        module, attr = name.split(".")
        target = getattr(importlib.import_module(f"cubesum.{module}"), attr, None)
        if not callable(target):
            broken.append(name)
    assert broken == []


def test_split_prime_memo_controls():
    # the benchmark clears the memo before each run and reads its hit counts
    split_prime = cubesum.factorization.split_prime
    assert callable(split_prime.cache_info)
    assert callable(split_prime.cache_clear)
