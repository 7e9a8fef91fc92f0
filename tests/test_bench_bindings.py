"""What the benchmark reads from cubesum must keep holding.

perfbench/tracer.py wraps cubesum functions by dotted name
("module.function"), and perfbench/reference.json freezes the grid
verdicts; a refactor that renames one of those functions, or changes a
verdict or witness, would otherwise only fail when the benchmark runs.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import cubesum.factorization
from cubesum.classifier import classify
from cubesum.eisenstein import EisensteinInt
from cubesum.search import SearchBudget

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


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


def _k(x) -> list[int]:
    return [x.num.a, x.num.b, x.den]


def test_grid_sample_matches_frozen_reference():
    # every 20th grid-q, every 40th grid-k and every 50th theorems-large key
    # in the reference's order (theorems-large without search), recorded as
    # perfbench/check.py's verdict_record does
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    checked, mismatches = 0, []
    for workload, step, scope, budget in (("grid-q", 20, "Q", SearchBudget()),
                                          ("grid-k", 40, "K", SearchBudget()),
                                          ("theorems-large", 50, "K", None)):
        for key in list(reference[workload])[::step]:
            v = classify(EisensteinInt(*map(int, key.split(","))), scope, budget)
            witness = None if v.witness is None else [_k(v.witness[0]), _k(v.witness[1])]
            trivial = None if v.trivial_solutions is None else [
                [_k(x), _k(y)] for x, y in v.trivial_solutions]
            record = [v.status, v.rule, witness, trivial]
            checked += 1
            if record != reference[workload][key]:
                mismatches.append((workload, key, record))
    assert (checked, mismatches) == (104, [])


def test_grid_q_searches_match_frozen_reference():
    # every grid-q target the frozen reference decides by a rational search
    # or a Lucas construction, and every 10th Unknown, whose searches run
    # to the end of their budget: the witness searches' denser check
    grid_q = json.loads((PERFBENCH / "reference.json").read_text())["grid-q"]
    found = [key for key, record in grid_q.items()
             if record[1] in ("rational-search", "Lucas-construction")]
    keys = found + [key for key, record in grid_q.items() if record[0] == "Unknown"][::10]
    mismatches = []
    for key in keys:
        v = classify(EisensteinInt(*map(int, key.split(","))), "Q", SearchBudget())
        witness = None if v.witness is None else [_k(v.witness[0]), _k(v.witness[1])]
        if [v.status, v.rule, witness] != grid_q[key][:3]:
            mismatches.append((key, v.status, v.rule, witness))
    assert (len(found), mismatches) == (297, [])
