"""Self-checks of the benchmark itself.

    python3 -m pytest perfbench -q

The traced pass runs twice on a small seed per workload, and every count
and ratio that does not depend on timing must repeat exactly: wall time on
a shared machine spreads too widely to gate on, counts do not.
"""

from __future__ import annotations

import json
import random

import pytest

import arith
import check
import run
import workloads

SEED = 7
SECONDS = 2
DETERMINISTIC = (".calls", ".hit_ratio", ".nonempty_ratio", ".per_classify", ".hits",
                 ".misses", "search_upgrade_ratio", "decided_ratio")


@pytest.fixture(scope="module")
def runner():
    return run.Runner(run.import_program(), check.load_reference())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(runner, workload):
    first = run.per_layer(runner, workload, SEED, SECONDS)
    second = run.per_layer(runner, workload, SEED, SECONDS)
    for values, _, bad, _ in (first, second):
        assert bad == []  # includes traced digest == untraced digest
    counts = {k: v for k, v in first[0].items() if k.endswith(DETERMINISTIC)}
    assert counts == {k: second[0][k] for k in counts}
    assert first[3]["digest"] == second[3]["digest"]
    spec = json.loads(run.BENCHMARK_JSON.read_text())
    missing = {m["name"] for m in spec["per_layer"]} - set(first[0]) - {
        "cli.interpreter_s", "cli.import_s", "cli.main_s"}
    assert {n for n in missing if not n.startswith("verify.")} == set()


def test_two_canonicalize_calls_per_classify(runner):
    values = run.per_layer(runner, "theorems-large", SEED, SECONDS)[0]
    assert values["classifier.canonicalize.calls"] == 2 * values["classifier.classify.calls"]


def test_reference_covers_the_grid_universes(runner):
    for workload in ("grid-q", "grid-k"):
        keys = {workloads.target_key(*t) for t in workloads.grid_universe(workload)}
        assert keys == set(runner.reference[workload])


def test_stratified_order_is_a_seeded_permutation(runner):
    strata = {k: r[0] for k, r in runner.reference["grid-k"].items()}
    universe = workloads.grid_universe("grid-k")
    orders = [workloads.stratified_order(universe, strata, random.Random(s))
              for s in (1, 1, 2)]
    assert sorted(orders[0]) == sorted(universe)
    assert orders[0] == orders[1] != orders[2]


def test_independent_arithmetic_accepts_known_witnesses():
    assert arith.is_solution((37, 0, 21), (17, 0, 21), (6, 0))
    assert arith.is_solution((3, 2, 1), (1, 0, 1), (0, 18))  # 18w
    assert arith.is_solution((2, -3, 2), (-3, -6, 2), (1, 9))
    assert not arith.is_solution((37, 0, 21), (17, 0, 20), (6, 0))
    assert arith.is_trivial((1, 0, 1), (0, 1, 1)) and not arith.is_trivial((2, 0, 1), (-1, 0, 1))


def test_checker_rejects_a_corrupted_record(runner):
    op = workloads.Op("6,0", (6, 0), "Q")
    good = runner.reference["grid-q"]["6,0"]
    assert check.classify_problems(good, op, runner.reference["grid-q"]) == []
    bad = json.loads(json.dumps(good))
    bad[2][0][0] += 1
    assert check.classify_problems(bad, op, None)  # caught without the reference
    wrong = ["NoSolutions", "Theorem 1.3", None, None]
    assert check.classify_problems(wrong, op, runner.reference["grid-q"])
