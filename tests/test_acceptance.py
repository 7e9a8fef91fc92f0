"""End-to-end acceptance suite: one test per criterion, with wall-clock caps.

Each criterion regenerates its data from first principles inside
cubesum.verify and prints a pass/fail line; run with -s (or look at
pytest -v) for the per-criterion report.
"""

import time

import pytest

from cubesum import verify


def _run(number: int, time_cap: float) -> None:
    entry = next(e for e in verify.CRITERIA if e[0] == number)
    _, name, _, fn = entry
    start = time.monotonic()
    try:
        detail = fn()
    except Exception as exc:
        print(f"FAIL {number:>2} {name}: {exc}")
        raise
    elapsed = time.monotonic() - start
    print(f"PASS {number:>2} {name} ({elapsed:.1f}s): {detail}")
    assert elapsed < time_cap, f"criterion {number} took {elapsed:.1f}s (cap {time_cap}s)"


def test_criterion_01_euler_legendre_verdicts():
    _run(1, time_cap=10)


def test_criterion_02_kummer_flt3():
    _run(2, time_cap=60)


def test_criterion_03_lucas_constructions():
    _run(3, time_cap=1)


def test_criterion_04_condition_I_table():
    _run(4, time_cap=10)


def test_criterion_05_exceptional_sets():
    _run(5, time_cap=5)


def test_criterion_06_reciprocity_instances():
    _run(6, time_cap=60)


def test_criterion_07_theorem_grid():
    _run(7, time_cap=30)


def test_criterion_08_associate_asymmetries():
    _run(8, time_cap=30)


def test_criterion_09_corollary_exhausts():
    _run(9, time_cap=60)


def test_criterion_10_property_suites():
    _run(10, time_cap=300)


def test_runner_reports_each_criterion(monkeypatch):
    # Stub bodies with the real numbers, names and tiers: the runner's
    # ordering, level filter and error capture are tested here, the real
    # criterion bodies by the ten tests above.
    def stub(number):
        def body():
            if number == 4:
                raise ValueError("stub failure")
            return f"detail {number}"
        return body

    stubs = tuple((n, name, tier, stub(n)) for n, name, tier, _ in verify.CRITERIA)
    monkeypatch.setattr(verify, "CRITERIA", stubs)
    full = verify.run("full")
    assert [r.number for r in full] == list(range(1, 11))
    assert [r.name for r in full] == [name for _, name, _, _ in stubs]
    assert [r.number for r in verify.run("quick")] == [1, 2, 3, 4, 5, 7, 8]
    assert [(r.number, r.detail) for r in full if not r.ok] == [(4, "ValueError: stub failure")]
    assert all(r.detail == f"detail {r.number}" for r in full if r.ok)
