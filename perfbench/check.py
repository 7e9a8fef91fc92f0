"""Verdict records, independent re-verification and the frozen reference.

A record is the JSON-ready tuple the reference stores for one op:

  classify ops:  [status, rule, witness, trivial]   where witness is
                 [[a, b, d], [a, b, d]] or None and trivial a list of such
                 pairs or None ((a + b*w)/d, read off the KElement fields)
  verify ops:    ["ok", detail]

`problems` returns why a record is wrong (an empty list when it is right):
the witness and every trivial pair are re-verified with arith's plain
integers, and the record must equal the reference entry when one exists.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import arith

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

STATUSES = ("NoSolutions", "OnlyTrivial", "HasSolutions", "LiteratureSolvable", "Unknown")


def _k(x) -> list[int]:
    return [x.num.a, x.num.b, x.den]


def verdict_record(v) -> list:
    witness = None if v.witness is None else [_k(v.witness[0]), _k(v.witness[1])]
    trivial = None
    if v.trivial_solutions is not None:
        trivial = [[_k(x), _k(y)] for x, y in v.trivial_solutions]
    return [v.status, v.rule, witness, trivial]


def classify_problems(record: list, op, reference: dict | None) -> list[str]:
    status, rule, witness, trivial = record
    m = op.target
    out = []
    if status not in STATUSES:
        out.append(f"unknown status {status!r}")
    if (status == "HasSolutions") != (witness is not None):
        out.append(f"{status} with witness {witness}")
    if (status == "OnlyTrivial") != bool(trivial):
        out.append(f"{status} with trivial list {trivial}")
    pairs = ([witness] if witness else []) + (trivial or [])
    for x, y in pairs:
        if not arith.is_solution(tuple(x), tuple(y), m):
            out.append(f"pair {x}, {y} does not solve x^3 + y^3 = {m}")
        if op.scope == "Q" and (x[1] or y[1]):
            out.append(f"pair {x}, {y} is not rational")
    for x, y in trivial or []:
        if not arith.is_trivial(tuple(x), tuple(y)):
            out.append(f"listed trivial pair {x}, {y} is not trivial")
    if op.expected is not None and (status, rule) != op.expected:
        out.append(f"verdict {status} [{rule}], theory says {op.expected}")
    if reference is not None and op.key in reference and record != reference[op.key]:
        out.append(f"record {record} differs from reference {reference[op.key]}")
    return out


def verify_problems(record: list, op, reference: dict | None) -> list[str]:
    ok, detail = record
    out = [] if ok == "ok" else [f"criterion {op.criterion} failed: {detail}"]
    if reference is not None and op.key in reference and record != reference[op.key]:
        out.append(f"criterion {op.criterion}: {detail!r} differs from reference")
    return out


def digest(records: list[tuple[str, list]]) -> str:
    """Order-sensitive hash of (key, record) pairs."""
    h = hashlib.sha256()
    for key, record in records:
        h.update(json.dumps([key, record], separators=(",", ":")).encode())
    return h.hexdigest()


def load_reference() -> dict:
    with open(REFERENCE_PATH) as f:
        return json.load(f)
