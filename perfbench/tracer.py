"""Per-layer tracing from outside the program.

`installed(tracer)` wraps cubesum's public functions at every name their
callers bind (a `from .factorization import factor` in classifier.py binds
classifier.factor, so that name is replaced too) and restores them on exit.
The program's sources are not touched.

Most functions get one span per call: name, start, end, parent.  The few
called more than ~1e5 times per run (EisensteinInt.__divmod__, cube_roots,
is_prime) are aggregated instead: call count, busy time and how many calls
returned something non-empty.  Spans stay in memory and are written out at
the end by `write`.

A span's self time is its duration minus its child spans and minus the
aggregated calls made directly under it, so the time divmod spends
distributing exponents inside factor shows as eisenstein, not factor.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from time import perf_counter

SPANNED = (
    "factorization.factor",
    "factorization.factor_int",
    "factorization.split_prime",
    "criteria.condition_I",
    "criteria.exceptional_A",
    "criteria.exceptional_B",
    "classifier.classify",
    "classifier.canonicalize",
    "classifier.match_rule",
    "search.search_rational",
    "search.search_eisenstein",
    "search.relation_search",
    "search.flt3_exhaust",
    "search.cube_ap_exhaust",
    "search.mordell_check",
    "constructors.lucas_triple_search",
    "constructors.lucas_witness",
    "constructors.solution_from_relation",
    "constructors.descent_step",
)
AGGREGATED = ("factorization.is_prime", "search.cube_roots")
DIVMOD = "eisenstein.divmod"

# Searches whose non-empty result is a hit; a classify call that ran any of
# them counts as searched for classifier.search_upgrade_ratio.
SEARCHES = (
    "search.search_rational",
    "search.search_eisenstein",
    "search.relation_search",
    "constructors.lucas_triple_search",
)
CLASSIFY = "classifier.classify"
LAYERS = ("classifier", "factorization", "criteria", "search", "constructors", "eisenstein")

# span fields
_NAME, _START, _END, _PARENT, _HIT, _AGG, _OUTER = range(7)


class Tracer:
    def __init__(self) -> None:
        self.t0 = perf_counter()
        self.spans: list[list] = []
        self.agg: dict[str, list] = {n: [0, 0.0, 0] for n in AGGREGATED + (DIVMOD,)}
        self._stack: list[int] = []
        self._active: dict[str, int] = {}
        self._classify_agg: dict[str, float] = dict.fromkeys(LAYERS, 0.0)

    def span(self, name: str, fn, args, kwargs):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, False, 0.0,
               not self._active.get(name)]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        self._active[name] = self._active.get(name, 0) + 1
        rec[_START] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[_END] = perf_counter()
            self._active[name] -= 1
            self._stack.pop()
        rec[_HIT] = result.status == "HasSolutions" if name == CLASSIFY else bool(result)
        return result

    def aggregate(self, name: str, fn, args):
        start = perf_counter()
        result = fn(*args)
        dt = perf_counter() - start
        a = self.agg[name]
        a[0] += 1
        a[1] += dt
        a[2] += bool(result)
        # aggregated functions never call one another, so no nesting here
        if self._stack:
            self.spans[self._stack[-1]][_AGG] += dt
        if self._active.get(CLASSIFY):
            self._classify_agg[name.split(".")[0]] += dt
        return result

    def wrap(self, name: str, fn):
        if name in AGGREGATED or name == DIVMOD:
            def wrapper(*args):
                return self.aggregate(name, fn, args)
        else:
            def wrapper(*args, **kwargs):
                return self.span(name, fn, args, kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        n = len(self.spans)
        child = [0.0] * n
        under_classify = [-1] * n  # index of the enclosing classify span
        for i, s in enumerate(self.spans):
            p = s[_PARENT]
            if p >= 0:
                child[p] += s[_END] - s[_START]
                under_classify[i] = under_classify[p]
            if s[_NAME] == CLASSIFY:
                under_classify[i] = i

        calls: dict[str, int] = {}
        busy: dict[str, float] = {}
        self_s: dict[str, float] = {}
        hits: dict[str, int] = {}
        layer_self = dict(self._classify_agg)
        classify_searched: set[int] = set()
        factor_share = 0.0
        for i, s in enumerate(self.spans):
            name = s[_NAME]
            dur = s[_END] - s[_START]
            own = dur - child[i] - s[_AGG]
            calls[name] = calls.get(name, 0) + 1
            hits[name] = hits.get(name, 0) + s[_HIT]
            self_s[name] = self_s.get(name, 0.0) + own
            if s[_OUTER]:
                busy[name] = busy.get(name, 0.0) + dur
            c = under_classify[i]
            if c >= 0:
                layer_self[name.split(".")[0]] += own
                if name in SEARCHES:
                    classify_searched.add(c)
                if name in ("factorization.factor_int", "factorization.split_prime"):
                    factor_share += dur

        out: dict[str, float] = {}
        for name in sorted(set(SPANNED) | set(calls)):
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.busy_s"] = busy.get(name, 0.0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
            if name in SEARCHES:
                out[f"{name}.hit_ratio"] = _ratio(hits.get(name, 0), calls.get(name, 0))
        for name, (count, t, nonempty) in self.agg.items():
            out[f"{name}.calls"] = count
            out[f"{name}.busy_s"] = t
            out[f"{name}.nonempty_ratio"] = _ratio(nonempty, count)

        classify_busy = busy.get(CLASSIFY, 0.0)
        upgraded = sum(1 for c in classify_searched if self.spans[c][_HIT])
        out["classifier.search_upgrade_ratio"] = _ratio(upgraded, len(classify_searched))
        out["classifier.canonicalize.per_classify"] = _ratio(
            calls.get("classifier.canonicalize", 0), calls.get(CLASSIFY, 0))
        out["classifier.classify.factor_int_split_prime_share"] = _ratio(factor_share, classify_busy)
        for layer in LAYERS:
            out[f"classifier.classify.share.{layer}"] = _ratio(layer_self[layer], classify_busy)
        return out

    def write(self, path) -> None:
        """Spans as JSON lines (times in seconds from tracer creation), then
        one line per aggregated function."""
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": s[_NAME], "start": round(s[_START] - self.t0, 9),
                    "end": round(s[_END] - self.t0, 9), "parent": s[_PARENT],
                }) + "\n")
            for name, (count, t, nonempty) in self.agg.items():
                f.write(json.dumps({"aggregate": name, "calls": count, "busy_s": t,
                                    "nonempty": nonempty}) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


@contextmanager
def installed(tracer: Tracer):
    """Replace every binding of the traced functions inside cubesum."""
    from cubesum.eisenstein import EisensteinInt

    modules = [m for k, m in list(sys.modules.items()) if k == "cubesum" or k.startswith("cubesum.")]
    patches = [(EisensteinInt, "__divmod__", EisensteinInt.__divmod__)]
    wrappers = [tracer.wrap(DIVMOD, EisensteinInt.__divmod__)]
    for name in SPANNED + AGGREGATED:
        module, attr = name.split(".")
        original = getattr(sys.modules[f"cubesum.{module}"], attr)
        wrapper = tracer.wrap(name, original)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    patches.append((m, key, original))
                    wrappers.append(wrapper)
    for (obj, key, _), wrapper in zip(patches, wrappers):
        setattr(obj, key, wrapper)
    try:
        yield tracer
    finally:
        for obj, key, original in reversed(patches):
            setattr(obj, key, original)
