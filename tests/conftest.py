"""Corpora shared by the parity tests of classify's fixed path."""

import pytest

from cubesum import verify
from cubesum.eisenstein import EisensteinInt
from cubesum.factorization import is_prime, split_prime


@pytest.fixture(scope="session")
def criterion_10_corpus():
    """The arguments of criterion 10's 800 classify calls and 500 factor
    calls, caught by spies on verify's names for them."""
    classified, factored = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "classify",
                   lambda *args, real=verify.classify: classified.append(args) or real(*args))
        mp.setattr(verify, "factor",
                   lambda x, real=verify.factor: factored.append(x) or real(x))
        verify.criterion_10_property_soak()
    assert (len(classified), len(factored)) == (800, 500)
    return classified, factored


@pytest.fixture(scope="session")
def large_prime_forms():
    """p², 3p² for the first three split and inert primes past 10⁸, and
    pi above each split one: the norms are the benchmark's large ones."""
    split, inert = [], []
    p = 10**8
    while len(split) < 3 or len(inert) < 3:
        p += 1
        if is_prime(p):
            (split if p % 3 == 1 else inert).append(p)
    return [EisensteinInt(c * p * p) for p in split[:3] + inert[:3] for c in (1, 3)] + [
        split_prime(p)[0] for p in split[:3]]
