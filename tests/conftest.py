import random
from fractions import Fraction

import pytest

from polyseq import FamilyParams, HSpec, build_P_recurrence, realize_H


def rand_fraction(rng, lo=-5, hi=5, den_max=3):
    return Fraction(rng.randint(lo, hi), rng.randint(1, den_max))


def rand_nonzero_fraction(rng, lo=-5, hi=5, den_max=3):
    while True:
        f = rand_fraction(rng, lo, hi, den_max)
        if f != 0:
            return f


def rand_hessenberg_rows(rng, count, den_max=3):
    """Lower parts of monic Hessenberg rows: row k has k+1 free entries."""
    return [[rand_fraction(rng, -3, 3, den_max) for _ in range(k + 1)]
            for k in range(count)]


def rand_tridiagonal_spec(rng, length):
    beta = tuple(rand_fraction(rng) for _ in range(length))
    alpha = tuple(rand_nonzero_fraction(rng) for _ in range(length - 1))
    return HSpec.tridiagonal(beta=beta, alpha=alpha)


def corrupt_run(monkeypatch, call, m, k, power=0):
    """Wrap linearize.poly_rows so that its run number `call` (0 first) has
    D^power added to q[m][k] after it returns."""
    from polyseq import linearize

    run, calls = linearize.poly_rows, []

    def corrupted(gp, gk, den, count, start=(1,)):
        q = run(gp, gk, den, count, start)
        if len(calls) == call:
            q[m][k] += den**power
        calls.append(q)
        return q

    monkeypatch.setattr(linearize, "poly_rows", corrupted)


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def cheb_quarter():
    return FamilyParams("chebyshev", Fraction(1, 4), Fraction(0))


@pytest.fixture
def hermite_unit():
    return FamilyParams("hermite", Fraction(1), Fraction(0))


@pytest.fixture
def charlier_unit():
    return FamilyParams("charlier", Fraction(1))


@pytest.fixture
def hermite_pair(hermite_unit):
    return build_P_recurrence(realize_H(HSpec.from_family(hermite_unit), 10))


@pytest.fixture
def cheb_pair(cheb_quarter):
    return build_P_recurrence(realize_H(HSpec.from_family(cheb_quarter), 10))
