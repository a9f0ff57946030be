from fractions import Fraction as F

import pytest

from polyseq import (
    BasisError,
    HSpec,
    Polynomial,
    WindowError,
    build_P_recurrence,
    expand_in_basis,
    lin_tensor_direct,
    lin_tensor_oracle,
    lin_tensor_recurrence,
    poly_mul,
    realize_H,
    verify,
)
from tests.conftest import rand_hessenberg_rows

MONOMIALS = [Polynomial((0,) * k + (1,)) for k in range(6)]


def test_poly_mul_matches_hand_product():
    f = Polynomial((1, 2))        # 1 + 2t
    g = Polynomial((3, 0, 1))     # 3 + t^2
    assert poly_mul(f, g) == Polynomial((3, 6, 1, 2))


def test_poly_mul_hermite_example(hermite_pair):
    prod = poly_mul(hermite_pair.polys[2], hermite_pair.polys[3])
    assert prod == Polynomial((0, 3, 0, -4, 0, 1))


def test_expand_in_monomials():
    target = Polynomial((5, F(1, 2), 0, 7))
    exp = expand_in_basis(target, MONOMIALS)
    assert exp.coeffs == (F(5), F(1, 2), F(0), F(7), F(0), F(0))
    assert exp.coeff(3) == 7
    assert exp.coeff(100) == 0


def test_expand_in_chebyshev_basis(cheb_pair):
    # t^2 = 1/4 p_0 + p_2 for the quarter-parameter sequence
    exp = expand_in_basis(Polynomial((0, 0, 1)), cheb_pair.polys[:3])
    assert exp.coeffs == (F(1, 4), F(0), F(1))


def test_expand_reconstructs(cheb_pair, rng):
    target = Polynomial([F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(7)])
    exp = expand_in_basis(target, cheb_pair.polys[:8])
    rebuilt = Polynomial.zero()
    for k, c in enumerate(exp.coeffs):
        rebuilt = rebuilt + cheb_pair.polys[k].scale(c)
    assert rebuilt == target


def test_expand_zero_polynomial():
    exp = expand_in_basis(Polynomial.zero(), MONOMIALS[:3])
    assert all(c == 0 for c in exp.coeffs)


def test_expand_requires_graded_monic_basis():
    with pytest.raises(BasisError):
        expand_in_basis(Polynomial((1,)), [Polynomial((2,))])  # not monic
    with pytest.raises(BasisError):
        expand_in_basis(Polynomial((1,)), [Polynomial((0, 1))])  # degree 1 at slot 0


def test_expand_requires_enough_basis():
    with pytest.raises(BasisError):
        expand_in_basis(Polynomial((0, 0, 0, 1)), MONOMIALS[:3])


# -- the oracle tensor ------------------------------------------------------------------

def test_oracle_window_guard(hermite_pair):
    # pair size 10 supports n_max 4 (needs strictly more than 2*n_max rows)
    lin_tensor_oracle(hermite_pair, 4)
    with pytest.raises(WindowError):
        lin_tensor_oracle(hermite_pair, 5)


def test_oracle_properties_random(rng):
    for _ in range(3):
        h = realize_H(HSpec.from_rows(rand_hessenberg_rows(rng, 9)), 9)
        pair = build_P_recurrence(h)
        tensor = lin_tensor_oracle(pair, 4)
        for n in range(5):
            for m in range(5):
                assert tensor.value(n, m, n + m) == 1
                for k in range(n + m + 1, tensor.k_max + 1):
                    assert tensor.value(n, m, k) == 0
                for k in range(tensor.k_max + 1):
                    assert tensor.value(n, m, k) == tensor.value(m, n, k)


def test_oracle_never_reads_h(hermite_pair):
    """The oracle works purely from the polynomials."""
    tensor = lin_tensor_oracle(hermite_pair, 3)
    rebuilt = Polynomial.zero()
    for k in range(7):
        rebuilt = rebuilt + hermite_pair.polys[k].scale(tensor.value(3, 3, k))
    assert rebuilt == poly_mul(hermite_pair.polys[3], hermite_pair.polys[3])


def test_route_tensors_yields_the_recurrence_then_the_oracle(hermite_pair, monkeypatch):
    h, n_max = hermite_pair.H, 3
    direct = lin_tensor_direct(h, n_max)
    assert list(verify.route_tensors(h, hermite_pair, n_max)) == [
        ("recurrence", direct), ("oracle", direct)]
    assert list(verify.route_tensors(h, None, n_max)) == [("recurrence", direct)]

    # each name is paired with its own route
    slices, oracle = [], object()

    def recurrence(h_, n, k):
        slices.append(k)
        return lin_tensor_recurrence(h_, n, k)

    monkeypatch.setattr(verify, "lin_tensor_recurrence", recurrence)
    monkeypatch.setattr(verify, "lin_tensor_oracle", lambda pair, n: oracle)
    routes = list(verify.route_tensors(h, hermite_pair, n_max))
    assert routes == [("recurrence", direct), ("oracle", oracle)]
    assert slices == list(range(2 * n_max + 1))
