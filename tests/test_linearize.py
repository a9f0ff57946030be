from fractions import Fraction as F

import pytest

from polyseq import (
    HSpec,
    LinTensor,
    MismatchError,
    Polynomial,
    PolyseqError,
    StructureError,
    WindowError,
    build_P_recurrence,
    connection_matrix,
    expand_in_basis,
    lin_tensor_direct,
    lin_tensor_oracle,
    lin_tensor_recurrence,
    linearize_with_w,
    mixed_tensor,
    poly_mul,
    poly_of_matrix,
    realize_H,
    recurrence_poly_matrices,
    required_size,
    tensors_agree,
    verify_inverse_connection,
)
from tests.conftest import corrupt_run, rand_hessenberg_rows


def pair_from_rows(rng, size):
    return build_P_recurrence(
        realize_H(HSpec.from_rows(rand_hessenberg_rows(rng, size)), size))


def recurrence_tensor(h, n_max):
    slices = tuple(
        tuple(tuple(row) for row in lin_tensor_recurrence(h, n_max, k))
        for k in range(2 * n_max + 1)
    )
    return LinTensor(n_max=n_max, k_max=2 * n_max, slices=slices)


def test_required_size():
    assert required_size(3) == 8
    assert required_size(0) == 2


# -- p_m(H) stacks ------------------------------------------------------------------

def test_recurrence_poly_matrices_match_direct_evaluation(hermite_pair):
    h = hermite_pair.H
    mats = recurrence_poly_matrices(h, h, 4)
    for m, p in enumerate(hermite_pair.polys[:5]):
        direct = poly_of_matrix(p, h)
        window = min(mats[m].exact_rows, direct.exact_rows)
        for i in range(window):
            assert mats[m].rows[i] == direct.rows[i]


def test_recurrence_poly_matrices_window_guard(hermite_pair):
    with pytest.raises(WindowError):
        recurrence_poly_matrices(hermite_pair.H, hermite_pair.H, hermite_pair.size)


# -- single-polynomial expansion -----------------------------------------------------

def test_linearize_with_w_hermite(hermite_pair):
    w = hermite_pair.polys[2]  # t^2 - 1
    assert linearize_with_w(hermite_pair, w, 2) == [2, 0, 4, 0, 1]


def test_linearize_with_w_is_an_expansion(hermite_pair):
    w = Polynomial((1, 2, 0, 1))
    n = 3
    coeffs = linearize_with_w(hermite_pair, w, n)
    rebuilt = Polynomial.zero()
    for k, c in enumerate(coeffs):
        rebuilt = rebuilt + hermite_pair.polys[k].scale(c)
    assert rebuilt == w * hermite_pair.polys[n]


def test_linearize_with_w_window_guard(hermite_pair):
    w = Polynomial((0,) * 8 + (1,))
    with pytest.raises(WindowError):
        linearize_with_w(hermite_pair, w, 3)


# -- the linearization tensor ---------------------------------------------------------

def test_direct_tensor_hermite_values(hermite_pair):
    tensor = lin_tensor_direct(hermite_pair, 3)
    assert tensor.value(1, 2, 1) == 2
    # p_1 p_1 = t^2 = p_2 + p_0 for hermite(1, 0)
    assert tensor.value(1, 1, 0) == 1
    assert tensor.value(1, 1, 1) == 0
    assert tensor.value(1, 1, 2) == 1


def test_tensor_value_beyond_k_max_is_zero(hermite_pair):
    tensor = lin_tensor_direct(hermite_pair, 2)
    assert tensor.k_max == 4
    assert tensor.value(1, 1, 4) == 0
    assert tensor.value(2, 2, 100) == 0


def test_direct_tensor_window_guard(hermite_pair):
    with pytest.raises(WindowError):
        lin_tensor_direct(hermite_pair, 5)  # needs T >= 12, pair has 10


def test_direct_matches_oracle_random(rng):
    for _ in range(4):
        pair = pair_from_rows(rng, 10)
        direct = lin_tensor_direct(pair, 4)
        oracle = lin_tensor_oracle(pair, 4)
        assert tensors_agree(direct, oracle) is None


def test_recurrence_matches_direct_random(rng):
    for _ in range(4):
        pair = pair_from_rows(rng, 10)
        direct = lin_tensor_direct(pair, 4)
        rec = recurrence_tensor(pair.H, 4)
        assert tensors_agree(direct, rec) is None


def test_recurrence_k_range(hermite_pair):
    with pytest.raises(PolyseqError):
        lin_tensor_recurrence(hermite_pair.H, 3, 7)
    with pytest.raises(PolyseqError):
        lin_tensor_recurrence(hermite_pair.H, 3, -1)


def test_tensors_agree_reports_first_difference(hermite_pair):
    t1 = lin_tensor_direct(hermite_pair, 2)
    rows = [list(r) for r in t1.slices[2]]
    rows[1][1] = F(99)
    slices = list(t1.slices)
    slices[2] = tuple(tuple(r) for r in rows)
    t2 = LinTensor(n_max=2, k_max=4, slices=tuple(slices))
    assert tensors_agree(t1, t2) == (1, 1, 2)


def test_tensors_agree_shape_mismatch(hermite_pair):
    t1 = lin_tensor_direct(hermite_pair, 2)
    t2 = lin_tensor_direct(hermite_pair, 3)
    with pytest.raises(StructureError):
        tensors_agree(t1, t2)


def test_product_reconstruction(rng):
    pair = pair_from_rows(rng, 10)
    tensor = lin_tensor_direct(pair, 4)
    for n in range(5):
        for m in range(5):
            rebuilt = Polynomial.zero()
            for k in range(n + m + 1):
                rebuilt = rebuilt + pair.polys[k].scale(tensor.value(n, m, k))
            assert rebuilt == poly_mul(pair.polys[n], pair.polys[m])


# -- connection and mixed coefficients -------------------------------------------------

def test_connection_matrix_is_unit_lower_triangular(cheb_pair, hermite_pair):
    conn = connection_matrix(cheb_pair, hermite_pair, 5)
    for m in range(6):
        assert conn[m][m] == 1
        for k in range(m + 1, 6):
            assert conn[m][k] == 0


def test_connection_expands_p_in_u(cheb_pair, hermite_pair):
    conn = connection_matrix(cheb_pair, hermite_pair, 6)
    for m in range(7):
        rebuilt = Polynomial.zero()
        for k in range(m + 1):
            rebuilt = rebuilt + hermite_pair.polys[k].scale(conn[m][k])
        assert rebuilt == cheb_pair.polys[m]


def test_connection_matches_oracle_expansion(cheb_pair, hermite_pair):
    conn = connection_matrix(cheb_pair, hermite_pair, 6)
    for m in range(7):
        exp = expand_in_basis(cheb_pair.polys[m], hermite_pair.polys[: m + 1])
        assert list(conn[m]) == [exp.coeff(k) for k in range(7)]


def test_inverse_connection(cheb_pair, hermite_pair):
    ok, where = verify_inverse_connection(cheb_pair, hermite_pair, 6)
    assert ok and where is None


@pytest.mark.parametrize("pos", [(0, 0), (3, 0), (4, 4), (5, 2), (6, 5)])
def test_inverse_connection_reports_the_first_mismatch(cheb_pair, hermite_pair, monkeypatch,
                                                       pos):
    # C_pu with 1 added at one entry of its triangle (D^m on the integer row
    # q_pu[m] = D^m * C_pu[m]): the reported entry is the first row-major
    # mismatch of the full square product C_pu @ C_up in Fractions.
    c_pu = connection_matrix(cheb_pair, hermite_pair, 6)
    c_up = connection_matrix(hermite_pair, cheb_pair, 6)
    c_pu[pos[0]][pos[1]] += 1
    full = [[sum((c_pu[m][k] * c_up[k][n] for k in range(7)), F(0)) for n in range(7)]
            for m in range(7)]
    first = next((m, n) for m in range(7) for n in range(7) if full[m][n] != (m == n))
    corrupt_run(monkeypatch, 0, *pos, power=pos[0])  # the first run is C_pu's
    assert verify_inverse_connection(cheb_pair, hermite_pair, 6) == (False, first)


def test_mixed_tensor_cheb_to_hermite(cheb_pair, hermite_pair):
    mixed = mixed_tensor(cheb_pair, hermite_pair, 2)
    assert [mixed.value(1, 1, k) for k in range(3)] == [1, 0, 1]


def test_mixed_tensor_reconstructs_products(cheb_pair, hermite_pair):
    mixed = mixed_tensor(cheb_pair, hermite_pair, 3)
    for n in range(4):
        for m in range(4):
            rebuilt = Polynomial.zero()
            for k in range(n + m + 1):
                rebuilt = rebuilt + hermite_pair.polys[k].scale(mixed.value(n, m, k))
            assert rebuilt == poly_mul(cheb_pair.polys[n], cheb_pair.polys[m])


def test_mixed_tensor_same_sequence_reduces_to_plain(hermite_pair):
    mixed = mixed_tensor(hermite_pair, hermite_pair, 3)
    plain = lin_tensor_direct(hermite_pair, 3)
    assert tensors_agree(mixed, plain) is None


def test_connection_size_mismatch(cheb_pair, hermite_unit):
    other = build_P_recurrence(realize_H(HSpec.from_family(hermite_unit), 8))
    with pytest.raises(StructureError):
        connection_matrix(cheb_pair, other, 3)


def test_connection_window_guard(cheb_pair, hermite_pair):
    with pytest.raises(WindowError):
        connection_matrix(cheb_pair, hermite_pair, 9)  # needs T >= 11
