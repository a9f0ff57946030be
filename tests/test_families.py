from fractions import Fraction as F

import pytest

from polyseq import (
    FamilyError,
    FamilyParams,
    HSpec,
    build_P_recurrence,
    cheby_series_p,
    equal_on_window,
    family_pnh_closed,
    family_slice_closed,
    family_tridiagonal,
    hermite_exp_p,
    identity,
    lin_tensor_direct,
    realize_H,
    recurrence_poly_matrices,
)

ALL_POINTS = [
    FamilyParams("chebyshev", F(2), F(0)),
    FamilyParams("chebyshev", F(1, 4), F(3)),
    FamilyParams("hermite", F(2), F(0)),
    FamilyParams("hermite", F(1, 4), F(3)),
    FamilyParams("charlier", F(2)),
    FamilyParams("charlier", F(1, 4)),
]


def rows_of(m):
    return [list(r) for r in m.rows]


def family_pair(params, size):
    return build_P_recurrence(realize_H(HSpec.from_family(params), size))


def test_params_validation():
    with pytest.raises(FamilyError):
        FamilyParams("legendre", F(1))
    with pytest.raises(FamilyError):
        FamilyParams("chebyshev", F(0))


def test_family_tridiagonal_recurrence_data():
    beta, alpha = family_tridiagonal(FamilyParams("chebyshev", F(2), F(5)), 4)
    assert list(beta) == [5, 5, 5, 5]
    assert list(alpha) == [2, 2, 2]
    beta, alpha = family_tridiagonal(FamilyParams("hermite", F(3), F(1)), 4)
    assert list(beta) == [1, 1, 1, 1]
    assert list(alpha) == [3, 6, 9]
    beta, alpha = family_tridiagonal(FamilyParams("charlier", F(2)), 4)
    assert list(beta) == [2, 3, 4, 5]
    assert list(alpha) == [2, 4, 6]


def test_charlier_h_matrix():
    h = realize_H(HSpec.from_family(FamilyParams("charlier", F(1))), 3)
    assert rows_of(h) == [[1, 1, 0], [1, 2, 1], [0, 2, 3]]


# -- closed-form p_n(H) ---------------------------------------------------------------

def test_chebyshev_pnh_closed_frozen():
    p3h = family_pnh_closed(FamilyParams("chebyshev", F(2), F(7)), 3, 6)
    assert rows_of(p3h) == [
        [0, 0, 0, 1, 0, 0],
        [0, 0, 2, 0, 1, 0],
        [0, 4, 0, 2, 0, 1],
        [8, 0, 4, 0, 2, 0],
        [0, 8, 0, 4, 0, 2],
        [0, 0, 8, 0, 4, 0],
    ]


def test_chebyshev_pnh_is_b_independent():
    a = F(1, 3)
    lhs = family_pnh_closed(FamilyParams("chebyshev", a, F(0)), 4, 7)
    rhs = family_pnh_closed(FamilyParams("chebyshev", a, F(-9)), 4, 7)
    assert lhs == rhs


@pytest.mark.parametrize("params", ALL_POINTS, ids=str)
@pytest.mark.parametrize("n", [0, 1, 2, 4, 6])
def test_pnh_closed_matches_generic(params, n):
    size = 9
    closed = family_pnh_closed(params, n, size)
    h = realize_H(HSpec.from_family(params), size + n + 1)
    generic = recurrence_poly_matrices(h, h, n)[n]
    window = min(closed.exact_rows, generic.exact_rows, size)
    assert window >= 2
    for i in range(window):
        for k in range(size):
            assert closed.rows[i][k] == generic.rows[i][k], (i, k)


@pytest.mark.parametrize("params", ALL_POINTS, ids=str)
def test_pnh_closed_rows_past_the_certificate(params):
    # family --pnh writes all T rows, certified or not: each equals the
    # generic p_n(H) read off a truncation n + 1 rows larger.
    for n in (0, 1, 3, 6):
        for size in (1, 2, 5, 9):
            closed = family_pnh_closed(params, n, size)
            h = realize_H(HSpec.from_family(params), size + n + 1)
            generic = recurrence_poly_matrices(h, h, n)[n]
            assert rows_of(closed) == [list(row[:size]) for row in generic.rows[:size]]
            assert closed.index == -n
    for size in (1, 2, 5, 9):
        if params.name == "chebyshev":
            assert cheby_series_p(params, size).index == 0
        if params.name == "hermite":
            assert hermite_exp_p(params, size).index == 0
            assert hermite_exp_p(params, size, inverse=True).index == 0


# -- closed-form linearization slices ----------------------------------------------------

def test_chebyshev_slice_frozen():
    grid = family_slice_closed(FamilyParams("chebyshev", F(2), F(0)), 3, 6)
    assert [list(r) for r in grid] == [
        [0, 0, 0, 1, 0, 0, 0],
        [0, 0, 1, 0, 2, 0, 0],
        [0, 1, 0, 2, 0, 4, 0],
        [1, 0, 2, 0, 4, 0, 8],
        [0, 2, 0, 4, 0, 8, 0],
        [0, 0, 4, 0, 8, 0, 16],
        [0, 0, 0, 8, 0, 16, 0],
    ]


@pytest.mark.parametrize("params", ALL_POINTS, ids=str)
@pytest.mark.parametrize("k", [0, 1, 3, 5])
def test_slice_closed_matches_direct(params, k):
    n_max = 5
    grid = family_slice_closed(params, k, n_max)
    pair = family_pair(params, 2 * n_max + 2)
    tensor = lin_tensor_direct(pair, n_max)
    for n in range(n_max + 1):
        for m in range(n_max + 1):
            assert grid[n][m] == tensor.value(n, m, k), (n, m)


def test_slice_k0_is_norms_diagonal():
    grid = family_slice_closed(FamilyParams("hermite", F(1), F(0)), 0, 4)
    assert [grid[i][i] for i in range(5)] == [1, 1, 2, 6, 24]


# -- series forms of P --------------------------------------------------------------------

def test_cheby_series_equals_recurrence_p():
    params = FamilyParams("chebyshev", F(1, 4), F(2))
    assert cheby_series_p(params, 9) == family_pair(params, 9).P


def test_cheby_series_rejects_other_families():
    with pytest.raises(FamilyError):
        cheby_series_p(FamilyParams("hermite", F(1)), 5)


def test_hermite_exp_equals_recurrence_p():
    params = FamilyParams("hermite", F(1, 2), F(-1))
    assert hermite_exp_p(params, 9) == family_pair(params, 9).P


def test_hermite_exp_inverse():
    params = FamilyParams("hermite", F(1, 2), F(-1))
    p = hermite_exp_p(params, 8)
    pinv = hermite_exp_p(params, 8, inverse=True)
    assert p @ pinv == identity(8)
    assert pinv @ p == identity(8)


def test_hermite_moment_sign_flip():
    a, b = F(2, 3), F(5)
    pinv = hermite_exp_p(FamilyParams("hermite", a, b), 8, inverse=True)
    flipped = hermite_exp_p(FamilyParams("hermite", -a, -b), 8)
    assert [pinv.rows[i][0] for i in range(8)] == [flipped.rows[i][0] for i in range(8)]


def test_hermite_exp_rejects_other_families():
    with pytest.raises(FamilyError):
        hermite_exp_p(FamilyParams("chebyshev", F(1)), 5)


# -- sanity across routes -----------------------------------------------------------------

@pytest.mark.parametrize("params", ALL_POINTS, ids=str)
def test_family_h_always_yields_valid_pair(params):
    pair = family_pair(params, 8)
    assert pair.A @ pair.P == identity(8)
    assert all(p.is_monic for p in pair.polys)
