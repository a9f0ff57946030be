import json
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
    required_size,
)
from polyseq import cli
from polyseq.families import closed_d
from polyseq.serialize import canonical_dumps, hspec_to_jsonable, matrix_to_jsonable, rat_to_str

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


# -- the scalar closed form that `family --pnh` and `--slice` read --------------------------

@pytest.mark.parametrize("params", [
    FamilyParams("chebyshev", F(-3, 7), F(5)),
    FamilyParams("hermite", F(2, 5), F(-1)),
    FamilyParams("charlier", F(-3, 7)),
], ids=str)
def test_closed_d_equals_the_kernel_at_n_64(params):
    n_max = 64
    tensor = lin_tensor_direct(realize_H(HSpec.from_family(params), required_size(n_max)), n_max)
    for k, grid in enumerate(tensor.slices):
        for n in range(n_max + 1):
            for m in range(n, n_max + 1):
                assert grid[n][m] == grid[m][n] == closed_d(params, n, m, k), (n, m, k)


@pytest.mark.parametrize("params", ALL_POINTS + [
    FamilyParams("chebyshev", F(-2, 3), F(1, 2)),
    FamilyParams("hermite", F(-3), F(-5, 2)),
    FamilyParams("charlier", F(-5, 2), F(4)),
], ids=str)
def test_pnh_oracle_rows_are_closed_d_from_t_1(params):
    for n in (0, 1, 3, 6):
        for size in range(1, n + 4):
            rows = family_pnh_closed(params, n, size).rows
            assert rows == tuple(tuple(closed_d(params, i, n, k) for k in range(size))
                                 for i in range(size)), (n, size)


def family_bytes(tmp_path, params, argv):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(hspec_to_jsonable(HSpec.from_family(params))))
    out = tmp_path / "fam.json"
    assert cli.main(["family", "--h-spec", str(spec), *argv, "--out", str(out)]) == 0
    return out.read_text()


@pytest.mark.parametrize("params", [
    FamilyParams("chebyshev", F(1, 4), F(3)),
    FamilyParams("chebyshev", F(-2, 3), F(1, 2)),
    FamilyParams("hermite", F(1)),
    FamilyParams("hermite", F(-3), F(-5, 2)),
    FamilyParams("charlier", F(3, 7)),
    FamilyParams("charlier", F(-5, 2)),
], ids=str)
def test_family_cli_bytes_equal_the_oracles(tmp_path, params):
    # --pnh at T = n+2 and beyond, --slice with k up to past 2N, and --series
    # against the operator sums and exponential series of crosscheck.
    for n in (0, 1, 3, 6):
        for size in (n + 2, n + 5):
            want = {"pnh": matrix_to_jsonable(family_pnh_closed(params, n, size))}
            got = family_bytes(tmp_path, params, ["--pnh", str(n), "--size", str(size)])
            assert got == canonical_dumps(want), (n, size)
    for n_max in (0, 1, 4):
        for k in (0, 1, 2 * n_max, 2 * n_max + 1, 2 * n_max + 3):
            grid = family_slice_closed(params, k, n_max)
            want = {"slice": {"k": k, "matrix": [[rat_to_str(v) for v in row] for row in grid]}}
            got = family_bytes(tmp_path, params, ["--slice", str(k), "--n-max", str(n_max)])
            assert got == canonical_dumps(want), (k, n_max)
    if params.name == "charlier":
        return
    for size in (2, 3, 9):
        if params.name == "chebyshev":
            want = {"series_p": matrix_to_jsonable(cheby_series_p(params, size))}
        else:
            want = {"series_p": matrix_to_jsonable(hermite_exp_p(params, size)),
                    "series_p_inverse": matrix_to_jsonable(hermite_exp_p(params, size, True))}
        got = family_bytes(tmp_path, params, ["--series", "--size", str(size)])
        assert got == canonical_dumps(want), size
