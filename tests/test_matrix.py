from fractions import Fraction as F

import pytest

from polyseq import (
    NotInvertibleError,
    Polynomial,
    StructureError,
    TruncMatrix,
    equal_on_window,
    identity,
    lower_tri_inverse,
    make_operator,
    mat_mul,
    poly_of_matrix,
    window_rows,
    zeros,
)


def rows_of(m):
    return [list(r) for r in m.rows]


# -- construction and validation ------------------------------------------------

def test_rows_become_fractions():
    m = TruncMatrix(rows=((1, 0), (2, 3)), index=0)
    assert m.entry(1, 0) == F(2)
    assert isinstance(m.entry(1, 0), F)


def test_non_square_rejected():
    with pytest.raises(StructureError):
        TruncMatrix(rows=((1, 0), (1,)), index=0)


def test_index_bound_enforced():
    # index 0 forbids anything above the main diagonal
    with pytest.raises(StructureError):
        TruncMatrix(rows=((0, 1), (0, 0)), index=0)
    # index -1 allows the superdiagonal but nothing higher
    TruncMatrix(rows=((0, 1), (0, 0)), index=-1)
    with pytest.raises(StructureError):
        TruncMatrix(rows=((0, 0, 1), (0, 0, 0), (0, 0, 0)), index=-1)


def test_default_exact_rows_is_full():
    m = TruncMatrix(rows=((1, 0), (0, 1)), index=0)
    assert m.exact_rows == 2


def test_equality_ignores_certificate():
    a = TruncMatrix(rows=((1, 0), (0, 1)), index=0, exact_rows=2)
    b = TruncMatrix(rows=((1, 0), (0, 1)), index=0, exact_rows=1)
    assert a == b


def test_leading_block():
    m = make_operator("D", 4)
    top = m.leading(2)
    assert rows_of(top) == [[0, 0], [1, 0]]


# -- operators -------------------------------------------------------------------

def test_operator_shapes():
    assert rows_of(make_operator("X", 3)) == [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
    assert rows_of(make_operator("Xhat", 3)) == [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
    assert rows_of(make_operator("D", 3)) == [[0, 0, 0], [1, 0, 0], [0, 2, 0]]
    assert rows_of(make_operator("Dhat", 3)) == [[0, 1, 0], [0, 0, 2], [0, 0, 0]]
    assert rows_of(make_operator("J0", 2)) == [[0, 0], [0, 1]]
    assert make_operator("I", 2) == identity(2)


def test_operator_indices():
    assert make_operator("X", 3).index == -1
    assert make_operator("Xhat", 3).index == 1
    assert make_operator("D", 3).index == 1
    assert make_operator("Dhat", 3).index == -1
    assert make_operator("J0", 3).index == 0


def test_unknown_operator():
    with pytest.raises(ValueError):
        make_operator("Q", 3)


# -- products and the exactness certificate ---------------------------------------

def test_x_xhat_loses_last_row():
    x, xhat = make_operator("X", 4), make_operator("Xhat", 4)
    prod = x @ xhat
    assert prod.exact_rows == 3
    assert rows_of(prod) == [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 0],
    ]
    assert equal_on_window(prod, identity(4))
    # one extra row of truncation recovers the full 4x4 identity block
    bigger = make_operator("X", 5) @ make_operator("Xhat", 5)
    assert bigger.leading(4) == identity(4)


def test_xhat_x_is_exact():
    xhat, x = make_operator("Xhat", 4), make_operator("X", 4)
    prod = xhat @ x
    assert prod == make_operator("J0", 4)
    assert prod.exact_rows == 4


def test_commutator_x_d():
    x, d = make_operator("X", 5), make_operator("D", 5)
    comm = x @ d - d @ x
    assert comm.exact_rows == 4
    assert rows_of(comm) == [
        [1, 0, 0, 0, 0],
        [0, 1, 0, 0, 0],
        [0, 0, 1, 0, 0],
        [0, 0, 0, 1, 0],
        [0, 0, 0, 0, -4],
    ]
    assert equal_on_window(comm, identity(5))


def test_product_index_adds():
    d = make_operator("D", 6)
    dd = d @ d
    assert dd.index == 2
    assert dd.exact_rows == 6  # nonnegative-index products stay exact


def test_certificate_shrinks_with_negative_left_index():
    x = make_operator("X", 6)
    m = x @ x
    assert m.exact_rows == 5  # index -1 factor costs one row
    m = m @ x
    assert m.exact_rows == 4


def test_size_mismatch():
    with pytest.raises(StructureError):
        mat_mul(make_operator("X", 3), make_operator("X", 4))


def test_add_certificate_is_min():
    a = TruncMatrix(rows=((1, 0), (0, 1)), index=0, exact_rows=1)
    b = identity(2)
    assert (a + b).exact_rows == 1
    assert (a - b).exact_rows == 1


def test_scale_and_neg():
    d = make_operator("D", 3)
    assert rows_of(d.scale(F(1, 2))) == [[0, 0, 0], [F(1, 2), 0, 0], [0, 1, 0]]
    assert rows_of(-d) == [[0, 0, 0], [-1, 0, 0], [0, -2, 0]]


# -- inverse ----------------------------------------------------------------------

def test_lower_tri_inverse_pascal():
    m = TruncMatrix(rows=((1, 0, 0), (1, 1, 0), (1, 2, 1)), index=0)
    inv = lower_tri_inverse(m)
    assert rows_of(inv) == [[1, 0, 0], [-1, 1, 0], [1, -2, 1]]
    assert inv @ m == identity(3)
    assert m @ inv == identity(3)


def test_inverse_requires_triangular():
    with pytest.raises(StructureError):
        lower_tri_inverse(make_operator("X", 3))


def test_inverse_zero_pivot():
    m = TruncMatrix(rows=((1, 0), (3, 0)), index=0)
    with pytest.raises(NotInvertibleError) as err:
        lower_tri_inverse(m)
    assert err.value.row == 1


def test_inverse_fractional_entries():
    m = TruncMatrix(rows=((F(1, 2), 0), (F(1, 3), F(2, 5))), index=0)
    inv = lower_tri_inverse(m)
    assert inv @ m == identity(2)


# -- polynomial evaluation ---------------------------------------------------------

def test_poly_of_matrix_constant():
    m = make_operator("X", 3)
    assert poly_of_matrix(Polynomial((F(5),)), m) == identity(3).scale(F(5))


def test_poly_of_matrix_zero():
    assert poly_of_matrix(Polynomial.zero(), make_operator("X", 3)) == zeros(3)


def test_poly_of_matrix_square():
    d = make_operator("D", 4)
    w = Polynomial((0, 0, 1))  # t^2
    assert poly_of_matrix(w, d) == d @ d


def test_poly_of_matrix_certificate():
    # degree-d evaluation at an index -1 matrix keeps T - d + 1 exact rows
    x = make_operator("X", 6)
    w = Polynomial((1, 0, 0, 1))  # 1 + t^3
    m = poly_of_matrix(w, x)
    assert m.exact_rows == 4
    assert m.leading(4) == (x @ x @ x + identity(6)).leading(4)


# -- window comparison ---------------------------------------------------------------

def test_equal_on_window_uses_certificates():
    a = TruncMatrix(rows=((1, 0), (0, 1)), index=0, exact_rows=1)
    b = TruncMatrix(rows=((1, 0), (5, 5)), index=0, exact_rows=2)
    assert window_rows(a, b) == 1
    assert equal_on_window(a, b)  # only row 0 is certified on both sides
    assert not equal_on_window(identity(2), b)


def test_zeros_default_index():
    z = zeros(3)
    assert z.index == 3
    assert rows_of(z) == [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
