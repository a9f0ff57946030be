"""Property-based checks for invariants that must hold for ALL inputs."""

from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from polyseq import (
    HSpec,
    Polynomial,
    TruncMatrix,
    build_P_recurrence,
    equal_on_window,
    expand_in_basis,
    identity,
    lin_tensor_direct,
    lin_tensor_oracle,
    linearize_with_w,
    lower_tri_inverse,
    make_operator,
    poly_mul,
    poly_of_matrix,
    realize_H,
    tensors_agree,
    zeros,
)
from polyseq.matrix import OPERATOR_KINDS

small_fraction = st.fractions(min_value=-3, max_value=3, max_denominator=3)
nonzero_fraction = small_fraction.filter(lambda f: f != 0)


def poly_strategy(max_degree=5):
    return st.lists(small_fraction, min_size=0, max_size=max_degree + 1).map(
        lambda cs: Polynomial(cs))


@st.composite
def hessenberg_lower_rows(draw, count):
    return [
        [draw(small_fraction) for _ in range(k + 1)]
        for k in range(count)
    ]


@st.composite
def lower_triangular(draw, size):
    rows = []
    for i in range(size):
        row = [draw(small_fraction) for _ in range(i)]
        row.append(draw(nonzero_fraction))  # invertible diagonal
        row.extend([F(0)] * (size - i - 1))
        rows.append(tuple(row))
    return TruncMatrix(rows=tuple(rows), index=0)


# -- polynomial algebra -------------------------------------------------------------

@given(poly_strategy(), poly_strategy())
@settings(max_examples=60, deadline=None)
def test_poly_mul_commutes(f, g):
    assert poly_mul(f, g) == poly_mul(g, f)


@given(poly_strategy(3), poly_strategy(3), poly_strategy(3))
@settings(max_examples=60, deadline=None)
def test_poly_mul_distributes(f, g, h):
    assert poly_mul(f, g + h) == poly_mul(f, g) + poly_mul(f, h)


@given(poly_strategy(), poly_strategy())
@settings(max_examples=60, deadline=None)
def test_poly_mul_degree_adds(f, g):
    prod = poly_mul(f, g)
    if f.is_zero or g.is_zero:
        assert prod.is_zero
    else:
        assert prod.degree == f.degree + g.degree


@st.composite
def w_row_case(draw):
    """(H, w, n): H from band 0 to dense at T = n + deg + 2 + extra, w of
    degree <= 8 or zero, n <= 8."""
    n, w = draw(st.integers(0, 8)), draw(poly_strategy(8))
    band = draw(st.sampled_from((0, 1, 2, None)))
    t = n + max(w.degree, 0) + 2 + draw(st.integers(0, 2))
    rows = [[draw(small_fraction) if band is None or k - j <= band else 0 for j in range(k + 1)]
            for k in range(t)]
    return realize_H(HSpec.from_rows(rows), t), w, n


@given(w_row_case())
@settings(max_examples=80, deadline=None)
def test_linearize_with_w_is_row_n_of_w_of_h(case):
    h, w, n = case
    got = linearize_with_w(h, w, n)
    assert got == list(poly_of_matrix(w, h).rows[n][: n + max(w.degree, 0) + 1])
    assert all(type(v) is F for v in got)


# -- matrix algebra -----------------------------------------------------------------

@given(lower_triangular(4))
@settings(max_examples=40, deadline=None)
def test_lower_tri_inverse_both_sides(m):
    inv = lower_tri_inverse(m)
    assert m @ inv == identity(4)
    assert inv @ m == identity(4)


@given(st.sampled_from(["X", "Xhat", "D", "Dhat", "I"]),
       st.sampled_from(["X", "Xhat", "D", "Dhat", "I"]))
@settings(max_examples=36, deadline=None)
def test_product_index_inequality(k1, k2):
    a, b = make_operator(k1, 6), make_operator(k2, 6)
    assert (a @ b).index >= a.index + b.index


@given(st.sampled_from(["X", "Xhat", "D", "Dhat"]),
       st.sampled_from(["X", "Xhat", "D", "Dhat"]),
       st.sampled_from(["X", "Xhat", "D", "Dhat"]))
@settings(max_examples=40, deadline=None)
def test_certificate_never_overclaims(k1, k2, k3):
    """Certified rows of a truncated product equal the untruncated values.

    The reference is the same product at a much larger truncation, whose
    leading block is exact well past the small window.
    """
    t, big = 5, 12
    small = make_operator(k1, t) @ make_operator(k2, t) @ make_operator(k3, t)
    wide = make_operator(k1, big) @ make_operator(k2, big) @ make_operator(k3, big)
    assert wide.exact_rows >= t
    for i in range(small.exact_rows):
        assert small.rows[i] == wide.rows[i][:t]


# -- similarity pairs -----------------------------------------------------------------

@given(hessenberg_lower_rows(5))
@settings(max_examples=30, deadline=None)
def test_pair_invariants_random_hessenberg(lower):
    h = realize_H(HSpec.from_rows(lower), 5)
    pair = build_P_recurrence(h)
    t = pair.size
    assert pair.A @ pair.P == identity(t)
    x = make_operator("X", t)
    assert equal_on_window(pair.A @ pair.H, x @ pair.A)
    assert equal_on_window(pair.H @ pair.P, pair.P @ x)
    for k, p in enumerate(pair.polys):
        assert p.degree == k and p.is_monic


@given(hessenberg_lower_rows(8))
@settings(max_examples=15, deadline=None)
def test_tensor_properties_random_hessenberg(lower):
    pair = build_P_recurrence(realize_H(HSpec.from_rows(lower), 8))
    n_max = 3
    tensor = lin_tensor_direct(pair, n_max)
    for n in range(n_max + 1):
        for m in range(n_max + 1):
            assert tensor.value(n, m, n + m) == 1
            for k in range(tensor.k_max + 1):
                assert tensor.value(n, m, k) == tensor.value(m, n, k)
                if n + m < k:
                    assert tensor.value(n, m, k) == 0
    for m in range(n_max + 1):
        for k in range(tensor.k_max + 1):
            assert tensor.value(0, m, k) == (1 if k == m else 0)


@given(hessenberg_lower_rows(8))
@settings(max_examples=10, deadline=None)
def test_direct_equals_oracle_random_hessenberg(lower):
    pair = build_P_recurrence(realize_H(HSpec.from_rows(lower), 8))
    assert tensors_agree(lin_tensor_direct(pair, 3), lin_tensor_oracle(pair, 3)) is None


@given(poly_strategy(4), hessenberg_lower_rows(6))
@settings(max_examples=20, deadline=None)
def test_expansion_reconstructs(target, lower):
    pair = build_P_recurrence(realize_H(HSpec.from_rows(lower), 6))
    exp = expand_in_basis(target, pair.polys[: max(target.degree, 0) + 1])
    rebuilt = Polynomial.zero()
    for k, c in enumerate(exp.coeffs):
        rebuilt = rebuilt + pair.polys[k].scale(c)
    assert rebuilt == target


@st.composite
def indexed_matrix(draw, size):
    """A size x size block with a drawn index (zeros above it) and certificate."""
    index = draw(st.integers(-2, 2))
    rows = [[draw(small_fraction) if i - k >= index else F(0) for k in range(size)]
            for i in range(size)]
    return TruncMatrix(rows, index=index, exact_rows=draw(st.integers(0, size)))


@given(st.integers(1, 5).flatmap(lambda t: st.tuples(indexed_matrix(t), indexed_matrix(t))),
       small_fraction, st.integers(1, 5).flatmap(lower_triangular), hessenberg_lower_rows(5))
@settings(max_examples=80, deadline=None)
def test_internal_results_pass_the_checked_constructor(operands, c, low, lower):
    # Sums, scalings, products, inverses, operators, zero blocks and realized
    # H skip __init__'s re-wrap and index scan; each must be what __init__
    # would have built.
    a, b = operands
    t = a.size
    beta, alpha = [row[-1] for row in lower], [row[-2] for row in lower[1:]]
    built = [make_operator(kind, t) for kind in OPERATOR_KINDS] + [
        zeros(t),
        realize_H(HSpec.from_rows(lower), t),
        realize_H(HSpec.tridiagonal(beta, alpha), t),
    ]
    for r in (a + b, a - b, a.scale(c), -a, a @ b, lower_tri_inverse(low), *built):
        checked = TruncMatrix(r.rows, r.index, r.exact_rows)
        assert (checked.rows, checked.index, checked.exact_rows) == (
            r.rows, r.index, r.exact_rows)
        assert type(r.rows) is tuple and all(type(row) is tuple for row in r.rows)
        assert all(type(v) is F for row in r.rows for v in row)


@given(poly_strategy(), poly_strategy(), small_fraction)
@settings(max_examples=80, deadline=None)
def test_polynomial_results_pass_the_checked_constructor(f, g, c):
    # +, -, negation, scale, * and times_t skip __init__'s re-wrap and strip;
    # each must be what __init__ would have built.
    for r in (f + g, f - g, f - f, -f, f.scale(c), f.scale(0), f * g, f.times_t()):
        assert r == Polynomial(r.coeffs)
        assert type(r.coeffs) is tuple and all(type(v) is F for v in r.coeffs)
        assert not r.coeffs or r.coeffs[-1] != 0


def schoolbook_product(a, b):
    t = a.size
    return [[sum((a.rows[i][j] * b.rows[j][k] for j in range(t)), F(0)) for k in range(t)]
            for i in range(t)]


@given(st.integers(1, 5).flatmap(lambda t: st.tuples(indexed_matrix(t), indexed_matrix(t))))
@settings(max_examples=80, deadline=None)
def test_product_matches_schoolbook_sum(operands):
    a, b = operands
    t = a.size
    r = a @ b
    assert [list(row) for row in r.rows] == schoolbook_product(a, b)
    assert r.index == a.index + b.index
    # exact_rows(A@B) = min(er(A), er(B) + ind(A), T + ind(A)), clamped to [0, T]
    assert r.exact_rows == max(0, min(a.exact_rows, b.exact_rows + a.index, t + a.index, t))


def substitution_inverse(m):
    # Column k of the inverse solves m x = e_k, one unknown at a time from the top.
    t = m.size
    cols = []
    for k in range(t):
        x = []
        for i in range(t):
            rest = sum((m.rows[i][j] * x[j] for j in range(i)), F(0))
            x.append((F(i == k) - rest) / m.rows[i][i])
        cols.append(x)
    return [[cols[k][i] for k in range(t)] for i in range(t)]


@given(st.integers(1, 6).flatmap(lower_triangular))
@settings(max_examples=60, deadline=None)
def test_lower_tri_inverse_matches_substitution(m):
    inv = lower_tri_inverse(m)
    assert [list(row) for row in inv.rows] == substitution_inverse(m)
    assert (inv.index, inv.exact_rows) == (0, m.exact_rows)


# -- serialization ----------------------------------------------------------------------

@given(small_fraction)
@settings(max_examples=80, deadline=None)
def test_rat_string_round_trip(v):
    from polyseq.serialize import rat_from_str, rat_to_str

    assert rat_from_str(rat_to_str(v)) == v
