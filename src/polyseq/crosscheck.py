r"""The paper's alternate routes to the library's outputs, as cross-checks.

Each output has one production kernel; each route here recomputes one of
them another way:

- build_A_rows: A from row_0 = e_0, row_{j+1} = row_j @ H in Fractions, the
  twin of the production kernel's integer run for A; the inverse of P (from
  matrix.lower_tri_inverse) is A's oracle in `verify`.
- build_Hhat, build_P_columns: the right inverse Hhat = Xhat @ (H@Xhat)^{-1}
  satisfies H@Hhat = I and P@Xhat = Hhat@P, which yields P column by
  column: column 0 of -Hhat@H with its top entry set to 1, then
  col_{k+1} = Hhat @ col_k.
- _verify_pair: the pair's identities A@P = I, A@H = X@A and H@P = P@X as
  generic products, the oracle of build_P_recurrence's integer check.
- recurrence_poly_matrices: the full matrices p_m(M), by generic products.
  Production runs row vectors through them (sequences.poly_rows): row n of
  p_m(H) is d(n,m,.), row 0 of p_m(K) is C[m], and C[n] @ p_m(K) is e(n,m,.).
  `verify`'s row checks read rows 0..N+1 of p_n(H) only (_poly_matrix_rows),
  built in ints by right multiplication, p_n(H) H, and checked by left,
  H p_n(H) (_left_row), so a fault in either side shows.
- lin_tensor_recurrence: a fixed-k slice of d scalar by scalar from H.
- op_lin_recurrence: the same slice from the four-term recurrence of an
  orthogonal sequence, stated on its (beta, alpha) alone.
  The row and slice routes run in ints over a D of their own, the lcm of the
  denominators they read (_scaled_lower, not the kernel's integer_band), and
  build one Fraction per returned entry.
- expand_in_basis, lin_tensor_oracle: schoolbook products and
  back-substitution in a graded monic basis; no matrix of a polynomial is
  formed, so this route is independent of the Hessenberg machinery.

Only `verify`, `linearize --method all` and the tests use these routes; no
production module imports this one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import (
    BasisError,
    PolyseqError,
    PropertyViolationError,
    StructureError,
    WindowError,
)
from .linearize import LinTensor, check_h_window
from .matrix import TruncMatrix, identity, lower_tri_inverse, make_operator
from .orthogonal import ThreeTermRecurrence
from .polynomial import Polynomial
from .sequences import SequencePair, check_unit_hessenberg

_ZERO = Fraction(0)


def _verify_pair(pair: SequencePair) -> None:
    """A@P = I on the whole block; A@H = X@A and H@P = P@X on the rows both
    sides certify; p_k monic of degree k.  Raises PropertyViolationError."""
    h, a, p = pair.H, pair.A, pair.P
    t = pair.size
    if a.size != t or p.size != t:
        raise StructureError(f"size mismatch: H {t}, A {a.size}, P {p.size}")
    x = make_operator("X", t)
    if a @ p != identity(t):
        raise PropertyViolationError("A @ P differs from the identity")
    if not (a @ h).equal_on_window(x @ a):
        raise PropertyViolationError("A @ H and X @ A disagree on the exact window")
    if not (h @ p).equal_on_window(p @ x):
        raise PropertyViolationError("H @ P and P @ X disagree on the exact window")
    for k, poly in enumerate(pair.polys):
        if poly.degree != k or not poly.is_monic:
            raise PropertyViolationError(f"p_{k} is not monic of degree {k}")


def build_A_rows(h: TruncMatrix) -> TruncMatrix:
    """The unique monic triangular A with A@H = X@A, one row at a time.

    row_{j+1} = row_j @ H; row j has support in columns 0..j, so the
    truncation never loses mass and all size rows are exact.
    """
    check_unit_hessenberg(h)
    t = h.size
    rows = [[Fraction(0)] * t for _ in range(t)]
    rows[0][0] = Fraction(1)
    for j in range(t - 1):
        cur = rows[j]
        nxt = rows[j + 1]
        for k in range(j + 2):
            if k >= t:
                break
            acc = Fraction(0)
            for i in range(max(0, k - 1), j + 1):
                v = cur[i]
                if v:
                    acc += v * h.rows[i][k]
            nxt[k] = acc
    return TruncMatrix(rows, index=0, exact_rows=t)


def build_Hhat(h: TruncMatrix) -> TruncMatrix:
    """The right inverse Hhat = Xhat @ (H@Xhat)^{-1}, exact on the block.

    Y = H@Xhat just shifts H's columns left; its last diagonal entry lies
    outside the stored block but equals 1 by monic structure, so Y is
    completed from that certificate before the (exact, triangular) inversion.
    """
    check_unit_hessenberg(h)
    t = h.size
    y = [[Fraction(0)] * t for _ in range(t)]
    for i in range(t):
        for k in range(t - 1):
            y[i][k] = h.rows[i][k + 1]
    y[t - 1][t - 1] = Fraction(1)
    yinv = lower_tri_inverse(TruncMatrix(y, index=0, exact_rows=t))
    return make_operator("Xhat", t) @ yinv


def build_P_columns(h: TruncMatrix) -> TruncMatrix:
    """P built column-first through the right inverse Hhat = build_Hhat(h)."""
    return _p_columns(h, build_Hhat(h))


def _p_columns(h: TruncMatrix, hhat: TruncMatrix) -> TruncMatrix:
    """P column by column from H and its right inverse Hhat.

    Column 0 is column 0 of -Hhat@H with the top entry set to 1; then
    col_{k+1} = Hhat @ col_k, both as row sums over Hhat's nonzero entries.
    Hhat has index 1, so every column is exact.
    """
    t = h.size
    col = [-sum(v * h.rows[j][0] for j, v in enumerate(row) if v) for row in hhat.rows]
    col[0] = Fraction(1)
    cols = [col]
    for _ in range(t - 1):
        prev = cols[-1]
        cols.append([sum(v * prev[j] for j, v in enumerate(row) if v) for row in hhat.rows])
    rows = [[cols[k][i] for k in range(t)] for i in range(t)]
    return TruncMatrix(rows, index=0, exact_rows=t)


def recurrence_poly_matrices(h: TruncMatrix, at: TruncMatrix, m_max: int) -> list:
    """[p_0(M), ..., p_{m_max}(M)] where the p's obey h's recurrence and M=at.

    Each step forms at @ p_m(M) and subtracts H[m][j] * p_j(M) for j <= m
    row by row in one pass.  Each multiplication by the Hessenberg argument
    costs one certified row, so p_m(M) is exact on rows 0..size-m-1 at least.
    """
    if h.size != at.size:
        raise StructureError(f"size mismatch: {h.size} vs {at.size}")
    if m_max >= h.size:
        raise WindowError(m_max + 2, h.size, "polynomial matrix recurrence")
    mats = [identity(at.size)]
    for m in range(m_max):
        prod = at @ mats[m]
        terms = [(c, mats[j]) for j, c in enumerate(h.rows[m][: m + 1]) if c]
        rows = []
        for i, row in enumerate(prod.rows):
            row = list(row)
            for c, mat in terms:
                for col, v in enumerate(mat.rows[i]):
                    if v:
                        row[col] -= c * v
            rows.append(tuple(row))
        mats.append(TruncMatrix._trusted(
            tuple(rows),
            index=min([prod.index] + [mat.index for _, mat in terms]),
            exact_rows=min([prod.exact_rows] + [mat.exact_rows for _, mat in terms]),
        ))
    return mats


def _scaled_lower(h: TruncMatrix, rows: int):
    """(D, G): G[i][j] = D * H[i][j] as ints for j <= i < rows, D the lcm of
    the denominators of those entries; the unit superdiagonal stays implied.

    The oracles scale H here, apart from the production kernel's scaling, so
    that a wrong D there cannot make kernel and oracle agree.
    """
    read = [h.rows[i][: i + 1] for i in range(rows)]
    den = lcm(*(v.denominator for row in read for v in row))
    return den, [[v.numerator * (den // v.denominator) for v in row] for row in read]


def _poly_matrix_rows(h: TruncMatrix, n_max: int):
    """(D, G, q): q[n][i] = D^n * (row i of p_n(H)) on columns 0..i+n, for
    n <= n_max and i <= 2*n_max+1-n, over (D, G) = _scaled_lower(h, 2*n_max+1).

    Rows of p_{n+1}(H) = p_n(H) H - sum(H[n][j] p_j(H) for j <= n) come by
    right multiplication (_right_row), each from row i of p_n(H); the window
    shrinks by one row per step, as _left_row, which checks them, needs.
    """
    den, g = _scaled_lower(h, 2 * n_max + 1)
    band = [[(j, c) for j, c in enumerate(row) if c] for row in g]
    q = [[[0] * i + [1] for i in range(2 * n_max + 2)]]
    for n in range(n_max):
        q.append([_right_row(den, band, q, n, i) for i in range(2 * n_max + 1 - n)])
    return den, g, q


def _right_row(den: int, band, q, n: int, i: int) -> list:
    """D^(n+1) * (row i of p_{n+1}(H)) from the rows q of _poly_matrix_rows,
    with band[l] the (j, G[l][j]) for G[l][j] != 0:

        q[n][i] @ G + D * (q[n][i] shifted one column right)
        - sum(G[n][j] D^(n-j) q[j][i] for j <= n).
    """
    row = q[n][i]
    acc = [0] + [den * v for v in row]
    for l, v in enumerate(row):
        if v:
            for col, c in band[l]:
                acc[col] += v * c
    for j, c in band[n]:
        c *= den ** (n - j)
        for col, v in enumerate(q[j][i]):
            if v:
                acc[col] -= c * v
    return acc


def _left_row(den: int, g, q, n: int, i: int) -> list:
    """D^(n+1) * (row i of p_{n+1}(H)) from the rows q of _poly_matrix_rows:

        sum(G[i][l] q[n][l] for l <= i) + D q[n][i+1]
        - sum(G[n][j] D^(n-j) q[j][i] for j <= n).
    """
    acc = [den * v for v in q[n][i + 1]]
    for l, c in enumerate(g[i]):
        if c:
            for col, v in enumerate(q[n][l]):
                if v:
                    acc[col] += c * v
    for j, c in enumerate(g[n]):
        if c:
            c *= den ** (n - j)
            for col, v in enumerate(q[j][i]):
                if v:
                    acc[col] -= c * v
    return acc


def lin_tensor_recurrence(h: TruncMatrix, n_max: int, k: int) -> list:
    """One fixed-k slice, (n_max+1) square, from the scalar recurrence

        d(n+1,m,k) = d(n,m+1,k) + (H[m][m]-H[n][n]) d(n,m,k)
                     + sum(H[m][j] d(n,j,k) for j in range(m))
                     - sum(H[n][j] d(j,m,k) for j in range(n)),

    using the symmetry d(m,j,k) = d(j,m,k) for the last sum.  Row n is
    filled for m up to 2*n_max - n (row n+1 consumes column m+1 of row n, so
    widths shrink by one per row); the returned square block is checked for
    symmetry as it completes.  The recurrence runs in ints on
    q(n,m) = D^(n+m-k) * d(n,m,k), (D, G) = _scaled_lower(h, 2*n_max):

        q(n+1,m) = q(n,m+1) + (G[m][m]-G[n][n]) q(n,m)
                   + sum(G[m][j] D^(m-j) q(n,j) for j in range(m))
                   - sum(G[n][j] D^(n-j) q(j,m) for j in range(n)),

    and q = 0 where n+m < k.
    """
    if not 0 <= k <= 2 * n_max:
        raise PolyseqError(f"k must lie in 0..{2 * n_max}, got {k}")
    width0 = 2 * n_max
    (h,) = check_h_window(f"lin_tensor_recurrence(n_max={n_max})", width0, h)
    den, g = _scaled_lower(h, width0)
    powers = [den**e for e in range(width0 + 1)]
    # below[i]: (j, G[i][j] * D^(i-j)) over the nonzero entries left of the diagonal
    below = [[(j, c * powers[i - j]) for j, c in enumerate(row[:i]) if c] for i, row in enumerate(g)]
    q = [[1 if m == k else 0 for m in range(width0 + 1)]]
    for n in range(n_max):
        cur = q[n]
        nxt = []
        for m in range(width0 - n):
            if n + 1 + m < k:
                nxt.append(0)
                continue
            v = cur[m + 1]
            c = g[m][m] - g[n][n]
            if c and cur[m]:
                v += c * cur[m]
            for j, c in below[m]:
                if cur[j]:
                    v += c * cur[j]
            for j, c in below[n]:
                if q[j][m]:
                    v -= c * q[j][m]
            nxt.append(v)
        q.append(nxt)
    return _symmetric_block(_slice_fractions(q, powers, n_max, k), n_max, k)


def op_lin_recurrence(rec: ThreeTermRecurrence, n_max: int, k: int) -> list:
    """One fixed-k slice from the four-term recurrence of an orthogonal
    sequence (stated in polyseq.orthogonal's docstring).  It runs in ints on
    q(n,m) = D^(n+m-k) * d(n,m,k), with B = D*beta and A = D^2*alpha:

        q(n+1,m) = q(n,m+1) + (B[m]-B[n]) q(n,m) + A[m-1] q(n,m-1) - A[n-1] q(n-1,m),

    D the lcm of the denominators of the coefficients read, and q = 0 where
    n+m < k."""
    if not 0 <= k <= 2 * n_max:
        raise PolyseqError(f"k must lie in 0..{2 * n_max}, got {k}")
    width0 = 2 * n_max
    rec.require(max(width0, 1), max(width0 - 1, 0))
    beta, alpha = rec.beta[:width0], rec.alpha[: max(width0 - 1, 0)]
    den = lcm(*(v.denominator for v in beta + alpha))
    b = [v.numerator * (den // v.denominator) for v in beta]
    a = [v.numerator * (den * den // v.denominator) for v in alpha]
    q = [[1 if m == k else 0 for m in range(width0 + 1)]]
    for n in range(n_max):
        cur = q[n]
        nxt = []
        for m in range(width0 - n):
            if n + 1 + m < k:
                nxt.append(0)
                continue
            v = cur[m + 1]
            c = b[m] - b[n]
            if c and cur[m]:
                v += c * cur[m]
            if m >= 1 and a[m - 1] and cur[m - 1]:
                v += a[m - 1] * cur[m - 1]
            if n >= 1 and a[n - 1] and q[n - 1][m]:
                v -= a[n - 1] * q[n - 1][m]
            nxt.append(v)
        q.append(nxt)
    powers = [den**e for e in range(width0 + 1)]
    return _symmetric_block(_slice_fractions(q, powers, n_max, k), n_max, k)


def _slice_fractions(q, powers, n_max: int, k: int) -> list:
    """Rows n <= n_max of a slice, columns m <= n_max, as d(n,m,k) =
    q(n,m) / D^(n+m-k): one Fraction per nonzero q."""
    return [
        [Fraction(v, powers[n + m - k]) if v else _ZERO for m, v in enumerate(row[: n_max + 1])]
        for n, row in enumerate(q[: n_max + 1])
    ]


def _symmetric_block(rows, n_max: int, k: int) -> list:
    """The leading (n_max+1) square of a slice's rows, checked symmetric."""
    out = [[rows[n][m] for m in range(n_max + 1)] for n in range(n_max + 1)]
    for n in range(n_max + 1):
        for m in range(n):
            if out[n][m] != out[m][n]:
                raise PropertyViolationError(f"slice k={k} lost symmetry at ({n},{m})")
    return out


def poly_mul(f: Polynomial, g: Polynomial) -> Polynomial:
    """Exact product by coefficient convolution: f * g, kept as a public name."""
    return f * g


@dataclass(frozen=True)
class BasisExpansion:
    target: Polynomial
    coeffs: tuple

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if k < len(self.coeffs) else Fraction(0)


def expand_in_basis(target: Polynomial, basis) -> BasisExpansion:
    """Coefficients of target in a graded monic basis, by back-substitution.

    basis[k] must be monic of degree exactly k, and the basis must reach the
    target's degree.  The system is unit upper triangular when read from the
    top coefficient down, so the expansion is exact and unique; a nonzero
    residual would mean the basis is broken and raises.
    """
    basis = list(basis)
    for k, b in enumerate(basis):
        if b.degree != k or not b.is_monic:
            raise BasisError(f"basis element {k} is not monic of degree {k}")
    if target.degree >= len(basis):
        raise BasisError(
            f"basis reaches degree {len(basis) - 1}, target has degree {target.degree}"
        )
    coeffs = [Fraction(0)] * len(basis)
    residual = target
    while not residual.is_zero:
        d = residual.degree
        c = residual.coeffs[d]
        coeffs[d] = c
        residual = residual - basis[d].scale(c)
        if not residual.is_zero and residual.degree >= d:
            raise BasisError(f"degree failed to drop at {d}; basis is not graded")
    return BasisExpansion(target=target, coeffs=tuple(coeffs))


def lin_tensor_oracle(pair: SequencePair, n_max: int) -> LinTensor:
    """Linearization slices recomputed from raw polynomial algebra.

    d(n,m,.) = expansion of polys[n] * polys[m] in the p-basis itself.
    """
    if pair.size <= 2 * n_max:
        raise WindowError(2 * n_max + 1, pair.size, f"lin_tensor_oracle(n_max={n_max})")
    width = n_max + 1
    table = [[None] * width for _ in range(width)]
    for n in range(width):
        for m in range(n, width):
            exp = expand_in_basis(
                pair.polys[n] * pair.polys[m], pair.polys[: n + m + 1]
            )
            table[n][m] = exp
    return LinTensor.from_slices(n_max, lambda k: [
        [(table[n][m] if n <= m else table[m][n]).coeff(k) for m in range(width)]
        for n in range(width)
    ])
