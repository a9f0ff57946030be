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
- lin_tensor_recurrence: a fixed-k slice of d scalar by scalar from H.
- op_lin_recurrence: the same slice from the four-term recurrence of an
  orthogonal sequence, stated on its (beta, alpha) alone.
- expand_in_basis, lin_tensor_oracle: schoolbook products and
  back-substitution in a graded monic basis; no matrix of a polynomial is
  formed, so this route is independent of the Hessenberg machinery.

Only `verify`, `linearize --method all` and the tests use these routes; no
production module imports this one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
    """P built column-first through the right inverse.

    Column 0 is column 0 of -Hhat@H with the top entry set to 1; then
    col_{k+1} = Hhat @ col_k, both as row sums over Hhat's nonzero entries.
    Hhat has index 1, so every column is exact.
    """
    t = h.size
    hhat = build_Hhat(h)
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

    Each multiplication by the Hessenberg argument costs one certified row,
    so p_m(M) is exact on rows 0..size-m-1 at least.
    """
    if h.size != at.size:
        raise StructureError(f"size mismatch: {h.size} vs {at.size}")
    if m_max >= h.size:
        raise WindowError(m_max + 2, h.size, "polynomial matrix recurrence")
    mats = [identity(at.size)]
    for m in range(m_max):
        nxt = at @ mats[m]
        hrow = h.rows[m]
        for j in range(m + 1):
            c = hrow[j]
            if c:
                nxt = nxt - mats[j].scale(c)
        mats.append(nxt)
    return mats


def lin_tensor_recurrence(h: TruncMatrix, n_max: int, k: int) -> list:
    """One fixed-k slice, (n_max+1) square, from the scalar recurrence

        d(n+1,m,k) = d(n,m+1,k) + (H[m][m]-H[n][n]) d(n,m,k)
                     + sum(H[m][j] d(n,j,k) for j in range(m))
                     - sum(H[n][j] d(j,m,k) for j in range(n)),

    using the symmetry d(m,j,k) = d(j,m,k) for the last sum.  Row n is
    filled for m up to 2*n_max - n (row n+1 consumes column m+1 of row n, so
    widths shrink by one per row); the returned square block is checked for
    symmetry as it completes.
    """
    if not 0 <= k <= 2 * n_max:
        raise PolyseqError(f"k must lie in 0..{2 * n_max}, got {k}")
    width0 = 2 * n_max
    (h,) = check_h_window(f"lin_tensor_recurrence(n_max={n_max})", width0, h)
    rows = [[Fraction(1) if m == k else Fraction(0) for m in range(width0 + 1)]]
    for n in range(n_max):
        width = width0 - (n + 1)
        cur = rows[n]
        hn = h.rows[n]
        nxt = []
        for m in range(width + 1):
            hm = h.rows[m]
            v = cur[m + 1] + (hm[m] - hn[n]) * cur[m]
            for j in range(m):
                c = hm[j]
                if c:
                    v += c * cur[j]
            for j in range(n):
                c = hn[j]
                if c:
                    v -= c * rows[j][m]
            nxt.append(v)
        rows.append(nxt)
    return _symmetric_block(rows, n_max, k)


def op_lin_recurrence(rec: ThreeTermRecurrence, n_max: int, k: int) -> list:
    """One fixed-k slice from the four-term recurrence of an orthogonal
    sequence (stated in polyseq.orthogonal's docstring)."""
    if not 0 <= k <= 2 * n_max:
        raise PolyseqError(f"k must lie in 0..{2 * n_max}, got {k}")
    width0 = 2 * n_max
    rec.require(max(width0, 1), max(width0 - 1, 0))
    beta, alpha = rec.beta, rec.alpha
    rows = [[Fraction(1) if m == k else Fraction(0) for m in range(width0 + 1)]]
    for n in range(n_max):
        width = width0 - (n + 1)
        cur = rows[n]
        nxt = []
        for m in range(width + 1):
            v = cur[m + 1] + (beta[m] - beta[n]) * cur[m]
            if m >= 1:
                v += alpha[m - 1] * cur[m - 1]
            if n >= 1:
                v -= alpha[n - 1] * rows[n - 1][m]
            nxt.append(v)
        rows.append(nxt)
    return _symmetric_block(rows, n_max, k)


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
