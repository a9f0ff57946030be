r"""Monic polynomial sequences attached to monic Hessenberg matrices.

A monic matrix H of index -1 (ones on the superdiagonal) determines a unique
monic lower triangular A with A@H = X@A, built row by row from row_0 = e_0 via

    row_{j+1} = row_j @ H.

P = A^{-1} is again monic lower triangular, satisfies H@P = P@X, and its rows
are the coefficient vectors of a monic polynomial sequence p_0, p_1, ...
obeying

    p_{k+1}(t) = t*p_k(t) - sum(H[k][j] * p_j(t) for j in range(k + 1)).

Both are computed that way, in integers over D^j (D the lcm of the
denominators in the rows 0..T-2 of H they read), by poly_rows, the one row
kernel: row m of A is row 0 of H^m and row m of P is row 0 of p_m(X), and
linearize reads d and C off the same kernel.  The pair is the connection to
the monomials, so A@P = I is connect --verify's check, inverse_defect.  Each
entry becomes a Fraction once, after it and A@H = X@A (which imply H@P =
P@X) hold on the integer rows by code that shares nothing with the kernel:
it scales H by D itself and demands that D clear every denominator it reads.

Rows of A are the coefficients of the inverse sequence u_k (the expansion of
t^k in the p-basis), and column 0 of A lists the moments of the linear
functional tau with tau(p_n) = 0 for n >= 1: tau(t^k) = A[k][0].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence

from .errors import (
    InsufficientMomentsError,
    PropertyViolationError,
    SpecTooShortError,
    StructureError,
)
from .families import FamilyParams, family_tridiagonal
from .matrix import TruncMatrix
from .polynomial import Polynomial


@dataclass(frozen=True)
class HSpec:
    """Finite description of an infinite monic Hessenberg matrix.

    kind is one of "tridiagonal" (beta/alpha coefficient lists), "rows"
    (explicit row data) or "family" (named parametric family).
    """

    kind: str
    beta: tuple = ()
    alpha: tuple = ()
    rows: tuple = ()
    family: FamilyParams | None = None

    @classmethod
    def tridiagonal(cls, beta: Sequence, alpha: Sequence) -> "HSpec":
        return cls(
            kind="tridiagonal",
            beta=tuple(Fraction(b) for b in beta),
            alpha=tuple(Fraction(a) for a in alpha),
        )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "HSpec":
        return cls(
            kind="rows",
            rows=tuple(tuple(Fraction(v) for v in row) for row in rows),
        )

    @classmethod
    def from_family(cls, params: FamilyParams) -> "HSpec":
        return cls(kind="family", family=params)


def realize_H(spec: HSpec, size: int) -> TruncMatrix:
    """The exact size x size truncation of the matrix a spec describes."""
    if size < 1:
        raise StructureError("size must be at least 1")
    if spec.kind == "tridiagonal":
        return _tridiagonal_matrix(spec.beta, spec.alpha, size)
    if spec.kind == "family":
        beta, alpha = family_tridiagonal(spec.family, size)
        return _tridiagonal_matrix(beta, alpha, size)
    if spec.kind == "rows":
        return _rows_matrix(spec.rows, size)
    raise StructureError(f"unknown spec kind {spec.kind!r}")


def _tridiagonal_matrix(beta, alpha, size) -> TruncMatrix:
    # Row k carries (alpha_k, beta_k, 1); T rows consume beta_0..beta_{T-1}
    # and alpha_1..alpha_{T-1}.
    if len(beta) < size:
        raise SpecTooShortError("beta list", size, len(beta))
    if len(alpha) < size - 1:
        raise SpecTooShortError("alpha list", size - 1, len(alpha))
    rows = [[Fraction(0)] * size for _ in range(size)]
    for k in range(size):
        rows[k][k] = Fraction(beta[k])
        if k + 1 < size:
            rows[k][k + 1] = Fraction(1)
        if k >= 1:
            rows[k][k - 1] = Fraction(alpha[k - 1])
    return TruncMatrix._trusted(tuple(map(tuple, rows)), index=-1, exact_rows=size)


def _rows_matrix(data, size) -> TruncMatrix:
    # Row k may list just columns 0..k (the free lower part; the monic 1 at
    # column k+1 is implied) or extend further, in which case the entry at
    # k+1 must be 1 and everything past it 0.
    if len(data) < size:
        raise SpecTooShortError("row list", size, len(data))
    rows = [[Fraction(0)] * size for _ in range(size)]
    for k in range(size):
        row = data[k]
        if len(row) > k + 1:
            if Fraction(row[k + 1]) != 1:
                raise StructureError(
                    f"row {k} must have 1 at column {k + 1} to be monic of index -1"
                )
            for j in range(k + 2, len(row)):
                if Fraction(row[j]) != 0:
                    raise StructureError(
                        f"row {k} has a nonzero entry at column {j}, above the superdiagonal"
                    )
        for j in range(min(len(row), k + 1, size)):
            rows[k][j] = Fraction(row[j])
        if k + 1 < size:
            rows[k][k + 1] = Fraction(1)
    return TruncMatrix._trusted(tuple(map(tuple, rows)), index=-1, exact_rows=size)


def check_unit_hessenberg(h: TruncMatrix) -> None:
    """Require ones on the superdiagonal and zeros above it, up to h.index."""
    t = h.size
    for i in range(t):
        row = h.rows[i]
        if i + 1 < t and row[i + 1] != 1:
            raise StructureError(f"entry ({i},{i + 1}) must be 1, got {row[i + 1]}")
        for j in range(i + 2, min(t, i + 1 - h.index)):  # zero past its index
            if row[j] != 0:
                raise StructureError(f"entry ({i},{j}) must be 0, got {row[j]}")


def row_poly(m: TruncMatrix, k: int) -> Polynomial:
    """Row k read as polynomial coefficients (column j -> t^j)."""
    return Polynomial(m.rows[k])


@dataclass(frozen=True)
class SequencePair:
    """A matrix H with its similarity data: A@H = X@A, P = A^{-1}.

    polys[k] is the degree-k monic polynomial whose coefficients are row k
    of P.
    """

    H: TruncMatrix
    A: TruncMatrix
    P: TruncMatrix
    polys: tuple

    @property
    def size(self) -> int:
        return self.H.size


def build_P_recurrence(h: TruncMatrix) -> SequencePair:
    """The full sequence pair for a monic Hessenberg truncation, in integers.

    With D the lcm of the denominators of H's lower part on rows 0..T-2, the
    rows q_A[j] = D^j * row_j(A) and q_P[k] = D^k * p_k are integer vectors,
    two runs of poly_rows (t^m at K = H, and p_m at K = X), so the pair needs
    neither an inverse nor Fraction arithmetic.  The identities A@P = I and
    A@H = X@A are checked on the integer rows, over the windows and with the
    messages of crosscheck._verify_pair; failure is a hard internal error.
    Only then is each entry built, once, as Fraction(q, D^j) (fraction_rows),
    and polys[k] reads row k of P.  Row j of A and of P reads rows 0..j-1 of
    H, so both are certified on min(T, er(H) + 1) rows.
    """
    check_unit_hessenberg(h)
    t = h.size
    qa, qp, den = _integer_rows(h)
    _check_integer_pair(h, qa, qp, den)
    exact = min(t, h.exact_rows + 1)
    a, p = (
        TruncMatrix._trusted(tuple(map(tuple, fraction_rows(q, den, t))), 0, exact)
        for q in (qa, qp)
    )
    polys = tuple(Polynomial._trusted(row[: k + 1]) for k, row in enumerate(p.rows))
    return SequencePair(H=h, A=a, P=p, polys=polys)


def integer_band(*bands):
    """(D, [G, ...]): for each band (H, r), rows 0..r-1 of H's lower part in ints.

    G[i] lists (j, D * H[i][j]) for the nonzero entries j <= i of row i; the
    unit superdiagonal is left implied.  D is the lcm of the denominators of
    the entries read, in every H.
    """
    read = [[h.rows[i][: i + 1] for i in range(rows)] for h, rows in bands]
    den = lcm(*(v.denominator for r in read for row in r for v in row))
    return den, [
        [[(j, v.numerator * (den // v.denominator)) for j, v in enumerate(row) if v] for row in r]
        for r in read
    ]


def poly_rows(gp, gk, den: int, count: int, start=(1,)) -> list:
    """q[m] = D^m * (start @ p_m(K)) on columns 0..s+m-1, m < count, s = len(start).

    start lists ints (e_n for row n of p_m(K)); gp and gk are the lower
    parts of D*H_p and D*K from integer_band (X's rows are empty), K monic
    Hessenberg with its unit superdiagonal implied.  p_m(K) commutes with K:

        q[m+1] = q[m] @ (D*K) - sum(G_p[m][j] * D^(m-j) * q[j] for j <= m),

    from q[0] = start, reading rows 0..count-2 of gp, 0..s+count-3 of gk.
    """
    powers = [den**k for k in range(count)]
    q = [list(start)]
    for m in range(count - 1):
        acc = [0] * (len(q[m]) + 1)
        for i, v in enumerate(q[m]):
            if v:
                acc[i + 1] += den * v
                for j, c in gk[i]:
                    acc[j] += c * v
        for j, c in gp[m]:
            c *= powers[m - j]
            for i, v in enumerate(q[j]):
                if v:
                    acc[i] -= c * v
        q.append(acc)
    return q


def _integer_rows(h: TruncMatrix):
    """(q_A, q_P, D): rows j of A and of P times D^j, as lists of ints over
    columns 0..j, with D from rows 0..T-2 of H's lower part, which they read."""
    t = h.size
    den, (g,) = integer_band((h, t - 1))
    x = [()] * t
    return poly_rows(x, g, den, t), poly_rows(g, x, den, t), den


def fraction_rows(q, den: int, width: int) -> list:
    """Rows Fraction(q[j][k], D^j), padded with zeros to width columns."""
    zero, powers = Fraction(0), [den**j for j in range(len(q))]
    return [
        [Fraction(v, powers[j]) if v else zero for v in row] + [zero] * (width - len(row))
        for j, row in enumerate(q)
    ]


def inverse_defect(q1, q2, den: int):
    """First (i, k), row-major, where sum(q1[i][j] * D^(i-j) * q2[j][k]) !=
    D^(2i) * [i == k], or None: M1 @ M2 = I for unit lower triangular M with
    rows q[j] = D^j * M[j], by dot products with columns, apart from poly_rows."""
    t = len(q2)
    powers = [den**e for e in range(2 * len(q1) - 1)]
    cols = [[q2[j][k] for j in range(k, t)] for k in range(t)]  # from row k down
    for i, row in enumerate(q1):
        scaled = [v * powers[i - j] for j, v in enumerate(row)]
        for k in range(i + 1):
            if sum(map(mul, scaled[k:], cols[k])) != (powers[2 * i] if k == i else 0):
                return i, k
    return None


def _check_integer_pair(h: TruncMatrix, qa, qp, den: int) -> None:
    # crosscheck._verify_pair on A = q_A / D^j and P = q_P / D^j, in integers,
    # with its windows, order and messages.  Row i of A@H times D^(i+1) is
    # q_A[i] @ (D*H) (X@A has q_A[i+1]), with D*H scaled here on rows 0..T-2.
    t = h.size
    if inverse_defect(qa, qp, den) is not None:
        raise PropertyViolationError("A @ P differs from the identity")
    gcols = [[] for _ in range(t)]  # gcols[j]: the (i, D*H[i][j]) with H[i][j] != 0, i rising
    for i, row in enumerate(h.rows[: t - 1]):
        for j, v in enumerate(row[: i + 1]):
            if v:
                if den % v.denominator:
                    raise PropertyViolationError(f"D = {den} does not clear H[{i}][{j}] = {v}")
                gcols[j].append((i, v.numerator * (den // v.denominator)))
        gcols[i + 1].append((i, den))
    # A@H and X@A are both certified on min(er(H), T-1) rows.  H@P = P@X is
    # not checked: on those rows A@P = I and A@H = X@A give H[i] =
    # sum(P[i][j] * A[j+1]), so (H@P)[i] = (P@X)[i].
    for i in range(min(h.exact_rows, t - 1)):
        arow, shifted = qa[i], qa[i + 1]
        for k in range(i + 2):
            if sum(arow[j] * c for j, c in gcols[k] if j <= i) != shifted[k]:
                raise PropertyViolationError("A @ H and X @ A disagree on the exact window")
    for k in range(t):
        if qp[k][k] != den**k:
            raise PropertyViolationError(f"p_{k} is not monic of degree {k}")


def tau_moments(pair: SequencePair) -> list:
    """Moments tau(t^k) of the sequence's functional: column 0 of A."""
    return [pair.A.rows[k][0] for k in range(pair.size)]


def tau_apply(moments: Sequence, q: Polynomial) -> Fraction:
    """Apply the functional with the given moments to a polynomial."""
    if q.degree >= len(moments):
        raise InsufficientMomentsError(
            f"need moments up to degree {q.degree}, have {len(moments)}"
        )
    return sum((c * moments[j] for j, c in enumerate(q.coeffs)), Fraction(0))
