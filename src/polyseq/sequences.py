r"""Monic polynomial sequences attached to monic Hessenberg matrices.

A monic matrix H of index -1 (ones on the superdiagonal) determines a unique
monic lower triangular A with A@H = X@A, built row by row from row_0 = e_0 via

    row_{j+1} = row_j @ H.

P = A^{-1} is again monic lower triangular, satisfies H@P = P@X, and its rows
are the coefficient vectors of a monic polynomial sequence p_0, p_1, ...
obeying

    p_{k+1}(t) = t*p_k(t) - sum(H[k][j] * p_j(t) for j in range(k + 1)).

Both are computed that way, in integers: with D the lcm of the denominators
in H's lower part, row j of A and row j of P are integer vectors over D^j,
so the pair needs no inverse and no Fraction arithmetic until each entry is
built once, after the identities A@P = I, A@H = X@A and H@P = P@X have been
checked on the integer rows.

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
from .matrix import TruncMatrix, lower_bandwidth, product_exact_rows
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
    return TruncMatrix(rows, index=-1, exact_rows=size)


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
    return TruncMatrix(rows, index=-1, exact_rows=size)


def check_unit_hessenberg(h: TruncMatrix) -> None:
    """Require ones on the superdiagonal and zeros above it."""
    t = h.size
    for i in range(t):
        row = h.rows[i]
        if i + 1 < t and row[i + 1] != 1:
            raise StructureError(f"entry ({i},{i + 1}) must be 1, got {row[i + 1]}")
        for j in range(i + 2, t):
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

    With D the lcm of the denominators of H's entries on and below the
    diagonal and G = D*H, row j of A and row j of P are integer vectors over
    D^j.  The rows q_A[j] = D^j * row_j(A) and q_P[k] = D^k * p_k obey

        q_A[j+1] = q_A[j] @ G,
        q_P[k+1] = D * t * q_P[k] - sum(G[k][j] * D^(k-j) * q_P[j] for j <= k),

    so the pair needs neither an inverse nor Fraction arithmetic.  The
    identities A@P = I, A@H = X@A and H@P = P@X are checked on the integer
    rows, over the windows and with the messages of _verify_pair; failure is
    a hard internal error.  Only then is each entry built, once, as
    Fraction(q, D^j), and polys[k] reads row k of P.
    """
    check_unit_hessenberg(h)
    t = h.size
    qa, qp, den = _integer_rows(h)
    _check_integer_pair(h, qa, qp, den)
    powers = [den**k for k in range(t)]
    a, p = (
        TruncMatrix._trusted(_over_powers(q, powers, t), index=0, exact_rows=t)
        for q in (qa, qp)
    )
    polys = tuple(Polynomial._trusted(row[: k + 1]) for k, row in enumerate(p.rows))
    return SequencePair(H=h, A=a, P=p, polys=polys)


def _integer_rows(h: TruncMatrix):
    """(q_A, q_P, D): rows j of A and of P times D^j, as lists of ints over
    columns 0..j, with D the lcm of the denominators of H's lower part."""
    t = h.size
    lower = [row[: i + 1] for i, row in enumerate(h.rows)]
    den = lcm(*(v.denominator for row in lower for v in row))
    # g[i] lists (j, G[i][j]) for the nonzero entries of row i on or below
    # the diagonal; G[i][i+1] = D.
    g = [
        [(j, v.numerator * (den // v.denominator)) for j, v in enumerate(row) if v]
        for row in lower
    ]
    qa = [[1]]
    for j in range(t - 1):
        acc = [0] * (j + 2)
        for i, a in enumerate(qa[j]):
            if a:
                acc[i + 1] += a * den
                for k, c in g[i]:
                    acc[k] += a * c
        qa.append(acc)
    qp = [[1]]
    for k in range(t - 1):
        acc = [0] + [den * v for v in qp[k]]
        for j, c in g[k]:
            c *= den ** (k - j)
            for i, v in enumerate(qp[j]):
                if v:
                    acc[i] -= c * v
        qp.append(acc)
    return qa, qp, den


def _over_powers(q, powers, t) -> tuple:
    """Rows Fraction(q[j][k], D^j), padded with zeros to t columns."""
    zero = Fraction(0)
    return tuple(
        tuple(Fraction(v, powers[j]) if v else zero for v in row) + (zero,) * (t - j - 1)
        for j, row in enumerate(q)
    )


def _check_integer_pair(h: TruncMatrix, qa, qp, den: int) -> None:
    # _verify_pair on A = q_A / D^j and P = q_P / D^j by rows (index 0, exact
    # on all rows), in integers, with its windows, its order and its messages.
    # Row i of A@P times D^(2i) is sum(q_A[i][j] * D^(i-j) * q_P[j]); row i
    # of A@H times D^(i+1) is q_A[i] @ G, where X@A has q_A[i+1]; row i of
    # H@P times D^(i+1) is sum(G[i][j] * D^(i-j) * q_P[j] for j <= i) +
    # q_P[i+1], where P@X has D * q_P[i] shifted right.  Entries are dot
    # products with columns, which share no loop with the row recurrences.
    t = h.size
    powers = [den**k for k in range(2 * t - 1)]
    pcols = [[qp[j][k] for j in range(k, t)] for k in range(t)]  # from row k down
    for i in range(t):
        arow = [a * powers[i - j] for j, a in enumerate(qa[i])]
        for k in range(i + 1):
            if sum(map(mul, arow[k:], pcols[k])) != (powers[2 * i] if k == i else 0):
                raise PropertyViolationError("A @ P differs from the identity")
    band = lower_bandwidth(h)
    gcols = [[0] * t for _ in range(t)]
    for i, row in enumerate(h.rows):
        for j, v in enumerate(row[: i + 2]):
            if v:
                gcols[j][i] = v.numerator * (den // v.denominator)
    window = min(
        product_exact_rows(t, 0, h.exact_rows, t),
        product_exact_rows(t, -1, t, t),  # X is exact with index -1
    )
    for i in range(window):
        arow, shifted = qa[i], qa[i + 1]
        for k in range(i + 2):
            lo, hi = max(0, k + h.index), min(i, k + band) + 1
            if sum(map(mul, arow[lo:hi], gcols[k][lo:hi])) != shifted[k]:
                raise PropertyViolationError("A @ H and X @ A disagree on the exact window")
    window = min(
        product_exact_rows(h.exact_rows, h.index, t, t),
        product_exact_rows(t, 0, t, t),
    )
    for i in range(window):
        hrow = [gcols[j][i] * powers[i - j] for j in range(i + 1)]
        prow, nxt = qp[i], qp[i + 1]
        for k in range(i + 2):
            lo = max(0, k, i - band)
            got = sum(map(mul, hrow[lo:], pcols[k][lo - k:])) + nxt[k]
            if got != (den * prow[k - 1] if k else 0):
                raise PropertyViolationError("H @ P and P @ X disagree on the exact window")
    for k in range(t):
        if qp[k][k] != powers[k]:
            raise PropertyViolationError(f"p_{k} is not monic of degree {k}")


def _verify_pair(pair: SequencePair) -> None:
    # The identities A@P = I on the whole block, and A@H = X@A, H@P = P@X on
    # the rows the product certificates leave exact, as the generic products
    # would check them, but computed by structure: sums stop at the declared
    # indices (A and P are lower triangular), row i of X@A is row i+1 of A,
    # column k of P@X is column k-1 of P, and sums through H visit only its
    # band.
    h, a, p = pair.H, pair.A, pair.P
    t = pair.size
    if a.size != t or p.size != t:
        raise StructureError(f"size mismatch: H {t}, A {a.size}, P {p.size}")
    hr, ar, pr = h.rows, a.rows, p.rows
    for i in range(t):
        acc = [0] * t  # row i of A@P
        for j, c in enumerate(ar[i][: max(0, i - a.index + 1)]):
            if c:
                for k, v in enumerate(pr[j][: max(0, j - p.index + 1)]):
                    if v:
                        acc[k] += c * v
        acc[i] -= 1
        if any(acc):
            raise PropertyViolationError("A @ P differs from the identity")
    band = lower_bandwidth(h)
    window = min(
        product_exact_rows(a.exact_rows, a.index, h.exact_rows, t),
        product_exact_rows(t, -1, a.exact_rows, t),  # X is exact with index -1
    )
    for i in range(window):
        arow, shifted = ar[i], ar[i + 1]
        for k in range(t):
            lo = max(0, k + h.index)
            hi = min(t - 1, i - a.index, k + band)
            if _dot(arow, hr, k, lo, hi) != shifted[k]:
                raise PropertyViolationError("A @ H and X @ A disagree on the exact window")
    window = min(
        product_exact_rows(h.exact_rows, h.index, p.exact_rows, t),
        product_exact_rows(p.exact_rows, p.index, t, t),
    )
    for i in range(window):
        hrow, prow = hr[i], pr[i]
        for k in range(t):
            lo = max(0, k + p.index, i - band)
            hi = min(t - 1, i - h.index)
            if _dot(hrow, pr, k, lo, hi) != (prow[k - 1] if k else 0):
                raise PropertyViolationError("H @ P and P @ X disagree on the exact window")
    for k, poly in enumerate(pair.polys):
        if poly.degree != k or not poly.is_monic:
            raise PropertyViolationError(f"p_{k} is not monic of degree {k}")


def _dot(row, rows, k, lo, hi):
    """sum(row[j] * rows[j][k] for j in lo..hi), skipping zero factors."""
    acc = 0
    for j in range(lo, hi + 1):
        v = row[j]
        if v:
            w = rows[j][k]
            if w:
                acc += v * w
    return acc


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
