"""Truncations of infinite lower Hessenberg-type matrices over the rationals.

An infinite matrix (a[j][k], j,k >= 0) "has index m" when a[j][k] = 0 whenever
j - k < m: all entries live on or below the m-th diagonal.  Index -1 gives a
lower Hessenberg matrix (one superdiagonal), index 0 a lower triangular one.
The product of a matrix of index m with one of index n has index m + n, and
each product entry is a finite sum:

    c[i][k] = sum(a[i][j] * b[j][k] for j in range(k + n, i - m + 1))

A TruncMatrix stores the leading T x T block of such a matrix together with
its declared index (a certified lower bound on the true index) and an
``exact_rows`` certificate: rows 0..exact_rows-1 of the stored block are
guaranteed to coincide with the untruncated object.  Multiplication shrinks
the certificate exactly when the left factor reaches above the stored block:
row i of A@B needs rows of B up to i - ind(A), so

    exact_rows(A@B) = min(er(A), er(B) + ind(A), T + ind(A))

clamped to [0, T].  Only factors of negative index ever lose rows; triangular
work (index >= 0) is exact under truncation.

The kernels here skip stored zeros, which include every entry outside a
declared index, so a product costs one term per pair of nonzero factors.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import NotInvertibleError, StructureError
from .polynomial import Polynomial

# kind -> (index, weight): row i holds weight(i) at column i - index, its
# only entry.
_OPERATORS = {
    "X": (-1, lambda i: 1),  # right shift: ones on the first superdiagonal
    "Xhat": (1, lambda i: 1),  # left shift, the transpose of X
    "D": (1, lambda i: i),  # derivative in the monomial basis: D[k+1][k] = k+1
    "Dhat": (-1, lambda i: i + 1),  # transpose of D
    "I": (0, lambda i: 1),  # identity
    "J0": (0, lambda i: 1 if i else 0),  # identity with the (0,0) entry zeroed
}
OPERATOR_KINDS = tuple(_OPERATORS)

_ZERO = Fraction(0)
_ONE = Fraction(1)


class TruncMatrix:
    """A T x T truncation with a declared index and an exactness certificate."""

    __slots__ = ("size", "index", "rows", "exact_rows")

    def __init__(self, rows: Iterable[Sequence], index: int, exact_rows: int | None = None):
        rows = tuple(tuple(Fraction(v) for v in row) for row in rows)
        size = len(rows)
        for row in rows:
            if len(row) != size:
                raise StructureError("matrix rows must form a square block")
        for i, row in enumerate(rows):
            for k, v in enumerate(row):
                if v != 0 and i - k < index:
                    raise StructureError(
                        f"entry ({i},{k}) is nonzero but declared index {index} "
                        f"demands zeros above diagonal {index}"
                    )
        self.rows = rows
        self.size = size
        self.index = index
        self.exact_rows = size if exact_rows is None else max(0, min(size, exact_rows))

    @classmethod
    def _trusted(cls, rows: tuple, index: int, exact_rows: int) -> "TruncMatrix":
        """A block whose caller guarantees what __init__ checks: a square tuple
        of tuples of Fractions, zero above diagonal `index`, and 0 <=
        exact_rows <= size.  The results of +, -, scale, mat_mul,
        lower_tri_inverse, make_operator and zeros are built this way: their
        entries are Fractions and their zeros above the index hold by
        construction."""
        m = object.__new__(cls)
        m.rows, m.size, m.index, m.exact_rows = rows, len(rows), index, exact_rows
        return m

    # -- access ------------------------------------------------------------

    def entry(self, i: int, k: int) -> Fraction:
        return self.rows[i][k]

    def leading(self, n: int) -> "TruncMatrix":
        """Leading n x n principal submatrix (certificate clipped to n)."""
        if n > self.size:
            raise StructureError(f"cannot take leading {n} block of size {self.size}")
        return TruncMatrix(
            (row[:n] for row in self.rows[:n]),
            index=self.index,
            exact_rows=min(self.exact_rows, n),
        )

    def __eq__(self, other) -> bool:
        # Structural equality of the stored blocks; certificates are metadata.
        return (
            isinstance(other, TruncMatrix)
            and self.size == other.size
            and self.rows == other.rows
        )

    __hash__ = None  # type: ignore[assignment]

    def equal_on_window(self, other: "TruncMatrix") -> bool:
        """Equality on the block both certificates guarantee exact."""
        return equal_on_window(self, other)

    def __repr__(self) -> str:
        return (
            f"TruncMatrix(size={self.size}, index={self.index}, "
            f"exact_rows={self.exact_rows})"
        )

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "TruncMatrix") -> "TruncMatrix":
        _check_sizes(self, other)
        return TruncMatrix._trusted(
            tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)),
            index=min(self.index, other.index),
            exact_rows=min(self.exact_rows, other.exact_rows),
        )

    def __sub__(self, other: "TruncMatrix") -> "TruncMatrix":
        _check_sizes(self, other)
        return TruncMatrix._trusted(
            tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)),
            index=min(self.index, other.index),
            exact_rows=min(self.exact_rows, other.exact_rows),
        )

    def __neg__(self) -> "TruncMatrix":
        return self.scale(-1)

    def scale(self, c) -> "TruncMatrix":
        c = Fraction(c)
        return TruncMatrix._trusted(
            tuple(tuple(c * v for v in row) for row in self.rows),
            index=self.index,
            exact_rows=self.exact_rows,
        )

    def __matmul__(self, other: "TruncMatrix") -> "TruncMatrix":
        return mat_mul(self, other)


def _check_sizes(a: TruncMatrix, b: TruncMatrix) -> None:
    if a.size != b.size:
        raise StructureError(f"size mismatch: {a.size} vs {b.size}")


def zeros(size: int) -> TruncMatrix:
    # The zero matrix vacuously has every index; declaring `size` certifies
    # there is no nonzero diagonal inside the truncation at all.
    return TruncMatrix._trusted(((_ZERO,) * size,) * size, index=size, exact_rows=size)


def identity(size: int) -> TruncMatrix:
    return make_operator("I", size)


def make_operator(kind: str, size: int) -> TruncMatrix:
    """One of the standard operators of _OPERATORS as an exact T x T truncation."""
    if size < 1:
        raise StructureError("size must be at least 1")
    if kind not in _OPERATORS:
        raise ValueError(
            f"unknown operator kind {kind!r}; expected one of {OPERATOR_KINDS}"
        )
    index, weight = _OPERATORS[kind]
    rows = []
    for i in range(size):
        row = [_ZERO] * size
        if 0 <= i - index < size:
            row[i - index] = Fraction(weight(i))
        rows.append(tuple(row))
    return TruncMatrix._trusted(tuple(rows), index=index, exact_rows=size)


def mat_mul(a: TruncMatrix, b: TruncMatrix) -> TruncMatrix:
    """Product of stored blocks: row i sums a[i][j] * (row j of b) over the
    nonzero a[i][j] and the nonzero entries of row j.  Zeros are skipped, so
    no structural zero is touched; the index is ind(A) + ind(B), and the
    certificate follows the rule in the module docstring.
    """
    _check_sizes(a, b)
    t = a.size
    b_nz = [[(k, v) for k, v in enumerate(row) if v] for row in b.rows]
    out = []
    for arow in a.rows:
        row = [_ZERO] * t
        for j, av in enumerate(arow):
            if av:
                for k, bv in b_nz[j]:
                    row[k] += av * bv
        out.append(tuple(row))
    er = max(0, min(a.exact_rows, b.exact_rows + a.index, t + a.index, t))
    return TruncMatrix._trusted(tuple(out), index=a.index + b.index, exact_rows=er)


def _row_starts(a: TruncMatrix) -> list:
    # Column of the first nonzero entry of each row (a.size for a zero row).
    return [next((j for j, v in enumerate(row) if v), a.size) for row in a.rows]


def lower_bandwidth(a: TruncMatrix) -> int:
    """Largest i - j over the nonzero entries a[i][j].

    Every nonzero entry lies within this many diagonals below the main one.
    A zero row i counts as i - size, so a block with no entry on or below
    its diagonal (the shift X, the zero matrix) reports at most -1.
    """
    return max(i - j for i, j in enumerate(_row_starts(a)))


def first_below_band(a: TruncMatrix, band: int):
    """First nonzero entry (i, j) in row-major order with i - j > band, or None."""
    for i, j in enumerate(_row_starts(a)):
        if i - j > band:
            return i, j
    return None


def lower_tri_inverse(a: TruncMatrix) -> TruncMatrix:
    """Exact inverse of a lower triangular truncation by forward substitution
    over nonzero entries: row_i = (e_i - sum_{j<i} a[i][j] row_j) / a[i][i].

    Row i of the inverse only involves rows 0..i of the input, so truncation
    loses nothing: the certificate carries over unchanged.
    """
    if a.index < 0:
        raise StructureError(
            f"inverse needs a lower triangular matrix (index >= 0), got index {a.index}"
        )
    t = a.size
    inv, inv_nz = [], []
    for i, arow in enumerate(a.rows):
        piv = arow[i]
        if piv == 0:
            raise NotInvertibleError(i)
        row = [_ZERO] * t
        row[i] = _ONE
        for j in range(i):
            av = arow[j]
            if av:
                for k, v in inv_nz[j]:
                    row[k] -= av * v
        row = tuple(v / piv if v else _ZERO for v in row)
        inv.append(row)
        inv_nz.append([(k, v) for k, v in enumerate(row) if v])
    return TruncMatrix._trusted(tuple(inv), index=0, exact_rows=a.exact_rows)


def poly_of_matrix(w: Polynomial, m: TruncMatrix) -> TruncMatrix:
    """Evaluate w at a matrix truncation by Horner's rule.

    Each multiplication by a negative-index matrix costs exact rows per the
    product rule; for index >= 0 the result is exact on the whole block.
    """
    t = m.size
    if w.is_zero:
        return zeros(t)
    coeffs = w.coeffs
    eye = identity(t)
    acc = eye.scale(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = acc @ m
        if c != 0:
            acc = acc + eye.scale(c)
    return acc


def equal_on_window(a: TruncMatrix, b: TruncMatrix) -> bool:
    """Compare two truncations on the block both certify exact.

    Rows up to the smaller certificate, columns up to the smaller size.  The
    blocks may have different sizes; both represent the same infinite object
    wherever their certificates overlap.
    """
    rows = min(a.exact_rows, b.exact_rows)
    cols = min(a.size, b.size)
    for i in range(rows):
        ra, rb = a.rows[i], b.rows[i]
        for k in range(cols):
            if ra[k] != rb[k]:
                return False
    return True


def window_rows(a: TruncMatrix, b: TruncMatrix) -> int:
    """Number of leading rows on which a and b are both certified exact."""
    return min(a.exact_rows, b.exact_rows)
