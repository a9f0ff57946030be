"""Closed-form constructions for three classical tridiagonal families.

Each family is a monic Hessenberg matrix built from the shift and derivative
operators (a != 0 throughout):

    chebyshev:  H = a*Xhat + b*I + X          beta_k = b,     alpha_n = a
    hermite:    H = X + b*I + a*D             beta_k = b,     alpha_n = n*a
    charlier:   H = X + X@D + (a-1)*I + a*D   beta_k = k + a, alpha_n = n*a

For these the basis-polynomial matrices p_n(H) and the linearization slices
are closed sums of one shape, sum_j w_j L^j S^(n-j) [A] R^(n-j): the table
_SUMS lists each family's operators and _closed_sum evaluates them.  For
chebyshev/hermite the coefficient matrix P itself is a terminating
exponential series, _exp_series.  All of it is evaluated with the generic
truncated-matrix arithmetic so the results can be compared, entry by entry,
with the recurrence routes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from math import comb, factorial
from operator import matmul

from .errors import FamilyError
from .matrix import TruncMatrix, identity, make_operator

FAMILY_NAMES = ("chebyshev", "hermite", "charlier")


@dataclass(frozen=True)
class FamilyParams:
    name: str
    a: Fraction
    b: Fraction = field(default_factory=lambda: Fraction(0))

    def __post_init__(self):
        if self.name not in FAMILY_NAMES:
            raise FamilyError(f"unknown family {self.name!r}; expected one of {FAMILY_NAMES}")
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if self.a == 0:
            raise FamilyError(f"family {self.name!r} needs a != 0")


def family_tridiagonal(params: FamilyParams, size: int):
    """The (beta, alpha) recurrence data filling a size-T truncation.

    Returns beta_0..beta_{T-1} and alpha_1..alpha_{T-1}.
    """
    a, b = params.a, params.b
    beta = [a + k if params.name == "charlier" else b for k in range(size)]
    alpha = [a if params.name == "chebyshev" else a * n for n in range(1, size)]
    return beta, alpha


# name -> (L, S is I + D, slice R, binomial weights) of the closed sums
_SUMS = {
    "chebyshev": ("Xhat", False, "X", False),
    "hermite": ("D", False, "Dhat", True),
    "charlier": ("D", True, "Dhat", True),
}


def _powers(seed: TruncMatrix, count: int):
    """[seed^0, seed^1, ..., seed^count] via repeated products."""
    pows = [identity(seed.size)]
    for _ in range(count):
        pows.append(pows[-1] @ seed)
    return pows


def _closed_sum(params: FamilyParams, n: int, size: int, c, right: str, middle=None):
    """sum_j c^j [C(n,j)] L^j @ S^(n-j) @ [middle] @ right^(n-j), j = 0..n,
    with L, S and the binomial weights from the family's _SUMS entry."""
    left, shifted, _, binomial = _SUMS[params.name]
    lpow = _powers(make_operator(left, size), n)
    rpow = _powers(make_operator(right, size), n)
    spow = _powers(identity(size) + make_operator("D", size), n) if shifted else None
    acc = None
    for j in range(n + 1):
        term = lpow[j].scale(c**j * (comb(n, j) if binomial else 1))
        if shifted:
            term = term @ spow[n - j]
        if middle is not None:
            term = term @ middle
        term = term @ rpow[n - j]
        acc = term if acc is None else acc + term
    return acc


def family_pnh_closed(params: FamilyParams, n: int, size: int) -> TruncMatrix:
    """The matrix p_n(H) of the n-th basis polynomial, from the closed sum.

    chebyshev: p_n(H) = sum_k a^k Xhat^k X^(n-k)          (independent of b)
    hermite:   p_n(H) = sum_k C(n,k) a^k D^k X^(n-k)
    charlier:  p_n(H) = sum_k C(n,k) a^k D^k (I+D)^(n-k) X^(n-k)

    The caller picks the truncation size; every X factor costs one certified
    row, so the result is exact on rows 0..size-n-1 at least.
    """
    if n < 0:
        raise FamilyError("n must be nonnegative")
    return _closed_sum(params, n, size, params.a, "X")


def slice_closed_size(k: int, n_max: int) -> int:
    """Truncation size family_slice_closed works at: each Dhat/X factor costs a row."""
    return n_max + k + 2


def family_slice_closed(params: FamilyParams, k: int, n_max: int):
    """The k-th linearization slice, (n_max+1) square, from the closed sum.

    With A the diagonal matrix of squared norms (A[n][n] = prod of the first
    n alphas), the slice is

    chebyshev: sum_j Xhat^j A X^(k-j)                       A[n][n] = a^n
    hermite:   (1/k!) sum_j C(k,j) D^j A Dhat^(k-j)         A[n][n] = n! a^n
    charlier:  (1/k!) sum_j C(k,j) D^j (I+D)^(k-j) A Dhat^(k-j), same A
    """
    if k < 0 or n_max < 0:
        raise FamilyError("k and n_max must be nonnegative")
    a = params.a
    size = slice_closed_size(k, n_max)
    _, _, right, binomial = _SUMS[params.name]
    diag = [(factorial(i) if binomial else 1) * a**i for i in range(size)]
    norms = TruncMatrix(
        [[diag[i] if i == j else 0 for j in range(size)] for i in range(size)], index=0
    )
    acc = _closed_sum(params, k, size, 1, right, norms)
    if binomial:
        acc = acc.scale(Fraction(1, factorial(k)))
    assert acc.exact_rows >= n_max + 1, "internal margin too small"
    return [list(row[: n_max + 1]) for row in acc.rows[: n_max + 1]]


def _exp_series(size: int, *factors: TruncMatrix) -> TruncMatrix:
    """sum_{k<T} (F1^k @ F2^k @ ...) / k!, accumulated from the k = 0 term I."""
    acc = identity(size)
    powers = [acc] * len(factors)
    for k in range(1, size):
        powers = [p @ f for p, f in zip(powers, factors)]
        acc = acc + reduce(matmul, powers).scale(Fraction(1, factorial(k)))
    return acc


def cheby_series_p(params: FamilyParams, size: int) -> TruncMatrix:
    """Coefficient matrix P for the chebyshev family as a terminating series.

    P = sum_k (X - H)^k D^k / k!.  Here X - H = -(a*Xhat + b*I), built
    directly from operators so the index-0 certificate survives; the k-th
    term has index >= k, so the sum terminates at k = size - 1 inside the
    truncation and the result is exact on the whole block.
    """
    if params.name != "chebyshev":
        raise FamilyError(f"series form of P is for chebyshev, not {params.name!r}")
    xmh = make_operator("Xhat", size).scale(-params.a) + identity(size).scale(-params.b)
    return _exp_series(size, xmh, make_operator("D", size))


def hermite_exp_p(params: FamilyParams, size: int, inverse: bool = False) -> TruncMatrix:
    """Coefficient matrix P (or its inverse) for the hermite family.

    P = exp(-(b*D + (a/2)*D^2)) and P^{-1} = exp(+(b*D + (a/2)*D^2)); the
    argument has index >= 1, so both series terminate within the truncation
    and are exact on the whole block.  Column 0 of P^{-1} lists the moments,
    and flipping (a, b) -> (-a, -b) swaps the two series.
    """
    if params.name != "hermite":
        raise FamilyError(f"exponential form of P is for hermite, not {params.name!r}")
    d = make_operator("D", size)
    arg = d.scale(params.b) + (d @ d).scale(params.a / 2)
    return _exp_series(size, arg if inverse else -arg)
