"""Closed-form constructions for three classical tridiagonal families.

Each family is a monic Hessenberg matrix built from the shift and derivative
operators (a != 0 throughout):

    chebyshev:  H = a*Xhat + b*I + X          beta_k = b,     alpha_n = a
    hermite:    H = X + b*I + a*D             beta_k = b,     alpha_n = n*a
    charlier:   H = X + X@D + (a-1)*I + a*D   beta_k = k + a, alpha_n = n*a

For these the basis-polynomial matrices p_n(H) and the linearization slices
admit closed sums over shifted diagonal operators, and for chebyshev/hermite
the coefficient matrix P itself is a terminating operator series.  All of it
is evaluated here with the generic truncated-matrix arithmetic so the results
can be compared, entry by entry, with the recurrence routes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial

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
    if params.name == "chebyshev":
        beta = [b] * size
        alpha = [a] * (size - 1)
    elif params.name == "hermite":
        beta = [b] * size
        alpha = [a * n for n in range(1, size)]
    else:  # charlier
        beta = [a + k for k in range(size)]
        alpha = [a * n for n in range(1, size)]
    return beta, alpha


def _powers(seed: TruncMatrix, count: int):
    """[seed^0, seed^1, ..., seed^count] via repeated products."""
    pows = [identity(seed.size)]
    for _ in range(count):
        pows.append(pows[-1] @ seed)
    return pows


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
    a = params.a
    x = make_operator("X", size)
    xpow = _powers(x, n)
    if params.name == "chebyshev":
        up = _powers(make_operator("Xhat", size), n)
        terms = (up[k].scale(a**k) @ xpow[n - k] for k in range(n + 1))
    elif params.name == "hermite":
        dpow = _powers(make_operator("D", size), n)
        terms = (
            dpow[k].scale(comb(n, k) * a**k) @ xpow[n - k] for k in range(n + 1)
        )
    else:  # charlier
        d = make_operator("D", size)
        dpow = _powers(d, n)
        idpow = _powers(identity(size) + d, n)
        terms = (
            (dpow[k].scale(comb(n, k) * a**k) @ idpow[n - k]) @ xpow[n - k]
            for k in range(n + 1)
        )
    acc = None
    for term in terms:
        acc = term if acc is None else acc + term
    return acc


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
    if params.name == "chebyshev":
        diag = [a**i for i in range(size)]
    else:
        diag = [factorial(i) * a**i for i in range(size)]
    norms_rows = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        norms_rows[i][i] = diag[i]
    norms = TruncMatrix(norms_rows, index=0)
    acc = None
    if params.name == "chebyshev":
        up = _powers(make_operator("Xhat", size), k)
        xpow = _powers(make_operator("X", size), k)
        for j in range(k + 1):
            term = (up[j] @ norms) @ xpow[k - j]
            acc = term if acc is None else acc + term
    else:
        d = make_operator("D", size)
        dpow = _powers(d, k)
        dhpow = _powers(make_operator("Dhat", size), k)
        idpow = _powers(identity(size) + d, k) if params.name == "charlier" else None
        for j in range(k + 1):
            left = dpow[j].scale(comb(k, j))
            if idpow is not None:
                left = left @ idpow[k - j]
            term = (left @ norms) @ dhpow[k - j]
            acc = term if acc is None else acc + term
        acc = acc.scale(Fraction(1, factorial(k)))
    assert acc.exact_rows >= n_max + 1, "internal margin too small"
    return [list(row[: n_max + 1]) for row in acc.rows[: n_max + 1]]


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
    d = make_operator("D", size)
    acc = identity(size)
    base = identity(size)
    dk = identity(size)
    for k in range(1, size):
        base = base @ xmh
        dk = dk @ d
        acc = acc + (base @ dk).scale(Fraction(1, factorial(k)))
    return acc


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
    if not inverse:
        arg = -arg
    acc = identity(size)
    power = identity(size)
    for k in range(1, size):
        power = power @ arg
        acc = acc + power.scale(Fraction(1, factorial(k)))
    return acc
