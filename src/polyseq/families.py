"""Three classical tridiagonal families and their linearization coefficients.

Each family is a monic Hessenberg matrix built from the shift and derivative
operators (a != 0 throughout):

    chebyshev:  H = a*Xhat + b*I + X          beta_k = b,     alpha_n = a
    hermite:    H = X + b*I + a*D             beta_k = b,     alpha_n = n*a
    charlier:   H = X + X@D + (a-1)*I + a*D   beta_k = k + a, alpha_n = n*a

realize_H fills a truncation from family_tridiagonal.  For these families
the linearization coefficients d(n,m,k) have a closed sum, closed_d, that
needs no H: `family --pnh` and `--slice` read it, and `family --series`
writes the P and A of sequences.build_P_recurrence.  The paper's operator
sums for p_n(H) and the slices, and the exponential series for P, are
oracles in crosscheck.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial

from .errors import FamilyError

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


def slice_closed_size(k: int, n_max: int) -> int:
    """Truncation size of the operator-sum slice (crosscheck.family_slice_closed):
    each Dhat/X factor costs a row.  `family --slice` keeps it as its size cap."""
    return n_max + k + 2


def closed_d(params: FamilyParams, n: int, m: int, k: int) -> Fraction:
    """d(n,m,k), p_n * p_m = sum_k d(n,m,k) p_k, as a closed sum (n, m, k >= 0).

    None depends on b.  With j = (n+m-k)/2, chebyshev gives a^j and hermite
    j! C(n,j) C(m,j) a^j when j is an integer in 0..min(n,m), and 0 otherwise.
    charlier gives sum_r n! m! a^r / (r! (n+m-k-2r)! (k-m+r)! (k-n+r)!) over
    the r >= 0 with no negative factorial argument, from sum_n p_n(x) t^n/n!
    = e^(-at) (1+t)^x (Koekoek, Lesky, Swarttouw 2010, 9.14).
    """
    a = params.a
    j, odd = divmod(n + m - k, 2)
    if params.name == "charlier":
        low = max(0, n - k, m - k)
        if low > j:
            return Fraction(0)
        # ints over q^j, a = p/q: n!/(r! (n+m-k-2r)! (k-m+r)!), m!/(k-n+r)! are ints
        num, p, q = factorial(n) * factorial(m), a.numerator, a.denominator
        total = sum(
            num // (factorial(r) * factorial(n + m - k - 2 * r)
                    * factorial(k - m + r) * factorial(k - n + r)) * p**r * q ** (j - r)
            for r in range(low, j + 1)
        )
        return Fraction(total, q**j)
    if odd or not 0 <= j <= min(n, m):
        return Fraction(0)
    if params.name == "chebyshev":
        return a**j
    return factorial(j) * comb(n, j) * comb(m, j) * a**j
