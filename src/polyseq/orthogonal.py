r"""Orthogonal polynomial sequences: tridiagonal H, three-term recurrences.

When H is tridiagonal with rows (alpha_k, beta_k, 1) and every alpha_k is
nonzero, the sequence satisfies

    p_{n+1}(t) = (t - beta_n) p_n(t) - alpha_n p_{n-1}(t)

and is orthogonal for the moment functional tau read off column 0 of A:

    tau(p_n p_m) = 0 for n != m,   tau(p_n^2) = alpha_1 * ... * alpha_n.

The fixed-k linearization slice then obeys a four-term scalar recurrence

    d(n+1,m,k) = d(n,m+1,k) + (beta_m - beta_n) d(n,m,k)
                 + alpha_m d(n,m-1,k) - alpha_n d(n-1,m,k)

with out-of-range d treated as zero (crosscheck.op_lin_recurrence, an
oracle for lin_tensor_direct).  Slice k = 0 is the diagonal matrix of
squared norms.

Banded generalization: if H is monic of index -1 with nonzero entries only on
diagonals -1..band-2, then tau(p_n p_m) = 0 whenever m >= (band-2)*n + 1
(e.g. band 4: m >= 2n+1; band 5: m >= 3n+1).  partial_orthogonality_check
tests this claim entry by entry, as tau(p_n p_m) = d(n,m,0) (tau(p_k) = 0
for k >= 1) read off the row kernel; orthogonality_table is verify's oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    PolyseqError,
    SpecTooShortError,
    StructureError,
    WindowError,
    ZeroAlphaError,
)
from .linearize import LinTensor, check_h_window, required_size
from .matrix import TruncMatrix, first_below_band
from .sequences import (
    HSpec,
    SequencePair,
    build_P_recurrence,
    integer_band,
    poly_rows,
    realize_H,
    tau_apply,
    tau_moments,
)


@dataclass(frozen=True)
class ThreeTermRecurrence:
    """Recurrence data: beta[k] = beta_k for k >= 0, alpha[i] = alpha_{i+1}."""

    beta: tuple
    alpha: tuple

    def __init__(self, beta: Sequence, alpha: Sequence):
        object.__setattr__(self, "beta", tuple(Fraction(b) for b in beta))
        object.__setattr__(self, "alpha", tuple(Fraction(a) for a in alpha))

    def require(self, n_beta: int, n_alpha: int) -> None:
        """Demand enough coefficients, all used alphas nonzero."""
        if len(self.beta) < n_beta:
            raise SpecTooShortError("beta list", n_beta, len(self.beta))
        if len(self.alpha) < n_alpha:
            raise SpecTooShortError("alpha list", n_alpha, len(self.alpha))
        for i in range(n_alpha):
            if self.alpha[i] == 0:
                raise ZeroAlphaError(i + 1)

    def alpha_at(self, n: int) -> Fraction:
        """alpha_n (n >= 1)."""
        return self.alpha[n - 1]


def op_sequence(rec: ThreeTermRecurrence, size: int) -> SequencePair:
    """The sequence pair of the tridiagonal matrix a recurrence describes."""
    rec.require(size, size - 1)
    h = realize_H(HSpec.tridiagonal(rec.beta, rec.alpha), size)
    return build_P_recurrence(h)


def recurrence_coefficients(h: TruncMatrix):
    """(beta, alpha) read off a truncation that is orthogonal: tridiagonal
    with every alpha_k (k = 1..T-1) nonzero.  Raises StructureError at the
    first entry below the subdiagonal, else ZeroAlphaError at the first zero
    alpha."""
    hit = first_below_band(h, 1)
    if hit is not None:
        raise StructureError(f"entry ({hit[0]},{hit[1]}) is nonzero; matrix is not tridiagonal")
    alpha = [h.rows[k][k - 1] for k in range(1, h.size)]
    for k, a in enumerate(alpha, 1):
        if a == 0:
            raise ZeroAlphaError(k)
    return [h.rows[k][k] for k in range(h.size)], alpha


def squared_norms(rec: ThreeTermRecurrence, n_max: int) -> list:
    """[tau(p_n^2) for n <= n_max] = running products of the alphas."""
    rec.require(1, n_max)
    out = [Fraction(1)]
    for n in range(1, n_max + 1):
        out.append(out[-1] * rec.alpha_at(n))
    return out


def orthogonality_table(pair: SequencePair, n_max: int) -> list:
    """G[n][m] = tau(p_n * p_m) via the moment functional on raw products."""
    required = required_size(n_max)
    if pair.size < required:
        raise WindowError(required, pair.size, f"orthogonality_table(n_max={n_max})")
    moments = tau_moments(pair)
    table = [[Fraction(0)] * (n_max + 1) for _ in range(n_max + 1)]
    for n in range(n_max + 1):
        for m in range(n, n_max + 1):
            v = tau_apply(moments, pair.polys[n] * pair.polys[m])
            table[n][m] = table[m][n] = v
    return table


def support_check(tensor: LinTensor):
    """Orthogonal-case support bound: d(n,m,k) = 0 whenever k < |n - m|.

    Returns (True, None) or (False, (n, m, k)) for the first violation.
    """
    for k in range(tensor.k_max + 1):
        sl = tensor.slices[k]
        for n in range(tensor.n_max + 1):
            for m in range(tensor.n_max + 1):
                if k < abs(n - m) and sl[n][m] != 0:
                    return False, (n, m, k)
    return True, None


def partial_orthogonality_check(h: TruncMatrix | SequencePair, band: int, n_max: int):
    """Test tau(p_n p_m) = 0 for m >= (band-2)*n + 1, n, m <= n_max.

    h (or a SequencePair's H) must be monic of index -1 with no entries
    below diagonal band-2 (a narrower matrix passes; the claim is weaker).
    tau(p_n p_m) is entry 0 of the poly_rows run from e_n at step m; the runs
    read rows 0..max_deg-1 of H.  Returns (True, None) or (False, (n, m)).
    """
    if band < 3:
        raise PolyseqError(f"band must be at least 3, got {band}")
    spread = band - 2
    h = h.H if isinstance(h, SequencePair) else h
    hit = first_below_band(h, spread)
    if hit is not None:
        raise StructureError(
            f"entry ({hit[0]},{hit[1]}) lies below diagonal {spread}; "
            f"matrix is wider than band {band}"
        )
    max_n = (n_max - 1) // spread if n_max >= 1 else 0
    max_deg = max_n + n_max
    (h,) = check_h_window(f"partial_orthogonality_check(n_max={n_max})", max_deg, h)
    den, (g,) = integer_band((h, max_deg))
    for n in range(max_n + 1):
        run = poly_rows(g, g, den, n_max + 1, start=[0] * n + [1])
        for m in range(spread * n + 1, n_max + 1):
            if run[m][0]:
                return False, (n, m)
    return True, None
