r"""Linearization, mixed and connection coefficients by matrix methods.

For the sequence p_k attached to a monic Hessenberg H, multiplication by any
polynomial w expands in the same basis through the matrix w(H):

    p_n(t) * w(t) = sum_k w(H)[n][k] * p_k(t).

Taking w = p_m gives the linearization coefficients

    d(n, m, k) = p_m(H)[n][k],       p_n * p_m = sum_k d(n,m,k) p_k,

computed here from H alone (no sequence pair).  p_m(H) commutes with H, so
row n of p_m(H) obeys a recurrence on row vectors alone:

    row_n p_{m+1}(H) = row_n p_m(H) @ H - sum(H[m][j] * row_n p_j(H) for j <= m),

started at e_n.  That is sequences.poly_rows, the library's one row kernel,
run in integers over one denominator D of the entries of H it reads, once
for each n <= N, and normalised to Fractions once at the end.  The scalar
recurrence for a fixed-k slice, which restates the same object, is an oracle
in crosscheck.  The slices satisfy four structural identities; the first
and third are checked on the integer rows (_run_tensor, which e shares), and
the other two follow from the runs' lengths and starts:

    d(n,m,k) = d(m,n,k);  d = 0 if n+m < k;  d = 1 if n+m = k;
    d(0,m,k) = 1 if m == k else 0.

With a second sequence u_k attached to K = H_u, the connection coefficients
p_m = sum_k C[m][k] u_k are row 0 of p_m(K): the same kernel, with p's
recurrence at K, from e_0.  Row 0 of K^j is row j of A_u, so C = P_p @ A_u,
a test oracle.  C is unit lower triangular, and its two directions multiply
to the identity on the kernel's integer rows (sequences.inverse_defect, the
pair's check).  Row 0 of (p_n p_m)(K) = p_n(K) p_m(K) gives the mixed
coefficients, p_n * p_m = sum_k e(n,m,k) u_k, as e(n,m,.) = C[n] @ p_m(K):
the kernel once more, from the row vector C[n].
Every kernel here reads H alone (a pair stands for its H) and has one
window gate, check_h_window, and a D from exactly the rows its runs read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import PropertyViolationError, StructureError, WindowError
from .matrix import TruncMatrix
from .polynomial import Polynomial
from .sequences import (
    SequencePair,
    check_unit_hessenberg,
    fraction_rows,
    integer_band,
    inverse_defect,
    poly_rows,
)


@dataclass(frozen=True)
class LinTensor:
    """Slices slices[k][n][m] = coefficient of basis element k for the
    product of sequence members n and m; k runs 0..k_max = 2*n_max."""

    n_max: int
    k_max: int
    slices: tuple

    @classmethod
    def from_slices(cls, n_max: int, slice_of_k) -> "LinTensor":
        """Stack slice_of_k(k), an (n_max+1)-square grid, for k = 0..2*n_max."""
        slices = tuple(tuple(map(tuple, slice_of_k(k))) for k in range(2 * n_max + 1))
        return cls(n_max=n_max, k_max=2 * n_max, slices=slices)

    def value(self, n: int, m: int, k: int) -> Fraction:
        if k > self.k_max:
            return Fraction(0)
        return self.slices[k][n][m]


def required_size(n_max: int) -> int:
    """Truncation size guaranteeing exact output up to n_max (one extra row
    of safety margin)."""
    return 2 * n_max + 2


def linearize_with_w(h, w: Polynomial, n: int) -> list:
    """Coefficients of p_n * w in the p-basis: row n of w(H), length n+deg+1.

    h is H (a SequencePair stands for its H).  One run of sequences.poly_rows
    from e_n, with X's empty band as p, gives D^j * (row n of H^j) at step j.
    It reads rows 0..n+deg-1 of H (check_h_window: T >= n+deg+2)."""
    deg = max(w.degree, 0)
    (h,) = check_h_window(f"linearize_with_w(n={n}, deg={deg})", n + deg, h)
    den, (g,) = integer_band((h, n + deg))
    runs = poly_rows([()] * deg, g, den, deg + 1, start=[0] * n + [1])
    wden = lcm(*(c.denominator for c in w.coeffs))
    acc = [0] * (n + deg + 1)
    for j, (c, run) in enumerate(zip(w.coeffs, runs)):
        c = c.numerator * (wden // c.denominator) * den ** (deg - j)
        for k, v in enumerate(run):
            acc[k] += c * v
    top = wden * den**deg
    return [Fraction(v, top) for v in acc]


def check_h_window(what: str, rows: int, *hs) -> tuple:
    """The window rule of every kernel that reads rows 0..rows-1 of H.

    Each argument is an H (a SequencePair stands for its H).  Demands, in
    this order: truncations of size >= rows+2, of one size, certified on rows
    0..rows-1, and unit Hessenberg.  Returns the H's.
    """
    hs = tuple(h.H if isinstance(h, SequencePair) else h for h in hs)
    size = min(h.size for h in hs)
    if size < rows + 2:
        raise WindowError(rows + 2, size, what)
    if len({h.size for h in hs}) > 1:
        raise StructureError(f"size mismatch: {hs[0].size} vs {hs[1].size}")
    exact = min(h.exact_rows for h in hs)
    if exact < rows:
        names = "H_p, H_u" if len(hs) == 2 else "H"
        raise WindowError(rows, exact, f"{what} on exact rows of {names}")
    for h in hs:
        check_unit_hessenberg(h)
    return hs


def lin_tensor_direct(h: TruncMatrix | SequencePair, n_max: int) -> LinTensor:
    """All slices k = 0..2*n_max: d(n,m,k) = p_m(H)[n][k] for n, m <= N = n_max.

    h is the truncation H (a SequencePair stands for its H).  One run of
    sequences.poly_rows from e_n gives D^m * row n of p_m(H) at step m, with
    D the lcm of the denominators of the entries read.  The runs read rows
    0..2N-1 of H (check_h_window: T >= required_size(n_max)).  _run_tensor
    checks symmetry (the runs from e_n and e_m) and d(n,m,n+m) = 1 in
    integers; d(0,m,.) = e_m follows from symmetry with the run from e_m,
    whose step 0 is its start, and the zeros past n+m from the run lengths.
    The entries equal those of crosscheck.recurrence_poly_matrices(H, H, N).
    """
    last = 2 * n_max
    (h,) = check_h_window(f"lin_tensor_direct(n_max={n_max})", last, h)
    den, (g,) = integer_band((h, last))
    runs = [poly_rows(g, g, den, n_max + 1, start=[0] * n + [1]) for n in range(n_max + 1)]
    return _run_tensor("d", runs, den, lambda n, m: m)


def _run_tensor(name: str, runs, den: int, exponent) -> LinTensor:
    """The tensor (n,m,k) -> runs[n][m][k] / D^exponent(n, m), checked in ints.

    For n <= m, in one pass: run n at step m must equal run m at step n times
    D^(exponent(n, m) - exponent(m, n)) (symmetry), its entry n+m must be
    D^exponent(n, m) (the top coefficient 1), and each nonzero entry becomes
    one Fraction, stored at (n, m) and (m, n).
    """
    n_max = len(runs) - 1
    powers = [den**e for e in range(2 * n_max + 1)]
    zero = Fraction(0)
    slices = [[[zero] * (n_max + 1) for _ in range(n_max + 1)] for _ in range(2 * n_max + 1)]
    for n, run in enumerate(runs):
        for m in range(n, n_max + 1):
            row, other, e = run[m], runs[m][n], exponent(n, m)
            top, shift = powers[e], e - exponent(m, n)
            want = [v * powers[shift] for v in other] if shift else other
            if row != want:
                k = next(k for k, v in enumerate(row) if v != want[k])
                raise PropertyViolationError(
                    f"{name}({n},{m},{k}) != {name}({m},{n},{k}): "
                    f"{Fraction(row[k], top)} vs {Fraction(other[k], powers[e - shift])}"
                )
            if row[n + m] != top:
                raise PropertyViolationError(
                    f"{name}({n},{m},{n + m}) = {Fraction(row[n + m], top)}, expected 1 (n+m = k)"
                )
            for k, v in enumerate(row):
                if v:
                    slices[k][n][m] = slices[k][m][n] = Fraction(v, top)
    return LinTensor.from_slices(n_max, slices.__getitem__)


def connection_matrix(p, u, m_max: int) -> list:
    """C with p_m = sum_k C[m][k] u_k, for m, k <= m_max: C[m] is row 0 of p_m(H_u).

    p and u are H_p and H_u (a SequencePair stands for its H).  One run of
    sequences.poly_rows from e_0, with p's recurrence at K = H_u, gives C in
    integers over one D for both.  It reads rows 0..m_max-1 of H_p and of
    H_u (check_h_window: T >= m_max+2), and nothing of P or A.
    """
    hp, hu = check_h_window(f"connection_matrix(m_max={m_max})", m_max, p, u)
    den, (gp, gu) = integer_band((hp, m_max), (hu, m_max))
    return fraction_rows(poly_rows(gp, gu, den, m_max + 1), den, m_max + 1)


def mixed_tensor(p, u, n_max: int) -> LinTensor:
    """e(n,m,k) for n, m <= N = n_max: p_n * p_m = sum_k e(n,m,k) u_k.

    p and u are H_p and H_u (a SequencePair stands for its H).  One run of
    sequences.poly_rows gives q_C[n] = D^n * C[n], as in connection_matrix,
    and one run from each q_C[n] gives D^(n+m) * e(n,m,.) at step m.  They
    read rows 0..2N-1 of H_u and 0..N-1 of H_p, which alone set D; the gate
    asks 2N certified rows of both (T >= 2N+2).  _run_tensor checks symmetry
    (the runs from C[n] and C[m]) and e(n,m,n+m) = 1 in integers; e(0,m,.) =
    C[m] and the zeros past n+m hold by construction."""
    last = 2 * n_max
    hp, hu = check_h_window(f"mixed_tensor(n_max={n_max})", last, p, u)
    den, (gp, gu) = integer_band((hp, n_max), (hu, last))
    q_c = poly_rows(gp, gu, den, n_max + 1)
    runs = [poly_rows(gp, gu, den, n_max + 1, start=row) for row in q_c]
    return _run_tensor("e", runs, den, lambda n, m: n + m)


def verify_inverse_connection(p, u, m_max: int):
    """Check the two connection directions multiply to the identity.

    p and u are H_p and H_u (a SequencePair stands for its H), gated as in
    connection_matrix(p, u, m_max).  Two runs of sequences.poly_rows give the
    rows of C_pu and C_up over one D, which sequences.inverse_defect checks.
    Returns (True, None) or (False, (m, n)) for the first violation."""
    hp, hu = check_h_window(f"connection_matrix(m_max={m_max})", m_max, p, u)
    den, (gp, gu) = integer_band((hp, m_max), (hu, m_max))
    q_pu, q_up = poly_rows(gp, gu, den, m_max + 1), poly_rows(gu, gp, den, m_max + 1)
    where = inverse_defect(q_pu, q_up, den)
    return where is None, where


def tensors_agree(t1: LinTensor, t2: LinTensor):
    """First (n, m, k) where two tensors differ, or None if they agree."""
    if t1.n_max != t2.n_max or t1.k_max != t2.k_max:
        raise StructureError("tensors have different shapes")
    for k in range(t1.k_max + 1):
        s1, s2 = t1.slices[k], t2.slices[k]
        for n in range(t1.n_max + 1):
            for m in range(t1.n_max + 1):
                if s1[n][m] != s2[n][m]:
                    return (n, m, k)
    return None
