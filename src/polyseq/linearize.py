r"""Linearization, mixed and connection coefficients by matrix methods.

For the sequence p_k attached to a monic Hessenberg H, multiplication by any
polynomial w expands in the same basis through the matrix w(H):

    p_n(t) * w(t) = sum_k w(H)[n][k] * p_k(t).

Taking w = p_m gives the linearization coefficients

    d(n, m, k) = p_m(H)[n][k],       p_n * p_m = sum_k d(n,m,k) p_k,

computed here from H alone (no sequence pair) as the rows of the matrix
recurrence

    p_{m+1}(H) = H @ p_m(H) - sum(H[m][j] * p_j(H) for j in range(m + 1))

that the slices read (rows 0..2N-m of p_m(H), columns 0..2N, sums over H's
band only), in integers as q_m = D^m * p_m(H) over one denominator D of the
entries of H it reads, normalised to Fractions once at the end.  The scalar
recurrence for a fixed-k slice, which restates the same object, is an oracle
in crosscheck.  The slices satisfy four structural identities (validated on
q):

    d(n,m,k) = d(m,n,k);  d = 0 if n+m < k;  d = 1 if n+m = k;
    d(0,m,k) = 1 if m == k else 0.

With a second sequence u_k attached to K, the mixed coefficients expand
p_n * p_m in the u-basis:

    e(n,m,k) = sum_j d(n,m,j) * p_j(K)[0][k],

and row 0 of p_m(K) alone gives the connection coefficients p_m = sum_k
C[m][k] u_k, a unit lower triangular change of basis whose two directions
multiply to the identity.  Row 0 of K^j is row j of A_u (t^j in the u-basis),
so C = P_p @ A_u, one product of unit lower triangular matrices: that is how
C is computed here, with row 0 of p_m(K) as its test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import PropertyViolationError, StructureError, WindowError
from .matrix import TruncMatrix, lower_bandwidth, poly_of_matrix
from .polynomial import Polynomial
from .sequences import SequencePair, check_unit_hessenberg, integer_band


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


def required_size(n_max: int, m_max: int = None) -> int:
    """Truncation size guaranteeing exact output up to the requested ranges
    (one extra row of safety margin)."""
    if m_max is None:
        m_max = n_max
    return n_max + m_max + 2


def linearize_with_w(pair: SequencePair, w: Polynomial, n: int) -> list:
    """Coefficients of p_n * w in the p-basis: row n of w(H), length n+deg+1."""
    deg = max(w.degree, 0)
    required = n + deg + 2
    if pair.size < required:
        raise WindowError(required, pair.size, f"linearize_with_w(n={n}, deg={deg})")
    wh = poly_of_matrix(w, pair.H)
    if n >= wh.exact_rows:
        raise WindowError(required, pair.size, f"row {n} of w(H)")
    return list(wh.rows[n][: n + deg + 1])


def check_h_window(h: TruncMatrix, n_max: int, what: str) -> None:
    """A linearization to n_max reads rows 0..2*n_max-1 of H: demand a
    truncation of required_size(n_max) whose certificate covers them."""
    required = required_size(n_max)
    if h.size < required:
        raise WindowError(required, h.size, f"{what}(n_max={n_max})")
    if h.exact_rows < 2 * n_max:
        raise WindowError(
            2 * n_max, h.exact_rows, f"{what}(n_max={n_max}) on exact rows of H"
        )


def _check_d_properties(q, powers, n_max: int) -> None:
    """The four slice identities on d(n,m,k) = q[m][n][k] / D^m, in integers.

    Symmetry is compared as q[m][n][k] == q[n][m][k] * D^(m-n) for n < m
    (the pair (m, n) repeats it); Fractions are built only for a message.
    """
    def d(n, m, k):
        return Fraction(q[m][n][k], powers[m])

    for k in range(2 * n_max + 1):
        for n in range(n_max + 1):
            qn = q[n]
            for m in range(n_max + 1):
                v = q[m][n][k]
                if n < m and v != qn[m][k] * powers[m - n]:
                    raise PropertyViolationError(
                        f"d({n},{m},{k}) != d({m},{n},{k}): {d(n, m, k)} vs {d(m, n, k)}"
                    )
                if n + m < k and v != 0:
                    raise PropertyViolationError(
                        f"d({n},{m},{k}) = {d(n, m, k)}, expected 0 (n+m < k)"
                    )
                if n + m == k and v != powers[m]:
                    raise PropertyViolationError(
                        f"d({n},{m},{k}) = {d(n, m, k)}, expected 1 (n+m = k)"
                    )
                if n == 0 and v != (powers[m] if m == k else 0):
                    raise PropertyViolationError(
                        f"d(0,{m},{k}) = {d(n, m, k)}, expected {1 if m == k else 0}"
                    )


def lin_tensor_direct(h: TruncMatrix | SequencePair, n_max: int) -> LinTensor:
    """All slices k = 0..2*n_max from the rows of p_m(H) that they read.

    h is the truncation H (a SequencePair stands for its H).  d(n,m,k) =
    p_m(H)[n][k] for n, m <= N = n_max.  Row i of p_{m+1}(H) is

        sum(H[i][j] * row j of p_m(H))  -  sum(H[m][j] * row i of p_j(H))

    with j running over H's band in the first sum (up to the unit entry at
    j = i+1) and over j <= m in the second.  It needs rows up to i+1 of p_m,
    so p_m(H) is computed on rows 0..2N-m only, reading rows 0..2N-1 of H;
    a truncation smaller than required_size(n_max), or one certified on fewer
    than 2N rows, raises WindowError.  With b the
    lower bandwidth of H, row i of p_m(H) vanishes outside columns
    i-m*b..i+m, so every row fits in columns 0..2N and each sum visits only
    that span.

    The arithmetic is in integers.  With D the lcm of the denominators of
    the entries of H read (rows 0..2N-1, inside the band) and G = D*H, the
    rows of q_m = D^m * p_m(H) obey

        q_{m+1}[i] = sum(G[i][j] * q_m[j]) + D * q_m[i+1]
                     - sum(G[m][j] * D^(m-j) * q_j[i] for j <= m),

    the slice identities are checked on q, and each entry is normalised
    once, as Fraction(q, D^m).  The entries equal those of
    crosscheck.recurrence_poly_matrices(H, H, N).
    """
    if isinstance(h, SequencePair):
        h = h.H
    check_h_window(h, n_max, "lin_tensor_direct")
    check_unit_hessenberg(h)
    band = max(lower_bandwidth(h), 0)
    last = 2 * n_max
    # g[i][j - lo_i] = G[i][j] for the band lo_i = max(0, i - band) .. i.
    den, g = integer_band(h, last, band)
    powers = [den**m for m in range(n_max + 1)]
    # q[m][i] = row i of q_m on columns 0..2N, for i <= 2N - m.
    q = [[[1 if k == i else 0 for k in range(last + 1)] for i in range(last + 1)]]
    for m in range(n_max):
        cur = q[m]
        lower = [(j, c * powers[m - j], q[j]) for j, c in enumerate(g[m], max(0, m - band)) if c]
        nxt = []
        for i in range(last - m):
            acc = [den * v for v in cur[i + 1]]  # G[i][i+1] = D
            for j, c in enumerate(g[i], max(0, i - band)):
                if c:
                    row = cur[j]
                    for k in range(max(0, j - m * band), min(last, j + m) + 1):
                        v = row[k]
                        if v:
                            acc[k] += c * v
            for j, c, qj in lower:
                row = qj[i]
                for k in range(max(0, i - j * band), min(last, i + j) + 1):
                    v = row[k]
                    if v:
                        acc[k] -= c * v
            nxt.append(acc)
        q.append(nxt)
    _check_d_properties(q, powers, n_max)
    # d(n,m,k) = d(m,n,k): one Fraction serves both places.
    zero = Fraction(0)
    slices = [[[zero] * (n_max + 1) for _ in range(n_max + 1)] for _ in range(last + 1)]
    for m in range(n_max + 1):
        for n in range(m + 1):
            for k, v in enumerate(q[m][n]):
                if v:
                    slices[k][n][m] = slices[k][m][n] = Fraction(v, powers[m])
    return LinTensor.from_slices(n_max, slices.__getitem__)


def connection_matrix(pair_p: SequencePair, pair_u: SequencePair, m_max: int) -> list:
    """C with p_m = sum_k C[m][k] u_k: C = P_p @ A_u on rows 0..m_max of both."""
    required = m_max + 2
    if pair_p.size < required or pair_u.size < required:
        raise WindowError(
            required, min(pair_p.size, pair_u.size), f"connection_matrix(m_max={m_max})"
        )
    if pair_p.size != pair_u.size:
        raise StructureError(
            f"size mismatch: {pair_p.size} vs {pair_u.size}"
        )
    n = m_max + 1
    exact = min(pair_p.P.exact_rows, pair_u.A.exact_rows, n)
    if exact < n:
        raise WindowError(
            n, exact, f"connection_matrix(m_max={m_max}) on exact rows of P_p, A_u"
        )
    # C[m][k] = sum(P_p[m][j] * A_u[j][k] for j in k..m): both are lower triangular.
    a_rows, zero = pair_u.A.rows, Fraction(0)
    conn = []
    for m, prow in enumerate(pair_p.P.rows[:n]):
        row = [zero] * n
        for j, c in enumerate(prow[: m + 1]):
            if c:
                for k, v in enumerate(a_rows[j][: j + 1]):
                    if v:
                        row[k] += c * v
        conn.append(row)
    return conn


def mixed_tensor(pair_p: SequencePair, pair_u: SequencePair, n_max: int) -> LinTensor:
    """e(n,m,k): products from the p-sequence expanded in the u-basis."""
    required = required_size(n_max)
    if pair_p.size != pair_u.size:
        raise StructureError(
            f"size mismatch: {pair_p.size} vs {pair_u.size}"
        )
    if pair_p.size < required:
        raise WindowError(required, pair_p.size, f"mixed_tensor(n_max={n_max})")
    d = lin_tensor_direct(pair_p, n_max)
    return _mixed_sum(d, connection_matrix(pair_p, pair_u, 2 * n_max))


def _mixed_sum(d: LinTensor, c) -> LinTensor:
    """e(n,m,k) = sum_j d(n,m,j) * C[j][k], reading C on rows 0..k_max of d."""
    n_max, k_max = d.n_max, d.k_max

    def mixed_slice(k):
        sl = [[Fraction(0)] * (n_max + 1) for _ in range(n_max + 1)]
        for j in range(k, k_max + 1):
            cjk = c[j][k]
            if cjk == 0:
                continue
            dj = d.slices[j]
            for n in range(n_max + 1):
                row = dj[n]
                for m in range(n_max + 1):
                    if row[m]:
                        sl[n][m] += cjk * row[m]
        return sl

    return LinTensor.from_slices(n_max, mixed_slice)


def verify_inverse_connection(pair_p: SequencePair, pair_u: SequencePair, m_max: int):
    """Check the two connection directions multiply to the identity.

    Returns (True, None) or (False, (m, n)) for the first violating entry.
    """
    c_pu = connection_matrix(pair_p, pair_u, m_max)
    c_up = connection_matrix(pair_u, pair_p, m_max)
    for m in range(m_max + 1):
        for n in range(m_max + 1):
            acc = Fraction(0)
            for k in range(m_max + 1):
                v = c_pu[m][k]
                if v:
                    acc += v * c_up[k][n]
            if acc != (1 if m == n else 0):
                return False, (m, n)
    return True, None


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
