"""Independent checks of polyseq output files.

Nothing here imports polyseq.  The checker rebuilds each sequence from its
spec with its own three-term / Hessenberg recurrence over
``fractions.Fraction`` and tests the identities the outputs promise:

* linearization d(n,m,k): chebyshev and hermite with b = 0 are compared
  entry by entry with the closed forms

      chebyshev  p_m p_n = sum_j a^j p_{m+n-2j}
      hermite    p_m p_n = sum_j j! C(m,j) C(n,j) a^j p_{m+n-2j}

  every other spec must satisfy p_n p_m = sum_k d(n,m,k) p_k: at two fixed
  rational points for every (n, m), and as exact polynomials for a seeded
  sample of pairs;
* connection rows p_m = sum_k C[m][k] u_k exactly, mixed rows
  p_n p_m = sum_k e(n,m,k) u_k as for d;
* build payloads: H and P equal the benchmark's own, A inverts P
  (t^k = sum_j A[k][j] p_j), and the moments satisfy tau(p_0) = 1,
  tau(p_n) = 0 for n >= 1;
* family payloads: p_N(H) rows on their certified window, closed-form
  slices, and the series forms of P and P^{-1};
* every JSON document is canonical and every rational is in lowest terms.

Any disagreement raises ``CheckError``.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import comb, factorial

# Points for the all-entries screens.  A single wrong coefficient d(n,m,k)
# shifts the sum by (error) * p_k(x), which vanishes only at a root of p_k.
POINTS = (Fraction(7, 3), Fraction(-11, 5))
SAMPLES = 4  # exact polynomial reconstructions per output


class CheckError(Exception):
    """An output disagrees with the benchmark's own arithmetic."""


def _fail(msg: str):
    raise CheckError(msg)


def rat_str(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def parse_rat(s) -> Fraction:
    """A rational string as polyseq writes it: "p" or "p/q" in lowest terms."""
    if not isinstance(s, str):
        _fail(f"expected a rational string, got {s!r}")
    try:
        v = Fraction(s)
    except (ValueError, ZeroDivisionError):
        _fail(f"malformed rational {s!r}")
    if rat_str(v) != s:
        _fail(f"rational {s!r} is not written in lowest terms")
    return v


def canonical(text: str):
    """Parse a JSON document and insist it is in polyseq's canonical form."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        _fail(f"invalid JSON: {exc}")
    if json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n" != text:
        _fail("JSON document is not canonical")
    return obj


def rationals(obj):
    """Every rational string in a parsed payload (all strings are rationals)."""
    if isinstance(obj, str):
        yield obj
    elif isinstance(obj, list):
        for v in obj:
            yield from rationals(v)
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from rationals(v)


# -- the benchmark's own sequences ----------------------------------------------

def hessenberg_rows(spec: dict, count: int) -> list:
    """Nonzero free entries [(j, H[k][j]) for j <= k] of rows k < count."""
    kind = spec["type"]
    rows = []
    if kind == "rows":
        for k in range(count):
            data = spec["rows"][k][: k + 1]
            rows.append([(j, Fraction(v)) for j, v in enumerate(data) if Fraction(v)])
        return rows
    if kind == "tridiagonal":
        beta = [Fraction(v) for v in spec["beta"]]
        alpha = [Fraction(v) for v in spec["alpha"]]
    else:
        a, b = Fraction(spec["a"]), Fraction(spec.get("b", "0"))
        if kind == "chebyshev":
            beta, alpha = [b] * count, [a] * count
        elif kind == "hermite":
            beta, alpha = [b] * count, [a * n for n in range(1, count + 1)]
        elif kind == "charlier":
            beta, alpha = [a + k for k in range(count)], [a * n for n in range(1, count + 1)]
        else:
            _fail(f"unknown spec type {kind!r}")
    for k in range(count):
        row = [(k - 1, alpha[k - 1])] if k >= 1 and alpha[k - 1] else []
        if beta[k]:
            row.append((k, beta[k]))
        rows.append(row)
    return rows


class Sequence:
    """p_0..p_{count-1} from p_{k+1} = t p_k - sum_j H[k][j] p_j."""

    def __init__(self, spec: dict, count: int):
        self.rows = hessenberg_rows(spec, count)
        polys = [[Fraction(1)]]
        for k in range(count - 1):
            nxt = [Fraction(0)] + polys[k]
            for j, c in self.rows[k]:
                for i, v in enumerate(polys[j]):
                    nxt[i] -= c * v
            polys.append(nxt)
        self.polys = polys
        self._values = {}

    def values(self, x: Fraction) -> list:
        """[p_k(x) for every k], by the same recurrence on scalars."""
        if x not in self._values:
            vals = [Fraction(1)]
            for k in range(len(self.polys) - 1):
                v = x * vals[k]
                for j, c in self.rows[k]:
                    v -= c * vals[j]
                vals.append(v)
            self._values[x] = vals
        return self._values[x]

    def h_matrix(self, size: int) -> list:
        out = [[Fraction(0)] * size for _ in range(size)]
        for k in range(size):
            for j, c in self.rows[k]:
                out[k][j] = c
            if k + 1 < size:
                out[k][k + 1] = Fraction(1)
        return out


def poly_mul(f: list, g: list) -> list:
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return out


def combine(coeffs, basis: list, length: int) -> list:
    """sum_k coeffs[k] * basis[k], padded to length."""
    acc = [Fraction(0)] * length
    for k, c in enumerate(coeffs):
        if c:
            for i, v in enumerate(basis[k]):
                acc[i] += c * v
    return acc


def _padded(poly: list, length: int) -> list:
    return poly + [Fraction(0)] * (length - len(poly))


def closed_form(spec: dict):
    """d(n, m, k) from the closed form, or None when the spec has none."""
    if spec["type"] not in ("chebyshev", "hermite") or Fraction(spec.get("b", "0")) != 0:
        return None
    a = Fraction(spec["a"])
    hermite = spec["type"] == "hermite"

    def d(n, m, k):
        s = n + m - k
        if s < 0 or s % 2:
            return 0
        j = s // 2
        if j > min(n, m):
            return 0
        return factorial(j) * comb(n, j) * comb(m, j) * a**j if hermite else a**j

    return d


def expansion(target: list, basis: list) -> list:
    """Coefficients of a polynomial in a monic graded basis (back-substitution)."""
    residual = list(target)
    coeffs = [Fraction(0)] * len(residual)
    for d in range(len(residual) - 1, -1, -1):
        c = residual[d]
        if c:
            coeffs[d] = c
            for i, v in enumerate(basis[d]):
                residual[i] -= c * v
    return coeffs


# -- product expansions -------------------------------------------------------

def check_products(p: Sequence, u: Sequence, n_max: int, k_max: int, coeff, rng, what):
    """coeff(n, m, k) must expand p_n p_m in the u-basis for all n, m <= n_max."""
    for n in range(n_max + 1):
        for m in range(n):
            for k in range(k_max + 1):
                if coeff(n, m, k) != coeff(m, n, k):
                    _fail(f"{what}: ({n},{m},{k}) breaks symmetry")
    for x in POINTS:
        pv, uv = p.values(x), u.values(x)
        for n in range(n_max + 1):
            for m in range(n, n_max + 1):
                total = sum((coeff(n, m, k) * uv[k] for k in range(k_max + 1)), Fraction(0))
                if total != pv[n] * pv[m]:
                    _fail(f"{what}: row ({n},{m}) fails the product identity at t={x}")
    pairs = [(n, m) for n in range(n_max + 1) for m in range(n, n_max + 1)]
    for n, m in rng.sample(pairs, min(SAMPLES, len(pairs))):
        want = poly_mul(p.polys[n], p.polys[m])
        got = combine([coeff(n, m, k) for k in range(k_max + 1)], u.polys, k_max + 1)
        if got != _padded(want, k_max + 1):
            _fail(f"{what}: p_{n} p_{m} is not reconstructed")


def _square(grid, size: int, what: str) -> list:
    if not isinstance(grid, list) or len(grid) != size:
        _fail(f"{what}: expected {size} rows")
    out = []
    for row in grid:
        if not isinstance(row, list) or len(row) != size:
            _fail(f"{what}: expected rows of length {size}")
        out.append([parse_rat(v) for v in row])
    return out


def tensor_slices(obj, n_max: int, what: str) -> list:
    if not isinstance(obj, dict) or set(obj) != {"n_max", "slices"} or obj["n_max"] != n_max:
        _fail(f"{what}: expected a tensor with n_max={n_max}")
    entries = obj["slices"]
    if not isinstance(entries, list) or len(entries) != 2 * n_max + 1:
        _fail(f"{what}: expected {2 * n_max + 1} slices")
    slices = []
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict) or set(entry) != {"k", "matrix"} or entry["k"] != k:
            _fail(f"{what}: slice {k} is malformed")
        slices.append(_square(entry["matrix"], n_max + 1, f"{what} slice {k}"))
    return slices


def csv_slices(texts: list, n_max: int) -> list:
    """Slices from the per-k CSV files, which must list n, m in order."""
    if len(texts) != 2 * n_max + 1:
        _fail(f"expected {2 * n_max + 1} CSV files, got {len(texts)}")
    slices = []
    for k, text in enumerate(texts):
        lines = text.split("\n")
        want = (n_max + 1) ** 2 + 2  # header, entries, empty tail
        if len(lines) != want or lines[0] != "n,m,value" or lines[-1] != "":
            _fail(f"CSV slice {k} is malformed")
        grid = [[None] * (n_max + 1) for _ in range(n_max + 1)]
        for idx, line in enumerate(lines[1:-1]):
            n, m = divmod(idx, n_max + 1)
            parts = line.split(",")
            if len(parts) != 3 or parts[:2] != [str(n), str(m)]:
                _fail(f"CSV slice {k} line {idx + 2} is out of order")
            grid[n][m] = parse_rat(parts[2])
        slices.append(grid)
    return slices


def check_lin_tensor(spec: dict, n_max: int, slices: list, rng) -> None:
    d = closed_form(spec)
    if d is not None:
        for k, sl in enumerate(slices):
            for n in range(n_max + 1):
                for m in range(n_max + 1):
                    if sl[n][m] != d(n, m, k):
                        _fail(f"d({n},{m},{k}) = {sl[n][m]}, closed form gives {d(n, m, k)}")
        return
    seq = Sequence(spec, 2 * n_max + 1)
    check_products(seq, seq, n_max, 2 * n_max, lambda n, m, k: slices[k][n][m], rng,
                   "linearization")


# -- matrices -------------------------------------------------------------------

def matrix(obj, size: int, index: int | None, what: str) -> list:
    if not isinstance(obj, dict) or set(obj) != {"size", "index", "rows"}:
        _fail(f"{what}: expected keys size/index/rows")
    if obj["size"] != size or (index is not None and obj["index"] != index):
        _fail(f"{what}: expected size {size} and index {index}")
    rows = _square(obj["rows"], size, what)
    ind = obj["index"]
    for i in range(size):
        for k in range(size):
            if i - k < ind and rows[i][k]:
                _fail(f"{what}: ({i},{k}) is nonzero above diagonal {ind}")
    return rows


def check_inverse_rows(a_rows: list, seq: Sequence, rng, what: str) -> None:
    """Row k of A expands t^k in the p-basis: t^k = sum_j A[k][j] p_j."""
    size = len(a_rows)
    for x in POINTS:
        pv = seq.values(x)
        for k in range(size):
            if sum((c * pv[j] for j, c in enumerate(a_rows[k]) if c), Fraction(0)) != x**k:
                _fail(f"{what}: row {k} does not expand t^{k} (t={x})")
    for k in rng.sample(range(size), min(SAMPLES, size)):
        want = [Fraction(0)] * size
        want[k] = Fraction(1)
        if combine(a_rows[k], seq.polys, size) != want:
            _fail(f"{what}: row {k} does not expand t^{k}")


def check_p_rows(p_rows: list, seq: Sequence, what: str) -> None:
    size = len(p_rows)
    for k in range(size):
        if p_rows[k] != _padded(seq.polys[k], size):
            _fail(f"{what}: row {k} is not p_{k}")


def check_build(spec: dict, size: int, payload, rng) -> None:
    if not isinstance(payload, dict) or set(payload) != {"H", "A", "P", "moments"}:
        _fail("build: expected keys H/A/P/moments")
    seq = Sequence(spec, size)
    if matrix(payload["H"], size, -1, "H") != seq.h_matrix(size):
        _fail("build: H differs from the spec's matrix")
    p_rows = matrix(payload["P"], size, 0, "P")
    check_p_rows(p_rows, seq, "P")
    a_rows = matrix(payload["A"], size, 0, "A")
    check_inverse_rows(a_rows, seq, rng, "A")
    moments = payload["moments"]
    if not isinstance(moments, list) or len(moments) != size:
        _fail(f"build: expected {size} moments")
    moments = [parse_rat(v) for v in moments]
    if moments != [row[0] for row in a_rows]:
        _fail("build: moments differ from column 0 of A")
    for n in range(size):
        tau = sum((c * moments[j] for j, c in enumerate(p_rows[n]) if c), Fraction(0))
        if tau != (1 if n == 0 else 0):
            _fail(f"build: tau(p_{n}) = {tau}")


def check_connect(p_spec: dict, u_spec: dict, m_max: int, mixed: int, payload, rng) -> None:
    if not isinstance(payload, dict) or set(payload) != {"connection", "mixed", "inverse_check"}:
        _fail("connect: expected keys connection/mixed/inverse_check")
    if payload["inverse_check"] is not True:
        _fail("connect: inverse_check is not true")
    conn = payload["connection"]
    if not isinstance(conn, dict) or set(conn) != {"m_max", "matrix"} or conn["m_max"] != m_max:
        _fail(f"connect: expected a connection matrix with m_max={m_max}")
    c = _square(conn["matrix"], m_max + 1, "connection")
    count = max(m_max + 1, 2 * mixed + 1)
    p, u = Sequence(p_spec, count), Sequence(u_spec, count)
    for m in range(m_max + 1):
        if combine(c[m], u.polys, m_max + 1) != _padded(p.polys[m], m_max + 1):
            _fail(f"connect: row {m} does not expand p_{m} in the u-basis")
    e = tensor_slices(payload["mixed"], mixed, "mixed")
    check_products(p, u, mixed, 2 * mixed, lambda n, m, k: e[k][n][m], rng, "mixed")


def check_family(spec: dict, params: dict, payload, rng) -> None:
    want = {"pnh"} if "pnh" in params else {"slice"} if "slice" in params else {"series_p"}
    if spec["type"] == "hermite" and "series" in params:
        want.add("series_p_inverse")
    if not isinstance(payload, dict) or set(payload) != want:
        _fail(f"family: expected keys {sorted(want)}")
    d = closed_form(spec)
    if "pnh" in params:
        n, size = params["pnh"], params["size"]
        rows = matrix(payload["pnh"], size, None, "pnh")
        seq = Sequence(spec, size)
        # rows 0..size-n-1 are certified exact; row r holds d(r, n, .)
        certified = range(size - n)
        if d is not None:
            for r in certified:
                if rows[r] != [d(r, n, k) for k in range(size)]:
                    _fail(f"pnh: row {r} differs from the closed form")
            return
        for x in POINTS:
            pv = seq.values(x)
            for r in certified:
                total = sum((c * pv[k] for k, c in enumerate(rows[r]) if c), Fraction(0))
                if total != pv[r] * pv[n]:
                    _fail(f"pnh: row {r} fails the product identity at t={x}")
        for r in rng.sample(certified, min(SAMPLES, len(certified))):
            if combine(rows[r], seq.polys, size) != _padded(poly_mul(seq.polys[r], seq.polys[n]), size):
                _fail(f"pnh: row {r} does not reconstruct p_{r} p_{n}")
    elif "slice" in params:
        k, n_max = params["slice"], params["n_max"]
        got = payload["slice"]
        if not isinstance(got, dict) or set(got) != {"k", "matrix"} or got["k"] != k:
            _fail("slice: malformed")
        grid = _square(got["matrix"], n_max + 1, "slice")
        seq = Sequence(spec, 2 * n_max + 1)
        for n in range(n_max + 1):
            for m in range(n, n_max + 1):
                if d is not None:
                    want_v = d(n, m, k)
                else:
                    want_v = expansion(poly_mul(seq.polys[n], seq.polys[m]), seq.polys)
                    want_v = want_v[k] if k < len(want_v) else 0
                if grid[n][m] != want_v or grid[m][n] != want_v:
                    _fail(f"slice: d({n},{m},{k}) = {grid[n][m]}, expected {want_v}")
    else:
        size = params["size"]
        seq = Sequence(spec, size)
        check_p_rows(matrix(payload["series_p"], size, 0, "series_p"), seq, "series_p")
        if "series_p_inverse" in payload:
            a_rows = matrix(payload["series_p_inverse"], size, 0, "series_p_inverse")
            check_inverse_rows(a_rows, seq, rng, "series_p_inverse")


# -- entry point ------------------------------------------------------------------

def check_request(req, rc, stdout: str, files: list, rng: random.Random) -> dict:
    """Check one request's results; return its rational count and largest bit length.

    ``files`` holds the text of each output file in order (one JSON file, or
    the CSV slices k = 0..2N).
    """
    if rc != 0:
        _fail(f"exit code {rc}")
    if stdout:
        _fail("unexpected output on stdout")
    if req.out is None:
        if files:
            _fail("unexpected output files")
        return {"rationals": 0, "max_bits": 0}
    if req.out == "csv":
        slices = csv_slices(files, req.params["n_max"])
        values = [v for sl in slices for row in sl for v in row]
        check_lin_tensor(req.specs["--h-spec"], req.params["n_max"], slices, rng)
    else:
        if len(files) != 1:
            _fail(f"expected one JSON file, got {len(files)}")
        payload = canonical(files[0])
        values = [parse_rat(s) for s in rationals(payload)]
        if req.command == "linearize":
            n_max = req.params["n_max"]
            check_lin_tensor(req.specs["--h-spec"], n_max,
                             tensor_slices(payload, n_max, "linearization"), rng)
        elif req.command == "connect":
            check_connect(req.specs["--p-spec"], req.specs["--u-spec"],
                          req.params["m_max"], req.params["mixed"], payload, rng)
        elif req.command == "build":
            check_build(req.specs["--h-spec"], req.params["size"], payload, rng)
        elif req.command == "family":
            check_family(req.specs["--h-spec"], req.params, payload, rng)
        else:
            _fail(f"no checker for {req.command!r}")
    bits = max((max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values),
               default=0)
    return {"rationals": len(values), "max_bits": bits}
