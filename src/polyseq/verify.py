"""Cross-method verification suite.

Runs every identity the library promises on a concrete H spec and reports
one named result per check.  Used by the CLI `verify` subcommand and handy
in tests; any failure means two supposedly-equal routes disagreed, or a
kernel's self-check failed and the checks that read its result were left out.
"""

from __future__ import annotations

from dataclasses import dataclass

from .crosscheck import (
    _left_row,
    _p_columns,
    _poly_matrix_rows,
    _verify_pair,
    build_Hhat,
    lin_tensor_oracle,
    lin_tensor_recurrence,
    op_lin_recurrence,
)
from .errors import PropertyViolationError, StructureError, ZeroAlphaError
from .linearize import LinTensor, lin_tensor_direct, required_size, tensors_agree
from .matrix import lower_tri_inverse, make_operator
from .orthogonal import (
    ThreeTermRecurrence,
    orthogonality_table,
    recurrence_coefficients,
    squared_norms,
    support_check,
)
from .sequences import HSpec, build_P_recurrence, realize_H


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def run_suite(spec: HSpec, n_max: int, size: int | None = None) -> list:
    """All applicable cross-checks for one spec at one window size."""
    t = size if size is not None else required_size(n_max)
    h = realize_H(spec, t)
    results = []

    def record(name, ok, detail=""):
        results.append(CheckResult(name, bool(ok), detail))

    pair, failure = _attempt(lambda: build_P_recurrence(h))  # checks its integer rows
    if pair is not None:
        failure = _attempt(lambda: _verify_pair(pair))[1]  # again on its Fractions
    record("pair-invariants", failure is None, failure or "A@P = I, A@H = X@A, H@P = P@X")

    hhat = build_Hhat(h)
    if pair is not None:
        record("A-rows-vs-inverse", lower_tri_inverse(pair.P) == pair.A)
        p_cols = _p_columns(h, hhat)
        record("P-columns-vs-recurrence", p_cols == pair.P)

    prod = h @ hhat
    ident = make_operator("I", t)
    record("H-right-inverse", prod.equal_on_window(ident))
    back = hhat @ h
    off = [
        (i, j)
        for i in range(t)
        for j in range(1, t)
        if back.rows[i][j] != (1 if i == j else 0)
    ]
    record("Hhat-left-defect-column-0", not off, f"violations: {off[:3]}")

    direct, failure = _attempt(lambda: lin_tensor_direct(h, n_max))
    record("direct-tensor-properties", failure is None, failure or "validated on construction")

    if direct is not None:
        for name, tensor in route_tensors(h, pair, n_max):
            where = tensors_agree(direct, tensor)
            record(f"direct-vs-{name}", where is None, f"first difference at {where}")

    if direct is not None and pair is not None:
        ok = True
        for n in range(n_max + 1):
            for m in range(n_max + 1):
                product = pair.polys[n] * pair.polys[m]
                recon = sum(
                    (pair.polys[k].scale(direct.value(n, m, k)) for k in range(n + m + 1)),
                    start=pair.polys[0].scale(0),
                )
                if recon != product:
                    ok = False
        record("product-reconstruction", ok)

    identity_ok, recurrence_ok = _row_checks(h, n_max)
    record("row-identity", identity_ok)
    record("row-recurrence", recurrence_ok)

    try:
        rec = ThreeTermRecurrence(*recurrence_coefficients(h))
    except (StructureError, ZeroAlphaError):
        return results  # the checks below hold for orthogonal H only
    slice0 = op_lin_recurrence(rec, n_max, 0)
    norms = squared_norms(rec, n_max)
    ok = all(
        slice0[n][m] == (norms[n] if n == m else 0)
        for n in range(n_max + 1)
        for m in range(n_max + 1)
    )
    record("norms-diagonal", ok)

    if direct is not None:
        four_tensor = LinTensor.from_slices(
            n_max, lambda k: op_lin_recurrence(rec, n_max, k)
        )
        where = tensors_agree(direct, four_tensor)
        record("direct-vs-four-term", where is None, f"first difference at {where}")

    if pair is not None:
        table = orthogonality_table(pair, n_max)
        ok = all(
            table[n][m] == (norms[n] if n == m else 0)
            for n in range(n_max + 1)
            for m in range(n_max + 1)
        )
        record("orthogonality-table", ok)

    if direct is not None:
        ok, where = support_check(direct)
        record("support-bound", ok, f"violation at {where}" if not ok else "")

    return results


def route_tensors(h, pair, n_max: int):
    """(name, tensor) of each alternate route to d, for verify and --method all."""
    yield "recurrence", LinTensor.from_slices(
        n_max, lambda k: lin_tensor_recurrence(h, n_max, k)
    )
    if pair is not None:
        yield "oracle", lin_tensor_oracle(pair, n_max)


def _attempt(build):
    """(result, None), or (None, message) when build's self-check raises."""
    try:
        return build(), None
    except PropertyViolationError as exc:
        return None, str(exc)


def _row_checks(h, n_max) -> tuple:
    """(row-identity, row-recurrence) on q[n][i] = D^n * (row i of p_n(H)),
    the rows 0..n_max+1 the checks read: row m of p_n(H) equals row n of
    p_m(H), and row m of p_{n+1}(H) = H @ p_n(H) - sum(H[n][j] * p_j(H)
    for j <= n), read on row m (the left identity; the rows are built by
    right multiplication)."""
    den, g, q = _poly_matrix_rows(h, n_max)
    identity = all(
        [v * den**m for v in q[n][m]] == [v * den**n for v in q[m][n]]
        for n in range(n_max + 1)
        for m in range(n)
    )
    recurrence = all(
        q[n + 1][m] == _left_row(den, g, q, n, m)
        for n in range(n_max)
        for m in range(n_max + 1)
    )
    return identity, recurrence
