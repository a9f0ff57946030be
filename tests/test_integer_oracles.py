"""The recurrence oracles in integers against the Fraction forms they replaced.

crosscheck's fixed-k slice routes (lin_tensor_recurrence, op_lin_recurrence)
and verify's row checks run in ints over a D of their own.  The Fraction
forms are kept here as references: equal slices (entries stay Fractions) and
equal row-check verdicts, also when one row entry is corrupted.  The verify
output of five specs is pinned line by line, and a corrupted oracle must
turn its check to FAIL.
"""

import ast
import json
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from polyseq import (
    HSpec,
    ThreeTermRecurrence,
    TruncMatrix,
    cli,
    crosscheck,
    lin_tensor_recurrence,
    op_lin_recurrence,
    realize_H,
    recurrence_poly_matrices,
    required_size,
    verify,
)
from polyseq.crosscheck import _scaled_lower, _symmetric_block
from polyseq.linearize import check_h_window

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)


# -- the Fraction forms ---------------------------------------------------------------

def fraction_lin_tensor_recurrence(h, n_max, k):
    width0 = 2 * n_max
    (h,) = check_h_window(f"lin_tensor_recurrence(n_max={n_max})", width0, h)
    rows = [[F(1) if m == k else F(0) for m in range(width0 + 1)]]
    for n in range(n_max):
        width = width0 - (n + 1)
        cur = rows[n]
        hn = h.rows[n]
        nxt = []
        for m in range(width + 1):
            hm = h.rows[m]
            v = cur[m + 1] + (hm[m] - hn[n]) * cur[m]
            for j in range(m):
                if hm[j]:
                    v += hm[j] * cur[j]
            for j in range(n):
                if hn[j]:
                    v -= hn[j] * rows[j][m]
            nxt.append(v)
        rows.append(nxt)
    return _symmetric_block(rows, n_max, k)


def fraction_op_lin_recurrence(rec, n_max, k):
    width0 = 2 * n_max
    rec.require(max(width0, 1), max(width0 - 1, 0))
    beta, alpha = rec.beta, rec.alpha
    rows = [[F(1) if m == k else F(0) for m in range(width0 + 1)]]
    for n in range(n_max):
        width = width0 - (n + 1)
        cur = rows[n]
        nxt = []
        for m in range(width + 1):
            v = cur[m + 1] + (beta[m] - beta[n]) * cur[m]
            if m >= 1:
                v += alpha[m - 1] * cur[m - 1]
            if n >= 1:
                v -= alpha[n - 1] * rows[n - 1][m]
            nxt.append(v)
        rows.append(nxt)
    return _symmetric_block(rows, n_max, k)


def fraction_row_checks(h, mats, n_max):
    """(row-identity, row-recurrence) on the whole matrices p_n(H)."""
    identity = all(mats[n].rows[m] == mats[m].rows[n]
                   for n in range(n_max + 1) for m in range(n_max + 1))
    t = h.size
    recurrence = True
    for n in range(n_max):
        for m in range(n_max + 1):
            acc = [F(0)] * t
            for j in range(min(m + 2, t)):
                c = h.rows[m][j]
                if c:
                    for col in range(t):
                        acc[col] += c * mats[n].rows[j][col]
            for j in range(n + 1):
                c = h.rows[n][j]
                if c:
                    for col in range(t):
                        acc[col] -= c * mats[j].rows[m][col]
            if mats[n + 1].rows[m] != tuple(acc):
                recurrence = False
    return identity, recurrence


# -- drawing H and (beta, alpha) ------------------------------------------------------

def h_of(rows, n_max):
    t = required_size(n_max)
    return realize_H(HSpec.from_rows(rows), t)


@st.composite
def banded_h(draw):
    """(H, N): band 0, 1, 2 or dense, signed entries over pairwise coprime
    primes, zeros included, at T = 2N+2."""
    n_max = draw(st.integers(0, 6))
    band = draw(st.sampled_from((0, 1, 2, None)))
    entry = st.builds(F, st.integers(-4, 4), st.sampled_from(PRIMES))
    rows = [[draw(entry) if band is None or k - j <= band else 0 for j in range(k + 1)]
            for k in range(required_size(n_max))]
    return h_of(rows, n_max), n_max


@st.composite
def recurrence_data(draw):
    """(rec, N) with int and Fraction coefficients, every alpha nonzero."""
    n_max = draw(st.integers(0, 6))
    t = required_size(n_max)
    value = st.one_of(st.integers(-5, 5), st.builds(F, st.integers(-5, 5), st.sampled_from(PRIMES)))
    beta = draw(st.lists(value, min_size=t, max_size=t))
    alpha = draw(st.lists(value.filter(bool), min_size=t - 1, max_size=t - 1))
    return ThreeTermRecurrence(beta, alpha), n_max


def assert_same_slices(int_route, fraction_route, arg, n_max):
    for k in range(2 * n_max + 1):
        got = int_route(arg, n_max, k)
        assert got == fraction_route(arg, n_max, k), k
        assert all(type(v) is F for row in got for v in row)


@given(banded_h())
@settings(max_examples=40, deadline=None)
def test_integer_slices_equal_the_fraction_slices(drawn):
    h, n_max = drawn
    assert_same_slices(lin_tensor_recurrence, fraction_lin_tensor_recurrence, h, n_max)


@given(recurrence_data())
@settings(max_examples=40, deadline=None)
def test_integer_four_term_slices_equal_the_fraction_slices(drawn):
    rec, n_max = drawn
    assert_same_slices(op_lin_recurrence, fraction_op_lin_recurrence, rec, n_max)


def corrupted_rows(n, i, col, delta):
    """A wrapper of verify._poly_matrix_rows adding delta (in row units) to
    entry col of row i of p_n(H)."""
    build = verify._poly_matrix_rows

    def wrapped(h, n_max):
        den, g, q = build(h, n_max)
        q[n][i][col] += delta * den**n
        return den, g, q

    return wrapped


@given(banded_h(), st.data())
@settings(max_examples=40, deadline=None)
def test_integer_row_checks_give_the_fraction_verdicts(drawn, data):
    h, n_max = drawn
    mats = recurrence_poly_matrices(h, h, n_max)
    assert verify._row_checks(h, n_max) == fraction_row_checks(h, mats, n_max) == (True, True)
    # One entry on the support of a row the integer checks hold, in both forms.
    n = data.draw(st.integers(0, n_max))
    i = data.draw(st.integers(0, n_max + 1))
    col = data.draw(st.integers(0, i + n))
    delta = data.draw(st.sampled_from((1, -1, 2)))
    rows = [list(row) for row in mats[n].rows]
    rows[i][col] += delta
    mats[n] = TruncMatrix(rows, index=mats[n].index, exact_rows=mats[n].exact_rows)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "_poly_matrix_rows", corrupted_rows(n, i, col, delta))
        assert verify._row_checks(h, n_max) == fraction_row_checks(h, mats, n_max)


def test_integer_oracles_past_64_bits():
    n_max = 6
    rows = [[F((-1) ** (k + j) * (1 + (k * j) % 4), PRIMES[(k + j) % len(PRIMES)])
             for j in range(k + 1)] for k in range(required_size(n_max))]
    h = h_of(rows, n_max)
    den = _scaled_lower(h, 2 * n_max)[0]
    assert den**(2 * n_max) > 2**64
    assert_same_slices(lin_tensor_recurrence, fraction_lin_tensor_recurrence, h, n_max)
    mats = recurrence_poly_matrices(h, h, n_max)
    assert verify._row_checks(h, n_max) == fraction_row_checks(h, mats, n_max) == (True, True)
    t = required_size(n_max)
    rec = ThreeTermRecurrence([F(k + 1, PRIMES[k % 9]) for k in range(t)],
                              [F(-(k + 2), PRIMES[(k + 4) % 9]) for k in range(t - 1)])
    assert_same_slices(op_lin_recurrence, fraction_op_lin_recurrence, rec, n_max)


def test_scaled_lower_reads_only_the_rows_it_is_given():
    h = h_of([[F(1, 2)], [F(0), F(1, 3)], [F(1, 5), F(0), F(2)], [F(1, 7)] * 4], 1)
    assert _scaled_lower(h, 3) == (30, [[15], [0, 10], [6, 0, 60]])
    assert _scaled_lower(h, 0) == (1, [])


def test_crosscheck_shares_no_scaling_with_the_kernel():
    # A wrong D in the kernel must not make kernel and oracle agree.
    tree = ast.parse(Path(crosscheck.__file__).read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    used |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for alias in node.names}
    assert not used & {"integer_band", "poly_rows"}


# -- verify output pinned, and each integer oracle live ---------------------------------

SPECS = {
    "charlier": {"type": "charlier", "a": "3/7"},
    "hermite": {"type": "hermite", "a": "1", "b": "0"},
    "chebyshev": {"type": "chebyshev", "a": "1/4", "b": "0"},
    "dense": {"type": "rows", "rows": [[f"{(3 * k + 5 * j) % 7 - 3}/{1 + (k + j) % 3}"
                                        for j in range(k + 1)] for k in range(10)]},
    "zero-alpha": {"type": "tridiagonal", "beta": [f"{k - 4}/3" for k in range(10)],
                   "alpha": [("0" if k == 2 else f"{k + 1}/2") for k in range(9)]},
}

ROW_CHECKED = [
    "pair-invariants", "A-rows-vs-inverse", "P-columns-vs-recurrence", "H-right-inverse",
    "Hhat-left-defect-column-0", "direct-tensor-properties", "direct-vs-recurrence",
    "direct-vs-oracle", "product-reconstruction", "row-identity", "row-recurrence",
]
ORTHOGONAL = ROW_CHECKED + ["norms-diagonal", "direct-vs-four-term", "orthogonality-table",
                            "support-bound"]


def run_verify(tmp_path, name, capsys, n_max=4):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(SPECS[name]))
    rc = cli.main(["verify", "--h-spec", str(path), "--n-max", str(n_max), "--verbose"])
    return rc, capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("name, names", [
    ("charlier", ORTHOGONAL), ("hermite", ORTHOGONAL), ("chebyshev", ORTHOGONAL),
    ("dense", ROW_CHECKED), ("zero-alpha", ROW_CHECKED),
])
def test_verify_output_is_pinned(tmp_path, capsys, name, names):
    # Recorded with the Fraction routes: every check passes, in this order.
    assert run_verify(tmp_path, name, capsys) == (0, [f"ok   {n}" for n in names])


@pytest.mark.parametrize("n, i, col, failed", [
    (2, 1, 0, {"row-identity", "row-recurrence"}),
    (1, 0, 1, {"row-identity", "row-recurrence"}),
    (1, 5, 0, {"row-recurrence"}),  # row N+1 of p_1 is read by the recurrence alone
    (4, 2, 6, {"row-identity", "row-recurrence"}),
])
def test_a_corrupted_row_fails_the_row_checks(tmp_path, capsys, monkeypatch, n, i, col, failed):
    monkeypatch.setattr(verify, "_poly_matrix_rows", corrupted_rows(n, i, col, 1))
    rc, lines = run_verify(tmp_path, "dense", capsys)
    assert rc == 4
    assert {line.split()[1] for line in lines if line.startswith("FAIL")} == failed


@pytest.mark.parametrize("route, name", [
    ("lin_tensor_recurrence", "direct-vs-recurrence"),
    ("op_lin_recurrence", "direct-vs-four-term"),
])
def test_a_corrupted_slice_fails_its_check(tmp_path, capsys, monkeypatch, route, name):
    run = getattr(verify, route)

    def corrupted(arg, n_max, k):
        grid = run(arg, n_max, k)
        if k == 3:
            grid[1][2] += 1
        return grid

    monkeypatch.setattr(verify, route, corrupted)
    rc, lines = run_verify(tmp_path, "chebyshev", capsys)
    assert rc == 4
    assert [line for line in lines if line.startswith("FAIL")] == [
        f"FAIL {name} (first difference at (1, 2, 3))"]
