"""One contract for the results read off the row kernel.

Every kernel takes D from exactly the rows of H its runs read: a new
denominator one row past that window changes neither its output nor the D
it hands to poly_rows, and one in the last row read changes D.  Partial
orthogonality reads tau(p_n p_m) as d(n,m,0), slice 0 of the linearization
tensor, so it must equal the moment route (orthogonality_table) exactly and
build no sequence pair.  The sequence pair and connect --verify share one
integer inverse check, which must report the first entry of the Fraction
product that differs from the identity.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from polyseq import (
    FamilyParams,
    PolyseqError,
    StructureError,
    HSpec,
    Polynomial,
    TruncMatrix,
    build_P_recurrence,
    connection_matrix,
    lin_tensor_direct,
    linearize_with_w,
    mixed_tensor,
    orthogonality_table,
    partial_orthogonality_check,
    realize_H,
    tau_apply,
    tau_moments,
    verify_inverse_connection,
)
from polyseq import linearize, orthogonal, sequences
from polyseq.sequences import _integer_rows, inverse_defect
from tests.conftest import rand_fraction, rand_nonzero_fraction
from tests.test_orthogonal import banded_matrix

T = 12
POLY_ROWS = sequences.poly_rows


def with_new_denominator(h, row):
    """h with 1/97 added to its diagonal entry in the given row."""
    rows = [list(r) for r in h.rows]
    rows[row][row] += F(1, 97)
    return TruncMatrix(rows, index=h.index, exact_rows=h.exact_rows)


def h_sets():
    """(H_p, H_u) pairs: a 4-banded rows H with a dense rows H, and charlier
    a=3/7 (tridiagonal) with hermite a=1."""
    rng = random.Random(97)
    dense = HSpec.from_rows([[rand_fraction(rng, -3, 3, 5) for _ in range(k + 1)]
                             for k in range(T)])
    yield banded_matrix(rng, T, 4), realize_H(dense, T)
    yield (realize_H(HSpec.from_family(FamilyParams("charlier", F(3, 7))), T),
           realize_H(HSpec.from_family(FamilyParams("hermite", F(1), F(0))), T))


def pair_of(pair):
    return pair.A, pair.P, pair.polys


N, M, W = 3, 4, Polynomial([F(1, 2), 3, F(-2, 3)])
# (kernel, call on (H_p, H_u), the first row past the window of each H; None
# leaves that H as it is).
KERNELS = [
    ("lin_tensor_direct", lambda p, u: lin_tensor_direct(p, N), (2 * N, None)),
    ("connection_matrix", lambda p, u: connection_matrix(p, u, M), (M, M)),
    ("verify_inverse_connection", lambda p, u: verify_inverse_connection(p, u, M), (M, M)),
    ("mixed_tensor H_p", lambda p, u: mixed_tensor(p, u, N), (N, None)),
    ("mixed_tensor H_u", lambda p, u: mixed_tensor(p, u, N), (None, 2 * N)),
    ("linearize_with_w", lambda p, u: linearize_with_w(p, W, 2), (2 + W.degree, None)),
    ("build_P_recurrence", lambda p, u: pair_of(build_P_recurrence(p)), (T - 1, None)),
    # band 4, n_max 4: max_n = 1, so the runs read rows 0..max_deg-1 = 0..4
    ("partial_orthogonality_check", lambda p, u: partial_orthogonality_check(p, 4, 4),
     (5, None)),
]


def run_recording_d(monkeypatch, call, p, u):
    """(output, [D handed to each poly_rows call]) of call(p, u)."""
    dens = []
    for module in (linearize, orthogonal, sequences):
        def recorded(gp, gk, den, count, start=(1,)):
            dens.append(den)
            return POLY_ROWS(gp, gk, den, count, start)

        monkeypatch.setattr(module, "poly_rows", recorded, raising=False)
    return call(p, u), dens


@pytest.mark.parametrize("name, call, past", KERNELS, ids=[k[0] for k in KERNELS])
def test_d_comes_from_exactly_the_rows_read(monkeypatch, name, call, past):
    for hs in h_sets():
        out, dens = run_recording_d(monkeypatch, call, *hs)
        assert dens
        moved = [h if r is None else with_new_denominator(h, r) for h, r in zip(hs, past)]
        assert run_recording_d(monkeypatch, call, *moved) == (out, dens)
        last = [h if r is None else with_new_denominator(h, r - 1) for h, r in zip(hs, past)]
        assert run_recording_d(monkeypatch, call, *last)[1] != dens


# -- partial orthogonality as slice 0 of d ----------------------------------------------

@st.composite
def any_h(draw):
    """(H, N): tridiagonal (a zero alpha allowed), banded or dense rows, T = 2N+2."""
    n_max = draw(st.integers(0, 4))
    t = 2 * n_max + 2
    entry = st.builds(F, st.integers(-4, 4), st.integers(1, 6))
    kind = draw(st.sampled_from(("tridiagonal", "banded", "dense")))
    if kind == "tridiagonal":
        spec = HSpec.tridiagonal(draw(st.lists(entry, min_size=t, max_size=t)),
                                 draw(st.lists(entry, min_size=t - 1, max_size=t - 1)))
    else:
        band = 2 if kind == "banded" else t
        spec = HSpec.from_rows([[draw(entry) if k - j <= band else 0 for j in range(k + 1)]
                                for k in range(t)])
    return realize_H(spec, t), n_max


@given(any_h())
@settings(max_examples=80, deadline=None)
def test_orthogonality_table_is_slice_0_of_d(case):
    h, n_max = case
    pair = build_P_recurrence(h)
    slice0 = lin_tensor_direct(pair, n_max).slices[0]
    assert orthogonality_table(pair, n_max) == [list(row) for row in slice0]


def zero_alpha_tridiagonal(rng, t):
    alpha = [rand_nonzero_fraction(rng) for _ in range(t - 1)]
    alpha[2] = F(0)
    return realize_H(HSpec.tridiagonal([rand_fraction(rng) for _ in range(t)], alpha), t)


def test_orthogonality_table_is_slice_0_of_d_with_a_zero_alpha():
    rng = random.Random(3)
    for n_max in (2, 4, 6):
        pair = build_P_recurrence(zero_alpha_tridiagonal(rng, 2 * n_max + 2))
        slice0 = lin_tensor_direct(pair, n_max).slices[0]
        assert orthogonality_table(pair, n_max) == [list(row) for row in slice0]


def moment_route(h, band, n_max):
    """partial_orthogonality_check through the pair, its moments and
    Polynomial products."""
    spread = band - 2
    max_n = (n_max - 1) // spread if n_max >= 1 else 0
    pair = build_P_recurrence(h)
    moments = tau_moments(pair)
    for n in range(max_n + 1):
        for m in range(spread * n + 1, n_max + 1):
            if tau_apply(moments, pair.polys[n] * pair.polys[m]) != 0:
                return False, (n, m)
    return True, None


def banded_cases():
    rng = random.Random(14142)
    for band, t, n_max in ((3, 16, 6), (4, 20, 12), (5, 20, 12), (4, 9, 5), (5, 4, 1)):
        for _ in range(3):
            yield banded_matrix(rng, t, band), band, n_max
    yield zero_alpha_tridiagonal(rng, 14), 3, 6


def test_partial_orthogonality_builds_no_pair_and_agrees_with_the_moment_route(monkeypatch):
    cases = [(h, band, n_max, moment_route(h, band, n_max))
             for h, band, n_max in banded_cases()]

    def forbidden(*args):
        raise AssertionError("partial_orthogonality_check left the row kernel")

    for name in ("build_P_recurrence", "tau_moments", "tau_apply"):
        monkeypatch.setattr(orthogonal, name, forbidden)
        monkeypatch.setattr(sequences, name, forbidden)
    monkeypatch.setattr(Polynomial, "__mul__", forbidden)
    for h, band, n_max, expected in cases:
        assert partial_orthogonality_check(h, band, n_max) == expected == (True, None)


def test_partial_orthogonality_takes_a_pair_for_its_h():
    def outcome(h, band, n_max):
        try:
            return partial_orthogonality_check(h, band, n_max)
        except PolyseqError as exc:
            return type(exc), str(exc)

    refused = set()
    for h, band, n_max in banded_cases():
        pair = build_P_recurrence(h)
        # the claimed band, one narrower (refused when H is wider) and the band refusal
        for claim in (band, band - 1, 2):
            got = outcome(h, claim, n_max)
            assert outcome(pair, claim, n_max) == got
            refused.add(got[0])
    assert refused == {True, StructureError, PolyseqError}


@given(st.sampled_from((3, 4, 5)), st.integers(1, 8),
       st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=1, max_size=4),
       st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_a_nonzero_slice_0_entry_is_reported_first_in_loop_order(band, n_max, faults, rng):
    # D^m added to entry 0 of run n at step m makes tau(p_n p_m) = 1 there.
    spread = band - 2
    max_n = (n_max - 1) // spread
    faults = {(n % (max_n + 1), m % (n_max + 1)) for n, m in faults}
    h = banded_matrix(rng, max_n + n_max + 2, band)
    run, calls = orthogonal.poly_rows, []

    def corrupted(gp, gk, den, count, start=(1,)):
        q = run(gp, gk, den, count, start)
        for n, m in faults:
            if n == len(calls):
                q[m][0] += den**m
        calls.append(q)
        return q

    checked = sorted((n, m) for n, m in faults if m >= spread * n + 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orthogonal, "poly_rows", corrupted)
        got = partial_orthogonality_check(h, band, n_max)
    assert got == ((False, checked[0]) if checked else (True, None))


# -- the shared inverse check -----------------------------------------------------------

def first_off_identity(q1, q2, den):
    """First (i, k), row-major, where the Fraction product of the full square
    matrices q1[i] / D^i and q2[i] / D^i differs from the identity."""
    t = len(q1)

    def square(q):
        return [[F(row[k], den**i) if k < len(row) else F(0) for k in range(t)]
                for i, row in enumerate(q)]

    m1, m2 = square(q1), square(q2)
    return next(((i, k) for i in range(t) for k in range(t)
                 if sum((m1[i][j] * m2[j][k] for j in range(t)), F(0)) != (i == k)), None)


@st.composite
def inverse_rows(draw):
    """(q1, q2, D) of an inverse pair: A and P of a random H, or the two
    directions of a connection between two random H."""
    t = draw(st.integers(1, 8))
    entry = st.builds(F, st.integers(-4, 4), st.sampled_from((1, 2, 3, 5, 7)))

    def rows_h():
        return realize_H(HSpec.from_rows(
            [[draw(entry) for _ in range(k + 1)] for k in range(t)]), t)

    if t < 2 or draw(st.booleans()):
        qa, qp, den = _integer_rows(rows_h())
        return (qa, qp, den) if draw(st.booleans()) else (qp, qa, den)
    hp, hu = rows_h(), rows_h()
    m_max = t - 2
    den, (gp, gu) = sequences.integer_band((hp, m_max), (hu, m_max))
    return (sequences.poly_rows(gp, gu, den, m_max + 1),
            sequences.poly_rows(gu, gp, den, m_max + 1), den)


@given(inverse_rows(), st.data())
@settings(max_examples=150, deadline=None)
def test_inverse_defect_reports_the_first_entry_off_the_identity(rows, data):
    q1, q2, den = rows
    assert inverse_defect(q1, q2, den) is None
    q = q1 if data.draw(st.booleans()) else q2
    i = data.draw(st.integers(0, len(q) - 1))
    j = data.draw(st.integers(0, i))
    q[i][j] += data.draw(st.sampled_from((1, -1, den, -den**i, 2 * den**i)))
    where = inverse_defect(q1, q2, den)
    assert where is not None and where == first_off_identity(q1, q2, den)
