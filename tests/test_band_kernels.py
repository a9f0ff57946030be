"""The band-aware production kernels against the routes they replaced.

lin_tensor_direct must equal, entry for entry, the rows of the full matrix
recurrence (recurrence_poly_matrices) and the scalar recurrence, and its
integer rows must survive denominators whose lcm grows past machine words;
its integer slice check must fail with the messages of the Fraction check it
replaced.  The pair self-check must accept and reject exactly the pairs the
product-based check did.  The integer sequence pair must equal the route it
replaced (the polynomial recurrence and the inverse of P), and its integer
check must fail with the messages of the Fraction self-check.  Closed forms
carry zero-tolerance checks to N = 40.
"""

import random
from fractions import Fraction as F
from math import comb, factorial, lcm

import pytest
from hypothesis import given, settings, strategies as st

from polyseq import (
    FamilyParams,
    HSpec,
    LinTensor,
    Polynomial,
    PropertyViolationError,
    SequencePair,
    StructureError,
    TruncMatrix,
    WindowError,
    build_A_rows,
    build_P_columns,
    build_P_recurrence,
    first_below_band,
    lin_tensor_direct,
    lin_tensor_oracle,
    lower_bandwidth,
    lower_tri_inverse,
    make_operator,
    realize_H,
    recurrence_poly_matrices,
    required_size,
    row_poly,
    tensors_agree,
)
from polyseq import sequences
from polyseq.crosscheck import _verify_pair
from polyseq.sequences import _check_integer_pair, _integer_rows
from tests.conftest import corrupt_run, rand_fraction, rand_hessenberg_rows, rand_nonzero_fraction
from tests.test_linearize import recurrence_tensor


def matrix_route(pair, n_max):
    """d(n,m,k) read off the full T x T stack p_0(H)..p_N(H)."""
    mats = recurrence_poly_matrices(pair.H, pair.H, n_max)
    slices = tuple(
        tuple(tuple(mats[m].rows[n][k] for m in range(n_max + 1)) for n in range(n_max + 1))
        for k in range(2 * n_max + 1)
    )
    return LinTensor(n_max=n_max, k_max=2 * n_max, slices=slices)


def seed_verify_pair(pair):
    """The pair self-check as five generic T x T products."""
    t = pair.size
    x = make_operator("X", t)
    if (pair.A @ pair.P) != make_operator("I", t):
        raise PropertyViolationError("A @ P differs from the identity")
    if not (pair.A @ pair.H).equal_on_window(x @ pair.A):
        raise PropertyViolationError("A @ H and X @ A disagree on the exact window")
    if not (pair.H @ pair.P).equal_on_window(pair.P @ x):
        raise PropertyViolationError("H @ P and P @ X disagree on the exact window")
    for k, poly in enumerate(pair.polys):
        if poly.degree != k or not poly.is_monic:
            raise PropertyViolationError(f"p_{k} is not monic of degree {k}")


def outcome(check, pair):
    try:
        check(pair)
    except PropertyViolationError as exc:
        return str(exc)
    return None


def banded_rows_spec(rng, count, band):
    return HSpec.from_rows([
        [rand_fraction(rng, -3, 3) if k - j <= band else 0 for j in range(k + 1)]
        for k in range(count)
    ])


# -- band profile -------------------------------------------------------------------

def test_lower_bandwidth_of_standard_shapes(rng):
    assert lower_bandwidth(make_operator("X", 5)) == -1
    assert lower_bandwidth(make_operator("I", 5)) == 0
    assert lower_bandwidth(make_operator("D", 5)) == 1
    cheb = realize_H(HSpec.from_family(FamilyParams("chebyshev", F(1, 4), F(0))), 6)
    assert lower_bandwidth(cheb) == 1
    assert lower_bandwidth(realize_H(banded_rows_spec(rng, 8, 2), 8)) <= 2
    dense = realize_H(HSpec.from_rows([[1] * (k + 1) for k in range(6)]), 6)
    assert lower_bandwidth(dense) == 5


def test_first_below_band_is_first_in_row_major_order():
    rows = [[0] * 5 for _ in range(5)]
    rows[3][0] = 1
    rows[4][1] = 2
    rows[4][0] = 3
    m = TruncMatrix(rows, index=0)
    assert lower_bandwidth(m) == 4
    assert first_below_band(m, 1) == (3, 0)
    assert first_below_band(m, 3) == (4, 0)
    assert first_below_band(m, 4) is None


# -- lin_tensor_direct against the matrix route and the scalar recurrence -----------

def assert_kernel_matches_oracles(pair, n_max):
    direct = lin_tensor_direct(pair, n_max)
    assert direct == matrix_route(pair, n_max)
    assert tensors_agree(direct, recurrence_tensor(pair.H, n_max)) is None


@pytest.mark.parametrize("params", [
    FamilyParams("chebyshev", F(1, 4), F(0)),
    FamilyParams("chebyshev", F(3, 2), F(-1, 3)),
    FamilyParams("hermite", F(1), F(0)),
    FamilyParams("hermite", F(2, 3), F(1, 2)),
    FamilyParams("charlier", F(1)),
    FamilyParams("charlier", F(5, 2)),
])
def test_direct_matches_oracles_on_families(params):
    spec = HSpec.from_family(params)
    for n_max in (0, 1, 4, 7):
        assert_kernel_matches_oracles(build_P_recurrence(realize_H(spec, required_size(n_max))), n_max)


def test_direct_matches_oracles_with_a_hole_in_the_band(rng):
    t = required_size(6)
    beta = [rand_fraction(rng) for _ in range(t)]
    alpha = [rand_nonzero_fraction(rng) for _ in range(t - 1)]
    alpha[3] = F(0)
    h = realize_H(HSpec.tridiagonal(beta, alpha), t)
    assert h.rows[4][3] == 0 and lower_bandwidth(h) == 1
    assert_kernel_matches_oracles(build_P_recurrence(h), 6)


def test_direct_matches_oracles_on_pentadiagonal_rows(rng):
    for n_max in (2, 5):
        t = required_size(n_max)
        h = realize_H(banded_rows_spec(rng, t, 2), t)
        assert lower_bandwidth(h) == 2
        assert_kernel_matches_oracles(build_P_recurrence(h), n_max)


def test_direct_matches_oracles_on_dense_rows(rng):
    for n_max in (1, 3, 5):
        t = required_size(n_max)
        h = realize_H(HSpec.from_rows(rand_hessenberg_rows(rng, t)), t)
        assert_kernel_matches_oracles(build_P_recurrence(h), n_max)


def test_direct_matches_oracles_above_required_size(rng):
    spec = HSpec.from_family(FamilyParams("hermite", F(1), F(0)))
    for extra in (1, 5):
        pair = build_P_recurrence(realize_H(spec, required_size(4) + extra))
        assert_kernel_matches_oracles(pair, 4)
    t = required_size(3) + 4
    dense = realize_H(HSpec.from_rows(rand_hessenberg_rows(rng, t)), t)
    assert_kernel_matches_oracles(build_P_recurrence(dense), 3)


def test_direct_on_the_bare_shift():
    # All lower entries zero: p_m(t) = t^m and d(n,m,k) = [k == n+m].
    t = required_size(4)
    h = realize_H(HSpec.tridiagonal([0] * t, [0] * (t - 1)), t)
    assert lower_bandwidth(h) == -1
    assert_kernel_matches_oracles(build_P_recurrence(h), 4)


# -- integer rows q_m = D^m * p_m(H) ------------------------------------------------

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)


def coprime_entry(rng, i):
    """A nonzero entry of either sign over the i-th prime (cycling)."""
    return F(rng.choice((-1, 1)) * rng.randint(1, 4), PRIMES[i % len(PRIMES)])


def coprime_rows_spec(rng, count, band):
    return HSpec.from_rows([
        [coprime_entry(rng, k + j) if k - j <= band else 0 for j in range(k + 1)]
        for k in range(count)
    ])


def coprime_tridiagonal_spec(rng, count):
    beta = [coprime_entry(rng, k) for k in range(count)]
    alpha = [coprime_entry(rng, k + 4) for k in range(count - 1)]
    return HSpec.tridiagonal(beta, alpha)


def kernel_denominator(h, n_max):
    """D of the integer kernel: lcm over the band of rows 0..2N-1 of H."""
    band = max(lower_bandwidth(h), 0)
    read = [h.rows[i][max(0, i - band):i + 1] for i in range(2 * n_max)]
    return lcm(*(v.denominator for row in read for v in row))


def assert_integer_kernel_matches(h, n_max):
    pair = build_P_recurrence(h)
    direct = lin_tensor_direct(h, n_max)
    assert direct == matrix_route(pair, n_max)
    assert tensors_agree(direct, lin_tensor_oracle(pair, n_max)) is None
    assert direct == lin_tensor_direct(pair, n_max)
    assert all(type(v) is F for sl in direct.slices for row in sl for v in row)
    return direct


@pytest.mark.parametrize("band", [1, 2, None])
def test_integer_kernel_on_coprime_rows(rng, band):
    for n_max in (2, 5):
        t = required_size(n_max)
        h = realize_H(coprime_rows_spec(rng, t, t if band is None else band), t)
        assert kernel_denominator(h, n_max) > 2 * 3 * 5 * 7
        assert_integer_kernel_matches(h, n_max)


def test_integer_kernel_on_coprime_tridiagonal(rng):
    for n_max in (1, 4, 7):
        t = required_size(n_max)
        assert_integer_kernel_matches(realize_H(coprime_tridiagonal_spec(rng, t), t), n_max)


def test_integer_kernel_past_64_bits(rng):
    n_max = 6
    t = required_size(n_max)
    h = realize_H(coprime_tridiagonal_spec(rng, t), t)
    den = kernel_denominator(h, n_max)
    assert den == lcm(*PRIMES) and den**n_max > 2**64
    direct = assert_integer_kernel_matches(h, n_max)
    assert max(v.denominator for sl in direct.slices for row in sl for v in row) > 2**64


def test_integer_kernel_takes_h_or_pair(hermite_pair, cheb_pair):
    for pair in (hermite_pair, cheb_pair):
        for n_max in (0, 2, 4):
            assert lin_tensor_direct(pair, n_max) == lin_tensor_direct(pair.H, n_max)


def test_direct_guards_run_on_h():
    h = realize_H(HSpec.from_family(FamilyParams("hermite", F(1), F(0))), 9)
    with pytest.raises(WindowError, match=r"lin_tensor_direct\(n_max=4\)"):
        lin_tensor_direct(h, 4)
    rows = [list(r) for r in h.rows]
    rows[2][3] = F(2)
    with pytest.raises(StructureError, match=r"entry \(2,3\) must be 1"):
        lin_tensor_direct(TruncMatrix(rows, index=-1), 3)


def seed_validate_d_properties(slices, n_max):
    """The slice identities checked on Fractions, in the kernel's order."""
    for k, sl in enumerate(slices):
        for n in range(n_max + 1):
            for m in range(n_max + 1):
                v = sl[n][m]
                if v != sl[m][n]:
                    raise PropertyViolationError(
                        f"d({n},{m},{k}) != d({m},{n},{k}): {v} vs {sl[m][n]}"
                    )
                if n + m < k and v != 0:
                    raise PropertyViolationError(
                        f"d({n},{m},{k}) = {v}, expected 0 (n+m < k)"
                    )
                if n + m == k and v != 1:
                    raise PropertyViolationError(
                        f"d({n},{m},{k}) = {v}, expected 1 (n+m = k)"
                    )
                if n == 0:
                    want = 1 if m == k else 0
                    if v != want:
                        raise PropertyViolationError(
                            f"d(0,{m},{k}) = {v}, expected {want}"
                        )


def violation_kind(message):
    if message is None:
        return None
    if " != " in message:
        return "symmetry"
    if "(n+m < k)" in message:
        return "zero"
    if "(n+m = k)" in message:
        return "one"
    return "row 0"


def test_integer_check_fails_like_the_fraction_check(monkeypatch):
    # One entry of one lin_tensor_direct run (run n is call n, from e_n) is
    # changed by D^power; the kernel must raise what the Fraction check
    # raises on the tensor the corrupted runs give, d(n,m,k) = run n at step
    # m over D^m.  Step m of run n lists columns 0..n+m only, so no run entry
    # lies where n+m < k ("zero"), and a changed d(0,m,k) or d(m,0,k) with
    # m > 0 breaks symmetry with the other first ("row 0").
    from polyseq import linearize

    rng = random.Random(11)
    kinds = set()
    for _ in range(300):
        n_max = rng.randint(1, 4)
        t = required_size(n_max)
        h = realize_H(coprime_tridiagonal_spec(rng, t), t)
        den = kernel_denominator(h, n_max)
        n = 0 if rng.random() < 0.3 else rng.randint(0, n_max)
        m = rng.randint(0, n_max)
        runs = []
        with monkeypatch.context() as mp:
            corrupt_run(mp, n, m, rng.randint(0, n + m), rng.randint(0, n_max))

            def recorded(*args, run=linearize.poly_rows, **kwargs):
                runs.append(run(*args, **kwargs))
                return runs[-1]

            mp.setattr(linearize, "poly_rows", recorded)
            got = outcome(lambda _: lin_tensor_direct(h, n_max), None)
        d = [[[F(runs[i][j][k], den**j) if k <= i + j else F(0) for j in range(n_max + 1)]
              for i in range(n_max + 1)] for k in range(2 * n_max + 1)]
        assert got == outcome(lambda _: seed_validate_d_properties(d, n_max), None)
        kinds.add(violation_kind(got))
    assert kinds == {None, "symmetry", "one"}


# -- the pair self-check ------------------------------------------------------------

def random_pair(rng, size=8):
    return build_P_recurrence(realize_H(HSpec.from_rows(rand_hessenberg_rows(rng, size)), size))


def with_entry(m, i, j, value, exact_rows=None):
    rows = [list(r) for r in m.rows]
    rows[i][j] = F(value)
    er = m.exact_rows if exact_rows is None else exact_rows
    return TruncMatrix(rows, index=m.index, exact_rows=er)


def test_self_check_accepts_built_pairs(rng):
    for _ in range(3):
        pair = random_pair(rng)
        assert outcome(_verify_pair, pair) is None
        assert outcome(seed_verify_pair, pair) is None


def test_self_check_rejects_broken_inverse(rng):
    pair = random_pair(rng)
    a = with_entry(pair.A, 3, 1, pair.A.rows[3][1] + 1)
    bad = SequencePair(H=pair.H, A=a, P=pair.P, polys=pair.polys)
    with pytest.raises(PropertyViolationError, match=r"A @ P differs"):
        _verify_pair(bad)
    assert outcome(seed_verify_pair, bad) == outcome(_verify_pair, bad)


def test_self_check_rejects_broken_left_similarity(rng):
    pair = random_pair(rng)
    h = with_entry(pair.H, 2, 0, pair.H.rows[2][0] + 1)
    bad = SequencePair(H=h, A=pair.A, P=pair.P, polys=pair.polys)
    with pytest.raises(PropertyViolationError, match=r"A @ H and X @ A"):
        _verify_pair(bad)
    assert outcome(seed_verify_pair, bad) == outcome(_verify_pair, bad)


def test_self_check_rejects_broken_right_similarity(rng):
    # A certificate of one row leaves A@H = X@A nothing to compare, so only
    # H@P = P@X can catch the changed row of H.
    pair = random_pair(rng)
    a = TruncMatrix(pair.A.rows, index=0, exact_rows=1)
    h = with_entry(pair.H, 2, 0, pair.H.rows[2][0] + 1)
    bad = SequencePair(H=h, A=a, P=pair.P, polys=pair.polys)
    with pytest.raises(PropertyViolationError, match=r"H @ P and P @ X"):
        _verify_pair(bad)
    assert outcome(seed_verify_pair, bad) == outcome(_verify_pair, bad)


def test_self_check_rejects_non_monic_member(rng):
    pair = random_pair(rng)
    polys = list(pair.polys)
    polys[2] = polys[2].scale(2)
    bad = SequencePair(H=pair.H, A=pair.A, P=pair.P, polys=tuple(polys))
    with pytest.raises(PropertyViolationError, match=r"p_2 is not monic"):
        _verify_pair(bad)


def test_self_check_windows_follow_h_certificate(rng):
    # H is changed in one row below its certificate; the pair passes exactly
    # when the seed's product windows leave that row out.
    pair = random_pair(rng)
    t = pair.size
    verdicts = set()
    for er in range(t + 1):
        for r in range(t):
            h = with_entry(pair.H, r, 0, pair.H.rows[r][0] + 1, exact_rows=er)
            bad = SequencePair(H=h, A=pair.A, P=pair.P, polys=pair.polys)
            new, old = outcome(_verify_pair, bad), outcome(seed_verify_pair, bad)
            assert new == old, (er, r)
            verdicts.add(new is None)
    assert verdicts == {True, False}


def test_self_check_agrees_with_seed_on_random_damage():
    # One entry of H, A or P changed, and every certificate and declared
    # index drawn at random, so each identity is the first to fail in some
    # cases.
    rng = random.Random(7)
    verdicts = set()
    for _ in range(150):
        pair = random_pair(rng, size=rng.randint(2, 7))
        t = pair.size
        mats = {"H": pair.H, "A": pair.A, "P": pair.P}
        name = rng.choice("HAP")
        i = rng.randrange(t)
        j = rng.randrange(i + 1)
        m = mats[name]
        mats[name] = with_entry(m, i, j, m.rows[i][j] + rng.choice((0, 1, F(-1, 2))))
        mats = {k: TruncMatrix(m.rows, index=m.index - rng.randint(0, 1),
                               exact_rows=rng.randint(0, t))
                for k, m in mats.items()}
        bad = SequencePair(H=mats["H"], A=mats["A"], P=mats["P"], polys=pair.polys)
        verdict = outcome(_verify_pair, bad)
        assert verdict == outcome(seed_verify_pair, bad)
        verdicts.add(verdict)
    assert len(verdicts) == 4  # accepted, and each of the three identities


# -- the integer sequence pair ------------------------------------------------------

def seed_pair_route(h):
    """(A, P, polys) by the polynomial recurrence and the inverse of P."""
    t = h.size
    polys = [Polynomial.one()]
    for k in range(t - 1):
        nxt = polys[k].times_t()
        for j in range(k + 1):
            c = h.rows[k][j]
            if c:
                nxt = nxt - polys[j].scale(c)
        polys.append(nxt)
    p = TruncMatrix((poly.padded(t) for poly in polys), index=0, exact_rows=t)
    return lower_tri_inverse(p), p, tuple(polys)


def assert_pair_matches_seed_route(h):
    pair = build_P_recurrence(h)
    a, p, polys = seed_pair_route(h)
    assert pair.H is h
    assert pair.P == p and pair.A == a and pair.polys == polys
    for new, old in ((pair.A, a), (pair.P, p)):
        assert (new.size, new.index, new.exact_rows) == (old.size, old.index, old.exact_rows)
        assert all(type(row) is tuple for row in new.rows)
        assert all(type(v) is F for row in new.rows for v in row)
    assert all(type(c) is F for poly in pair.polys for c in poly.coeffs)
    assert pair.A == build_A_rows(h) and pair.P == build_P_columns(h)
    return pair


def prime_entry(rng, i, lo=-4):
    """An entry of either sign (zero when lo allows it) over the i-th prime."""
    return F(rng.randint(lo, 4), PRIMES[i % len(PRIMES)])


@st.composite
def integer_pair_h(draw):
    """H with band 0, 1, 2 or dense and entries over pairwise coprime primes."""
    t = draw(st.integers(1, 9))
    band = draw(st.sampled_from((0, 1, 2, None)))
    entry = st.builds(F, st.integers(-4, 4), st.sampled_from(PRIMES))
    rows = [[draw(entry) if band is None or k - j <= band else 0 for j in range(k + 1)]
            for k in range(t)]
    return realize_H(HSpec.from_rows(rows), t)


@given(integer_pair_h())
@settings(max_examples=60, deadline=None)
def test_integer_pair_matches_the_inverse_route(h):
    assert_pair_matches_seed_route(h)


@pytest.mark.parametrize("band", [0, 1, 2, None])
@pytest.mark.parametrize("t", [1, 2, 3, 9])
def test_integer_pair_on_each_band_and_size(rng, band, t):
    rows = [[prime_entry(rng, k + j) if band is None or k - j <= band else 0
             for j in range(k + 1)] for k in range(t)]
    h = realize_H(HSpec.from_rows(rows), t)
    assert lower_bandwidth(h) <= (t - 1 if band is None else band)
    assert_pair_matches_seed_route(h)


def test_integer_pair_with_a_zero_alpha_and_negative_entries(rng):
    t = 10
    beta = [-prime_entry(rng, k, lo=1) for k in range(t)]
    alpha = [-prime_entry(rng, k + 3, lo=1) for k in range(t - 1)]
    alpha[4] = F(0)
    h = realize_H(HSpec.tridiagonal(beta, alpha), t)
    assert h.rows[5][4] == 0 and all(h.rows[k][k] < 0 for k in range(t))
    assert_pair_matches_seed_route(h)


def test_integer_pair_past_64_bits(rng):
    t = 16
    h = realize_H(coprime_tridiagonal_spec(rng, t), t)
    den = _integer_rows(h)[2]
    assert den == lcm(*PRIMES) and den**(t - 1) > 2**64
    pair = assert_pair_matches_seed_route(h)
    for m in (pair.A, pair.P):
        assert max(v.denominator for row in m.rows for v in row) > 2**64


def test_integer_pair_on_families_and_dense_rows(rng):
    for params in (FamilyParams("charlier", F(3, 7)), FamilyParams("hermite", F(1), F(0)),
                   FamilyParams("chebyshev", F(1, 4), F(0))):
        assert_pair_matches_seed_route(realize_H(HSpec.from_family(params), 20))
    assert_pair_matches_seed_route(realize_H(HSpec.from_rows(rand_hessenberg_rows(rng, 16)), 16))


def fraction_pair(h, qa, qp, den):
    """The pair the integer rows stand for: row j over D^j."""
    t = h.size

    def over(q):
        return TruncMatrix([[F(v, den**j) for v in row] + [0] * (t - j - 1)
                            for j, row in enumerate(q)], index=0, exact_rows=t)

    a, p = over(qa), over(qp)
    return SequencePair(H=h, A=a, P=p, polys=tuple(row_poly(p, k) for k in range(t)))


def test_integer_pair_check_fails_like_the_fraction_check():
    # One entry of q_A or q_P changed; or row k of P and column k of A
    # negated together, which keeps A@P = I; or H changed after the rows
    # were built.  H's certificate and declared index are drawn, so that
    # A@P, A@H and the monic check are each the first to fail in some cases.
    # H@P = P@X never is: with A exact on every row, its window lies inside
    # that of A@H = X@A, and there P@(A@H) = P@(X@A) gives H = P@X@A on
    # those rows, so H@P = P@X follows from A@P = I.
    rng = random.Random(13)
    verdicts = set()
    for _ in range(300):
        t = rng.randint(1, 7)
        h = realize_H(coprime_rows_spec(rng, t, rng.choice((1, 2, t))), t)
        qa, qp, den = _integer_rows(h)
        kind = rng.choice(("A", "P", "sign", "H", "none"))
        i = rng.randrange(t)
        j = rng.randrange(i + 1)
        if kind in ("A", "P"):
            q = qa if kind == "A" else qp
            q[i][j] += rng.choice((1, -1, den, -2))
        elif kind == "sign":
            qp[i] = [-v for v in qp[i]]
            for r in range(i, t):
                qa[r][i] = -qa[r][i]
        elif kind == "H":
            h = with_entry(h, i, j, h.rows[i][j] + rng.choice((1, -2)))
        h = TruncMatrix(h.rows, index=rng.choice((-1, -2)), exact_rows=rng.randint(0, t))
        got = outcome(lambda _: _check_integer_pair(h, qa, qp, den), None)
        assert got == outcome(_verify_pair, fraction_pair(h, qa, qp, den)), kind
        verdicts.add(got and ("monic" if got.startswith("p_") else got[:5]))
    assert verdicts == {None, "A @ P", "A @ H", "monic"}


VERIFY_NAMES = [
    "pair-invariants", "A-rows-vs-inverse", "P-columns-vs-recurrence", "H-right-inverse",
    "Hhat-left-defect-column-0", "direct-tensor-properties", "direct-vs-recurrence",
    "direct-vs-oracle", "product-reconstruction", "row-identity", "row-recurrence",
    "norms-diagonal", "direct-vs-four-term", "orthogonality-table", "support-bound",
]


def test_verify_checks_the_pair_it_is_handed(monkeypatch):
    from polyseq import verify

    spec = HSpec.from_family(FamilyParams("charlier", F(3, 7)))
    results = verify.run_suite(spec, 3)
    assert [r.name for r in results] == VERIFY_NAMES and all(r.ok for r in results)
    built = build_P_recurrence(realize_H(spec, required_size(3)))
    for name in "AP":
        damaged = with_entry(getattr(built, name), 4, 2, getattr(built, name).rows[4][2] + 1)
        bad = SequencePair(H=built.H, A=damaged if name == "A" else built.A,
                           P=damaged if name == "P" else built.P, polys=built.polys)
        monkeypatch.setattr(verify, "build_P_recurrence", lambda h, bad=bad: bad)
        failed = {r.name: r.detail for r in verify.run_suite(spec, 3) if not r.ok}
        assert failed["pair-invariants"] == "A @ P differs from the identity"
        assert "A-rows-vs-inverse" in failed
        assert ("P-columns-vs-recurrence" in failed) == (name == "P")


@pytest.mark.parametrize("entry,value", [((2, 3), F(2)), ((1, 2), F(1, 2)), ((0, 2), F(3))])
def test_build_checks_the_unit_superdiagonal_before_any_arithmetic(monkeypatch, entry, value):
    t = 5
    rows = [[F(0)] * t for _ in range(t)]
    for i in range(t - 1):
        rows[i][i + 1] = F(1)
    rows[entry[0]][entry[1]] = value
    h = TruncMatrix(rows, index=-2)
    with pytest.raises(StructureError) as expected:
        sequences.check_unit_hessenberg(h)

    def no_arithmetic(_h):
        raise AssertionError("integer rows built before the structure check")

    monkeypatch.setattr(sequences, "_integer_rows", no_arithmetic)
    with pytest.raises(StructureError) as got:
        build_P_recurrence(h)
    assert str(got.value) == str(expected.value)
    assert f"entry ({entry[0]},{entry[1]})" in str(got.value)


def test_pair_check_scales_h_apart_from_the_kernel(monkeypatch):
    # D is added to D*H[2][1] in the kernel's integer_band: A and P stay
    # inverse to each other, but A@H = X@A fails against the D*H the check
    # scales from h.rows itself.
    band = sequences.integer_band

    def shifted(rows, *hs):
        den, gs = band(rows, *hs)
        gs[0][2] = [(j, c + den if j == 1 else c) for j, c in gs[0][2]]
        return den, gs

    monkeypatch.setattr(sequences, "integer_band", shifted)
    with pytest.raises(PropertyViolationError,
                       match=r"^A @ H and X @ A disagree on the exact window$"):
        build_P_recurrence(realize_H(HSpec.from_family(FamilyParams("charlier", F(3, 7))), 8))


def test_pair_check_demands_a_d_that_clears_h():
    # The rows are built from one H and checked against another with a new
    # denominator in row T-2, which the check scales itself.
    h = realize_H(HSpec.from_family(FamilyParams("charlier", F(3, 7))), 8)
    qa, qp, den = _integer_rows(h)
    with pytest.raises(PropertyViolationError, match=r"^D = 7 does not clear H\[6\]\[0\] = 1/11$"):
        _check_integer_pair(with_entry(h, 6, 0, F(1, 11)), qa, qp, den)


# -- H's certificate ----------------------------------------------------------------

def charlier_h(t=8, exact_rows=None, bump=None):
    """charlier a=3/7 at size t, certified on exact_rows rows, with 1 added
    to entry (bump, 0) when bump is given."""
    h = realize_H(HSpec.from_family(FamilyParams("charlier", F(3, 7))), t)
    if bump is not None:
        h = with_entry(h, bump, 0, h.rows[bump][0] + 1)
    return TruncMatrix(h.rows, index=-1, exact_rows=t if exact_rows is None else exact_rows)


def test_pair_certificate_follows_h():
    # Row j of A and P reads rows 0..j-1 of H: an H changed in row er (its
    # first uncertified row) changes rows er+1.. only.
    t = 8
    exact = build_P_recurrence(charlier_h(t))
    for er in range(t):
        pair = build_P_recurrence(charlier_h(t, er, bump=er))
        cert = min(t, er + 1)
        assert pair.A.exact_rows == pair.P.exact_rows == cert
        assert pair.P.rows[:cert] == exact.P.rows[:cert]
        assert pair.A.rows[:cert] == exact.A.rows[:cert]
        if cert < t:
            assert pair.P.rows[cert] != exact.P.rows[cert]


@pytest.mark.parametrize("kernel", [lin_tensor_direct, recurrence_tensor],
                         ids=["direct", "recurrence"])
def test_linearization_needs_h_certified_on_the_rows_it_reads(kernel):
    # n_max = 3 reads rows 0..5 of H: row 6 may be wrong, row 5 may not.
    n_max, t = 3, 8
    exact = kernel(charlier_h(t), n_max)
    assert kernel(charlier_h(t, 2 * n_max, bump=2 * n_max), n_max) == exact
    for er in (2, 2 * n_max - 1):
        with pytest.raises(WindowError, match="on exact rows of H"):
            kernel(charlier_h(t, er), n_max)


# -- closed forms at N = 40 ---------------------------------------------------------

def closed_form_tensor(n_max, weight):
    """d(n,m,n+m-2j) = weight(n, m, j) for j <= min(n, m), zero elsewhere."""
    slices = [[[F(0)] * (n_max + 1) for _ in range(n_max + 1)] for _ in range(2 * n_max + 1)]
    for n in range(n_max + 1):
        for m in range(n_max + 1):
            for j in range(min(n, m) + 1):
                slices[n + m - 2 * j][n][m] = weight(n, m, j)
    return LinTensor(
        n_max=n_max,
        k_max=2 * n_max,
        slices=tuple(tuple(tuple(row) for row in sl) for sl in slices),
    )


CLOSED_FORM_WEIGHTS = {
    "chebyshev": lambda a, n, m, j: a**j,
    "hermite": lambda a, n, m, j: factorial(j) * comb(m, j) * comb(n, j) * a**j,
}


@pytest.mark.parametrize("name", sorted(CLOSED_FORM_WEIGHTS))
def test_direct_matches_closed_form_at_n40(name):
    a = F(3, 2)
    n_max = 40
    pair = build_P_recurrence(
        realize_H(HSpec.from_family(FamilyParams(name, a, F(0))), required_size(n_max)))
    weight = CLOSED_FORM_WEIGHTS[name]
    expected = closed_form_tensor(n_max, lambda n, m, j: weight(a, n, m, j))
    assert lin_tensor_direct(pair, n_max) == expected
