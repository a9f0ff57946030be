"""The band-aware production kernels against the routes they replaced.

lin_tensor_direct must equal, entry for entry, the rows of the full matrix
recurrence (recurrence_poly_matrices) and the scalar recurrence, and its
integer rows must survive denominators whose lcm grows past machine words;
its integer slice check must fail with the messages of the Fraction check it
replaced.  The pair self-check must accept and reject exactly the pairs the
product-based check did.  Closed forms carry zero-tolerance checks to N = 40.
"""

import random
from fractions import Fraction as F
from math import comb, factorial, lcm

import pytest

from polyseq import (
    FamilyParams,
    HSpec,
    LinTensor,
    PropertyViolationError,
    SequencePair,
    StructureError,
    TruncMatrix,
    WindowError,
    build_P_recurrence,
    first_below_band,
    lin_tensor_direct,
    lin_tensor_oracle,
    lower_bandwidth,
    make_operator,
    realize_H,
    recurrence_poly_matrices,
    required_size,
    tensors_agree,
)
from polyseq.linearize import _check_d_properties
from polyseq.sequences import _verify_pair
from tests.conftest import rand_fraction, rand_hessenberg_rows, rand_nonzero_fraction
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


def test_integer_check_fails_like_the_fraction_check():
    # d(n,m,k) is changed, alone or together with d(m,n,k), by an amount that
    # keeps D^m * d integral, so that each identity is the first to fail in
    # some cases; the integer check must raise the Fraction check's message.
    rng = random.Random(11)
    kinds = set()
    for _ in range(300):
        n_max = rng.randint(1, 4)
        t = required_size(n_max)
        h = realize_H(coprime_tridiagonal_spec(rng, t), t)
        den = kernel_denominator(h, n_max)
        powers = [den**m for m in range(n_max + 1)]
        d = [[list(row) for row in sl] for sl in lin_tensor_direct(h, n_max).slices]
        n = 0 if rng.random() < 0.3 else rng.randint(0, n_max)
        m, k = rng.randint(0, n_max), rng.randint(0, 2 * n_max)
        both = rng.random() < 0.6
        if min(n, m) if both else m:
            delta = rng.choice((1, -1, F(1, den), F(-2, den)))
        else:
            delta = rng.choice((1, -1, 2))
        d[k][n][m] += delta
        if both:
            d[k][m][n] = d[k][n][m]
        q = [[[d[kk][i][j] * powers[j] for kk in range(2 * n_max + 1)]
              for i in range(n_max + 1)] for j in range(n_max + 1)]
        assert all(v.denominator == 1 for qj in q for row in qj for v in row)
        q = [[[int(v) for v in row] for row in qj] for qj in q]
        got = outcome(lambda _: _check_d_properties(q, powers, n_max), None)
        assert got == outcome(lambda _: seed_validate_d_properties(d, n_max), None)
        kinds.add(violation_kind(got))
    assert kinds == {None, "symmetry", "zero", "one", "row 0"}


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
