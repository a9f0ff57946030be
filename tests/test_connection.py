"""connection_matrix and mixed_tensor against the full-matrix route.

The oracle is row 0 of p_m(K), the matrices recurrence_poly_matrices builds
with p's recurrence at u's matrix K; C = P_p @ A_u, the route that built C
before it came from H alone, is a second one.  The last test keeps the
oracles of the crosscheck module out of the production modules.
"""

import ast
import pathlib
from fractions import Fraction as F
from itertools import product
from math import lcm

import pytest

from polyseq import (
    FamilyParams,
    HSpec,
    Polynomial,
    PolyseqError,
    PropertyViolationError,
    SequencePair,
    StructureError,
    TruncMatrix,
    WindowError,
    build_P_recurrence,
    connection_matrix,
    lin_tensor_direct,
    lin_tensor_recurrence,
    linearize_with_w,
    lower_bandwidth,
    mixed_tensor,
    realize_H,
    recurrence_poly_matrices,
    required_size,
    verify_inverse_connection,
)
from tests.conftest import (
    corrupt_run,
    rand_fraction,
    rand_hessenberg_rows,
    rand_nonzero_fraction,
    rand_tridiagonal_spec,
)

FAMILIES = {
    "chebyshev": HSpec.from_family(FamilyParams("chebyshev", F(1, 4), F(0))),
    "hermite": HSpec.from_family(FamilyParams("hermite", F(1), F(0))),
    "charlier": HSpec.from_family(FamilyParams("charlier", F(1))),
}


def pair_of(spec, t):
    return build_P_recurrence(realize_H(spec, t))


def oracle_connection(pair_p, pair_u, m_max):
    mats = recurrence_poly_matrices(pair_p.H, pair_u.H, m_max)
    return [[mats[m].rows[0][k] for k in range(m_max + 1)] for m in range(m_max + 1)]


def assert_connection_matches_oracle(pair_p, pair_u, m_max):
    conn = connection_matrix(pair_p, pair_u, m_max)
    assert conn == oracle_connection(pair_p, pair_u, m_max)
    # the retired production route, C = P_p @ A_u, through generic mat_mul
    pa = pair_p.P @ pair_u.A
    assert conn == [list(row[: m_max + 1]) for row in pa.rows[: m_max + 1]]
    assert connection_matrix(pair_p.H, pair_u.H, m_max) == conn
    assert all(isinstance(v, F) for row in conn for v in row)


@pytest.mark.parametrize("p_name,u_name", list(product(FAMILIES, repeat=2)))
def test_connection_matches_oracle_on_family_pairs(p_name, u_name):
    for m_max in (0, 1, 6):
        t = m_max + 2
        assert_connection_matches_oracle(
            pair_of(FAMILIES[p_name], t), pair_of(FAMILIES[u_name], t), m_max)


def test_connection_matches_oracle_with_a_zero_alpha(rng):
    t = 10
    beta = [rand_fraction(rng) for _ in range(t)]
    alpha = [rand_nonzero_fraction(rng) for _ in range(t - 1)]
    alpha[4] = F(0)
    pair_p = pair_of(HSpec.tridiagonal(beta, alpha), t)
    pair_u = pair_of(rand_tridiagonal_spec(rng, t), t)
    assert_connection_matches_oracle(pair_p, pair_u, t - 2)
    assert_connection_matches_oracle(pair_u, pair_p, t - 2)


def test_connection_matches_oracle_on_banded_and_dense_rows(rng):
    t = 10
    penta = HSpec.from_rows([
        [rand_fraction(rng, -3, 3) if k - j <= 2 else 0 for j in range(k + 1)]
        for k in range(t)
    ])
    dense = HSpec.from_rows(rand_hessenberg_rows(rng, t))
    pair_penta, pair_dense = pair_of(penta, t), pair_of(dense, t)
    assert lower_bandwidth(pair_penta.H) == 2
    assert lower_bandwidth(pair_dense.H) == t - 1
    assert_connection_matches_oracle(pair_penta, pair_dense, t - 2)
    assert_connection_matches_oracle(pair_dense, pair_penta, t - 2)
    assert_connection_matches_oracle(pair_dense, pair_of(FAMILIES["charlier"], t), t - 2)


def test_connection_of_a_sequence_to_itself_is_the_identity(rng):
    pair = pair_of(HSpec.from_rows(rand_hessenberg_rows(rng, 9)), 9)
    assert connection_matrix(pair, pair, 7) == [
        [F(int(m == k)) for k in range(8)] for m in range(8)
    ]


def test_connection_matches_oracle_above_required_size():
    for t in (9, 14):
        assert_connection_matches_oracle(
            pair_of(FAMILIES["hermite"], t), pair_of(FAMILIES["charlier"], t), 4)


def test_connection_matches_oracle_at_m_max_30():
    t = 32
    assert_connection_matches_oracle(
        pair_of(FAMILIES["chebyshev"], t), pair_of(FAMILIES["hermite"], t), 30)


def assert_mixed_matches_oracle(pair_p, pair_u, n_max):
    # e(n,m,k) = sum_j d(n,m,j) * C[j][k], with d = p_m(H_p)[n][j] from full matrices
    pnh = recurrence_poly_matrices(pair_p.H, pair_p.H, n_max)
    conn = oracle_connection(pair_p, pair_u, 2 * n_max)
    mixed = mixed_tensor(pair_p, pair_u, n_max)
    for n, m, k in product(range(n_max + 1), range(n_max + 1), range(2 * n_max + 1)):
        want = sum(pnh[m].rows[n][j] * conn[j][k] for j in range(2 * n_max + 1))
        assert mixed.value(n, m, k) == want


def test_mixed_tensor_matches_oracle(rng):
    for n_max in (3, 8):
        t = required_size(n_max)
        for pair_p, pair_u in (
            (pair_of(FAMILIES["chebyshev"], t), pair_of(FAMILIES["charlier"], t)),
            (pair_of(HSpec.from_rows(rand_hessenberg_rows(rng, t)), t),
             pair_of(rand_tridiagonal_spec(rng, t), t)),
        ):
            assert_mixed_matches_oracle(pair_p, pair_u, n_max)


# Run 0 of mixed_tensor is C's; run n+1 starts at C[n], and its step m is e(n,m,.).
@pytest.mark.parametrize("run, m, k, message", [
    (2, 3, 2, r"^e\(1,3,2\) != e\(3,1,2\): "),
    (4, 0, 2, r"^e\(0,3,2\) != e\(3,0,2\): "),
    (3, 2, 4, r"^e\(2,2,4\) = \S+, expected 1 \(n\+m = k\)$"),
    (1, 0, 0, r"^e\(0,0,0\) = \S+, expected 1 \(n\+m = k\)$"),
])
def test_mixed_tensor_self_check_names_a_corrupted_entry(monkeypatch, run, m, k, message):
    h_p, h_u = realize_H(FAMILIES["chebyshev"], 8), realize_H(FAMILIES["charlier"], 8)
    corrupt_run(monkeypatch, run, m, k)
    with pytest.raises(PropertyViolationError, match=message):
        mixed_tensor(h_p, h_u, 3)


def test_connection_reads_no_certificate_of_p_or_a():
    t, m_max = 8, 5
    h_p, h_u = realize_H(FAMILIES["charlier"], t), realize_H(FAMILIES["hermite"], t)
    pair_p, pair_u = build_P_recurrence(h_p), build_P_recurrence(h_u)
    want = connection_matrix(h_p, h_u, m_max)
    for p_rows, a_rows in ((m_max, t), (t, m_max - 1), (3, 2)):
        hand_p = SequencePair(H=h_p, A=pair_p.A, polys=pair_p.polys,
                              P=TruncMatrix(pair_p.P.rows, index=0, exact_rows=p_rows))
        hand_u = SequencePair(H=h_u, P=pair_u.P, polys=pair_u.polys,
                              A=TruncMatrix(pair_u.A.rows, index=0, exact_rows=a_rows))
        assert connection_matrix(hand_p, hand_u, m_max) == want
    short = build_P_recurrence(TruncMatrix(h_p.rows, index=-1, exact_rows=m_max - 1))
    with pytest.raises(WindowError, match="on exact rows of H_p, H_u") as exc:
        connection_matrix(short, pair_u, m_max)
    assert (exc.value.required, exc.value.actual) == (m_max, m_max - 1)


# -- one window gate for every kernel that reads H ----------------------------------
# Each kernel below reads rows 0..3 of H (N = 2, m_max = 4), so each needs T >= 6
# and a certificate on 4 rows.  The cases break one condition each.

def hermite_h(t=8, exact=None, superdiagonal=1):
    rows = [list(row) for row in realize_H(FAMILIES["hermite"], t).rows]
    rows[0][1] = F(superdiagonal)
    return TruncMatrix(rows, index=-1, exact_rows=exact)


GATED = {
    "lin_tensor_direct": lambda p, u: lin_tensor_direct(p, 2),
    "lin_tensor_recurrence": lambda p, u: lin_tensor_recurrence(p, 2, 0),
    "connection_matrix": lambda p, u: connection_matrix(p, u, 4),
    "mixed_tensor": lambda p, u: mixed_tensor(p, u, 2),
    "linearize_with_w": lambda p, u: linearize_with_w(p, Polynomial((0, 0, 1)), 2),
}
TWO_H = ("connection_matrix", "mixed_tensor")
LABEL = {"lin_tensor_direct": "lin_tensor_direct(n_max=2)",
         "lin_tensor_recurrence": "lin_tensor_recurrence(n_max=2)",
         "connection_matrix": "connection_matrix(m_max=4)", "mixed_tensor": "mixed_tensor(n_max=2)",
         "linearize_with_w": "linearize_with_w(n=2, deg=2)"}
ROWS_OF = dict.fromkeys(GATED, " on exact rows of H")
ROWS_OF.update(dict.fromkeys(TWO_H, " on exact rows of H_p, H_u"))
SHORT = " needs truncation size T >= 6, got T = 5"
UNCERTIFIED = " needs truncation size T >= 4, got T = 3"
SUPERDIAGONAL = (StructureError, None, "entry (0,1) must be 1, got 2")
# (case, kernel, H_p, H_u, (type, (required, actual) or None, message))
GATE_CASES = [
    *(("short truncation", name, hermite_h(5), hermite_h(5),
       (WindowError, (6, 5), LABEL[name] + SHORT)) for name in GATED),
    *(("unequal sizes", name, hermite_h(8), hermite_h(9),
       (StructureError, None, "size mismatch: 8 vs 9")) for name in TWO_H),
    *(("short certificate", name, hermite_h(exact=3), hermite_h(),
       (WindowError, (4, 3), LABEL[name] + ROWS_OF[name] + UNCERTIFIED)) for name in GATED),
    *(("short certificate of H_u", name, hermite_h(), hermite_h(exact=3),
       (WindowError, (4, 3), LABEL[name] + ROWS_OF[name] + UNCERTIFIED)) for name in TWO_H),
    *(("2 on the superdiagonal", name, hermite_h(superdiagonal=2), hermite_h(), SUPERDIAGONAL)
      for name in GATED),
    *(("2 on the superdiagonal of H_u", name, hermite_h(), hermite_h(superdiagonal=2),
       SUPERDIAGONAL) for name in TWO_H),
]


@pytest.mark.parametrize("case,name,h_p,h_u,want", GATE_CASES,
                         ids=[f"{c[1]}-{c[0]}" for c in GATE_CASES])
def test_every_kernel_that_reads_h_refuses_through_one_gate(case, name, h_p, h_u, want):
    kind, window, message = want
    with pytest.raises(PolyseqError) as exc:
        GATED[name](h_p, h_u)
    assert type(exc.value) is kind
    assert str(exc.value) == message
    if window is not None:
        assert (exc.value.required, exc.value.actual) == window


def test_the_gate_passes_what_each_kernel_reads():
    for run in GATED.values():
        run(hermite_h(6), hermite_h(6, exact=4))
        run(hermite_h(6, exact=4), hermite_h(6))


# -- C from H alone ------------------------------------------------------------------

def test_connection_takes_two_h_or_two_pairs(rng):
    t = 10
    dense = realize_H(HSpec.from_rows(rand_hessenberg_rows(rng, t)), t)
    charlier = realize_H(FAMILIES["charlier"], t)
    for h_p, h_u in ((dense, charlier), (charlier, dense), (dense, dense)):
        pair_p, pair_u = build_P_recurrence(h_p), build_P_recurrence(h_u)
        for m_max in (0, 1, t - 2):
            assert connection_matrix(h_p, h_u, m_max) == connection_matrix(pair_p, pair_u, m_max)
        assert mixed_tensor(h_p, h_u, 2) == mixed_tensor(pair_p, pair_u, 2)


@pytest.mark.parametrize("short", ["p", "u"])
def test_connection_refuses_h_certified_on_fewer_than_m_max_rows(short):
    t, m_max = 8, 5
    full = {"p": realize_H(FAMILIES["chebyshev"], t), "u": realize_H(FAMILIES["hermite"], t)}

    def certified(rows):
        return dict(full, **{short: TruncMatrix(full[short].rows, index=-1, exact_rows=rows)})

    with pytest.raises(WindowError, match="on exact rows of H_p, H_u") as exc:
        connection_matrix(*certified(m_max - 1).values(), m_max)
    assert (exc.value.required, exc.value.actual) == (m_max, m_max - 1)
    want = connection_matrix(full["p"], full["u"], m_max)
    assert connection_matrix(*certified(m_max).values(), m_max) == want
    assert connection_matrix(*certified(m_max - 1).values(), m_max - 1) == [
        row[:m_max] for row in want[:m_max]]


COPRIME = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def test_connection_past_64_bits(rng):
    # Pairwise coprime denominators: D is their product and D^m passes 2^64
    # after a few rows, so the integer rows outgrow machine words.
    t, m_max = 16, 14

    def spec(offset):
        def entry(k):
            return F(rng.choice((-1, 1)) * rng.randint(1, 4), COPRIME[(k + offset) % len(COPRIME)])
        return HSpec.tridiagonal([entry(k) for k in range(t)], [entry(k + 5) for k in range(t - 1)])

    pair_p, pair_u = pair_of(spec(0), t), pair_of(spec(8), t)
    assert lcm(*COPRIME) ** 2 > 2**64
    assert_connection_matches_oracle(pair_p, pair_u, m_max)
    assert_connection_matches_oracle(pair_u, pair_p, m_max)
    assert_mixed_matches_oracle(pair_p, pair_u, 6)
    assert verify_inverse_connection(pair_p, pair_u, m_max) == (True, None)
    conn = connection_matrix(pair_p.H, pair_u.H, m_max)
    assert max(v.denominator for row in conn for v in row) > 2**64


PRODUCTION = ("linearize", "sequences", "orthogonal", "matrix", "families", "serialize")


@pytest.mark.parametrize("module", PRODUCTION)
def test_production_modules_do_not_import_crosscheck(module):
    path = pathlib.Path(__file__).parents[1] / "src" / "polyseq" / f"{module}.py"
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        assert not any("crosscheck" in name for name in names), (module, ast.dump(node))


# Generic matrix arithmetic (products, inverses, operators, w(H)) is the
# oracles' layer: production modules hold the TruncMatrix type, nothing more.
MATRIX_NAMES = {"orthogonal": {"TruncMatrix", "first_below_band"}}


@pytest.mark.parametrize("module", ("linearize", "sequences", "orthogonal", "families",
                                    "serialize", "cli"))
def test_production_modules_do_no_generic_matrix_arithmetic(module):
    path = pathlib.Path(__file__).parents[1] / "src" / "polyseq" / f"{module}.py"
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("matrix"):
            names = {alias.name for alias in node.names}
            assert names <= MATRIX_NAMES.get(module, {"TruncMatrix"}), (module, names)
        assert not isinstance(node, ast.MatMult), (module, "@")
