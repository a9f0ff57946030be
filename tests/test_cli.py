import hashlib
import json
import sys
from fractions import Fraction as F

import pytest

from polyseq import build_P_recurrence, cli, lin_tensor_direct, realize_H, tau_moments
from polyseq.serialize import hspec_from_jsonable, read_json


def write_spec(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def cheb_spec(tmp_path):
    return write_spec(tmp_path, "cheb.json", {"type": "chebyshev", "a": "1/4", "b": "0"})


@pytest.fixture
def herm_spec(tmp_path):
    return write_spec(tmp_path, "herm.json", {"type": "hermite", "a": "1", "b": "0"})


@pytest.fixture
def trid_spec(tmp_path):
    return write_spec(tmp_path, "trid.json", {
        "type": "tridiagonal",
        "beta": ["0"] * 12,
        "alpha": ["1"] * 11,
    })


def test_build(tmp_path, cheb_spec):
    out = str(tmp_path / "build.json")
    assert cli.main(["build", "--h-spec", cheb_spec, "--size", "5", "--out", out]) == 0
    blob = read_json(out)
    assert set(blob) == {"H", "A", "P", "moments"}
    assert blob["moments"] == ["1", "0", "1/4", "0", "1/8"]
    assert blob["P"]["rows"][2] == ["-1/4", "0", "1", "0", "0"]


def test_build_output_is_canonical(tmp_path, cheb_spec):
    out = str(tmp_path / "build.json")
    cli.main(["build", "--h-spec", cheb_spec, "--size", "4", "--out", out])
    raw = (tmp_path / "build.json").read_bytes()
    assert raw.endswith(b"\n")
    assert b": " not in raw and b", " not in raw
    reloaded = read_json(out)
    out2 = str(tmp_path / "build2.json")
    from polyseq.serialize import write_json
    write_json(out2, reloaded)
    assert raw == (tmp_path / "build2.json").read_bytes()


def test_linearize_all_methods_agree(tmp_path, cheb_spec):
    out = str(tmp_path / "lin.json")
    rc = cli.main(["linearize", "--h-spec", cheb_spec, "--n-max", "3",
                   "--method", "all", "--out", out])
    assert rc == 0
    blob = read_json(out)
    assert blob["n_max"] == 3
    assert len(blob["slices"]) == 7


def test_linearize_csv(tmp_path, trid_spec):
    out = str(tmp_path / "lin.csv")
    rc = cli.main(["linearize", "--h-spec", trid_spec, "--n-max", "2",
                   "--format", "csv", "--out", out])
    assert rc == 0
    for k in range(5):
        lines = (tmp_path / f"lin_k{k}.csv").read_text().splitlines()
        assert lines[0] == "n,m,value"
        assert len(lines) == 1 + 9
    # k=0 slice of the unit-alpha sequence is the identity on this window
    rows = (tmp_path / "lin_k0.csv").read_text().splitlines()[1:]
    cells = {tuple(line.split(",")[:2]): line.split(",")[2] for line in rows}
    assert cells[("0", "0")] == "1"
    assert cells[("1", "1")] == "1"
    assert cells[("0", "1")] == "0"


def test_linearize_auto_size_uses_window_bound(tmp_path, cheb_spec):
    out = str(tmp_path / "lin.json")
    rc = cli.main(["linearize", "--h-spec", cheb_spec, "--n-max", "4", "--out", out])
    assert rc == 0
    blob = read_json(out)
    assert len(blob["slices"]) == 9


def test_exit_2_missing_file(tmp_path):
    rc = cli.main(["build", "--h-spec", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "x.json")])
    assert rc == 2


def test_exit_2_bad_spec(tmp_path):
    bad = write_spec(tmp_path, "bad.json", {"type": "nonsense"})
    rc = cli.main(["build", "--h-spec", bad, "--out", str(tmp_path / "x.json")])
    assert rc == 2


def test_exit_2_unparsable_json(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{")
    rc = cli.main(["build", "--h-spec", str(path), "--out", str(tmp_path / "x.json")])
    assert rc == 2


def test_exit_3_size_too_small(tmp_path, cheb_spec):
    rc = cli.main(["linearize", "--h-spec", cheb_spec, "--n-max", "3",
                   "--size", "4", "--out", str(tmp_path / "x.json")])
    assert rc == 3


def test_exit_3_spec_too_short(tmp_path):
    spec = write_spec(tmp_path, "short.json", {
        "type": "tridiagonal", "beta": ["0", "0"], "alpha": ["1"]})
    rc = cli.main(["linearize", "--h-spec", spec, "--n-max", "3",
                   "--out", str(tmp_path / "x.json")])
    assert rc == 3


def test_exit_3_max_t_cap(tmp_path, cheb_spec, monkeypatch):
    monkeypatch.setenv("POLYSEQ_MAX_T", "6")
    rc = cli.main(["linearize", "--h-spec", cheb_spec, "--n-max", "3",
                   "--out", str(tmp_path / "x.json")])
    assert rc == 3
    monkeypatch.setenv("POLYSEQ_MAX_T", "8")
    rc = cli.main(["linearize", "--h-spec", cheb_spec, "--n-max", "3",
                   "--out", str(tmp_path / "x.json")])
    assert rc == 0


def test_exit_3_require_orthogonal_zero_alpha(tmp_path):
    spec = write_spec(tmp_path, "za.json", {
        "type": "tridiagonal",
        "beta": ["0"] * 10,
        "alpha": ["1", "0"] + ["1"] * 7,
    })
    rc = cli.main(["linearize", "--h-spec", spec, "--n-max", "2",
                   "--require-orthogonal", "--out", str(tmp_path / "x.json")])
    assert rc == 3


def test_require_orthogonal_rejects_dense(tmp_path):
    spec = write_spec(tmp_path, "dense.json", {
        "type": "rows",
        "rows": [["1"], ["1", "1"], ["1", "1", "1"], ["1", "1", "1", "1"]]})
    rc = cli.main(["linearize", "--h-spec", spec, "--n-max", "1",
                   "--require-orthogonal", "--out", str(tmp_path / "x.json")])
    assert rc == 3


def test_exit_4_mismatch(tmp_path, cheb_spec, monkeypatch):
    # force the cross-method comparison to report a difference
    monkeypatch.setattr(cli, "tensors_agree", lambda a, b: (0, 0, 0))
    rc = cli.main(["linearize", "--h-spec", cheb_spec, "--n-max", "2",
                   "--method", "all", "--out", str(tmp_path / "x.json")])
    assert rc == 4


def test_connect(tmp_path, cheb_spec, herm_spec):
    out = str(tmp_path / "conn.json")
    rc = cli.main(["connect", "--p-spec", cheb_spec, "--u-spec", herm_spec,
                   "--m-max", "5", "--mixed", "2", "--verify", "--out", out])
    assert rc == 0
    blob = read_json(out)
    assert blob["inverse_check"] is True
    assert blob["connection"]["m_max"] == 5
    assert blob["mixed"]["n_max"] == 2
    # e(1,1,k) for cheb(1/4) in hermite(1): p_1^2 = t^2 = u_2 + u_0
    grid = blob["mixed"]["slices"][0]["matrix"]
    assert grid[1][1] == "1"


def test_family_subcommand(tmp_path):
    spec = write_spec(tmp_path, "cheb2.json", {"type": "chebyshev", "a": "2", "b": "7"})
    out = str(tmp_path / "fam.json")
    rc = cli.main(["family", "--h-spec", spec, "--pnh", "3", "--slice", "3",
                   "--n-max", "6", "--size", "6", "--out", out])
    assert rc == 0
    blob = read_json(out)
    assert blob["pnh"]["rows"][3] == ["8", "0", "4", "0", "2", "0"]
    assert blob["slice"]["matrix"][3] == ["1", "0", "2", "0", "4", "0", "8"]


def test_family_series(tmp_path, herm_spec):
    out = str(tmp_path / "fam.json")
    rc = cli.main(["family", "--h-spec", herm_spec, "--series", "--size", "6",
                   "--out", out])
    assert rc == 0
    blob = read_json(out)
    assert "series_p" in blob and "series_p_inverse" in blob


def test_family_rejects_non_family_spec(tmp_path, trid_spec):
    rc = cli.main(["family", "--h-spec", trid_spec, "--pnh", "2",
                   "--out", str(tmp_path / "x.json")])
    assert rc == 2


def test_family_requires_a_request(tmp_path, cheb_spec):
    rc = cli.main(["family", "--h-spec", cheb_spec, "--out", str(tmp_path / "x.json")])
    assert rc == 2


def test_verify_subcommand(tmp_path, cheb_spec, capsys):
    assert cli.main(["verify", "--h-spec", cheb_spec, "--n-max", "3"]) == 0
    out = capsys.readouterr().out
    assert out == ""  # quiet unless --verbose
    assert cli.main(["verify", "--h-spec", cheb_spec, "--n-max", "3",
                     "--verbose"]) == 0
    out = capsys.readouterr().out
    assert "direct-vs-oracle" in out


def test_verify_failure_exit_4(tmp_path, cheb_spec, monkeypatch):
    from polyseq.verify import CheckResult

    monkeypatch.setattr("polyseq.verify.run_suite",
                        lambda *a, **k: [CheckResult("boom", False, "bad")])
    assert cli.main(["verify", "--h-spec", cheb_spec, "--n-max", "2"]) == 4


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        cli.main(["frobnicate"])
    assert err.value.code == 2


def test_family_slice_respects_max_t(tmp_path, cheb_spec, monkeypatch):
    # --slice K --n-max N works at size N+K+2, which must fit under the cap
    # before any work starts.
    monkeypatch.setenv("POLYSEQ_MAX_T", "20")
    out = tmp_path / "fam.json"

    def no_work(*args):
        raise AssertionError("closed_d ran on an oversize request")

    with monkeypatch.context() as m:
        m.setattr(cli, "closed_d", no_work)
        rc = cli.main(["family", "--h-spec", cheb_spec, "--slice", "15",
                       "--n-max", "15", "--out", str(out)])
    assert rc == 3
    assert not out.exists()
    rc = cli.main(["family", "--h-spec", cheb_spec, "--slice", "9",
                   "--n-max", "9", "--out", str(out)])
    assert rc == 0


@pytest.mark.parametrize("argv, flag", [
    (["linearize", "--h-spec", "S", "--n-max", "-1"], "--n-max"),
    (["verify", "--h-spec", "S", "--n-max", "-2"], "--n-max"),
    (["connect", "--p-spec", "S", "--u-spec", "S", "--m-max", "-1"], "--m-max"),
    (["connect", "--p-spec", "S", "--u-spec", "S", "--m-max", "2", "--mixed", "-1"], "--mixed"),
    (["family", "--h-spec", "S", "--pnh", "-1"], "--pnh"),
    (["family", "--h-spec", "S", "--slice", "-3"], "--slice"),
    (["family", "--h-spec", "S", "--slice", "1", "--n-max", "-1"], "--n-max"),
    (["build", "--h-spec", "S", "--size", "-4"], "--size"),
    (["linearize", "--h-spec", "S", "--n-max", "2", "--size", "-1"], "--size"),
])
def test_negative_counts_are_argument_errors(tmp_path, cheb_spec, capsys, argv, flag):
    argv = [cheb_spec if a == "S" else a for a in argv]
    argv += ["--out", str(tmp_path / "x.json")] if argv[0] != "verify" else []
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2
    assert f"argument {flag}: must be at least 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["linearize", "--h-spec", "S", "--n-max", "0"],
    ["connect", "--p-spec", "S", "--u-spec", "S", "--m-max", "0", "--mixed", "0"],
    ["family", "--h-spec", "S", "--pnh", "0", "--slice", "0", "--n-max", "0"],
])
def test_zero_counts_stay_valid(tmp_path, cheb_spec, argv):
    argv = [cheb_spec if a == "S" else a for a in argv]
    assert cli.main(argv + ["--out", str(tmp_path / "x.json")]) == 0


# -- one pair per run, atomic outputs, connect --verify on failure ---------------------

def test_linearize_all_builds_the_pair_once(tmp_path, cheb_spec, monkeypatch):
    calls = []
    build = cli.build_P_recurrence

    def counted(h):
        calls.append(h.size)
        return build(h)

    monkeypatch.setattr(cli, "build_P_recurrence", counted)
    rc = cli.main(["linearize", "--h-spec", cheb_spec, "--n-max", "3",
                   "--method", "all", "--out", str(tmp_path / "lin.json")])
    assert rc == 0
    assert calls == [8]


COPRIME_ROWS = {"type": "rows", "rows": [
    ["1/2"], ["-2/3", "3/5"], ["1/7", "-4/11", "5/13"], ["0", "2/17", "-1/19", "3/23"],
    ["0", "0", "-5/2", "1/3", "7/5"], ["0", "0", "0", "-1/7", "2/11", "-3/13"],
    ["0", "0", "0", "0", "4/17", "1/19", "-2/23"], ["0"] * 7 + ["1"], ["0"] * 9,
]}


def _no_pair(h):
    raise AssertionError("the direct route built the sequence pair")


@pytest.mark.parametrize("spec", ["cheb", "coprime_rows"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_linearize_direct_builds_no_pair(tmp_path, cheb_spec, monkeypatch, spec, fmt):
    path = cheb_spec if spec == "cheb" else write_spec(tmp_path, "rows.json", COPRIME_ROWS)

    def run(method):
        out = tmp_path / method / f"lin.{fmt}"
        out.parent.mkdir()
        rc = cli.main(["linearize", "--h-spec", path, "--n-max", "3", "--method", method,
                       "--format", fmt, "--out", str(out)])
        assert rc == 0
        return {f.name: f.read_bytes() for f in out.parent.iterdir()}

    expected = run("all")
    monkeypatch.setattr(cli, "build_P_recurrence", _no_pair)
    assert run("direct") == expected


def _rows(rows):
    return {"type": "rows", "rows": rows}


@pytest.mark.parametrize("spec, argv, message", [
    (_rows([["1"], ["1", "1"], ["1", "1", "1"], ["1", "1", "1", "1"]]),
     ["--n-max", "1", "--require-orthogonal"], "not tridiagonal"),
    ({"type": "tridiagonal", "beta": ["0"] * 6, "alpha": ["1", "0", "1", "1", "1"]},
     ["--n-max", "2", "--require-orthogonal"], "alpha_2"),
    (_rows([["0"]] * 8), ["--n-max", "3", "--size", "7"], "needs truncation size T >= 8"),
    (_rows([["0", "2"]] + [["0"]] * 7), ["--n-max", "3"], "row 0 must have 1 at column 1"),
])
def test_linearize_direct_exit_codes_without_the_pair(tmp_path, monkeypatch, capsys,
                                                      spec, argv, message):
    monkeypatch.setattr(cli, "build_P_recurrence", _no_pair)
    path = write_spec(tmp_path, "spec.json", spec)
    rc = cli.main(["linearize", "--h-spec", path, *argv, "--out", str(tmp_path / "x.json")])
    assert rc == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("m_max, mixed, verify, calls", [
    (4, 3, True, [4]),
    (5, 1, True, [5]),
    (4, 3, False, [4]),
    (3, None, False, [3]),
])
def test_connect_builds_c_pu_once_for_output_and_mixed(tmp_path, cheb_spec, herm_spec,
                                                       monkeypatch, m_max, mixed, verify, calls):
    # C_pu is built once, at m_max, for the connection output; mixed_tensor and
    # verify_inverse_connection run the row kernel on their own integer rows.
    from polyseq import linearize
    from polyseq.sequences import build_P_recurrence, realize_H
    from polyseq.serialize import connection_to_jsonable, hspec_from_jsonable, tensor_to_jsonable

    seen = []
    build = linearize.connection_matrix

    def counted(pair_p, pair_u, m):
        seen.append(m)
        return build(pair_p, pair_u, m)

    monkeypatch.setattr(cli, "connection_matrix", counted)
    monkeypatch.setattr(linearize, "connection_matrix", counted)
    out = tmp_path / "conn.json"
    argv = ["connect", "--p-spec", cheb_spec, "--u-spec", herm_spec, "--m-max", str(m_max),
            "--out", str(out)]
    argv += ["--mixed", str(mixed)] if mixed is not None else []
    argv += ["--verify"] if verify else []
    assert cli.main(argv) == 0
    assert seen == calls
    monkeypatch.undo()

    blob = read_json(str(out))
    size = max(m_max + 2, 2 * mixed + 2 if mixed is not None else 0,
               2 * m_max + 2 if verify else 0)
    pair_p, pair_u = (build_P_recurrence(realize_H(hspec_from_jsonable(read_json(p)), size))
                      for p in (cheb_spec, herm_spec))
    assert blob["connection"] == connection_to_jsonable(m_max, build(pair_p, pair_u, m_max))
    if mixed is not None:
        assert blob["mixed"] == tensor_to_jsonable(linearize.mixed_tensor(pair_p, pair_u, mixed))


def _fail_on_call(n):
    calls = []

    def fail(*args, **kwargs):
        calls.append(args)
        if len(calls) >= n:
            raise RuntimeError("write interrupted")
        return "0"

    return fail


def test_failed_json_write_keeps_the_old_file(tmp_path, cheb_spec, monkeypatch):
    out = tmp_path / "build.json"
    out.write_bytes(b"old bytes\n")
    before = set(tmp_path.iterdir())
    monkeypatch.setattr("polyseq.serialize.canonical_dumps", _fail_on_call(1))
    with pytest.raises(RuntimeError, match="write interrupted"):
        cli.main(["build", "--h-spec", cheb_spec, "--size", "4", "--out", str(out)])
    assert out.read_bytes() == b"old bytes\n"
    assert set(tmp_path.iterdir()) == before


def test_failed_csv_write_keeps_the_old_slice_file(tmp_path, cheb_spec, monkeypatch):
    first = tmp_path / "d_k0.csv"
    first.write_bytes(b"old bytes\n")
    before = set(tmp_path.iterdir())
    monkeypatch.setattr(cli, "rat_to_str", _fail_on_call(3))  # partway into slice 0
    with pytest.raises(RuntimeError, match="write interrupted"):
        cli.main(["linearize", "--h-spec", cheb_spec, "--n-max", "2", "--format", "csv",
                  "--out", str(tmp_path / "d.csv")])
    assert first.read_bytes() == b"old bytes\n"
    assert set(tmp_path.iterdir()) == before


def test_connect_verify_failure_still_writes_the_payload(tmp_path, cheb_spec, herm_spec,
                                                         monkeypatch):
    monkeypatch.setattr(cli, "verify_inverse_connection", lambda p, u, m: (False, (0, 1)))
    out = tmp_path / "conn.json"
    rc = cli.main(["connect", "--p-spec", cheb_spec, "--u-spec", herm_spec,
                   "--m-max", "3", "--verify", "--out", str(out)])
    assert rc == 4
    blob = read_json(str(out))
    assert blob["inverse_check"] is False
    assert blob["connection"]["m_max"] == 3


def test_verbose_is_a_subcommand_flag(tmp_path, cheb_spec, capsys):
    out = tmp_path / "build.json"
    with pytest.raises(SystemExit) as err:
        cli.main(["--verbose", "build", "--h-spec", cheb_spec, "--size", "4",
                  "--out", str(out)])
    assert err.value.code == 2
    assert not out.exists()
    capsys.readouterr()
    assert cli.main(["build", "--h-spec", cheb_spec, "--size", "4", "--out", str(out),
                     "--verbose"]) == 0
    assert f"wrote {out}" in capsys.readouterr().out


@pytest.mark.parametrize("method", ["recurrence", "oracle"])
def test_linearize_runs_the_alternate_routes_only_inside_all(tmp_path, cheb_spec, method):
    out = tmp_path / "lin.json"
    with pytest.raises(SystemExit) as err:
        cli.main(["linearize", "--h-spec", cheb_spec, "--n-max", "2", "--method", method,
                  "--out", str(out)])
    assert err.value.code == 2
    assert not out.exists()


# -- connect reads H alone; verify reports a kernel whose self-check fails -------------

@pytest.mark.parametrize("p, u, m_max, mixed, digest", [
    ("cheb", "herm", 5, 2, "e9683ca5696943b84763806c5902035d6b5750443979fd9f5e35e92369dc7019"),
    ("rows", "herm", 3, 3, "7ccfcfbf36ce373f2793ce010ff94a9d5fd35ef36a52b10e92c22f854c7ed5c5"),
    ("herm", "rows", 3, 3, "04b5ca39289cda401322643a556d81e04096fc914ac047aa1029b27b50dd84fc"),
])
def test_connect_builds_no_pair(tmp_path, cheb_spec, herm_spec, monkeypatch,
                                p, u, m_max, mixed, digest):
    # The digests are those of the route that built both sequence pairs and
    # C = P_p @ A_u.
    paths = {"cheb": cheb_spec, "herm": herm_spec,
             "rows": write_spec(tmp_path, "rows.json", COPRIME_ROWS)}
    monkeypatch.setattr(cli, "build_P_recurrence", _no_pair)
    out = tmp_path / "conn.json"
    rc = cli.main(["connect", "--p-spec", paths[p], "--u-spec", paths[u], "--m-max", str(m_max),
                   "--mixed", str(mixed), "--verify", "--out", str(out)])
    assert rc == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("target, name, skipped", [
    ("polyseq.linearize._run_tensor", "direct-tensor-properties",
     {"direct-vs-recurrence", "direct-vs-oracle", "product-reconstruction",
      "direct-vs-four-term", "support-bound"}),
    ("polyseq.sequences._check_integer_pair", "pair-invariants",
     {"A-rows-vs-inverse", "P-columns-vs-recurrence", "direct-vs-oracle",
      "product-reconstruction", "orthogonality-table"}),
])
def test_verify_reports_a_failing_kernel_self_check(cheb_spec, monkeypatch, capsys,
                                                   target, name, skipped):
    from polyseq import PropertyViolationError
    from tests.test_band_kernels import VERIFY_NAMES

    def broken(*args):
        raise PropertyViolationError("injected")

    monkeypatch.setattr(target, broken)
    rc = cli.main(["verify", "--h-spec", cheb_spec, "--n-max", "2", "--verbose"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 4
    assert [line.split()[1] for line in lines] == [n for n in VERIFY_NAMES if n not in skipped]
    assert [line for line in lines if not line.startswith("ok ")] == [f"FAIL {name} (injected)"]


def test_verify_row_recurrence_fails_on_a_faulty_left_row(tmp_path, monkeypatch, capsys):
    # The rows are built by right multiplication and checked by the left
    # identity, so a left row off at (n=1, i=0) fails row-recurrence alone.
    from polyseq import crosscheck, verify

    left_row = crosscheck._left_row

    def off(den, g, q, n, i):
        row = left_row(den, g, q, n, i)
        if (n, i) == (1, 0):
            row[0] += 1
        return row

    for module in (crosscheck, verify):
        monkeypatch.setattr(module, "_left_row", off)
    spec = write_spec(tmp_path, "charlier.json", {"type": "charlier", "a": "3/7"})
    rc = cli.main(["verify", "--h-spec", spec, "--n-max", "4", "--verbose"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 4
    assert [line for line in lines if not line.startswith("ok ")] == ["FAIL row-recurrence"]


def test_connect_mixed_self_check_failure_exits_3_and_writes_nothing(tmp_path, cheb_spec,
                                                                     herm_spec, monkeypatch,
                                                                     capsys):
    from tests.conftest import corrupt_run

    # run 0 is the connection output's, run 1 mixed_tensor's C; run 3 starts at C[1]
    corrupt_run(monkeypatch, 3, 3, 2)
    out = tmp_path / "conn.json"
    rc = cli.main(["connect", "--p-spec", cheb_spec, "--u-spec", herm_spec, "--m-max", "4",
                   "--mixed", "3", "--verify", "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err.startswith("error: e(1,3,2) != e(3,1,2): ")
    assert not out.exists()


def test_connect_verify_needs_only_the_rows_of_its_window(tmp_path, herm_spec):
    # The inverse check reads rows 0..m_max-1 of each H, so a p-spec of
    # m_max + 2 rows serves --verify and gives the bytes a longer spec gives.
    outs = []
    for n in (7, 30):
        spec = write_spec(tmp_path, f"trid{n}.json", {
            "type": "tridiagonal",
            "beta": [f"{k}/3" for k in range(n)],
            "alpha": [str(k + 1) for k in range(n - 1)],
        })
        out = tmp_path / f"conn{n}.json"
        assert cli.main(["connect", "--p-spec", spec, "--u-spec", herm_spec, "--m-max", "5",
                         "--mixed", "1", "--verify", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert read_json(str(tmp_path / "conn7.json"))["inverse_check"] is True


# -- spec files that do not decode; exact results past Python's digit limit ------------

UNDECODABLE = {
    "invalid-utf8": b'{"type": "charlier", "a": "\xff1"}',
    "int-over-the-digit-limit": b'{"type": "charlier", "a": ' + b"1" * 4400 + b"}",
    "nested-past-the-recursion-limit": b"[" * 100000 + b"]" * 100000,
}


@pytest.mark.parametrize("argv", [
    ["linearize", "--h-spec", "{spec}", "--n-max", "2", "--out", "{out}"],
    ["build", "--h-spec", "{spec}", "--size", "4", "--out", "{out}"],
    ["connect", "--p-spec", "{ok}", "--u-spec", "{spec}", "--m-max", "2", "--out", "{out}"],
    ["family", "--h-spec", "{spec}", "--pnh", "2", "--out", "{out}"],
    ["verify", "--h-spec", "{spec}", "--n-max", "2"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("case", sorted(UNDECODABLE))
def test_spec_files_that_fail_to_decode_exit_2(tmp_path, cheb_spec, capsys, argv, case):
    spec, out = tmp_path / "bad.json", tmp_path / "out.json"
    spec.write_bytes(UNDECODABLE[case])
    argv = [a.format(spec=spec, ok=cheb_spec, out=out) for a in argv]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {spec}: invalid JSON: ") and "Traceback" not in err
    assert not out.exists()


def test_exact_results_past_the_digit_limit_are_written(tmp_path):
    # denominators near 10^500 give entries of d, P and A with more digits
    # than str(int) prints by default
    rows = [[f"{1 + (j + k) % 5}/{10**500 + 1 + 3 * k + j}" for j in range(k + 1)]
            for k in range(8)]
    spec = write_spec(tmp_path, "big.json", {"type": "rows", "rows": rows})
    limit = sys.get_int_max_str_digits()
    lin, csv, pair = (str(tmp_path / name) for name in ("lin.json", "lin.csv", "pair.json"))
    assert cli.main(["linearize", "--h-spec", spec, "--n-max", "3", "--out", lin]) == 0
    assert cli.main(["linearize", "--h-spec", spec, "--n-max", "3", "--format", "csv",
                     "--out", csv]) == 0
    assert cli.main(["build", "--h-spec", spec, "--size", "5", "--out", pair]) == 0
    assert sys.get_int_max_str_digits() == limit

    h_spec = hspec_from_jsonable({"type": "rows", "rows": rows})
    tensor = lin_tensor_direct(realize_H(h_spec, 8), 3)
    kernel_pair = build_P_recurrence(realize_H(h_spec, 5))
    sys.set_int_max_str_digits(0)
    try:
        blob = read_json(lin)
        assert [[[F(v) for v in row] for row in s["matrix"]] for s in blob["slices"]] == [
            [list(row) for row in grid] for grid in tensor.slices]
        for k, grid in enumerate(tensor.slices):
            lines = (tmp_path / f"lin_k{k}.csv").read_text().splitlines()[1:]
            assert [F(line.split(",")[2]) for line in lines] == [v for row in grid for v in row]
        blob = read_json(pair)
        for name in ("H", "A", "P"):
            kernel = getattr(kernel_pair, name).rows
            assert [[F(v) for v in row] for row in blob[name]["rows"]] == [list(r) for r in kernel]
        assert [F(v) for v in blob["moments"]] == tau_moments(kernel_pair)
        assert max(len(str(v)) for grid in tensor.slices for row in grid for v in row) > limit
        assert max(len(str(v)) for row in kernel_pair.A.rows for v in row) > limit
    finally:
        sys.set_int_max_str_digits(limit)
