import json
from fractions import Fraction as F

import pytest

from polyseq import FamilyParams, HSpec, SchemaError, cli, lin_tensor_direct
from polyseq.serialize import (
    canonical_dumps,
    hspec_from_jsonable,
    hspec_to_jsonable,
    rat_from_str,
    rat_to_str,
    read_json,
    tensor_to_jsonable,
    write_json,
)


def test_rat_round_trip():
    for v in [F(0), F(5), F(-3), F(1, 3), F(-7, 2)]:
        assert rat_from_str(rat_to_str(v)) == v


def test_rat_to_str_lowest_terms():
    assert rat_to_str(F(2, 4)) == "1/2"
    assert rat_to_str(F(4, 2)) == "2"
    assert rat_to_str(F(-1, 2)) == "-1/2"


def test_rat_from_str_rejects_junk():
    for bad in ["", "1.5", "a", "1/0x", "--3"]:
        with pytest.raises(SchemaError):
            rat_from_str(bad)
    assert rat_from_str(3) == F(3)


def test_canonical_dumps_stable():
    a = canonical_dumps({"b": 1, "a": [2, 3]})
    assert a == '{"a":[2,3],"b":1}\n'
    assert canonical_dumps({"a": [2, 3], "b": 1}) == a


def test_hspec_round_trips():
    specs = [
        HSpec.tridiagonal(beta=(1, F(1, 2)), alpha=(F(-2, 3),)),
        HSpec.from_rows([(1,), (F(2, 5), 3)]),
        HSpec.from_family(FamilyParams("chebyshev", F(2), F(1))),
        HSpec.from_family(FamilyParams("hermite", F(1, 4), F(0))),
        HSpec.from_family(FamilyParams("charlier", F(3))),
    ]
    for spec in specs:
        assert hspec_from_jsonable(hspec_to_jsonable(spec)) == spec


def test_hspec_charlier_has_no_b():
    blob = hspec_to_jsonable(HSpec.from_family(FamilyParams("charlier", F(3))))
    assert blob == {"type": "charlier", "a": "3"}


def test_hspec_family_b_defaults_to_zero():
    spec = hspec_from_jsonable({"type": "hermite", "a": "2"})
    assert spec.family.b == 0


def test_hspec_bad_type():
    with pytest.raises(SchemaError):
        hspec_from_jsonable({"type": "wilson", "a": "1"})
    with pytest.raises(SchemaError):
        hspec_from_jsonable({"beta": ["1"]})


def test_hspec_zero_a_is_schema_error():
    with pytest.raises(SchemaError):
        hspec_from_jsonable({"type": "chebyshev", "a": "0"})


def test_write_json_is_canonical(tmp_path):
    path = tmp_path / "out.json"
    write_json(str(path), {"b": "2", "a": "1/2"})
    raw = path.read_text()
    assert raw == '{"a":"1/2","b":"2"}\n'
    assert read_json(str(path)) == {"a": "1/2", "b": "2"}


def test_write_then_read_byte_identical(tmp_path):
    # the format's promise: parse + re-serialize gives each output's bytes back
    cheb, rows = tmp_path / "cheb.json", tmp_path / "rows.json"
    cheb.write_text(json.dumps({"type": "chebyshev", "a": "1/4", "b": "2/3"}))
    rows.write_text(json.dumps({"type": "rows", "rows": [
        [f"{(3 * k + j) % 5 - 2}/{1 + (k + j) % 4}" for j in range(k + 1)] for k in range(10)]}))
    for argv in (
        ["linearize", "--h-spec", cheb, "--n-max", "3"],
        ["build", "--h-spec", rows, "--size", "6"],
        ["connect", "--p-spec", rows, "--u-spec", cheb, "--m-max", "4", "--mixed", "2",
         "--verify"],
        ["family", "--h-spec", cheb, "--pnh", "3", "--slice", "4", "--series", "--size", "6"],
    ):
        out = tmp_path / f"{argv[0]}.json"
        assert cli.main([str(a) for a in argv] + ["--out", str(out)]) == 0, argv
        text = out.read_text()
        assert "/" in text and canonical_dumps(json.loads(text)) == text


def test_read_json_bad_syntax(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(SchemaError):
        read_json(str(path))


def test_no_floats_anywhere(hermite_pair):
    blob = tensor_to_jsonable(lin_tensor_direct(hermite_pair, 3))
    text = canonical_dumps(blob)
    for token in json.loads(text)["slices"][2]["matrix"]:
        for cell in token:
            assert isinstance(cell, str)


def test_write_json_follows_links_and_writes_pipes_in_place(tmp_path):
    import os
    import stat
    import threading

    target = tmp_path / "real.json"
    target.write_text("old\n")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    write_json(str(link), {"a": "1"})
    assert link.is_symlink() and target.read_text() == '{"a":"1"}\n'

    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    write_json(str(fifo), {"b": "2"})
    reader.join(timeout=10)
    assert not reader.is_alive() and got == ['{"b":"2"}\n']
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "pipe", "real.json"]
