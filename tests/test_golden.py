"""Golden decks: one pass of three benchmark decks through cli.main, byte for byte.

The banded-linearize, crosscheck and basis-export decks of bench/workloads.py
at seed 11 run once through the benchmark's own Session in a temporary
directory.  The benchmark's exact checker must accept every output, and the
SHA-256 digest over all outputs must equal the one `python3 bench/run.py
--workload W --seed 11` reports.  A deliberate change of output format updates the pins
and says so in CHANGES.md.  bench/ is only read here.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from polyseq import cli

BENCH = Path(__file__).parents[1] / "bench"

GOLDEN = {
    "banded-linearize": "f892b2c7aa0ad2f881502f2ed21c0a77f52957d5e2c788a86a8b8f8ca47474bf",
    "basis-export": "3630812d07ef4da399412d6d5aa051111ae9d6dc72441a93c051d83a205bd84b",
    "crosscheck": "49c842bdcaf147c1cd4e80ecf168bc1b050b330539f565e4e23a96cd1df71762",
}


@pytest.fixture(scope="module")
def bench_run():
    sys.path.insert(0, str(BENCH))  # run.py imports checker, spans and workloads
    try:
        spec = importlib.util.spec_from_file_location("polyseq_bench_run", BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path.remove(str(BENCH))


@pytest.mark.parametrize("workload", sorted(GOLDEN))
def test_golden_deck_bytes(bench_run, tmp_path, workload):
    deck = bench_run.workloads.make_deck(workload, 11)
    session = bench_run.Session(cli, deck, str(tmp_path / "work"))
    session.run_pass("u0")
    evaluation = session.evaluate(11)
    assert evaluation["errors"] == [] and evaluation["failed"] == 0
    assert evaluation["digest"] == GOLDEN[workload]
