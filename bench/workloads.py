"""Seeded request decks for the three benchmark workloads.

A deck is the list of requests one pass of a run sends, in order.  Each
workload fixes the multiset of request shapes (subcommand, spec kind, sizes);
the seed draws the random spec data, which requests write CSV or carry
``--require-orthogonal``, and the order.  Fixed shapes keep the latency
distribution of a pass the same from seed to seed, so medians and p90s of
different seeds are comparable, while the data still changes with the seed.

Why each workload exists is stated in ``bench/README.md``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from checker import rat_str

CHEBYSHEV = {"type": "chebyshev", "a": "1/4", "b": "0"}
HERMITE = {"type": "hermite", "a": "1", "b": "0"}
CHARLIER = {"type": "charlier", "a": "1"}
FAMILIES = {"chebyshev": CHEBYSHEV, "hermite": HERMITE, "charlier": CHARLIER}


@dataclass
class Request:
    """One polyseq invocation: argv minus spec paths and the output path.

    ``specs`` maps a spec flag (``--h-spec``, ``--p-spec``, ``--u-spec``) to
    the spec document written for it; ``out`` is ``"json"``, ``"csv"`` or
    ``None`` when the subcommand writes no file.  ``params`` holds the sizes
    the checker needs.
    """

    command: str
    specs: dict
    args: list
    out: str | None
    params: dict = field(default_factory=dict)

    def argv(self, spec_path, out_path: str | None) -> list:
        argv = [self.command]
        for flag, spec in self.specs.items():
            argv += [flag, spec_path(spec)]
        argv += self.args
        if self.out == "csv":
            argv += ["--format", "csv"]
        if out_path is not None:
            argv += ["--out", out_path]
        return argv

    def label(self) -> str:
        kinds = "/".join(spec["type"] for spec in self.specs.values())
        return " ".join([self.command, kinds] + self.args)


def random_tridiagonal(rng: random.Random, size: int) -> dict:
    """Three-term data for a size-T truncation; every alpha is nonzero."""
    beta = [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(size)]
    alpha = [Fraction(rng.randint(1, 4), rng.choice((1, 2))) for _ in range(size - 1)]
    return {
        "type": "tridiagonal",
        "beta": [rat_str(v) for v in beta],
        "alpha": [rat_str(v) for v in alpha],
    }


def random_rows(rng: random.Random, size: int) -> dict:
    """Dense lower parts of monic Hessenberg rows for a size-T truncation."""
    rows = [
        [rat_str(Fraction(rng.randint(-2, 2), rng.choice((1, 2)))) for _ in range(k + 1)]
        for k in range(size)
    ]
    return {"type": "rows", "rows": rows}


def _window(n_max: int) -> int:
    # polyseq's automatic truncation size for an n_max request
    return 2 * n_max + 2


def _linearize(spec: dict, n_max: int, method: str) -> Request:
    return Request(
        "linearize", {"--h-spec": spec},
        ["--n-max", str(n_max), "--method", method], "json", {"n_max": n_max},
    )


def banded_linearize(rng: random.Random) -> list:
    deck = []
    for spec in FAMILIES.values():
        for n_max in (3, 4, 5, 6, 7, 8, 9, 10):
            deck.append(_linearize(spec, n_max, "direct"))
        for n_max in (3, 4, 5, 6, 7, 8):
            req = _linearize(spec, n_max, "direct")
            req.out = "csv"
            deck.append(req)
    for n_max in (3, 4, 5, 6, 7, 8, 9, 10, 11, 12):
        for _ in range(1 if n_max >= 9 else 9):
            deck.append(_linearize(random_tridiagonal(rng, _window(n_max)), n_max, "direct"))
    for req in rng.sample(deck, len(deck) // 4):
        req.args.append("--require-orthogonal")
    rng.shuffle(deck)
    return deck


def crosscheck(rng: random.Random) -> list:
    deck = []
    for make, sizes in ((random_rows, (2, 3, 4, 5)), (random_tridiagonal, (2, 3, 4, 5))):
        for n_max in sizes:
            for _ in range(3):
                deck.append(_linearize(make(rng, _window(n_max)), n_max, "all"))
                deck.append(_verify(make(rng, _window(n_max)), n_max))
    for spec in FAMILIES.values():
        for n_max in (2, 3, 4, 5):
            deck.append(_verify(spec, n_max))
        for pnh in (1, 2, 4, 6, 8, 10):
            size = pnh + 4
            deck.append(Request("family", {"--h-spec": spec},
                                ["--pnh", str(pnh), "--size", str(size)], "json",
                                {"pnh": pnh, "size": size}))
        for k, n_max in ((2, 4), (3, 5), (4, 6), (6, 8)):
            deck.append(Request("family", {"--h-spec": spec},
                                ["--slice", str(k), "--n-max", str(n_max)], "json",
                                {"slice": k, "n_max": n_max}))
    for spec in (CHEBYSHEV, HERMITE):
        for size in (4, 6, 8, 10, 12, 16):
            deck.append(Request("family", {"--h-spec": spec},
                                ["--series", "--size", str(size)], "json",
                                {"series": True, "size": size}))
    rng.shuffle(deck)
    return deck


def _verify(spec: dict, n_max: int) -> Request:
    return Request("verify", {"--h-spec": spec}, ["--n-max", str(n_max)], None, {"n_max": n_max})


def _connect(p_spec: dict, u_spec: dict, m_max: int) -> Request:
    mixed = max(1, m_max // 3)
    return Request(
        "connect", {"--p-spec": p_spec, "--u-spec": u_spec},
        ["--m-max", str(m_max), "--mixed", str(mixed), "--verify"], "json",
        {"m_max": m_max, "mixed": mixed},
    )


def basis_export(rng: random.Random) -> list:
    deck = []
    for m_max in (2, 3, 4, 5, 6, 7, 8, 9):
        deck.append(_connect(CHEBYSHEV, HERMITE, m_max))
        deck.append(_connect(HERMITE, CHARLIER, m_max))
        for _ in range(2):
            # connect --verify reads the p-spec up to the linearization window of m_max
            deck.append(_connect(random_tridiagonal(rng, _window(m_max)), CHEBYSHEV, m_max))
    for size in (6, 7, 8, 9, 10, 12, 14, 16, 20, 24, 28, 32):
        for spec in FAMILIES.values():
            deck.append(Request("build", {"--h-spec": spec}, ["--size", str(size)], "json",
                                {"size": size}))
        for _ in range(3):
            deck.append(Request("build", {"--h-spec": random_tridiagonal(rng, size)},
                                ["--size", str(size)], "json", {"size": size}))
    rng.shuffle(deck)
    return deck


WORKLOADS = {
    "banded-linearize": banded_linearize,
    "crosscheck": crosscheck,
    "basis-export": basis_export,
}


MIN_REQUESTS = 100  # a deck's p90 then has at least ten requests beyond it


def make_deck(workload: str, seed: int) -> list:
    """The request deck of one workload; the same seed gives the same deck."""
    deck = WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
    if len(deck) < MIN_REQUESTS:
        raise ValueError(f"{workload}: deck has {len(deck)} requests, fewer than {MIN_REQUESTS}")
    return deck
