#!/usr/bin/env python3
"""Tests of the benchmark itself: ``python3 bench/selftest.py``.

* the checker accepts polyseq's real outputs and rejects each of them with
  any single checked entry perturbed;
* self times of nested spans sum to the request's duration;
* the computed ``mat_mul`` term counts match a direct count, and the counters
  of a counting pass repeat exactly.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import unittest
from fractions import Fraction

import checker
import run
import spans
import workloads
from workloads import CHARLIER, CHEBYSHEV, HERMITE, Request

PACKAGE, CLI = run.load_cli()
WORKDIR = os.path.join(run.OUT, "selftest")


def small_requests() -> list:
    rng = random.Random(7)
    tri = workloads.random_tridiagonal(rng, 12)
    rows = workloads.random_rows(rng, 8)
    csv = workloads._linearize(tri, 3, "direct")
    csv.out = "csv"

    def family(spec, args, params):
        return Request("family", {"--h-spec": spec}, args, "json", params)

    return [
        workloads._linearize(CHEBYSHEV, 3, "direct"),
        workloads._linearize(HERMITE, 3, "direct"),
        workloads._linearize(CHARLIER, 3, "direct"),
        workloads._linearize(tri, 4, "direct"),
        workloads._linearize(rows, 3, "all"),
        csv,
        workloads._connect(CHEBYSHEV, HERMITE, 4),
        workloads._connect(tri, CHEBYSHEV, 3),
        Request("build", {"--h-spec": tri}, ["--size", "8"], "json", {"size": 8}),
        Request("build", {"--h-spec": HERMITE}, ["--size", "8"], "json", {"size": 8}),
        family(CHARLIER, ["--pnh", "3", "--size", "7"], {"pnh": 3, "size": 7}),
        family(HERMITE, ["--pnh", "3", "--size", "7"], {"pnh": 3, "size": 7}),
        family(CHARLIER, ["--slice", "2", "--n-max", "3"], {"slice": 2, "n_max": 3}),
        family(HERMITE, ["--slice", "2", "--n-max", "3"], {"slice": 2, "n_max": 3}),
        family(HERMITE, ["--series", "--size", "6"], {"series": True, "size": 6}),
        family(CHEBYSHEV, ["--series", "--size", "6"], {"series": True, "size": 6}),
        workloads._verify(tri, 3),
    ]


def bump(s: str) -> str:
    return checker.rat_str(Fraction(s) + 1)


def checked_paths(req, obj, path=()):
    """Paths of the rationals in a payload that the checker vouches for.

    The rows of p_N(H) past its certified window depend on the truncation
    route, so the checker leaves them to the byte-identity comparison.
    """
    if isinstance(obj, str):
        if not (req.command == "family" and "pnh" in req.params
                and path[2] >= req.params["size"] - req.params["pnh"]):
            yield path
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from checked_paths(req, v, path + (i,))
    elif isinstance(obj, dict):
        for k in sorted(obj):
            yield from checked_paths(req, obj[k], path + (k,))


def set_path(obj, path, value):
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value


class CheckerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        shutil.rmtree(WORKDIR, ignore_errors=True)
        cls.session = run.Session(CLI, small_requests(), WORKDIR)
        cls.session.run_pass("p")

    @classmethod
    def tearDownClass(cls):
        cls.session.close()

    def outputs(self, i):
        rc, _ns, stdout, _err, _ref = self.session.passes[0][1][i]
        texts = [b.decode() for b in self.session.output_files("p", i)]
        return rc, stdout, texts

    def test_real_outputs_pass(self):
        for i, req in enumerate(self.session.deck):
            with self.subTest(req=req.label()):
                rc, stdout, texts = self.outputs(i)
                info = checker.check_request(req, rc, stdout, texts, random.Random(1))
                self.assertEqual(info["rationals"] > 0, req.out is not None)

    def test_one_perturbed_entry_is_rejected(self):
        for i, req in enumerate(self.session.deck):
            if req.out != "json":
                continue
            rc, stdout, texts = self.outputs(i)
            payload = json.loads(texts[0])
            for path in list(checked_paths(req, payload)):
                bad = json.loads(texts[0])
                value = bad
                for key in path:
                    value = value[key]
                set_path(bad, path, bump(value))
                with self.subTest(req=req.label(), path=path):
                    with self.assertRaises(checker.CheckError):
                        checker.check_request(req, rc, stdout, [checker_dumps(bad)],
                                              random.Random(1))

    def test_perturbed_csv_entry_is_rejected(self):
        i = next(i for i, r in enumerate(self.session.deck) if r.out == "csv")
        req = self.session.deck[i]
        rc, stdout, texts = self.outputs(i)
        for k, text in enumerate(texts):
            lines = text.split("\n")
            for j in range(1, len(lines) - 1):
                n, m, v = lines[j].split(",")
                bad = list(texts)
                bad[k] = "\n".join(lines[:j] + [f"{n},{m},{bump(v)}"] + lines[j + 1:])
                with self.subTest(k=k, line=j):
                    with self.assertRaises(checker.CheckError):
                        checker.check_request(req, rc, stdout, bad, random.Random(1))

    def test_non_canonical_json_is_rejected(self):
        i = next(i for i, r in enumerate(self.session.deck) if r.out == "json")
        rc, stdout, texts = self.outputs(i)
        with self.assertRaises(checker.CheckError):
            checker.check_request(self.session.deck[i], rc, stdout,
                                  [json.dumps(json.loads(texts[0]), indent=1)], random.Random(1))

    def test_failed_exit_is_rejected(self):
        i = next(i for i, r in enumerate(self.session.deck) if r.command == "verify")
        with self.assertRaises(checker.CheckError):
            checker.check_request(self.session.deck[i], 4, "", [], random.Random(1))


def checker_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


class SpanTest(unittest.TestCase):
    def test_self_times_of_nested_spans(self):
        records = [
            ("cli.main", 0, 100, -1, 0),
            ("a", 10, 40, 0, 0),
            ("b", 15, 25, 1, 0),
            ("a", 50, 90, 0, 0),
        ]
        self.assertEqual(spans.self_times(records), [30, 20, 10, 40])

    def test_traced_request_self_times_sum_to_its_duration(self):
        session = run.Session(CLI, small_requests()[:4], os.path.join(WORKDIR, "trace"))
        try:
            tracer = spans.Tracer(PACKAGE, run.time.perf_counter_ns)
            original = CLI.main
            results = session.new_pass("t")
            for i in range(4):
                tracer.request = i
                with tracer:
                    results.append(session.call("t", i))
            self.assertIs(CLI.main, original, "wrappers must be removed after each request")
            selfs = spans.self_times(tracer.spans)
            for req in range(4):
                mine = [(rec, s) for rec, s in zip(tracer.spans, selfs) if rec[4] == req]
                roots = [rec for rec, _s in mine if rec[3] < 0]
                self.assertEqual([r[0] for r in roots], ["cli.main"])
                self.assertEqual(sum(s for _rec, s in mine), roots[0][2] - roots[0][1])
        finally:
            session.close()


class CountingTest(unittest.TestCase):
    def test_mat_mul_terms_match_a_direct_count(self):
        from polyseq.matrix import make_operator

        h = PACKAGE.realize_H(PACKAGE.HSpec.from_family(PACKAGE.FamilyParams("hermite", 1)), 7)
        for a, b in ((h, h), (make_operator("X", 7), h), (h, make_operator("D", 7))):
            terms = nonzero = 0
            for i in range(7):
                for k in range(7):
                    for j in range(max(0, k + b.index), min(6, i - a.index) + 1):
                        terms += 1
                        nonzero += bool(a.rows[i][j]) and bool(b.rows[j][k])
            self.assertEqual(spans.mat_mul_terms(a, b), (terms, nonzero))

    def test_counters_repeat(self):
        counts = []
        for n in range(2):
            session = run.Session(CLI, small_requests(), os.path.join(WORKDIR, f"count{n}"))
            try:
                counting = spans.Counting(PACKAGE)
                with counting:
                    session.run_pass("c")
                counts.append((dict(counting.calls), dict(counting.values)))
            finally:
                session.close()
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0][1]["matrix.mat_mul.terms"], 0)


if __name__ == "__main__":
    unittest.main()
