#!/usr/bin/env python3
"""polyseq benchmark: one closed-loop client driving ``polyseq.cli.main``.

Usage (from the repository root):

    python3 bench/run.py --workload banded-linearize --seed 1 --seconds 30 --trace 0

The benchmark imports polyseq from ``src/`` of the checkout it sits in and
calls ``cli.main(argv)`` in process, one request at a time, each sent only
after the previous one returned (one client, one process, no threads).
Requests come from the seeded deck of the workload (``workloads.py``); a run
repeats whole passes of the deck for about ``--seconds`` seconds.  After the
timed loop, the first pass's outputs are checked by ``checker.py`` and every
later pass must reproduce them byte for byte.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` sends each
request untraced and traced back to back, pass after pass, then takes one
counting pass, and reports the per-layer metrics.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is the full report, which is also written
under ``.bench_out/results/``.
See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

import checker
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

MIN_PASSES = 3  # each request's time is a median over at least this many runs of it
MAX_LOOP_S = 120  # a run ends within three minutes even on a slow commit
SETUP_PER_PASS = 3  # imports timed after each pass, so they spread over the run
# The probe's wall time that defines the reference host speed.  Every timing
# is scaled by PROBE_REF_NS / (probe time around it); see README.md.
PROBE_REF_NS = 1_000_000
SETUP_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import polyseq.cli"

CALLS = ("matrix.mat_mul", "matrix.TruncMatrix.init", "sequences.build_P_recurrence")


def load_cli():
    """Import polyseq.cli from this checkout's sources, and nowhere else."""
    pkg = os.path.join(SRC, "polyseq")
    if not os.path.isfile(os.path.join(pkg, "cli.py")):
        raise SystemExit(f"bench: no polyseq sources at {pkg}")
    sys.path.insert(0, SRC)
    import polyseq
    import polyseq.cli

    if os.path.dirname(os.path.abspath(polyseq.__file__)) != pkg:
        raise SystemExit(f"bench: imported polyseq from {polyseq.__file__}, not {pkg}")
    return polyseq, polyseq.cli


def probe_ns() -> int:
    """Wall time of a fixed exact-arithmetic kernel: the host's current speed.

    It does the kind of work polyseq does (Fraction arithmetic in the
    interpreter) and nothing polyseq can change.
    """
    t0 = time.perf_counter_ns()
    acc = Fraction(0)
    for i in range(1, 200):
        acc += Fraction(i, i + 1) * Fraction(2 * i + 1, 3)
    return time.perf_counter_ns() - t0


def scaled(ns: int, before: int, after: int) -> float:
    """A wall time scaled to the reference speed by the probes around it."""
    return ns * 2 * PROBE_REF_NS / (before + after)


def import_seconds() -> tuple:
    """(wall, reference) seconds of a fresh interpreter importing polyseq.cli."""
    before = probe_ns()
    t0 = time.perf_counter_ns()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60)
    ns = time.perf_counter_ns() - t0
    if proc.returncode != 0:
        raise SystemExit(f"bench: import failed: {proc.stderr.decode(errors='replace')}")
    return ns / 1e9, scaled(ns, before, probe_ns()) / 1e9


def sources_sha256(folder: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(folder)):
        if name.endswith(".py"):
            with open(os.path.join(folder, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def environment(seed: int) -> dict:
    rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        rev = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_rev": rev,
        "src_sha256": sources_sha256(os.path.join(SRC, "polyseq")),
        "bench_sha256": sources_sha256(HERE),
        "seed": seed,
    }


class Session:
    """One workload deck, its spec files and the outputs of every pass."""

    def __init__(self, cli, deck: list, workdir: str):
        self.cli = cli
        self.deck = deck
        self.workdir = workdir
        self.spec_paths = {}
        # (tag, results); results[i] = (rc, wall ns, stdout, error, reference ns)
        self.passes = []
        os.makedirs(workdir)

    def spec_path(self, spec: dict) -> str:
        key = json.dumps(spec, sort_keys=True)
        if key not in self.spec_paths:
            path = os.path.join(self.workdir, f"spec{len(self.spec_paths)}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(key)
            self.spec_paths[key] = path
        return self.spec_paths[key]

    def out_path(self, tag: str, i: int):
        req = self.deck[i]
        if req.out is None:
            return None
        return os.path.join(self.workdir, tag, f"r{i}.{req.out}")

    def output_files(self, tag: str, i: int) -> list:
        req, path = self.deck[i], self.out_path(tag, i)
        if path is None:
            return []
        if req.out == "csv":
            base = path[: -len(".csv")]
            paths = [f"{base}_k{k}.csv" for k in range(2 * req.params["n_max"] + 1)]
        else:
            paths = [path]
        texts = []
        for p in paths:
            if os.path.exists(p):
                with open(p, "rb") as fh:
                    texts.append(fh.read())
        return texts

    def call(self, tag: str, i: int) -> tuple:
        """Send request i once, its outputs going under tag: (rc, wall ns, stdout, error)."""
        argv = self.deck[i].argv(self.spec_path, self.out_path(tag, i))
        out, err = io.StringIO(), io.StringIO()
        error = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter_ns()
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejected the argv
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                rc, error = None, traceback.format_exc()
            t1 = time.perf_counter_ns()
        if rc not in (0, None) and error is None:
            error = err.getvalue()
        return rc, t1 - t0, out.getvalue(), error

    def new_pass(self, tag: str) -> list:
        os.makedirs(os.path.join(self.workdir, tag))
        results = []
        self.passes.append((tag, results))
        return results

    def run_pass(self, tag: str) -> None:
        """Send every request of the deck once, with a probe between requests."""
        results = self.new_pass(tag)
        before = probe_ns()
        for i in range(len(self.deck)):
            rc, ns, stdout, error = self.call(tag, i)
            after = probe_ns()
            results.append((rc, ns, stdout, error, scaled(ns, before, after)))
            before = after

    def fingerprint(self, tag: str, i: int, stdout: str) -> bytes:
        h = hashlib.sha256()
        for piece in [stdout.encode()] + self.output_files(tag, i):
            h.update(len(piece).to_bytes(8, "big"))
            h.update(piece)
        return h.digest()

    def evaluate(self, seed: int) -> dict:
        """Check pass 0, compare every later pass with it, count failures."""
        tag0, first = self.passes[0]
        rng = random.Random(f"check:{seed}")
        checked, errors = [], []
        digest = hashlib.sha256()
        for i, (rc, _ns, stdout, error, _ref) in enumerate(first):
            fp = self.fingerprint(tag0, i, stdout)
            digest.update(fp)
            try:
                if error is not None:
                    raise checker.CheckError(f"exit code {rc}: {error.strip()[-300:]}")
                texts = [b.decode("utf-8") for b in self.output_files(tag0, i)]
                info = checker.check_request(self.deck[i], rc, stdout, texts, rng)
                checked.append((fp, info))
            except checker.CheckError as exc:
                checked.append((None, None))
                errors.append(f"{self.deck[i].label()}: {exc}")
        attempted = failed = 0
        for tag, results in self.passes:
            for i, (_rc, _ns, stdout, _error, _ref) in enumerate(results):
                attempted += 1
                want = checked[i][0]
                if want is None or self.fingerprint(tag, i, stdout) != want:
                    failed += 1
                    if want is not None:
                        errors.append(f"pass {tag}: {self.deck[i].label()}: output differs from pass {tag0}")
        return {
            "attempted": attempted,
            "failed": failed,
            "errors": errors[:20],
            "digest": digest.hexdigest(),
            "info": [info for _fp, info in checked],
        }

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def run_untraced(session: Session, seconds: int) -> dict:
    import_seconds()  # writes bytecode caches, as an installed copy has them
    setup = []
    start = time.perf_counter()
    p = 0
    while True:
        t0 = time.perf_counter()
        session.run_pass(f"u{p}")
        p += 1
        setup += [import_seconds() for _ in range(SETUP_PER_PASS)]
        now = time.perf_counter()
        if now - start > MAX_LOOP_S or (p >= MIN_PASSES and now - start + (now - t0) > seconds):
            break
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"wall_s": wall, "passes": p, "peak_rss_mb": peak_rss_mb,
            "setup_wall_s": statistics.median(w for w, _r in setup),
            "setup_s": statistics.median(r for _w, r in setup), "setup_samples": len(setup)}


def run_traced(session: Session, package, seconds: int, spans_path: str) -> dict:
    """Pairs of untraced and traced passes, then one counting pass.

    Within a pair, each request is sent untraced and traced, back to back,
    with probes between, so the two see the same host load and their ratio
    is the tracing overhead.  The pairs stop early enough to leave time for the counting
    pass, which costs about as much as a traced one.
    """
    start = time.perf_counter()
    self_ns, calls_by_pass, sum_errors = [], [], []
    while True:
        t0 = time.perf_counter()
        p = len(self_ns)
        plain, traced = session.new_pass(f"u{p}"), session.new_pass(f"t{p}")
        tracer = spans.Tracer(package, time.perf_counter_ns)
        factors = []  # reference ns per wall ns of each traced call
        before = probe_ns()
        for i in range(len(session.deck)):
            # which twin goes first alternates, so neither gains from warm caches
            for kind in ("ut" if (i + p) % 2 == 0 else "tu"):
                if kind == "t":
                    tracer.request = i
                    with tracer:
                        rc, ns, stdout, error = session.call(f"t{p}", i)
                else:
                    rc, ns, stdout, error = session.call(f"u{p}", i)
                after = probe_ns()
                ref = scaled(ns, before, after)
                (traced if kind == "t" else plain).append((rc, ns, stdout, error, ref))
                if kind == "t":
                    factors.append(ref / ns)
                before = after
        selfs = spans.self_times(tracer.spans)
        per_label, per_request, roots, calls = {}, {}, {}, {}
        for (lab, start_ns, end_ns, parent, req), s in zip(tracer.spans, selfs):
            per_label[lab] = per_label.get(lab, 0) + s * factors[req]
            calls[lab] = calls.get(lab, 0) + 1
            per_request[req] = per_request.get(req, 0) + s
            if parent < 0:
                roots[req] = roots.get(req, 0) + end_ns - start_ns
        sum_errors.append(max(abs(per_request[r] - roots.get(r, 0)) for r in per_request))
        self_ns.append(per_label)
        calls_by_pass.append(calls)
        if p == 0:
            write_spans(spans_path, tracer.spans)
        now = time.perf_counter()
        if now - start + 1.5 * (now - t0) > seconds or now - start > MAX_LOOP_S:
            break
    counting = spans.Counting(package)
    with counting:
        session.run_pass("c")
    return {
        "self_ns": self_ns,
        "calls_by_pass": calls_by_pass,
        "self_sum_max_error_ns": max(sum_errors),
        "counting": counting,
    }


def write_spans(path: str, records: list) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write('["label","start_ns","end_ns","parent","request"]\n')
        for rec in records:
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def request_seconds(session: Session, field: int = 4) -> list:
    """Each request's median time over the run's passes, in seconds.

    ``field`` 4 is the time at the reference speed, 1 the wall time.
    """
    return [statistics.median(res[i][field] for _tag, res in session.passes) / 1e9
            for i in range(len(session.deck))]


def end_to_end(session: Session, loop: dict, evaluation: dict) -> dict:
    times = request_seconds(session)
    wall = request_seconds(session, field=1)
    written = sum(info["rationals"] for info in evaluation["info"] if info)
    metrics = {
        "request_s.p50": (statistics.median(times), "s"),
        "request_s.p90": (statistics.quantiles(times, n=10)[8], "s"),
        "coeffs_per_s": (written / sum(times), "1/s"),
        "peak_rss_mb": (loop["peak_rss_mb"], "MB"),
        "setup_s": (loop["setup_s"], "s"),
        "wall.request_s.p50": (statistics.median(wall), "s"),
        "wall.request_s.p90": (statistics.quantiles(wall, n=10)[8], "s"),
        "wall.coeffs_per_s": (written / sum(wall), "1/s"),
        "wall.setup_s": (loop["setup_wall_s"], "s"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}


def per_layer(session: Session, traced: dict, evaluation: dict) -> tuple:
    """(metrics, problems): per-layer numbers of one pass of the deck."""
    problems = []
    counting = traced["counting"]
    calls, values = counting.calls, counting.values
    for n, pass_calls in enumerate(traced["calls_by_pass"]):
        if {k: v for k, v in calls.items() if v} != pass_calls:
            problems.append(f"traced pass {n} made other calls than the counting pass")
    if traced["self_sum_max_error_ns"] != 0:
        problems.append("self times do not sum to request durations")
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for lab in spans.LABELS:
        self_s = statistics.median(p.get(lab, 0) for p in traced["self_ns"]) / 1e9
        put(f"{lab}.self_s", self_s, "s")
    for lab in CALLS:
        put(f"{lab}.calls", calls[lab], "count")
    terms = values["matrix.mat_mul.terms"]
    nonzero = values["matrix.mat_mul.nonzero_terms"]
    put("matrix.mat_mul.terms", terms, "count")
    put("matrix.mat_mul.nonzero_terms", nonzero, "count")
    put("matrix.mat_mul.useful_ratio", nonzero / terms if terms else 1.0, "ratio")
    returned = values["linearize.lin_tensor_direct.returned"]
    built = values["linearize.lin_tensor_direct.entries_built"]
    put("linearize.lin_tensor_direct.read_ratio",
        returned / (returned + built) if returned else 1.0, "ratio")
    put("serialize.write_json.bytes", values["serialize.write_json.bytes"], "bytes")
    put("serialize.output.max_bits",
        max((info["max_bits"] for info in evaluation["info"] if info), default=0), "bits")
    spent = {kind: sum(r[4] for tag, res in session.passes if tag[0] == kind for r in res)
             for kind in "ut"}
    put("trace.overhead_ratio", spent["t"] / spent["u"], "ratio")
    return metrics, problems


def ledger_check(workload: str, seed: int, env: dict, entry: dict) -> list:
    """Compare digest and counters with earlier runs of the same code and seed."""
    folder = os.path.join(OUT, "ledger")
    os.makedirs(folder, exist_ok=True)
    code = f"{env['src_sha256'][:12]}-{env['bench_sha256'][:12]}"
    path = os.path.join(folder, f"{workload}-s{seed}-{code}.json")
    stored = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            stored = json.load(fh)
    problems = [f"{key} differs from an earlier run of this code and seed"
                for key, value in entry.items() if key in stored and stored[key] != value]
    stored.update({k: v for k, v in entry.items() if k not in stored})
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(stored, fh, sort_keys=True)
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package, cli = load_cli()
    env = environment(args.seed)
    deck = workloads.make_deck(args.workload, args.seed)
    workdir = os.path.join(OUT, "work", f"{args.workload}-s{args.seed}-{os.getpid()}")
    session = Session(cli, deck, workdir)
    try:
        if args.trace:
            spans_path = os.path.join(OUT, "spans", f"{args.workload}-s{args.seed}.jsonl.gz")
            traced = run_traced(session, package, args.seconds, spans_path)
        else:
            loop = run_untraced(session, args.seconds)
        evaluation = session.evaluate(args.seed)
    finally:
        session.close()

    problems = list(evaluation["errors"])
    entry = {"digest": evaluation["digest"]}
    report = {"workload": args.workload, "trace": args.trace, "environment": env,
              "requests": len(deck), "executions": evaluation["attempted"],
              "digest": evaluation["digest"]}
    if args.trace:
        metrics, layer_problems = per_layer(session, traced, evaluation)
        problems += layer_problems
        counters = {name: m["value"] for name, m in metrics.items()
                    if m["unit"] in ("count", "bytes", "bits")}
        entry["counters"] = counters
        report.update({
            "passes": [tag for tag, _res in session.passes],
            "missing_targets": traced["counting"].missing,
            "self_sum_max_error_ns": traced["self_sum_max_error_ns"],
            "spans_file": os.path.relpath(spans_path, ROOT),
        })
    else:
        metrics = end_to_end(session, loop, evaluation)
        report.update({"passes": loop["passes"], "loop_wall_s": loop["wall_s"],
                       "setup_samples": loop["setup_samples"],
                       "times_ns": [[r[1] for r in res] for _t, res in session.passes],
                       "reference_ns": [[round(r[4]) for r in res] for _t, res in session.passes]})
    problems += ledger_check(args.workload, args.seed, env, entry)
    report.update({
        "failed_share": evaluation["failed"] / evaluation["attempted"],
        "problems": problems,
        "metrics": metrics,
    })
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", f"{args.workload}-s{args.seed}-t{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=1)
    for name, m in metrics.items():
        print(f"{name:45s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({k: v for k, v in report.items() if not k.endswith("_ns")}, sort_keys=True))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        listed = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": not problems and evaluation["failed"] == 0,
        "attempted": evaluation["attempted"],
        "failed": evaluation["failed"],
        "metrics": {m["name"]: metrics[m["name"]] for m in listed},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
