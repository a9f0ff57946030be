"""Command line interface.

Subcommands
    build      realize H from a spec and emit H, A, P and the moments
    linearize  compute linearization slices (with --method all, check them
               against every alternate route)
    connect    connection matrix between two sequences (+ mixed tensor)
    family     closed-form family objects (p_n(H), slice k, series P)
    verify     run the full cross-method suite on a spec

Exit codes: 0 success, 2 file/parse problems, 3 window or math errors,
4 cross-method mismatch.  `connect --verify` writes its payload, with
"inverse_check": false, before it exits 4, so the failed result can be
inspected.  All outputs are canonical JSON files (or CSV slice files),
replaced whole or not at all; stdout stays silent unless --verbose asks.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import MismatchError, PolyseqError, SchemaError, WindowError
from .families import FamilyParams, closed_d, slice_closed_size
from .linearize import (
    connection_matrix,
    lin_tensor_direct,
    LinTensor,
    mixed_tensor,
    required_size,
    tensors_agree,
    verify_inverse_connection,
)
from .matrix import TruncMatrix
from .orthogonal import recurrence_coefficients
from .sequences import build_P_recurrence, realize_H, tau_moments
from .serialize import (
    atomic_open,
    connection_to_jsonable,
    hspec_from_jsonable,
    matrix_to_jsonable,
    rat_to_str,
    read_json,
    tensor_to_jsonable,
    write_json,
)

DEFAULT_MAX_T = 512


def _max_t() -> int:
    raw = os.environ.get("POLYSEQ_MAX_T", "")
    if not raw:
        return DEFAULT_MAX_T
    try:
        return int(raw)
    except ValueError:
        raise SchemaError(f"POLYSEQ_MAX_T must be an integer, got {raw!r}") from None


def _resolve_size(requested: int | None, required: int, what: str) -> int:
    """Auto window unless --size overrides; both respect the global cap."""
    size = required if requested is None else requested
    if size < required:
        raise WindowError(required, size, what)
    cap = _max_t()
    if size > cap:
        raise PolyseqError(
            f"requested truncation size {size} exceeds POLYSEQ_MAX_T = {cap}"
        )
    return size


def _load_spec(path: str):
    return hspec_from_jsonable(read_json(path))


def _progress(args, msg: str) -> None:
    if args.verbose:
        print(msg)


def _write_tensor(args, tensor: LinTensor) -> None:
    if args.format == "json":
        write_json(args.out, tensor_to_jsonable(tensor))
        return
    base, ext = os.path.splitext(args.out)
    if not ext:
        ext = ".csv"
    for k in range(tensor.k_max + 1):
        with atomic_open(f"{base}_k{k}{ext}") as fh:
            fh.write("n,m,value\n")
            for n in range(tensor.n_max + 1):
                for m in range(tensor.n_max + 1):
                    fh.write(f"{n},{m},{rat_to_str(tensor.slices[k][n][m])}\n")


def _count(text: str) -> int:
    """argparse type of the size and range flags: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


# -- subcommands ---------------------------------------------------------------

def _cmd_build(args) -> int:
    spec = _load_spec(args.h_spec)
    size = _resolve_size(args.size, 2, "build")
    _progress(args, f"realizing H at T={size}")
    pair = build_P_recurrence(realize_H(spec, size))
    payload = {
        "H": matrix_to_jsonable(pair.H),
        "A": matrix_to_jsonable(pair.A),
        "P": matrix_to_jsonable(pair.P),
        "moments": [rat_to_str(v) for v in tau_moments(pair)],
    }
    write_json(args.out, payload)
    _progress(args, f"wrote {args.out}")
    return 0


def _cmd_linearize(args) -> int:
    spec = _load_spec(args.h_spec)
    required = required_size(args.n_max)
    size = _resolve_size(args.size, required, f"linearize n_max={args.n_max}")
    h = realize_H(spec, size)
    if args.require_orthogonal:
        recurrence_coefficients(h)
    _progress(args, f"computing tensor n_max={args.n_max} at T={size} via {args.method}")

    # direct reads H alone; only the oracle route needs the sequence pair
    pair = build_P_recurrence(h) if args.method == "all" else None
    direct = lin_tensor_direct(h, args.n_max)
    if pair is not None:
        from .crosscheck import lin_tensor_oracle, lin_tensor_recurrence

        others = {
            "recurrence": LinTensor.from_slices(
                args.n_max, lambda k: lin_tensor_recurrence(h, args.n_max, k)
            ),
            "oracle": lin_tensor_oracle(pair, args.n_max),
        }
        for name, tensor in others.items():
            where = tensors_agree(direct, tensor)
            if where is not None:
                raise MismatchError(where, f"direct vs {name}")
    _write_tensor(args, direct)
    _progress(args, f"wrote {args.out}")
    return 0


def _cmd_connect(args) -> int:
    p_spec = _load_spec(args.p_spec)
    u_spec = _load_spec(args.u_spec)
    required = max(args.m_max + 2, required_size(args.mixed) if args.mixed is not None else 0)
    size = _resolve_size(args.size, required, f"connect m_max={args.m_max}")
    # C, d and the inverse check read H_p and H_u alone: no P or A is built
    h_p, h_u = realize_H(p_spec, size), realize_H(u_spec, size)
    _progress(args, f"connection m_max={args.m_max} at T={size}")
    conn = connection_matrix(h_p, h_u, args.m_max)
    payload = {"connection": connection_to_jsonable(args.m_max, conn)}
    if args.mixed is not None:
        payload["mixed"] = tensor_to_jsonable(mixed_tensor(h_p, h_u, args.mixed))
    ok = True
    if args.verify:
        ok, where = verify_inverse_connection(h_p, h_u, args.m_max)
        payload["inverse_check"] = bool(ok)
    write_json(args.out, payload)  # written even when the check fails, for inspection
    if not ok:
        raise MismatchError(where, "inverse connection")
    _progress(args, f"wrote {args.out}")
    return 0


def _cmd_family(args) -> int:
    spec = _load_spec(args.h_spec)
    if spec.kind != "family":
        raise SchemaError("family subcommand needs a family-type H spec")
    params: FamilyParams = spec.family
    # only --pnh and --series use T; --slice keeps the operator sum's size as its cap
    wants_rows = args.pnh + 2 if args.pnh is not None else 2
    size = _resolve_size(args.size, wants_rows, "family")
    if args.slice is not None:
        _resolve_size(None, slice_closed_size(args.slice, args.n_max), "family --slice")
    payload = {}
    if args.pnh is not None:
        _progress(args, f"closed-form p_n(H), n={args.pnh}, T={size}")
        n = args.pnh  # row i of p_n(H) is d(i, n, .)
        rows = tuple(tuple(closed_d(params, i, n, k) for k in range(size)) for i in range(size))
        payload["pnh"] = matrix_to_jsonable(TruncMatrix._trusted(rows, index=-n, exact_rows=size))
    if args.slice is not None:
        _progress(args, f"closed-form slice k={args.slice}, n_max={args.n_max}")
        span = range(args.n_max + 1)
        payload["slice"] = {
            "k": args.slice,
            "matrix": [[rat_to_str(closed_d(params, n, m, args.slice)) for m in span]
                       for n in span],
        }
    if args.series:
        _progress(args, f"series form of P at T={size}")
        if params.name == "charlier":
            raise PolyseqError("series form of P exists for chebyshev and hermite only")
        pair = build_P_recurrence(realize_H(spec, size))
        payload["series_p"] = matrix_to_jsonable(pair.P)
        if params.name == "hermite":
            payload["series_p_inverse"] = matrix_to_jsonable(pair.A)
    if not payload:
        raise SchemaError("family: nothing requested (use --pnh, --slice or --series)")
    write_json(args.out, payload)
    _progress(args, f"wrote {args.out}")
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_suite

    spec = _load_spec(args.h_spec)
    required = required_size(args.n_max)
    size = _resolve_size(args.size, required, f"verify n_max={args.n_max}")
    results = run_suite(spec, args.n_max, size)
    failures = [r for r in results if not r.ok]
    for r in results:
        if args.verbose:
            status = "ok" if r.ok else "FAIL"
            print(f"{status:4s} {r.name}" + (f" ({r.detail})" if r.detail and not r.ok else ""))
    if failures:
        for r in failures:
            print(f"verify failed: {r.name} {r.detail}", file=sys.stderr)
        return 4
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyseq",
        description="Exact polynomial-sequence computations from Hessenberg truncations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--h-spec", required=True, help="path to an H spec JSON file")
        p.add_argument("--size", type=_count, default=None, help="override the auto window size T")
        p.add_argument("--verbose", action="store_true", help="print progress to stdout")

    p = sub.add_parser("build", help="emit H, A, P and moments for a spec")
    add_common(p)
    p.add_argument("--out", required=True, help="output JSON path")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("linearize", help="linearization tensor for one sequence")
    add_common(p)
    p.add_argument("--n-max", type=_count, required=True)
    p.add_argument(
        "--method",
        choices=("direct", "all"),
        default="direct",
        help="direct: the production route; all: also check it against every alternate route",
    )
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument(
        "--require-orthogonal",
        action="store_true",
        help="demand a tridiagonal spec with nonzero subdiagonal before computing",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_linearize)

    p = sub.add_parser("connect", help="connection coefficients between two sequences")
    p.add_argument("--p-spec", required=True, help="spec of the sequence being expanded")
    p.add_argument("--u-spec", required=True, help="spec of the target basis sequence")
    p.add_argument("--m-max", type=_count, required=True)
    p.add_argument("--mixed", type=_count, default=None, metavar="N_MAX",
                   help="also emit the mixed tensor up to N_MAX")
    p.add_argument("--verify", action="store_true",
                   help="check the two connection directions invert each other")
    p.add_argument("--size", type=_count, default=None)
    p.add_argument("--verbose", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_connect)

    p = sub.add_parser("family", help="closed-form family objects")
    add_common(p)
    p.add_argument("--pnh", type=_count, default=None, metavar="N",
                   help="emit the closed-form matrix of p_N(H)")
    p.add_argument("--slice", type=_count, default=None, metavar="K",
                   help="emit the closed-form linearization slice k=K")
    p.add_argument("--n-max", type=_count, default=6, help="square size for --slice")
    p.add_argument("--series", action="store_true", help="emit the series form of P")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("verify", help="run the cross-method suite on a spec")
    add_common(p)
    p.add_argument("--n-max", type=_count, default=6)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MismatchError as exc:
        print(f"mismatch: {exc}", file=sys.stderr)
        return 4
    except PolyseqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
