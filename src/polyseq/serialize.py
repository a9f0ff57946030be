"""Canonical JSON: reads H spec files and writes the output formats.

All scalars travel as lowest-terms rational strings ("p" or "p/q", q > 0) —
never floats — and every emitted document uses sorted keys and fixed
separators, so parse + re-serialize is byte-identical.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
from decimal import Decimal
from fractions import Fraction

from .errors import SchemaError
from .families import FamilyParams
from .linearize import LinTensor
from .matrix import TruncMatrix
from .sequences import HSpec

_RAT_RE = re.compile(r"^-?\d+(/-?\d+)?$")


def rat_to_str(v) -> str:
    # Fraction and int print as "p" or "p/q" in lowest terms; anything else
    # (bool, str, float, subclasses) is read as a Fraction first.
    if type(v) is not Fraction and type(v) is not int:
        v = Fraction(v)
    try:
        return str(v)
    except ValueError:
        # past sys.get_int_max_str_digits(); Decimal prints any int exactly
        num = str(Decimal(v.numerator))
        return num if v.denominator == 1 else f"{num}/{Decimal(v.denominator)}"


def rat_from_str(s) -> Fraction:
    if isinstance(s, bool) or not isinstance(s, (str, int)):
        raise SchemaError(f"expected a rational string, got {s!r}")
    if isinstance(s, int):
        # Integers are tolerated on input; output is always strings.
        return Fraction(s)
    if not _RAT_RE.match(s):
        raise SchemaError(f"malformed rational string {s!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"malformed rational string {s!r}: {exc}") from None


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise SchemaError(msg)


def _rat_list(values, what: str) -> list:
    _require(isinstance(values, list), f"{what} must be a list")
    return [rat_from_str(v) for v in values]


def _rat_grid(values, what: str) -> list:
    _require(isinstance(values, list), f"{what} must be a list of lists")
    out = []
    for row in values:
        _require(isinstance(row, list), f"{what} rows must be lists")
        out.append([rat_from_str(v) for v in row])
    return out


# -- matrices ----------------------------------------------------------------

def matrix_to_jsonable(m: TruncMatrix) -> dict:
    return {
        "size": m.size,
        "index": m.index,
        "rows": [[rat_to_str(v) for v in row] for row in m.rows],
    }


# -- H specs -----------------------------------------------------------------

def hspec_to_jsonable(spec: HSpec) -> dict:
    if spec.kind == "tridiagonal":
        return {
            "type": "tridiagonal",
            "beta": [rat_to_str(b) for b in spec.beta],
            "alpha": [rat_to_str(a) for a in spec.alpha],
        }
    if spec.kind == "rows":
        return {"type": "rows", "rows": [[rat_to_str(v) for v in r] for r in spec.rows]}
    fam = spec.family
    if fam.name == "charlier":
        return {"type": "charlier", "a": rat_to_str(fam.a)}
    return {"type": fam.name, "a": rat_to_str(fam.a), "b": rat_to_str(fam.b)}


def hspec_from_jsonable(obj) -> HSpec:
    _require(isinstance(obj, dict), "H spec must be an object")
    kind = obj.get("type")
    if kind == "tridiagonal":
        _require(set(obj) == {"type", "beta", "alpha"}, "tridiagonal spec needs beta and alpha")
        return HSpec.tridiagonal(
            _rat_list(obj["beta"], "beta"), _rat_list(obj["alpha"], "alpha")
        )
    if kind == "rows":
        _require(set(obj) == {"type", "rows"}, "rows spec needs key rows")
        return HSpec.from_rows(_rat_grid(obj["rows"], "rows"))
    if kind in ("chebyshev", "hermite"):
        _require(set(obj) <= {"type", "a", "b"}, f"{kind} spec takes a and b")
        _require("a" in obj, f"{kind} spec needs a")
        a = rat_from_str(obj["a"])
        b = rat_from_str(obj.get("b", "0"))
        try:
            return HSpec.from_family(FamilyParams(kind, a, b))
        except Exception as exc:
            raise SchemaError(str(exc)) from None
    if kind == "charlier":
        _require(set(obj) == {"type", "a"}, "charlier spec takes only a")
        try:
            return HSpec.from_family(FamilyParams("charlier", rat_from_str(obj["a"])))
        except Exception as exc:
            raise SchemaError(str(exc)) from None
    raise SchemaError(f"unknown H spec type {kind!r}")


# -- tensors and connection matrices ------------------------------------------

def tensor_to_jsonable(t: LinTensor) -> dict:
    return {
        "n_max": t.n_max,
        "slices": [
            {"k": k, "matrix": [[rat_to_str(v) for v in row] for row in t.slices[k]]}
            for k in range(t.k_max + 1)
        ],
    }


def connection_to_jsonable(m_max: int, matrix) -> dict:
    return {
        "m_max": m_max,
        "matrix": [[rat_to_str(v) for v in row] for row in matrix],
    }


# -- files --------------------------------------------------------------------

def read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:
        # bad syntax, bad UTF-8, an integer past the digit limit, deep nesting
        raise SchemaError(f"{path}: invalid JSON: {exc}") from None


@contextlib.contextmanager
def atomic_open(path: str):
    """A temp file beside path (links followed) that replaces it only if the
    block completes; a pipe or device cannot be replaced, so is written as is."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
        return
    target = os.path.realpath(path)
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_json(path: str, jsonable) -> None:
    with atomic_open(path) as fh:
        fh.write(canonical_dumps(jsonable))
