"""Per-layer instrumentation, installed from outside polyseq.

Both instruments wrap the same list of public functions (``TARGETS``): the
binding in the module that defines each one and every other ``polyseq.*``
module that imported it by name, plus ``TruncMatrix.__init__`` and
``Polynomial.__mul__`` on their classes.  Wrappers are installed for one pass
and removed after it; an untraced pass runs polyseq unpatched.

``Tracer`` keeps one span per call in memory: (target, start ns, end ns,
parent span, request id).  Self time is a span's duration minus the part of
it that its child spans cover.

``Counting`` takes the work counters in a separate, untimed pass so that
computing them never inflates a traced self time.  Counters read operands
through the public ``size``, ``index`` and ``rows`` of ``TruncMatrix``; the
term counts are computed from the operands, not measured inside ``mat_mul``.
"""

from __future__ import annotations

import functools
import importlib
import os
import pkgutil
from collections import Counter

# (module that defines it at this revision, qualified name).  Metric names use
# these labels even if a later revision moves a function to another module.
TARGETS = (
    ("matrix", "mat_mul"),
    ("matrix", "TruncMatrix.__init__"),
    ("matrix", "lower_tri_inverse"),
    ("matrix", "poly_of_matrix"),
    ("linearize", "lin_tensor_direct"),
    ("linearize", "recurrence_poly_matrices"),
    ("linearize", "lin_tensor_recurrence"),
    ("linearize", "connection_matrix"),
    ("linearize", "mixed_tensor"),
    ("linearize", "verify_inverse_connection"),
    ("linearize", "tensors_agree"),
    ("sequences", "realize_H"),
    ("sequences", "build_P_recurrence"),
    ("sequences", "build_A_rows"),
    ("sequences", "build_P_columns"),
    ("sequences", "build_Hhat"),
    ("oracle", "lin_tensor_oracle"),
    ("polynomial", "Polynomial.__mul__"),
    ("orthogonal", "op_lin_recurrence"),
    ("orthogonal", "orthogonality_table"),
    ("families", "family_pnh_closed"),
    ("families", "family_slice_closed"),
    ("families", "cheby_series_p"),
    ("families", "hermite_exp_p"),
    ("verify", "run_suite"),
    ("serialize", "tensor_to_jsonable"),
    ("serialize", "matrix_to_jsonable"),
    ("serialize", "write_json"),
    ("cli", "main"),
)


def label(module: str, name: str) -> str:
    """Metric prefix of a target: ``matrix.TruncMatrix.init``, ``cli.main``."""
    return f"{module}.{name.replace('.__', '.').rstrip('_')}"


LABELS = tuple(label(m, n) for m, n in TARGETS)


def polyseq_modules(package) -> list:
    """The package and every submodule, imported."""
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__, package.__name__ + "."):
        mods.append(importlib.import_module(info.name))
    return mods


def _bindings(mods: list, home: str, name: str) -> list:
    """(owner, attribute, original) for every binding of one target."""
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in mods}
    ordered = [by_name[home]] + mods if home in by_name else mods
    if "." in name:
        cls_name, attr = name.split(".")
        for mod in ordered:
            cls = vars(mod).get(cls_name)
            if isinstance(cls, type) and attr in vars(cls):
                return [(cls, attr, vars(cls)[attr])]
        return []
    original = None
    for mod in ordered:
        obj = vars(mod).get(name)
        if callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
            original = obj
            break
    if original is None:
        return []
    return [(mod, attr, obj) for mod in mods for attr, obj in vars(mod).items() if obj is original]


class Instrument:
    """Installs one wrapper per target for the duration of a ``with`` block."""

    def __init__(self, package):
        mods = polyseq_modules(package)
        self.bindings = {lab: _bindings(mods, m, n) for lab, (m, n) in zip(LABELS, TARGETS)}
        self.missing = sorted(lab for lab, b in self.bindings.items() if not b)
        self._saved = []

    def wrapper(self, lab: str, fn):
        raise NotImplementedError

    def __enter__(self):
        for lab, bindings in self.bindings.items():
            if not bindings:
                continue
            wrapped = self.wrapper(lab, bindings[0][2])
            for owner, attr, original in bindings:
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False


class Tracer(Instrument):
    def __init__(self, package, clock):
        super().__init__(package)
        self.clock = clock
        self.spans = []  # (label, start, end, parent index, request id)
        self.request = -1
        self._stack = []

    def wrapper(self, lab: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (lab, start, end, parent, self.request)

        return traced


def self_times(spans: list) -> list:
    """Self time of each span: its duration minus the union of its children."""
    children = [[] for _ in spans]
    for idx, (_, start, end, parent, _req) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (_, start, end, _parent, _req), kids in zip(spans, children):
        covered, reach = 0, start
        for c_start, c_end in sorted(kids):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def mat_mul_terms(a, b) -> tuple:
    """(index-bounded inner-loop terms, terms with both factors nonzero) of a @ b.

    The bounds are those of the module docstring of ``polyseq.matrix``:
    c[i][k] sums j over max(0, k + ind(b)) .. min(T - 1, i - ind(a)).
    """
    t, ia, ib = a.size, a.index, b.index
    ar, br = a.rows, b.rows
    cols = []
    for k in range(t):
        lo = max(0, k + ib)
        mask = 0
        for j in range(lo, t):
            if br[j][k]:
                mask |= 1 << j
        cols.append((lo, mask))
    terms = nonzero = 0
    for i in range(t):
        hi = min(t - 1, i - ia)
        row = ar[i]
        mask = 0
        for j in range(hi + 1):
            if row[j]:
                mask |= 1 << j
        for lo, col in cols:
            if lo <= hi:
                terms += hi - lo + 1
                nonzero += bin(mask & col).count("1")
    return terms, nonzero


class Counting(Instrument):
    def __init__(self, package):
        super().__init__(package)
        self.calls = Counter()
        self.values = Counter()  # named work counters
        self._direct_depth = 0

    def wrapper(self, lab: str, fn):
        calls, values = self.calls, self.values

        if lab == "matrix.mat_mul":
            def counted(a, b, *args, **kwargs):
                calls[lab] += 1
                terms, nonzero = mat_mul_terms(a, b)
                values["matrix.mat_mul.terms"] += terms
                values["matrix.mat_mul.nonzero_terms"] += nonzero
                return fn(a, b, *args, **kwargs)
        elif lab == "matrix.TruncMatrix.init":
            def counted(obj, *args, **kwargs):
                calls[lab] += 1
                fn(obj, *args, **kwargs)
                if self._direct_depth:
                    values["linearize.lin_tensor_direct.entries_built"] += obj.size ** 2
        elif lab == "linearize.lin_tensor_direct":
            def counted(*args, **kwargs):
                calls[lab] += 1
                self._direct_depth += 1
                try:
                    tensor = fn(*args, **kwargs)
                finally:
                    self._direct_depth -= 1
                values["linearize.lin_tensor_direct.returned"] += (
                    (tensor.k_max + 1) * (tensor.n_max + 1) ** 2
                )
                return tensor
        elif lab == "serialize.write_json":
            def counted(path, *args, **kwargs):
                calls[lab] += 1
                fn(path, *args, **kwargs)
                values["serialize.write_json.bytes"] += os.path.getsize(path)
        else:
            def counted(*args, **kwargs):
                calls[lab] += 1
                return fn(*args, **kwargs)

        return functools.wraps(fn)(counted)
