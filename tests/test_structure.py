"""Where each route lives, the public names, and the README's code blocks.

Production modules hold one kernel per output; the paper's alternate routes
live in polyseq.crosscheck as oracles.  The README's Library and CLI blocks
must run as written.
"""

import ast
import importlib
import json
import shlex
from fractions import Fraction as F
from pathlib import Path

import polyseq
from polyseq import cli, crosscheck

PUBLIC_NAMES = [
    "BasisError", "BasisExpansion", "CheckResult", "FamilyError", "FamilyParams", "HSpec",
    "InsufficientMomentsError", "LinTensor", "MismatchError", "NotInvertibleError",
    "Polynomial", "PolyseqError", "PropertyViolationError", "SchemaError", "SequencePair",
    "SpecTooShortError", "StructureError", "ThreeTermRecurrence", "TruncMatrix",
    "WindowError", "ZeroAlphaError", "build_A_rows", "build_Hhat", "build_P_columns",
    "build_P_recurrence", "check_unit_hessenberg", "cheby_series_p", "connection_matrix",
    "equal_on_window", "first_below_band", "expand_in_basis", "family_pnh_closed",
    "family_slice_closed", "family_tridiagonal", "hermite_exp_p", "identity",
    "lin_tensor_direct", "lin_tensor_oracle", "lin_tensor_recurrence", "linearize_with_w",
    "lower_bandwidth", "lower_tri_inverse", "make_operator", "mat_mul", "mixed_tensor",
    "op_lin_recurrence", "op_sequence", "orthogonality_table", "partial_orthogonality_check",
    "poly_mul", "poly_of_matrix", "realize_H", "recurrence_poly_matrices", "required_size",
    "row_poly", "run_suite", "squared_norms", "support_check", "tau_apply", "tau_moments",
    "tensors_agree", "verify_inverse_connection", "window_rows", "zeros",
]

ORACLES = ("lin_tensor_recurrence", "op_lin_recurrence", "_verify_pair")

PRODUCTION = ("cli", "errors", "families", "linearize", "matrix", "orthogonal",
              "polynomial", "sequences", "serialize")


def test_public_names_are_kept():
    assert polyseq.__all__ == PUBLIC_NAMES
    assert all(hasattr(polyseq, name) for name in PUBLIC_NAMES)


def test_alternate_routes_live_in_crosscheck():
    for name in ORACLES:
        assert getattr(crosscheck, name).__module__ == "polyseq.crosscheck"
    assert polyseq.lin_tensor_recurrence is crosscheck.lin_tensor_recurrence
    assert polyseq.op_lin_recurrence is crosscheck.op_lin_recurrence


def test_no_production_module_defines_an_oracle():
    for mod in PRODUCTION:
        names = vars(importlib.import_module(f"polyseq.{mod}"))
        for name in ORACLES + ("_dot",):
            assert name not in names, (mod, name)
    assert not hasattr(crosscheck, "_dot")


def test_no_production_module_imports_a_private_name_of_another():
    for mod in PRODUCTION:
        path = Path(polyseq.__file__).parent / f"{mod}.py"
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                private = [alias.name for alias in node.names if alias.name.startswith("_")]
                assert not private, (mod, node.module, private)


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_block_gives_the_values_its_comments_state():
    block = README.read_text().split("## Library", 1)[1].split("```python\n", 1)[1]
    names = {}
    exec(block.split("```", 1)[0], names)
    pair, tensor = names["pair"], names["tensor"]
    assert pair.polys[4] == polyseq.Polynomial([F(1, 16), 0, F(-3, 4), 0, 1])
    assert polyseq.tau_moments(pair)[:5] == [1, 0, F(1, 4), 0, F(1, 8)]
    assert tensor.value(2, 3, 1) == F(1, 16)


README_SPECS = {
    "spec.json": {"type": "tridiagonal", "beta": [f"{k}/3" for k in range(12)],
                  "alpha": [f"{k + 1}/2" for k in range(11)]},
    "cheb.json": {"type": "chebyshev", "a": "1/4", "b": "0"},
    "herm.json": {"type": "hermite", "a": "1", "b": "0"},
}


def readme_cli_commands():
    """argv of each `polyseq ...` command in the README's CLI block."""
    block = README.read_text().split("## CLI", 1)[1].split("```", 2)[1].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("polyseq ")]


def test_every_readme_cli_command_runs(tmp_path, monkeypatch):
    for name, spec in README_SPECS.items():
        (tmp_path / name).write_text(json.dumps(spec))
    monkeypatch.chdir(tmp_path)
    commands = readme_cli_commands()
    assert [argv[0] for argv in commands] == [
        "build", "linearize", "linearize", "connect", "family", "verify"]
    for argv in commands:
        assert cli.main(argv) == 0, argv
    for out in ("pair.json", "d.json", "d_k0.csv", "conn.json", "fam.json"):
        assert (tmp_path / out).exists()
