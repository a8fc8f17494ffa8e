"""The public names: ``sclrom.__all__`` is sorted, unique and importable, and
the names deleted with the unused API stay deleted; the package imports
nothing beyond the standard library and numpy."""
import ast
import importlib.util
import inspect
import pathlib
import sys

import sclrom
from sclrom import cyclic, datagen, model, ohf, persistence

REMOVED = {
    sclrom: ["ControlTuple", "SvdTriple", "circulant_to_matrix", "orthogonal_projector",
             "project_span", "transition_matrix", "CirculantElement", "monomial_element",
             "compress", "lift", "detect_period", "PeriodReport", "complement_basis",
             "BadMagic"],
    cyclic: ["orthogonal_projector", "shift_factors"],
    model: ["transition_matrix", "detect_period", "PeriodReport"],
    model.SclRomModel: ["to_control_tuple", "element"],
    ohf: ["SvdTriple", "_shift_parts", "_vhat_products", "replay_operator", "frame_residuals",
          "_unitarity_residual"],
    ohf.SnapshotHistory: ["column", "dt_meta"],
    persistence: ["_decode_array"],
    persistence._BinaryColumns: ["_fail", "_non_finite"],
    datagen: ["_joined"],
    cyclic.VectorSystem: ["from_vectors", "vector", "n", "m"],
}


def test_all_is_sorted_unique_and_resolves():
    assert sclrom.__all__ == sorted(set(sclrom.__all__))
    assert [name for name in sclrom.__all__ if not hasattr(sclrom, name)] == []


def test_removed_names_stay_removed():
    present = [f"{owner.__name__}.{name}"
               for owner, names in REMOVED.items() for name in names if hasattr(owner, name)]
    assert present == []
    # kappa and the frame Vhat are derived, and the n x m replay operator R is never held
    assert {"t_values", "kappa", "Vhat", "R"}.isdisjoint(
        inspect.signature(ohf.OhfFactorization).parameters)
    assert list(inspect.signature(persistence.read_snapshots).parameters) == ["path"]
    # a cyclic pair is its columns and their Gram matrix; C and P are never held
    assert list(inspect.signature(cyclic.CyclicPair).parameters) == ["columns", "gram"]


def test_diagram_check_lives_beside_verify_ohf():
    # the circulant module, and every name it held, is gone
    assert importlib.util.find_spec("sclrom.circulant") is None
    assert sclrom.check_commuting_diagram is ohf.check_commuting_diagram


def test_package_imports_only_stdlib_and_numpy():
    """pyproject.toml declares numpy as the one dependency; scipy and the
    like must stay out of the package even where they are installed."""
    outside = []
    for path in sorted(pathlib.Path(sclrom.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            outside += [f"{path.name}: {root}" for root in roots
                        if root != "numpy" and root not in sys.stdlib_module_names]
    assert outside == []
