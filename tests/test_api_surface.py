"""The public names: ``sclrom.__all__`` is sorted, unique and importable, and
the names deleted with the unused API stay deleted."""
import inspect

import sclrom
from sclrom import circulant, cyclic, datagen, model, ohf, persistence

REMOVED = {
    sclrom: ["ControlTuple", "SvdTriple", "circulant_to_matrix", "orthogonal_projector",
             "project_span", "transition_matrix", "CirculantElement", "monomial_element",
             "compress", "lift", "detect_period", "PeriodReport", "complement_basis"],
    circulant: ["ControlTuple", "MANIFOLD_TAGS", "circulant_to_matrix", "project_span",
                "CirculantElement", "monomial_element", "compress", "lift", "circulant_matrix"],
    cyclic: ["orthogonal_projector"],
    model: ["transition_matrix", "detect_period", "PeriodReport"],
    model.SclRomModel: ["to_control_tuple", "element"],
    ohf: ["SvdTriple", "_shift_parts", "_vhat_products", "replay_operator", "frame_residuals"],
    ohf.SnapshotHistory: ["column", "dt_meta"],
    persistence: ["_decode_array"],
    persistence._BinaryColumns: ["_fail", "_non_finite"],
    datagen: ["_joined"],
    cyclic.VectorSystem: ["from_vectors", "vector"],
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
