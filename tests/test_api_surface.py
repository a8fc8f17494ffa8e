"""The public names: ``sclrom.__all__`` is sorted, unique and importable, and
the names deleted with the unused API stay deleted."""
import inspect

import sclrom
from sclrom import circulant, cyclic, model, ohf, persistence

REMOVED = {
    sclrom: ["ControlTuple", "SvdTriple", "circulant_to_matrix", "orthogonal_projector",
             "project_span", "transition_matrix"],
    circulant: ["ControlTuple", "MANIFOLD_TAGS", "circulant_to_matrix", "project_span"],
    circulant.CirculantElement: ["identity", "__add__"],
    cyclic: ["orthogonal_projector"],
    model: ["transition_matrix"],
    model.SclRomModel: ["to_control_tuple", "element"],
    ohf: ["SvdTriple", "_shift_parts"],
    ohf.SnapshotHistory: ["column", "dt_meta"],
    cyclic.VectorSystem: ["from_vectors", "vector"],
}


def test_all_is_sorted_unique_and_resolves():
    assert sclrom.__all__ == sorted(set(sclrom.__all__))
    assert [name for name in sclrom.__all__ if not hasattr(sclrom, name)] == []


def test_removed_names_stay_removed():
    present = [f"{owner.__name__}.{name}"
               for owner, names in REMOVED.items() for name in names if hasattr(owner, name)]
    assert present == []
    assert "t_values" not in inspect.signature(ohf.OhfFactorization).parameters
    assert list(inspect.signature(persistence.read_snapshots).parameters) == ["path"]
