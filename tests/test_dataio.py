import dataclasses
import json

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from skm.dataio import (
    DataSet,
    load_csv,
    load_model,
    save_csv,
    save_model,
)
from skm.errors import DataFormatError
from skm.kernels import RadialKernelSpec
from skm.sparse_mean import FitDiagnostics, SparseKernelMean, fit


# -------------------------------------------------------------------- load_csv

def test_load_csv_single_column(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("0\n1\n10\n")
    data = load_csv(path)
    assert (data.n, data.d) == (3, 1)
    assert_array_equal(data.points, [[0.0], [1.0], [10.0]])
    assert data.name == "x"


def test_load_csv_skips_a_byte_order_mark(tmp_path):
    # Spreadsheet exports often begin with a UTF-8 BOM, which once made the
    # first cell "\ufeff1.0", not a number.
    path = tmp_path / "bom.csv"
    path.write_bytes("\ufeffx,y\n1.0,2.0\n3.0,4.0\n".encode("utf-8"))
    assert_array_equal(load_csv(path, has_header=True).points, [[1.0, 2.0], [3.0, 4.0]])
    path.write_bytes("\ufeff1.0,2.0\n".encode("utf-8"))
    assert_array_equal(load_csv(path).points, [[1.0, 2.0]])


def test_load_csv_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DataFormatError, match="no rows"):
        load_csv(path)


def test_load_csv_non_numeric_cell_names_position(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\na,b\n3,4\n")
    with pytest.raises(DataFormatError, match="row 2, column 1"):
        load_csv(path)


def test_load_csv_ragged_rows(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1,2\n3,4,5\n")
    with pytest.raises(DataFormatError, match="row 2"):
        load_csv(path)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_load_csv_rejects_non_finite(tmp_path, cell):
    path = tmp_path / "nf.csv"
    path.write_text(f"1.0\n{cell}\n")
    with pytest.raises(DataFormatError, match="row 2, column 1"):
        load_csv(path)


def test_load_csv_header_row(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("x,y\n1,2\n3,4\n")
    data = load_csv(path, has_header=True)
    assert (data.n, data.d) == (2, 2)


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_csv(tmp_path / "nope.csv")


def test_csv_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    for trial in range(20):
        n, d = rng.integers(1, 30), rng.integers(1, 5)
        pts = rng.normal(scale=10.0 ** rng.integers(-8, 9), size=(n, d))
        data = DataSet(pts)
        path = tmp_path / f"rt{trial}.csv"
        save_csv(data, path)
        back = load_csv(path)
        assert_array_equal(back.points, data.points)


# --------------------------------------------------------------------- DataSet

def test_dataset_rejects_non_finite():
    with pytest.raises(DataFormatError):
        DataSet(np.array([[1.0], [np.nan]]))


def test_dataset_rejects_empty():
    with pytest.raises(DataFormatError):
        DataSet(np.empty((0, 2)))


def test_dataset_promotes_vector_to_column():
    data = DataSet(np.array([1.0, 2.0, 3.0]))
    assert (data.n, data.d) == (3, 1)


# ------------------------------------------------------------------ model files

def random_mean(rng, k=5, d=2):
    spec = RadialKernelSpec("gaussian", dim=d, sigma=float(rng.uniform(0.1, 3.0)),
                            normalization="density")
    diag = FitDiagnostics(e_trace=np.sort(rng.normal(size=k))[::-1].copy(), k_max=k,
                          epsilon=1e-8, density_projected=bool(rng.integers(2)))
    return SparseKernelMean(spec=spec, support=rng.normal(size=(k, d)),
                            alpha=rng.normal(size=k), support_indices=None, diagnostics=diag)


def saved_doc(tmp_path, k=5):
    """A model file of a random mean with k weights, and its parsed document."""
    path = tmp_path / "m.json"
    save_model(random_mean(np.random.default_rng(2), k=k), path)
    return path, json.loads(path.read_text())


def test_model_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    for trial in range(10):
        mean = random_mean(rng, k=int(rng.integers(1, 9)))
        path = tmp_path / f"m{trial}.json"
        save_model(mean, path)
        back = load_model(path)
        assert back.spec == mean.spec
        assert_array_equal(back.support, mean.support)
        assert_array_equal(back.alpha, mean.alpha)
        assert_array_equal(back.diagnostics.e_trace, mean.diagnostics.e_trace)
        assert back.k0 == mean.k0
        assert back.diagnostics.epsilon == mean.diagnostics.epsilon
        assert back.diagnostics.density_projected == mean.diagnostics.density_projected


def test_model_round_trip_of_a_fit(tmp_path):
    rng = np.random.default_rng(4)
    data = DataSet(rng.normal(size=(200, 3)))
    spec = RadialKernelSpec("laplacian", dim=3, gamma=1.5)
    mean = fit(data, spec, k_max=40, epsilon=1e-6, density_mode=True, seed=1)
    save_model(mean, tmp_path / "m.json")
    back = load_model(tmp_path / "m.json")
    assert back.spec == spec and back.k0 == mean.k0
    assert_array_equal(back.support, mean.support)
    assert_array_equal(back.alpha, mean.alpha)
    assert_array_equal(back.diagnostics.e_trace, mean.diagnostics.e_trace)
    assert back.support_indices is None
    assert (back.diagnostics.k_max, back.diagnostics.epsilon, back.diagnostics.method,
            back.diagnostics.density_projected) == (mean.k0, 1e-6, "loaded", True)


def test_model_alpha_length_mismatch(tmp_path):
    path, doc = saved_doc(tmp_path)
    doc["alpha"] = doc["alpha"][:-1]
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match="m.json: alpha has length"):
        load_model(path)


@pytest.mark.parametrize("k0", [3, 6, 5.0, "x", True, None])
def test_model_k0_must_be_the_weight_count(tmp_path, k0):
    path, doc = saved_doc(tmp_path)
    doc["k0"] = k0
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError,
                       match="m.json: k0 must be the integer number of weights 5"):
        load_model(path)


@pytest.mark.parametrize("k0", [3, 5.7, 5.0, True, "5"])
def test_model_record_k0_must_be_the_weight_count(tmp_path, k0):
    # save_model writes k0 as the integer weight count, so every file it
    # writes loads; the same file with any other k0 is refused.
    path, doc = saved_doc(tmp_path)
    assert type(doc["k0"]) is int and doc["k0"] == len(doc["alpha"]) == 5
    back = load_model(path)
    assert type(back.k0) is int and back.k0 == 5
    path.write_text(json.dumps(doc | {"k0": k0}))
    with pytest.raises(DataFormatError,
                       match="m.json: k0 must be the integer number of weights 5"):
        load_model(path)


@pytest.mark.parametrize("name, value", [
    ("support", [[0.0, 1.0], [2.0]]),
    ("support", [["a", "b"]] * 5),
    ("e_trace", [[0.0], [1.0, 2.0]]),
    ("epsilon", "abc"),
    ("density_mode", "no"),
    ("density_mode", 1),
    ("density_mode", None),
], ids=["ragged support", "non-numeric support", "ragged e_trace", "non-numeric epsilon",
        "string density_mode", "integer density_mode", "null density_mode"])
def test_model_bad_field_names_the_file_and_the_field(tmp_path, name, value):
    path, doc = saved_doc(tmp_path)
    doc[name] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match=f"m.json: bad model field '{name}'"):
        load_model(path)


@pytest.mark.parametrize("field, value", [
    ("epsilon", float("nan")), ("epsilon", float("inf")), ("e_trace", [-1.0, float("nan")]),
])
def test_save_model_refuses_non_finite_values(tmp_path, field, value):
    # JSON has no NaN or infinity: the model file is not written at all.
    mean = random_mean(np.random.default_rng(3))
    diag = dataclasses.replace(mean.diagnostics, **{field: np.asarray(value)})
    with pytest.raises(ValueError, match="not JSON compliant"):
        save_model(dataclasses.replace(mean, diagnostics=diag), tmp_path / "m.json")
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("field, value", [
    ("epsilon", float("nan")), ("epsilon", float("inf")), ("epsilon", -1e-8),
    ("e_trace", [-1.0, float("nan"), -2.0]), ("e_trace", [float("-inf")]),
])
def test_load_model_rejects_non_finite_or_negative_epsilon_and_e_trace(tmp_path, field, value):
    path, doc = saved_doc(tmp_path)
    path.write_text(json.dumps(doc | {field: value}))  # json writes NaN and Infinity
    with pytest.raises(DataFormatError, match=f"m.json: bad model field '{field}'"):
        load_model(path)


def test_model_unknown_version(tmp_path):
    path, doc = saved_doc(tmp_path)
    doc["version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match="version"):
        load_model(path)


def test_model_not_a_model_file(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text('{"hello": 1}')
    with pytest.raises(DataFormatError):
        load_model(path)
    path.write_text("not json at all")
    with pytest.raises(DataFormatError):
        load_model(path)


def test_model_record_validates_invariants(tmp_path):
    # A hand-edited file whose kernel is invalid, whose support does not
    # fit the kernel, or whose support or weights are not finite, is
    # refused with the file named.
    path, doc = saved_doc(tmp_path)
    for field, edit, message in (
        ("kernel", lambda v: v | {"dim": 3}, r"support of shape \(5, 2\) does not match "
                                             "kernel dimension 3"),
        ("kernel", lambda v: v | {"sigma": -1.0}, "bad kernel section in model file: gaussian "
                                                  "kernel requires a finite sigma > 0"),
        ("kernel", lambda v: v | {"family": "cosine"}, "bad kernel section in model file: "
                                                       "unknown kernel family 'cosine'"),
        ("support", lambda v: [[row] for row in v], r"support of shape \(5, 1, 2\) does not "
                                                    "match kernel dimension 2"),
        ("support", lambda v: [[float("nan"), 0.0]] + v[1:], "non-finite"),
        ("alpha", lambda v: v[:-1] + [float("inf")], "non-finite"),
    ):
        path.write_text(json.dumps(doc | {field: edit(doc[field])}))
        with pytest.raises(DataFormatError, match=f"m.json: .*{message}"):
            load_model(path)
