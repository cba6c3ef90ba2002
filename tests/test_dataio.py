import json

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from skm.dataio import (
    DataSet,
    ModelRecord,
    load_csv,
    load_model,
    save_csv,
    save_model,
)
from skm.errors import DataFormatError
from skm.kernels import RadialKernelSpec


# -------------------------------------------------------------------- load_csv

def test_load_csv_single_column(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("0\n1\n10\n")
    data = load_csv(path)
    assert (data.n, data.d) == (3, 1)
    assert_array_equal(data.points, [[0.0], [1.0], [10.0]])
    assert data.name == "x"


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

def random_record(rng, k=5, d=2):
    spec = RadialKernelSpec("gaussian", dim=d, sigma=float(rng.uniform(0.1, 3.0)),
                            normalization="density")
    return ModelRecord(
        spec=spec,
        support=rng.normal(size=(k, d)),
        alpha=rng.normal(size=k),
        k0=k,
        epsilon=1e-8,
        density_mode=bool(rng.integers(2)),
        e_trace=np.sort(rng.normal(size=k))[::-1].copy(),
    )


def test_model_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    for trial in range(10):
        record = random_record(rng, k=int(rng.integers(1, 9)))
        path = tmp_path / f"m{trial}.json"
        save_model(record, path)
        back = load_model(path)
        assert back.spec == record.spec
        assert_array_equal(back.support, record.support)
        assert_array_equal(back.alpha, record.alpha)
        assert_array_equal(back.e_trace, record.e_trace)
        assert back.k0 == record.k0
        assert back.epsilon == record.epsilon
        assert back.density_mode == record.density_mode


def test_model_alpha_length_mismatch(tmp_path):
    record = random_record(np.random.default_rng(2))
    path = tmp_path / "m.json"
    save_model(record, path)
    doc = json.loads(path.read_text())
    doc["alpha"] = doc["alpha"][:-1]
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match="alpha has length"):
        load_model(path)


@pytest.mark.parametrize("k0", [3, 6, 5.0, "x", True, None])
def test_model_k0_must_be_the_weight_count(tmp_path, k0):
    record = random_record(np.random.default_rng(2), k=5)
    path = tmp_path / "m.json"
    save_model(record, path)
    doc = json.loads(path.read_text())
    doc["k0"] = k0
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match="k0 must be the integer number of weights 5"):
        load_model(path)


@pytest.mark.parametrize("name, value", [
    ("support", [[0.0, 1.0], [2.0]]),
    ("support", [["a", "b"]] * 5),
    ("e_trace", [[0.0], [1.0, 2.0]]),
    ("epsilon", "abc"),
], ids=["ragged support", "non-numeric support", "ragged e_trace", "non-numeric epsilon"])
def test_model_bad_field_names_the_file_and_the_field(tmp_path, name, value):
    record = random_record(np.random.default_rng(2), k=5)
    path = tmp_path / "m.json"
    save_model(record, path)
    doc = json.loads(path.read_text())
    doc[name] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match=f"m.json: bad model field '{name}'"):
        load_model(path)


def test_model_unknown_version(tmp_path):
    record = random_record(np.random.default_rng(3))
    path = tmp_path / "m.json"
    save_model(record, path)
    doc = json.loads(path.read_text())
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


def test_model_record_validates_invariants():
    spec = RadialKernelSpec("gaussian", dim=2, sigma=1.0)
    with pytest.raises(DataFormatError, match="alpha has length"):
        ModelRecord(spec=spec, support=np.zeros((3, 2)), alpha=np.zeros(2),
                    k0=3, epsilon=0.0, density_mode=False)
    with pytest.raises(DataFormatError, match="dimension"):
        ModelRecord(spec=spec, support=np.zeros((3, 1)), alpha=np.zeros(3),
                    k0=3, epsilon=0.0, density_mode=False)


@pytest.mark.parametrize("k0", [3, 5.7, 5.0, True, "5"])
def test_model_record_k0_must_be_the_weight_count(tmp_path, k0):
    # A record save_model could write but load_model would refuse is not built.
    spec = RadialKernelSpec("gaussian", dim=2, sigma=1.0)
    with pytest.raises(DataFormatError, match="k0 must be the integer number of weights 5"):
        ModelRecord(spec=spec, support=np.zeros((5, 2)), alpha=np.ones(5),
                    k0=k0, epsilon=0.0, density_mode=False)
    record = ModelRecord(spec=spec, support=np.zeros((5, 2)), alpha=np.ones(5),
                         k0=np.int64(5), epsilon=0.0, density_mode=False)
    assert type(record.k0) is int
    save_model(record, tmp_path / "m.json")
    assert load_model(tmp_path / "m.json").k0 == 5
