"""CSV ingestion and model persistence.

CSV files are comma separated, UTF-8 (a leading byte-order mark is
skipped), decimal floats, with an optional single header row. Model
files are versioned JSON documents (schema in the README); floats
survive a save/load round trip bit-exactly.
"""

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, KernelSpecError
from .kernels import RadialKernelSpec, _FAMILY_PARAMS
from .sparse_mean import FitDiagnostics, SparseKernelMean

MODEL_FORMAT = "skm-model"
MODEL_VERSION = 1


@dataclass(frozen=True)
class DataSet:
    """An n x d matrix of finite sample points plus a name."""

    points: np.ndarray
    name: str = "data"

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise DataFormatError(
                f"points must form an n x d matrix with n, d >= 1, got shape {pts.shape}"
            )
        if not np.all(np.isfinite(pts)):
            raise DataFormatError("points contain non-finite entries")
        object.__setattr__(self, "points", np.ascontiguousarray(pts))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


def load_csv(path, has_header: bool = False) -> DataSet:
    """Read a numeric CSV into a DataSet; errors name the offending cell."""
    rows = []
    ncols = None
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        for lineno, cells in enumerate(reader, start=1):
            if has_header and lineno == 1:
                continue
            if not cells or (len(cells) == 1 and not cells[0].strip()):
                continue
            if ncols is None:
                ncols = len(cells)
            elif len(cells) != ncols:
                raise DataFormatError(
                    f"{path}: row {lineno} has {len(cells)} columns, expected {ncols}"
                )
            row = []
            for col, cell in enumerate(cells, start=1):
                try:
                    value = float(cell)
                except ValueError:
                    raise DataFormatError(
                        f"{path}: row {lineno}, column {col}: not a number: {cell!r}"
                    ) from None
                if not math.isfinite(value):
                    raise DataFormatError(
                        f"{path}: row {lineno}, column {col}: non-finite value {cell!r}"
                    )
                row.append(value)
            rows.append(row)
    if not rows:
        raise DataFormatError(f"{path}: no rows")
    name = os.path.splitext(os.path.basename(str(path)))[0]
    return DataSet(np.array(rows, dtype=np.float64), name=name)


def save_csv(data: DataSet, path, header=None) -> None:
    """Write a DataSet as CSV; floats use shortest round-trip formatting."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if header is not None:
            writer.writerow(header)
        for row in data.points:
            writer.writerow([repr(float(v)) for v in row])


def _spec_to_dict(spec: RadialKernelSpec) -> dict:
    out = {"family": spec.family, "dim": spec.dim,
           "normalization": spec.normalization, "space": spec.space}
    for name in _FAMILY_PARAMS[spec.family]:
        out[name] = getattr(spec, name)
    return out


def _spec_from_dict(doc: dict) -> RadialKernelSpec:
    try:
        return RadialKernelSpec(**doc)
    except (TypeError, KernelSpecError) as exc:
        raise DataFormatError(f"bad kernel section in model file: {exc}") from None


def save_model(mean: SparseKernelMean, path) -> None:
    """Write a fitted mean, its epsilon, weight mode and E_m trace as a model file.

    A non-finite value, which JSON cannot hold, raises ValueError before
    the file is opened.
    """
    diag = mean.diagnostics
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "kernel": _spec_to_dict(mean.spec),
        "k0": mean.k0,
        "epsilon": float(diag.epsilon),
        "density_mode": bool(diag.density_projected),
        "support": [[float(v) for v in row] for row in mean.support],
        "alpha": [float(v) for v in mean.alpha],
        "e_trace": [float(v) for v in diag.e_trace],
    }
    text = json.dumps(doc, indent=1, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _field(path, doc, name, convert, *default):
    """convert(doc[name]), or of the default for an absent field; errors name both."""
    try:
        return convert(doc.get(name, *default) if default else doc[name])
    except KeyError:
        raise DataFormatError(f"{path}: missing model field {name!r}") from None
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: bad model field {name!r}: {exc}") from None


def _floats(value) -> np.ndarray:
    return np.array(value, dtype=np.float64)


def _boolean(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"must be true or false, got {value!r}")
    return value


def load_model(path) -> SparseKernelMean:
    """The mean a model file holds, with no support indices and method "loaded".

    Every field is checked, and a bad one raises DataFormatError naming
    the file.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: not a valid model file: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise DataFormatError(f"{path}: not a {MODEL_FORMAT} file")
    version = doc.get("version")
    if version != MODEL_VERSION:
        raise DataFormatError(
            f"{path}: unsupported model version {version!r} "
            f"(this build reads version {MODEL_VERSION})"
        )
    support, alpha, epsilon, e_trace = (
        _field(path, doc, "support", _floats), _field(path, doc, "alpha", _floats),
        _field(path, doc, "epsilon", float), _field(path, doc, "e_trace", _floats, []))
    support, alpha, e_trace = np.atleast_2d(support), alpha.ravel(), e_trace.ravel()
    if not (math.isfinite(epsilon) and epsilon >= 0.0):
        raise DataFormatError(f"{path}: bad model field 'epsilon': must be finite and "
                              f"non-negative, got {epsilon!r}")
    if not np.all(np.isfinite(e_trace)):
        raise DataFormatError(f"{path}: bad model field 'e_trace': non-finite values")
    density_mode = _field(path, doc, "density_mode", _boolean)
    try:
        spec, k0 = _spec_from_dict(doc["kernel"]), doc["k0"]
    except KeyError as exc:
        raise DataFormatError(f"{path}: missing model field {exc}") from None
    except DataFormatError as exc:
        raise DataFormatError(f"{path}: {exc}") from None
    if support.shape[0] != alpha.shape[0]:
        raise DataFormatError(f"{path}: alpha has length {alpha.shape[0]} but support has "
                              f"{support.shape[0]} rows")
    if support.ndim != 2 or support.shape[1] != spec.dim:
        raise DataFormatError(f"{path}: support of shape {support.shape} does not match "
                              f"kernel dimension {spec.dim}")
    if not (np.all(np.isfinite(support)) and np.all(np.isfinite(alpha))):
        raise DataFormatError(f"{path}: model contains non-finite values")
    if type(k0) is not int or k0 != alpha.shape[0]:
        raise DataFormatError(f"{path}: k0 must be the integer number of weights "
                              f"{alpha.shape[0]}, got {k0!r}")
    diag = FitDiagnostics(e_trace=e_trace, k_max=k0, epsilon=epsilon,
                          density_projected=density_mode, method="loaded")
    return SparseKernelMean(spec=spec, support=support, alpha=alpha,
                            support_indices=None, diagnostics=diag)
