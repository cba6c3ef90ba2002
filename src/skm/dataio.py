"""CSV ingestion and model persistence.

CSV files are comma separated, UTF-8, decimal floats, with an optional
single header row. Model files are versioned JSON documents (schema in
the README); floats survive a save/load round trip bit-exactly.
"""

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DataFormatError
from .kernels import RadialKernelSpec, _FAMILY_PARAMS

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


@dataclass(frozen=True)
class ModelRecord:
    """Persistable form of a fitted sparse kernel mean."""

    spec: RadialKernelSpec
    support: np.ndarray
    alpha: np.ndarray
    k0: int
    epsilon: float
    density_mode: bool
    e_trace: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self):
        support = np.atleast_2d(np.asarray(self.support, dtype=np.float64))
        alpha = np.asarray(self.alpha, dtype=np.float64).ravel()
        e_trace = np.asarray(self.e_trace, dtype=np.float64).ravel()
        if support.shape[0] != alpha.shape[0]:
            raise DataFormatError(
                f"alpha has length {alpha.shape[0]} but support has "
                f"{support.shape[0]} rows"
            )
        if support.shape[1] != self.spec.dim:
            raise DataFormatError(
                f"support dimension {support.shape[1]} does not match kernel "
                f"dimension {self.spec.dim}"
            )
        if not (np.all(np.isfinite(support)) and np.all(np.isfinite(alpha))):
            raise DataFormatError("model contains non-finite values")
        k0 = self.k0
        if (not isinstance(k0, (int, np.integer)) or isinstance(k0, bool)
                or k0 != alpha.shape[0]):
            raise DataFormatError(f"k0 must be the integer number of weights "
                                  f"{alpha.shape[0]}, got {k0!r}")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "e_trace", e_trace)
        object.__setattr__(self, "k0", int(k0))


def load_csv(path, has_header: bool = False) -> DataSet:
    """Read a numeric CSV into a DataSet; errors name the offending cell."""
    rows = []
    ncols = None
    with open(path, newline="", encoding="utf-8") as fh:
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
    except TypeError as exc:
        raise DataFormatError(f"bad kernel section in model file: {exc}") from None


def save_model(record: ModelRecord, path) -> None:
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "kernel": _spec_to_dict(record.spec),
        "k0": record.k0,
        "epsilon": record.epsilon,
        "density_mode": bool(record.density_mode),
        "support": [[float(v) for v in row] for row in record.support],
        "alpha": [float(v) for v in record.alpha],
        "e_trace": [float(v) for v in record.e_trace],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


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


def load_model(path) -> ModelRecord:
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
    try:
        return ModelRecord(
            spec=_spec_from_dict(doc["kernel"]),
            support=support,
            alpha=alpha,
            k0=doc["k0"],
            epsilon=epsilon,
            density_mode=bool(doc["density_mode"]),
            e_trace=e_trace,
        )
    except KeyError as exc:
        raise DataFormatError(f"{path}: missing model field {exc}") from None
    except DataFormatError as exc:
        raise DataFormatError(f"{path}: {exc}") from None
