"""Backend selection for the hot inner loops.

Two primitives: `farthest_scan`, one fused pass over the points that
makes a point a farthest-first center, lowers the distances to the chosen
set in place and returns the kernel row mean of that center and the
farthest point; and `mean_gram`, a kernel row mean alone. The compiled
extension (`_fastcore.c`) is preferred when present; the numpy
implementation is the fallback. Set SKM_BACKEND=numpy or
SKM_BACKEND=compiled to force a choice (forcing "compiled" raises if the
extension was not built).
"""

import os

from . import _numpy_impl

SHAPE_NONE = _numpy_impl.SHAPE_NONE
SHAPE_SQEXP = _numpy_impl.SHAPE_SQEXP
SHAPE_EXP = _numpy_impl.SHAPE_EXP
SHAPE_POWER = _numpy_impl.SHAPE_POWER

_forced = os.environ.get("SKM_BACKEND", "").strip().lower()
if _forced not in ("", "numpy", "compiled"):
    raise ValueError(
        f"SKM_BACKEND must be 'numpy' or 'compiled', got {_forced!r}"
    )

if _forced == "numpy":
    _impl = _numpy_impl
    BACKEND = "numpy"
else:
    try:
        from . import _fastcore as _impl
        BACKEND = "compiled"
    except ImportError:
        if _forced == "compiled":
            raise
        _impl = _numpy_impl
        BACKEND = "numpy"

farthest_scan = _impl.farthest_scan
mean_gram = _impl.mean_gram
