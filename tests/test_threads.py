"""Results that do not depend on the number of threads.

The compiled backend splits a fit's passes over many points, or over
fewer in a greedy fit whose points times capacity are large, and a large
kernel sum, over the CPUs of the process's affinity mask; a greedy fit
with helper threads passes over the points while it forms its centers'
pivot rows. On large inputs a greedy fit serves a batch of centers with
one pass and solves their pivot rows in one sweep of the factor, with or
without helpers; the gates are constants of `_fastcore.c`, and the inputs
below sit on both sides of them. Two child processes make the same calls
on the compiled backend built from the source tree: one pinned to a
single CPU, which takes the one-thread path, and one on the CPUs the test
may use (on every CPU when that is only one). They must agree bit for
bit, and no call may change the process's affinity mask.
"""

import json
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from skm._backend._numpy_impl import RECORD_ROWS
from skm.sparse_mean import SINGULARITY_REL_TOL

pytestmark = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="os.sched_setaffinity is Linux-only")

# The tie: copies of one far point at the last index of a scan chunk
# (4096 points), the first of the next and the last point; the farthest
# point from a first center in the unit cube is the lowest of them.
TIE = (8191, 8192, 16384)

_CHILD = r"""
import importlib.util, json, os, sys
import numpy as np

path, mode, dest = sys.argv[1:4]
if mode == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
elif len(os.sched_getaffinity(0)) < 2:  # a run pinned to one CPU tests on every CPU
    os.sched_setaffinity(0, range(os.cpu_count()))
spec = importlib.util.spec_from_file_location("_fastcore", path)
fc = importlib.util.module_from_spec(spec)
spec.loader.exec_module(fc)
rows, threshold, tie = fc.RECORD_ROW_COUNT, float(sys.argv[4]), json.loads(sys.argv[5])
before = sorted(os.sched_getaffinity(0))
results = {"cpus": np.array(len(before))}

def greedy(name, points, kind, a, b, epsilon, cap):
    indices, record = np.full(cap, -1), np.full((rows, cap), np.nan)
    m, cand, stop, packed = fc.greedy_fit(points, kind, a, b, 1.0, threshold, epsilon, 0,
                                          indices, record)
    results.update({name + "_m": np.array([m, cand]), name + "_stop": np.array(stop),
                    name + "_indices": indices, name + "_record": record,
                    name + "_packed": np.frombuffer(packed)})

def ordered(name, points, kind, a, b, order):
    indices, record = np.full(order.size, -1), np.full((rows, order.size), np.nan)
    m, packed = fc.order_fit(points, kind, a, b, 1.0, threshold, order, indices, record)
    results.update({name + "_m": np.array(m), name + "_indices": indices,
                    name + "_record": record, name + "_packed": np.frombuffer(packed)})

rng = np.random.default_rng(37)
# n just above 16384, with the tie across two scan chunks.
tied = rng.random((16385, 3))
tied[tie] = 10.0
greedy("tied", tied, 0, 2.0, 0.0, 0.0, 60)
# n not a multiple of the 256-point tile, for each shape kind.
points = rng.standard_normal((40077, 8))
for kind, a, b in ((0, 0.3, 0.0), (1, 0.6, 0.0), (2, 0.4, 1.5)):
    greedy(f"greedy{kind}", points, kind, a, b, 1e-9, 120)
order = rng.permutation(points.shape[0])[:100]
order[50] = order[10]  # a dependent candidate, dropped
ordered("ordered", points, 2, 0.4, 1.5, order)
# Below 16384 points and 2 MB, with points times capacity above 2**22: the
# walk batches its centers, and its passes overlap the batches' pivot rows.
# Run to its budget.
deep = rng.standard_normal((8000, 5))
greedy("deep", deep, 0, 0.5, 0.0, 0.0, 600)
# The same rule with a kernel so wide that the Gram matrix is numerically
# singular: the walk ends at a dependent candidate of a batch, whose pass
# was made while the batch's pivot rows were formed.
wide = rng.standard_normal((8000, 2))
greedy("wide", wide, 0, 0.005, 0.0, 0.0, 600)
# The deep input again, stopped by the ratio test at the fourth center of
# a seven-center batch, whose other three are discarded.
greedy("ratio", deep, 0, 0.5, 0.0, 1e-3, 600)
# A kernel so wide that most of the order is dependent. The point at
# (2.5, 0) is dropped, and then the points at (-300, 0) and (1000, 0) are
# kept: a scan made for the dropped one would lower the last point's
# distance to the support, the largest, and so the radius of the one before.
flat = np.vstack([rng.standard_normal((20000, 2)), [[2.5, 0.0], [-300.0, 0.0], [1000.0, 0.0]]])
ordered("flat", flat, 0, 0.005, 0.0, np.array([*range(60), 20000, 20001, 20002]))
# 5003 x 300 kernel values, above 2**20, in more than one tile of ys.
xs, ys, coef = rng.standard_normal((5003, 4)), rng.standard_normal((300, 4)), rng.standard_normal((300, 2))
for kind, a, b in ((0, 0.5, 0.0), (1, 0.5, 0.0), (2, 0.5, 2.0)):
    out = np.empty((xs.shape[0], 2))
    fc.kernel_sums(xs, ys, coef, kind, a, b, 1.5, out)
    results[f"sums{kind}"] = out
# Above 2**20 values, each sum cut into blocks of 2**18 // ny + 1 x rows,
# rounded up to whole 256-row tiles where nx holds two such blocks, which
# the threads share: fit-deep's evaluate (4099 x 600 in d = 5, one coef
# column; blocks of two tiles, and a last one of 3 rows) and a full
# mean-shift round (1100 x 2000 in d = 2, three columns; blocks of one
# tile). Each thread writes its whole row buffer for every y row, next to
# its accumulators and the next thread's tile of xs in the scratch. A tile
# of fewer than 32 xs runs over tiles of ys. Then fit-tall's evaluate (150
# ys in d = 8, one coef column; blocks of seven tiles, the last of three
# and 17 rows), 134 ys in d = 2 with three columns (blocks of eight tiles,
# the last ending in 67 rows), and fewer queries than two blocks of whole
# tiles against long supports: 120 against 10000 ys in d = 2 with three
# columns (blocks of 27 rows) and 200 against 6000 ys in d = 5 (blocks of
# 44 rows and a last one of 24).
for name, nx, ny, d, p in (("evaluate", 4099, 600, 5, 1), ("meanshift", 1100, 2000, 2, 3),
                           ("tall", 7953, 150, 8, 1), ("short", 8003, 134, 2, 3),
                           ("long", 120, 10000, 2, 3), ("few", 200, 6000, 5, 1)):
    xs, ys, coef = rng.standard_normal((nx, d)), rng.standard_normal((ny, d)), rng.standard_normal((ny, p))
    out = np.empty((nx, p))
    fc.kernel_sums(xs, ys, coef, 0, 0.5, 0.0, 1.0, out)
    results[f"full_tiles_{name}"] = out
# Above the batching gate (160000 x 3 doubles, 3.8 MB): the grid's fit
# serves up to eight centers a pass, and stops at the ratio test at the
# first center of a seven-center batch, whose other six are discarded.
grid = np.ascontiguousarray(np.indices((400, 400)).reshape(2, -1).T, dtype=float)
greedy("batched", grid, 0, 1.0 / 1800.0, 0.0, 1e-4, 300)
results["affinity"] = np.array([before, sorted(os.sched_getaffinity(0))])
np.savez(dest, **results)
"""


def _run(fastcore, mode, tmp_path):
    out = tmp_path / f"{mode}.npz"
    subprocess.run([sys.executable, "-c", _CHILD, fastcore.__file__, mode, str(out),
                    repr(SINGULARITY_REL_TOL), json.dumps(TIE)],
                   check=True, capture_output=True, text=True, timeout=300)
    with np.load(out) as results:
        return dict(results)


def test_compiled_results_do_not_depend_on_the_thread_count(fastcore, tmp_path):
    one, every = _run(fastcore, "one", tmp_path), _run(fastcore, "every", tmp_path)
    # On one CPU there is no second thread, and nothing would be compared.
    assert one.pop("cpus") == 1
    assert every.pop("cpus") >= 2, "the test needs a machine with two CPUs or more"
    for run in (one, every):
        before, after = run.pop("affinity")
        assert_array_equal(before, after, err_msg="a call changed the affinity mask")
    assert one.keys() == every.keys()
    seconds = RECORD_ROWS.index("seconds")
    for name in one:
        if name.endswith("_record"):
            # the step times are the one row that may differ
            one[name][seconds] = every[name][seconds] = 0.0
        assert_array_equal(one[name], every[name], err_msg=name)
    assert one["tied_indices"][1] == TIE[0]
    assert one["tied_stop"] == "budget" and one["tied_m"][0] == 60
    assert one["ordered_m"] == 99
    kept = one["flat_indices"][:one["flat_m"]]
    assert kept.size < 40 and 20000 not in kept and list(kept[-2:]) == [20001, 20002]
    assert one["deep_stop"] == "budget" and one["deep_m"][0] == 600
    assert one["wide_stop"] == "dependent" and one["wide_m"][0] < 600
    assert one["ratio_stop"] == "ratio" and one["ratio_m"][0] == 20
    assert one["batched_stop"] == "ratio" and 1 < one["batched_m"][0] < 300
