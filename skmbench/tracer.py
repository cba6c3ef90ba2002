"""Span tracing of skm's layers, installed from outside the package.

Each patch replaces a function under the name its caller looks it up by:
``sparse_mean`` imports ``extend_state`` and the kernel matrices by name,
``cpe`` imports ``solve_direct`` by name, and ``kcenter`` and
``coefficients`` reach the backend through the ``_backend`` module. A span
is named ``<layer>.<function>``, where the layer is the module that defines
the function. Spans stay in memory (name, start, end, parent, op id, ok)
and are written out when the process ends. A name that no longer exists is
reported as absent, not treated as an error.
"""

import importlib
import time
from array import array

import numpy as np

# (module whose attribute the caller reads, attribute, span name)
PATCHES = (
    ("skm._backend", "update_sqdist", "_backend.update_sqdist"),
    ("skm._backend", "mean_gram", "_backend.mean_gram"),
    ("skm._backend", "gaussian_shift_step", "_backend.gaussian_shift_step"),
    ("skm.kcenter", "kcenter_greedy", "kcenter.kcenter_greedy"),
    ("skm.kcenter", "extend_selection", "kcenter.extend_selection"),
    ("skm.kcenter", "peek_next", "kcenter.peek_next"),
    ("skm.coefficients", "kappa_entry", "coefficients.kappa_entry"),
    ("skm.coefficients", "gram_at_dist", "kernels.gram_at_dist"),
    ("skm.coefficients", "gram_params", "kernels.gram_params"),
    ("skm.coefficients", "g_zero", "kernels.g_zero"),
    ("skm.sparse_mean", "init_state", "coefficients.init_state"),
    ("skm.sparse_mean", "extend_state", "coefficients.extend_state"),
    ("skm.sparse_mean", "stop_rule", "coefficients.stop_rule"),
    ("skm.sparse_mean", "project_simplex", "coefficients.project_simplex"),
    ("skm.sparse_mean", "solve_direct", "coefficients.solve_direct"),
    ("skm.sparse_mean", "kernel_matrix", "kernels.kernel_matrix"),
    ("skm.sparse_mean", "gram_matrix", "kernels.gram_matrix"),
    ("skm.sparse_mean", "g_zero", "kernels.g_zero"),
    ("skm.sparse_mean", "parallel_map", "_parallel.parallel_map"),
    ("skm.divergences", "fit_sample_means", "divergences.fit_sample_means"),
    ("skm.divergences", "pairwise_matrix", "divergences.pairwise_matrix"),
    ("skm.divergences", "rkhs_distance", "divergences.rkhs_distance"),
    ("skm.divergences", "fit", "sparse_mean.fit"),
    ("skm.divergences", "full_mean", "sparse_mean.full_mean"),
    ("skm.divergences", "evaluate", "sparse_mean.evaluate"),
    ("skm.divergences", "mean_gram_inner", "sparse_mean.mean_gram_inner"),
    ("skm.divergences", "parallel_map", "_parallel.parallel_map"),
    ("skm.cpe", "estimate_from_means", "cpe.estimate_from_means"),
    ("skm.cpe", "mean_inner", "cpe.mean_inner"),
    ("skm.cpe", "solve_direct", "coefficients.solve_direct"),
    ("skm.cpe", "project_simplex", "coefficients.project_simplex"),
    ("skm.cpe", "fit", "sparse_mean.fit"),
    ("skm.cpe", "fit_with_support", "sparse_mean.fit_with_support"),
    ("skm.cpe", "full_mean", "sparse_mean.full_mean"),
    ("skm.cpe", "mean_gram_inner", "sparse_mean.mean_gram_inner"),
    ("skm.cpe", "search_bandwidth", "cpe.search_bandwidth"),
    ("skm.meanshift", "parallel_map", "_parallel.parallel_map"),
    # The benchmark's own calls go through the package namespace.
    ("skm", "fit", "sparse_mean.fit"),
    ("skm", "evaluate", "sparse_mean.evaluate"),
    ("skm", "full_mean", "sparse_mean.full_mean"),
    ("skm", "distance_matrix", "divergences.distance_matrix"),
    ("skm", "estimate_proportions", "cpe.estimate_proportions"),
    ("skm", "mean_shift_all", "meanshift.mean_shift_all"),
    ("skm", "cluster_modes", "meanshift.cluster_modes"),
)

def _scan_bytes(counters, args, kwargs, result):
    points = args[0] if args else kwargs.get("points")
    counters["_backend.scan_bytes"] += int(getattr(points, "nbytes", 0))


def _fit_counts(counters, args, kwargs, result):
    skipped = getattr(getattr(result, "diagnostics", None), "skipped", ())
    counters["sparse_mean.fit.accepted"] += result.k0
    counters["sparse_mean.fit.tried"] += result.k0 + len(skipped)


def _eval_counts(counters, args, kwargs, result):
    mean = args[0] if args else kwargs["mean"]
    counters["sparse_mean.evaluate.kernel_evals"] += int(np.size(result)) * mean.k0


def _shift_counts(counters, args, kwargs, result):
    counters["meanshift.iterations"] += int(np.sum(result.iterations))
    counters["meanshift.kernel_evals"] += int(result.kernel_evals)


def _objective_counts(counters, args, kwargs, result):
    counters["cpe.objective_evals"] += 1


# Exact counts computed from each call's arguments or result.
COUNTERS = {
    "_backend.update_sqdist": _scan_bytes,
    "_backend.mean_gram": _scan_bytes,
    "sparse_mean.fit": _fit_counts,
    "sparse_mean.evaluate": _eval_counts,
    "meanshift.mean_shift_all": _shift_counts,
    "cpe.estimate_from_means": _objective_counts,
}
COUNTER_NAMES = ("_backend.scan_bytes", "sparse_mean.fit.accepted",
                 "sparse_mean.fit.tried", "sparse_mean.evaluate.kernel_evals",
                 "meanshift.iterations", "meanshift.kernel_evals",
                 "cpe.objective_evals")


class Tracer:
    """Records nested spans for calls into the patched functions."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.ok = array("b")
        self.start = array("d")
        self.end = array("d")
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self.absent = []
        self._stack = [-1]
        self._op_id = -1
        self._patches = []
        for module_name, attr, span in PATCHES:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            if attr == "parallel_map":
                caller = module_name.rsplit(".", 1)[-1]
                wrapper = self._wrap_pool(span, f"{caller}.task", original)
            else:
                wrapper = self._wrap(span, original)
            self._patches.append((module, attr, original, wrapper))

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        index = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self._op_id)
        self.ok.append(1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(index)
        return index

    def _close(self, index, t0, ok):
        self.end[index] = time.perf_counter()
        self.start[index] = t0
        if not ok:
            self.ok[index] = 0
        self._stack.pop()

    def _wrap(self, span, fn):
        nid = self._id(span)
        count = COUNTERS.get(span)
        counters = self.counters

        def traced(*args, **kwargs):
            index = self._open(nid)
            ok = False
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                self._close(index, t0, ok)
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        return traced

    def _wrap_pool(self, span, task_span, fn):
        """parallel_map: its tasks belong to the calling layer, not the pool."""
        traced_map = self._wrap(span, fn)
        return lambda task, items: traced_map(self._wrap(task_span, task), items)

    def run_op(self, op_id, op_name, fn):
        """Run one benchmark op under a root span ``bench.<op_name>``."""
        self._op_id = op_id
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        try:
            return self._wrap(f"bench.{op_name}", fn)()
        finally:
            for module, attr, original, _ in self._patches:
                setattr(module, attr, original)
            self._op_id = -1

    def arrays(self):
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "op": np.frombuffer(self.op, dtype=np.int64),
            "ok": np.frombuffer(self.ok, dtype=np.int8),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def summary(self, op_types):
        """Calls, failures and self time per span name, and per op type.

        Self time is a span's duration minus the durations of its direct
        children; ``op_types`` maps op id to op type.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_time = dur - child
        by_name = {}
        for nid, name in enumerate(self.names):
            mask = a["name_id"] == nid
            by_name[name] = {
                "calls": int(mask.sum()),
                "failures": int((a["ok"][mask] == 0).sum()),
                "self_s": float(self_time[mask].sum()),
            }
        by_op = {}
        for op_id, op_type in op_types.items():
            mask = a["op"] == op_id
            per_name = np.bincount(a["name_id"][mask], weights=self_time[mask],
                                   minlength=len(self.names))
            entry = by_op.setdefault(op_type, {})
            for nid in np.nonzero(per_name)[0]:
                name = self.names[nid]
                entry[name] = entry.get(name, 0.0) + float(per_name[nid])
        return {"names": by_name, "by_op": by_op, "counters": dict(self.counters),
                "absent": list(self.absent)}

    def save(self, path, op_types):
        """Write every span, the span names and each op's type to an .npz file."""
        np.savez_compressed(path, names=np.array(self.names),
                            op_ids=np.array(list(op_types), dtype=np.int64),
                            op_types=np.array(list(op_types.values())),
                            **self.arrays())
