"""Outside-in tracing of the trellisexp layers.

`Tracer.install` replaces every public function of the layer modules with a
timing wrapper at every module attribute that binds it (`types_opt` and the
package `__init__` import functions by name, so patching only the defining
module would miss those calls).  Each call becomes a span (function, job,
parent span, start, end) kept in flat in-memory arrays; `uninstall` restores
the originals.  Counts computed from a call's arguments and result (the
"hooks") are stored beside the spans.  Nothing is aggregated while tracing.
"""

import functools
import inspect
import sys
from array import array
from time import perf_counter_ns

import numpy as np

LAYERS = ("cli", "exponents", "types_opt", "memory", "channels", "sim")


def _viterbi_counts(result, code, metric, outputs):
    """ACS operations B*T*S*2^m and int8 traceback bytes B*T*S, computed."""
    cfg = code.cfg
    b = outputs.shape[0] if np.ndim(outputs) == 2 else 1
    cells = b * cfg.num_branches * cfg.num_states
    return {"acs_ops": cells << cfg.m, "choice_bytes": cells}


def _enumerate_counts(result, *args, **kwargs):
    return {"pairs": sum(result.pair_totals.values()), "types": len(result.entries)}


def _solve_rho_counts(result, *args, **kwargs):
    rho_max = sys.modules["trellisexp.exponents"].RHO_MAX
    return {"cap_hits": int(result.rho >= rho_max)}


HOOKS = {
    "sim.viterbi_decode": _viterbi_counts,
    "sim.enumerate_pair_types": _enumerate_counts,
    "exponents.solve_rho": _solve_rho_counts,
}


def layer_functions():
    """{qualified name: function} for the traced functions of each layer.

    The cli layer is timed at its entry point `main`; its other functions
    are its own internals.
    """
    found = {}
    for layer in LAYERS:
        mod = sys.modules[f"trellisexp.{layer}"]
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_") and (layer != "cli" or name == "main")):
                found[f"{layer}.{name}"] = obj
    return found


class Tracer:
    def __init__(self):
        self.names = []
        self.fn, self.job, self.parent = array("q"), array("q"), array("q")
        self.start, self.end = array("q"), array("q")
        self.counts = []        # (span index, {count name: value})
        self.job_id = -1        # set by the runner before each job
        self.enabled = True     # False while the runner checks outputs
        self._stack = []
        self._patches = []      # (module, attribute, original)

    def install(self):
        wrappers = {}
        for name, fn in layer_functions().items():
            wrappers[id(fn)] = (fn, self._wrap(fn, name))
        for modname, mod in list(sys.modules.items()):
            if modname != "trellisexp" and not modname.startswith("trellisexp."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, fn, name):
        fid = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            i = len(self.fn)
            self.fn.append(fid)
            self.job.append(self.job_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0)
            self._stack.append(i)
            self.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter_ns()
                self._stack.pop()
            if hook is not None:
                self.counts.append((i, hook(result, *args, **kwargs)))
            return result

        return wrapper

    def spans(self):
        """The recorded spans as numpy arrays."""
        return {key: np.frombuffer(getattr(self, key), dtype=np.int64).copy()
                for key in ("fn", "job", "parent", "start", "end")}

    def aggregate(self, job_pass, job_group, n_passes, n_groups):
        """Per (pass, group, function): calls, total_s, self_s and counts.

        Self time is a span's duration minus the durations of its direct
        child spans.  `entries` of `sim.typicality_check` is the number of
        pair types it checked: the `types` of its child enumerations.
        """
        s = self.spans()
        n_fn = len(self.names)
        dur = (s["end"] - s["start"]) / 1e9
        nested = s["parent"] >= 0
        child = np.bincount(s["parent"][nested], weights=dur[nested], minlength=dur.size)
        key = (np.asarray(job_pass)[s["job"]] * n_groups
               + np.asarray(job_group)[s["job"]]) * n_fn + s["fn"]
        shape = (n_passes, n_groups, n_fn)
        size = n_passes * n_groups * n_fn
        out = {
            "calls": np.bincount(key, minlength=size).reshape(shape),
            "total_s": np.bincount(key, weights=dur, minlength=size).reshape(shape),
            "self_s": np.bincount(key, weights=dur - child, minlength=size).reshape(shape),
        }
        checker = self.names.index("sim.typicality_check")
        for i, counts in self.counts:
            targets = [(i, counts)]
            p = s["parent"][i]
            if "types" in counts and p >= 0 and s["fn"][p] == checker:
                targets.append((p, {"entries": counts["types"]}))
            for span, values in targets:
                for name, value in values.items():
                    arr = out.setdefault(name, np.zeros(shape, dtype=np.int64))
                    arr[np.unravel_index(key[span], shape)] += value
        return out
