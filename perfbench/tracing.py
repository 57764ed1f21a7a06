"""Span tracing for the benchmark, applied from outside the package.

`Tracer.install()` replaces each function named in LAYERS with a timing
wrapper: in its defining module, in every `ncconvex` module that
imported it by name (so `convexity.sample_x_ball` or
`cli.test_convexity_at_CA` are traced too), and for `numpy.linalg` in
that module.  `uninstall()` restores the originals.  The package source
is not touched.

A wrapper records a span (name, start, end, parent, job) only while a
job is active, so the benchmark's own output checks are never traced.
Spans stay in memory; `save()` writes them once the run has ended.
Self time is a span's duration minus the durations of its direct
children; spans nest because the benchmark is single-threaded.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# layer -> (module, public functions or Class.method).  README.md maps
# each layer to the end-to-end metric it should move.
LAYERS = (
    ("cli", "ncconvex.cli", ("main",)),
    ("parsing", "ncconvex.parsing", ("parse_polynomial", "infer_signature")),
    ("algebra", "ncconvex.algebra",
     ("NcPolynomial.__mul__", "NcPowerSeries.from_polynomial")),
    ("tuples", "ncconvex.tuples",
     ("HermTuple.__init__", "HermTuple.scale", "sample_x_ball", "ca_element",
      "haar_unitary", "derived_rng", "tuple_norm", "tuple_from_json")),
    ("evaluate", "ncconvex.evaluate",
     ("eval_poly", "eval_series", "check_nc_function_axioms")),
    ("convexity", "ncconvex.convexity",
     ("test_convexity_at_A", "test_convexity_at_CA",
      "verify_convexity_witness")),
    ("onevar", "ncconvex.onevar",
     ("matrix_apply", "loewner_matrix", "kraus_eval", "g_transform",
      "convexity_test_1var", "loewner_monotone_test")),
    ("slices", "ncconvex.slices",
     ("certify_degree_two", "extract_slice_coefficients", "slice_scalar")),
    ("presets", "ncconvex.presets", ("KrausLiftFunction.__call__", "Preset.make")),
    ("linalg", "numpy.linalg", ("eigvalsh", "eigh", "solve", "qr")),
)
LAYER_NAMES = tuple(layer for layer, _, _ in LAYERS)

# counters kept next to the spans; reported per traced job
COUNTERS = ("stdout_bytes", "terms_out", "words_evaluated", "size_le4",
            "size_5to16", "size_gt16", "trial_evals", "trials",
            "domain_resamples", "extract_exact", "extract_dft",
            "extract_skips")


def _count_terms(tr, args, kwargs, out, exc):
    if exc is None:
        tr.counts["terms_out"] += out.n_terms


def _count_eval_poly(tr, args, kwargs, out, exc):
    if exc is not None:
        return
    p = args[0] if args else kwargs["p"]
    if hasattr(p, "entries"):                       # MatrixNcPolynomial
        polys, rows = [q for row in p.entries for q in row], p.rows
    else:
        polys, rows = [p], 1
    tr.counts["words_evaluated"] += sum(q.n_terms for q in polys)
    side = out.shape[0] // rows
    key = "size_le4" if side <= 4 else "size_5to16" if side <= 16 else "size_gt16"
    tr.counts[key] += 1
    if tr.trial_depth:
        tr.counts["trial_evals"] += 1


def _count_kraus_call(tr, args, kwargs, out, exc):
    if exc is None and tr.trial_depth:
        tr.counts["trial_evals"] += 1


def _count_trials(tr, args, kwargs, out, exc):
    tr.counts["trials"] += kwargs.get("trials", args[3] if len(args) > 3 else 200)


def _count_resample(tr, args, kwargs, out, exc):
    if exc is not None and type(exc).__name__ == "DomainError":
        tr.counts["domain_resamples"] += 1


def _count_extraction(tr, args, kwargs, out, exc):
    # only the DFT route can raise (residual or radius check)
    if exc is not None:
        tr.counts["extract_dft"] += 1
        tr.counts["extract_skips"] += 1
    elif out.method == "exact":
        tr.counts["extract_exact"] += 1
    else:
        tr.counts["extract_dft"] += 1


HOOKS = {
    "algebra.NcPolynomial.__mul__": _count_terms,
    "evaluate.eval_poly": _count_eval_poly,
    "presets.KrausLiftFunction.__call__": _count_kraus_call,
    "convexity.test_convexity_at_A": _count_trials,
    "onevar.matrix_apply": _count_resample,
    "slices.extract_slice_coefficients": _count_extraction,
}
TRIAL_LOOP = "convexity.test_convexity_at_A"


class Tracer:
    def __init__(self):
        self.job = -1                       # active job id; -1 = not tracing
        self.trial_depth = 0
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.names: list = []               # span name id -> "layer.func"
        self.layer_of: list = []            # span name id -> layer index
        self.calls = array("q")
        self.self_s = array("d")
        self.errors = array("q")
        # span columns, appended when a span ends
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_job = array("q")
        self._stack: list = []              # [span id, child seconds]
        self._next_id = 0
        self._patched: list = []            # (setter, owner, attr, original)

    # -- wrapping --------------------------------------------------------

    def _wrap(self, fn, name: str, layer: int):
        tr = self
        nid = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.errors.append(0)
        hook = HOOKS.get(name)
        trial_loop = name == TRIAL_LOOP
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tr.job < 0:
                return fn(*args, **kwargs)
            sid = tr._next_id
            tr._next_id = sid + 1
            stack = tr._stack
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            if trial_loop:
                tr.trial_depth += 1
            out = exc = None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if trial_loop:
                    tr.trial_depth -= 1
                tr.calls[nid] += 1
                tr.self_s[nid] += dur - frame[1]
                if exc is not None:
                    tr.errors[nid] += 1
                tr.span_id.append(sid)
                tr.span_name.append(nid)
                tr.span_start.append(t0)
                tr.span_end.append(t1)
                tr.span_parent.append(parent)
                tr.span_job.append(tr.job)
                if hook is not None:
                    hook(tr, args, kwargs, out, exc)
                # the parent's self time excludes this span and the hook
                if stack:
                    stack[-1][1] += clock() - t0
            return out

        return traced

    def _patch(self, owner, attr, new, setter=setattr) -> None:
        self._patched.append((setter, owner, attr, getattr(owner, attr)))
        setter(owner, attr, new)

    def install(self) -> None:
        """Wrap every LAYERS function in every place it is reachable."""
        import ncconvex.presets as presets
        modules = [m for k, m in list(sys.modules.items())
                   if k == "ncconvex" or k.startswith("ncconvex.")]
        for li, (layer, modname, funcs) in enumerate(LAYERS):
            mod = sys.modules[modname]
            for qual in funcs:
                name = f"{layer}.{qual}"
                if qual == "Preset.make":
                    # a dataclass field holding a factory, one per preset
                    for preset in presets.PRESETS.values():
                        self._patch(preset, "make",
                                    self._wrap(preset.make, name, li),
                                    setter=object.__setattr__)
                    continue
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(raw.__func__, name, li))
                    else:
                        new = self._wrap(raw, name, li)
                    self._patched.append((setattr, cls, meth, raw))
                    setattr(cls, meth, new)
                    continue
                original = getattr(mod, qual)
                wrapped = self._wrap(original, name, li)
                owners = [mod] + [m for m in modules if m is not mod]
                for owner in owners:
                    for attr, value in list(vars(owner).items()):
                        if value is original:
                            self._patch(owner, attr, wrapped)

    def uninstall(self) -> None:
        for setter, owner, attr, original in reversed(self._patched):
            setter(owner, attr, original)
        self._patched.clear()

    # -- results ---------------------------------------------------------

    def layer_stats(self) -> dict:
        """layer -> {"calls", "self_s", "errors"} summed over its spans."""
        out = {layer: {"calls": 0, "self_s": 0.0, "errors": 0}
               for layer in LAYER_NAMES}
        for nid, name in enumerate(self.names):
            st = out[LAYER_NAMES[self.layer_of[nid]]]
            st["calls"] += self.calls[nid]
            st["self_s"] += self.self_s[nid]
            st["errors"] += self.errors[nid]
        return out

    def function_stats(self) -> dict:
        """"layer.function" -> {"calls", "self_ms", "errors"}, for the
        functions that ran; the factories of all presets share a name."""
        out = {}
        for i, name in enumerate(self.names):
            st = out.setdefault(name, {"calls": 0, "self_ms": 0.0, "errors": 0})
            st["calls"] += self.calls[i]
            st["self_ms"] += 1e3 * self.self_s[i]
            st["errors"] += self.errors[i]
        return {name: st for name, st in out.items() if st["calls"]}

    def save(self, path) -> int:
        """Write the spans, ordered by id, as a compressed .npz file."""
        cols = {k: np.array(getattr(self, "span_" + k))
                for k in ("id", "name", "start", "end", "parent", "job")}
        order = np.argsort(cols["id"], kind="stable")
        cols = {k: v[order] for k, v in cols.items()}
        np.savez_compressed(path, names=np.array(self.names), **cols)
        return len(order)
