"""Outside-in layer trace: wraps the module-level names each layer resolves
at call time, and the integrands handed to the numerics layer.

Every wrapped call is a span (name, start, end, parent) kept in compact
in-memory arrays; a layer's self time is the summed duration of its spans
minus the part their child spans cover.  Integrands and series terms are
spans of the layer that handed them to numerics, so `numerics.self_s` is
the quadrature's own bookkeeping (panel heaps, window growth, GK
reductions) and the summation loop, without the integrand work.

Nothing inside `src/` is touched: wrappers are installed by rebinding
module attributes and removed by restoring the originals.
"""
import time
from array import array

import numpy as np

from workloads import err_floor

LAYERS = ("numerics", "radial", "profile.inner", "profile.bergman",
          "profile.szego", "profile.inverse", "verify")

# (module, attribute) -> layer.  Each name is wrapped where its callers
# look it up: profile's own globals, radial's and verify's imports.
ENTRIES = {
    ("profile", "_log_inner_batch"): "profile.inner",
    ("profile", "bergman_profile"): "profile.bergman",
    ("profile", "szego_profile"): "profile.szego",
    ("profile", "bergman_from_szego_gaussian"): "profile.inverse",
    ("profile", "bergman_roundtrip_extrapolated"): "profile.inverse",
    ("profile", "integrate_real_line"): "numerics",
    ("profile", "integrate_interval"): "numerics",
    ("radial", "bergman_radial_series"): "radial",
    ("radial", "szego_radial_via_laplace"): "radial",
    ("radial", "series_coefficient"): "radial",
    ("radial", "sum_series"): "numerics",
    ("radial", "log_gamma"): "numerics",
    ("verify", "moment_oracle"): "verify",
    ("verify", "reproducing_check"): "verify",
    ("verify", "series_coefficient"): "radial",
    ("verify", "integrate_plane_polar"): "numerics",
    ("verify", "log_gamma"): "numerics",
}
# numerics entry points whose first argument is a callback, and its kind
_CALLBACKS = {"integrate_real_line": "integrand", "integrate_interval": "integrand",
              "integrate_plane_polar": "integrand", "sum_series": "term"}


class Tracer:
    def __init__(self):
        self.name_ids = {}
        self.name_layer = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.open_layers = {layer: 0 for layer in LAYERS}
        # per-layer counts at the layer's outermost spans
        self.calls = dict.fromkeys(LAYERS, 0)
        self.failed = dict.fromkeys(LAYERS, 0)
        self.evals = dict.fromkeys(LAYERS, 0)
        self.results = dict.fromkeys(LAYERS, 0)
        self.abel = 0
        self.inner_etas = 0
        self.inner_evals = 0
        self.inner_in_bergman = 0
        self.bergman_in_szego = 0
        self.numerics_calls = 0
        self.integrand_calls = 0
        self.integrand_points = 0
        self.series_terms = 0
        self.log_gamma_calls = 0
        self._saved = []

    def _name_id(self, name, layer):
        i = self.name_ids.get(name)
        if i is None:
            i = self.name_ids[name] = len(self.name_layer)
            self.name_layer.append(layer)
        return i

    def _span(self, name_id, layer, fn, args, kwargs):
        """Run fn inside a span; returns (result, outermost-in-layer)."""
        parent = self.stack[-1]
        outer = self.open_layers[layer] == 0
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(parent)
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.open_layers[layer] += 1
        self.span_start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs), outer
        except BaseException:
            if outer:
                self.failed[layer] += 1
                self.calls[layer] += 1
            raise
        finally:
            self.span_end[idx] = time.perf_counter()
            self.open_layers[layer] -= 1
            self.stack.pop()

    def _callback(self, fn, layer, kind):
        """Wrap an integrand or series term as a span of `layer`."""
        name_id = self._name_id("%s<-%s" % (kind, layer), layer)

        def callback(*args, **kwargs):
            if kind == "integrand":
                self.integrand_calls += 1
                self.integrand_points += (np.broadcast(*args).size if len(args) > 1
                                          else np.size(args[0]))
            else:
                self.series_terms += 1
            return self._span(name_id, layer, fn, args, kwargs)[0]

        return callback

    def _caller_layer(self):
        top = self.stack[-1]
        return self.name_layer[self.span_name[top]] if top >= 0 else "numerics"

    def wrap(self, module_name, attr, fn):
        layer = ENTRIES[(module_name, attr)]
        name_id = self._name_id("%s.%s" % (module_name, attr), layer)

        def wrapper(*args, **kwargs):
            if attr in _CALLBACKS:
                self.numerics_calls += 1
                args = (self._callback(args[0], self._caller_layer(), _CALLBACKS[attr]),) + args[1:]
            elif attr == "log_gamma":
                self.log_gamma_calls += 1
            elif attr == "_log_inner_batch":
                self.inner_etas += int(np.size(args[2]))
                self.inner_in_bergman += self.open_layers["profile.bergman"] > 0
            elif attr == "bergman_profile":
                self.bergman_in_szego += self.open_layers["profile.szego"] > 0
            result, outer = self._span(name_id, layer, fn, args, kwargs)
            if attr == "_log_inner_batch":
                self.inner_evals += int(result[1])
            if outer:
                self.calls[layer] += 1
                if hasattr(result, "n_evals"):
                    self.results[layer] += 1
                    self.evals[layer] += int(result.n_evals)
                    self.abel += result.method == "triple-abel"
            return result

        return wrapper

    def install(self, modules):
        """Rebind every traced name; `uninstall` puts the originals back."""
        for (module_name, attr) in ENTRIES:
            mod = modules[module_name]
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(module_name, attr, fn))

    def uninstall(self):
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def self_seconds(self):
        """Self time per layer: span durations minus direct-child coverage."""
        n = len(self.span_start)
        if n == 0:
            return dict.fromkeys(LAYERS, 0.0)
        start = np.frombuffer(self.span_start, dtype=float)
        dur = np.frombuffer(self.span_end, dtype=float) - start
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - covered
        layer_of_name = np.array([LAYERS.index(l) for l in self.name_layer])
        layer = layer_of_name[np.frombuffer(self.span_name, dtype=np.int32)]
        per = np.bincount(layer, weights=own, minlength=len(LAYERS))
        return {l: float(per[i]) for i, l in enumerate(LAYERS)}

    def write(self, path):
        """Write every span (name, start, end, parent) as a compressed npz."""
        names = sorted(self.name_ids, key=self.name_ids.get)
        np.savez_compressed(
            path, names=np.array(names), name_layer=np.array(self.name_layer),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=float),
            end=np.frombuffer(self.span_end, dtype=float),
            parent=np.frombuffer(self.span_parent, dtype=np.int32))

    def per_layer(self, judged):
        """Per-layer metrics; `judged` are the traced calls' judged outcomes."""
        own = self.self_seconds()

        def ratio(a, b):
            return a / b if b else 0.0

        def est_stats(entries):
            rows = [o for o in judged if o.entry in entries and o.checked
                    and o.estimate is not None]
            if not rows:
                return 0.0, 0.0
            ratios = [o.estimate / err_floor(o) for o in rows]
            honest = sum(o.estimate >= o.true_err for o in rows)
            return float(np.median(ratios)), honest / len(rows)

        c, f = self.calls, self.failed
        b_est, b_hon = est_stats({"profile.bergman_profile"})
        s_est, s_hon = est_stats({"profile.szego_profile"})
        r_est, r_hon = est_stats({"radial.bergman_radial_series", "radial.szego_radial_via_laplace"})
        _, i_hon = est_stats({"profile.bergman_roundtrip_extrapolated"})
        m = {
            "numerics.calls": (self.numerics_calls, "count"),
            "numerics.self_s": (own["numerics"], "s"),
            "numerics.integrand_calls": (self.integrand_calls, "count"),
            "numerics.points_per_integrand_call": (ratio(self.integrand_points, self.integrand_calls), "count"),
            "numerics.series_terms": (self.series_terms, "count"),
            "numerics.log_gamma_calls": (self.log_gamma_calls, "count"),
            "numerics.failed": (f["numerics"], "count"),
            "profile.inner.calls": (c["profile.inner"], "count"),
            "profile.inner.self_s": (own["profile.inner"], "s"),
            "profile.inner.etas_per_call": (ratio(self.inner_etas, c["profile.inner"]), "count"),
            "profile.inner.evals_per_eta": (ratio(self.inner_evals, self.inner_etas), "count"),
            "profile.inner.failed": (f["profile.inner"], "count"),
            "profile.bergman.calls": (c["profile.bergman"], "count"),
            "profile.bergman.self_s": (own["profile.bergman"], "s"),
            "profile.bergman.evals_per_call": (ratio(self.evals["profile.bergman"], self.results["profile.bergman"]), "count"),
            "profile.bergman.inner_calls_per_call": (ratio(self.inner_in_bergman, c["profile.bergman"]), "count"),
            "profile.bergman.est_over_err_p50": (b_est, "ratio"),
            "profile.bergman.est_honest_frac": (b_hon, "frac"),
            "profile.bergman.failed": (f["profile.bergman"], "count"),
            "profile.szego.calls": (c["profile.szego"], "count"),
            "profile.szego.self_s": (own["profile.szego"], "s"),
            "profile.szego.bergman_calls_per_call": (ratio(self.bergman_in_szego, c["profile.szego"]), "count"),
            "profile.szego.evals_per_call": (ratio(self.evals["profile.szego"], self.results["profile.szego"]), "count"),
            "profile.szego.abel_frac": (ratio(self.abel, self.results["profile.szego"]), "frac"),
            "profile.szego.est_over_err_p50": (s_est, "ratio"),
            "profile.szego.est_honest_frac": (s_hon, "frac"),
            "profile.szego.failed": (f["profile.szego"], "count"),
            "radial.calls": (c["radial"], "count"),
            "radial.self_s": (own["radial"], "s"),
            "radial.terms_per_call": (ratio(self.evals["radial"], self.results["radial"]), "count"),
            "radial.est_over_err_p50": (r_est, "ratio"),
            "radial.est_honest_frac": (r_hon, "frac"),
            "radial.failed": (f["radial"], "count"),
            "profile.inverse.calls": (c["profile.inverse"], "count"),
            "profile.inverse.self_s": (own["profile.inverse"], "s"),
            "profile.inverse.evals_per_call": (ratio(self.evals["profile.inverse"], self.results["profile.inverse"]), "count"),
            "profile.inverse.est_honest_frac": (i_hon, "frac"),
            "profile.inverse.failed": (f["profile.inverse"], "count"),
            "verify.calls": (c["verify"], "count"),
            "verify.self_s": (own["verify"], "s"),
            "verify.failed": (f["verify"], "count"),
        }
        return m
