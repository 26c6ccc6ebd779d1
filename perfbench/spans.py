"""Spans around eisterm's public functions, installed from outside the package.

A span records calls, inclusive seconds and self seconds (inclusive minus the
time covered by child spans).  A recursive call to a span already open is
counted but not timed again, so recursion is not double counted.  Counters
(ideals yielded, table entries, lattice points, ...) are added by hooks that
see the call's arguments and result.

Each wrapper replaces the function where it is defined and in every eisterm
module that imported it by name.  A target that no longer exists, or a
counter whose hook no longer fits the call, is listed in ``Recorder.absent``
instead of raising, so that refactors of the package do not have to edit the
benchmark.
"""

import functools
import importlib
import inspect
import sys
import time

MODULES = ("eisterm", "eisterm.field", "eisterm.classfield", "eisterm.schwartz",
           "eisterm.zeta", "eisterm.eisenstein", "eisterm.horospherical",
           "eisterm.cache", "eisterm.cli")


class Recorder:
    def __init__(self):
        self.calls = {}
        self.seconds = {}
        self.self_seconds = {}
        self.counts = {}
        self.absent = []
        self.lru = {}  # span -> lru_cache objects whose cache_info() it reports
        self._stack = []  # open spans: [name, seconds covered by children]

    def add(self, counter, n):
        self.counts[counter] = self.counts.get(counter, 0) + n

    def wrap(self, span, fn, hook=None):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.calls[span] = rec.calls.get(span, 0) + 1
            if any(frame[0] == span for frame in rec._stack):
                out = fn(*args, **kwargs)
            else:
                frame = [span, 0.0]
                rec._stack.append(frame)
                t0 = time.perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    dt = time.perf_counter() - t0
                    rec._stack.pop()
                    rec.seconds[span] = rec.seconds.get(span, 0.0) + dt
                    rec.self_seconds[span] = rec.self_seconds.get(span, 0.0) + dt - frame[1]
                    if rec._stack:
                        rec._stack[-1][1] += dt
            if hook is not None:
                try:
                    hook(rec, args, kwargs, out)
                except (AttributeError, KeyError, IndexError, TypeError):
                    if f"{span} (counter)" not in rec.absent:
                        rec.absent.append(f"{span} (counter)")
            return out

        return wrapper

    def snapshot(self):
        """Plain-data copy of everything recorded, for merging across processes."""
        counts = dict(self.counts)
        for span, cached in self.lru.items():
            for fn in cached:
                info = fn.cache_info()
                counts[span + ".hits"] = counts.get(span + ".hits", 0) + info.hits
                counts[span + ".misses"] = counts.get(span + ".misses", 0) + info.misses
        return {"calls": dict(self.calls), "seconds": dict(self.seconds),
                "self_seconds": dict(self.self_seconds), "counts": counts,
                "absent": list(self.absent)}


def merge(snapshots):
    out = {"calls": {}, "seconds": {}, "self_seconds": {}, "counts": {}, "absent": []}
    for snap in snapshots:
        for part in ("calls", "seconds", "self_seconds", "counts"):
            for key, value in snap[part].items():
                out[part][key] = out[part].get(key, 0) + value
        out["absent"] = sorted(set(out["absent"]) | set(snap["absent"]))
    return out


def _argument(fn, name, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments.get(name, 0)


def _count_len(counter):
    return lambda rec, args, kwargs, out: rec.add(counter, len(out))


def _fourier_entries(rec, args, kwargs, out):
    f = args[0] if args else kwargs["f"]
    rec.add("schwartz.fourier.entries", f.grid.n * f.M)


def _certify_failures(rec, args, kwargs, out):
    if not getattr(out, "ok", False):
        rec.add("eisenstein.certify.failures", 1)


def _on_miss(fn, counter, size):
    """Hook adding size(result) to counter when an lru_cache call missed."""
    info = getattr(fn, "cache_info", None)
    seen = [info().misses if info else 0]

    def hook(rec, args, kwargs, out):
        misses = info().misses if info else seen[0] + 1
        if misses > seen[0]:
            rec.add(counter, size(out))
        seen[0] = misses

    return hook


# (span, module, attribute, hook factory taking the original function)
TARGETS = [
    ("field.prime_ideals", "eisterm.field", "prime_ideals_up_to",
     lambda fn: _count_len("field.prime_ideals.count")),
    ("field.units", "eisterm.field", "fundamental_unit", None),
    ("field.units", "eisterm.field", "unit_subgroup_generator", None),
    ("classfield.ray_class_group", "eisterm.classfield", "ray_class_group", None),
    ("classfield.class_of_ideal", "eisterm.classfield", "RayClassGroup.class_of_ideal", None),
    ("schwartz.fourier", "eisterm.schwartz", "fourier_transform", lambda fn: _fourier_entries),
    ("schwartz.act_group", "eisterm.schwartz", "act_group", None),
    ("zeta.shintani", "eisterm.zeta", "shintani_partial_zeta", None),
    ("zeta.siegel", "eisterm.zeta", "siegel_sigma1", None),
    ("zeta.bernoulli", "eisterm.zeta", "bernoulli_number", None),
    ("zeta.bernoulli", "eisterm.zeta", "bernoulli_poly", None),
    ("zeta.bernoulli", "eisterm.zeta", "twisted_zeta_rank1", None),
    ("eisenstein.class_sums", "eisterm.eisenstein", "rank1_class_sums", None),
    ("eisenstein.class_sums", "eisterm.eisenstein", "rank2_class_sums",
     lambda fn: _on_miss(fn, "eisenstein.class_sums.points", lambda out: out[1])),
    ("eisenstein.constant_term", "eisterm.eisenstein", "constant_term", None),
    ("eisenstein.certify", "eisterm.eisenstein", "certify_rational",
     lambda fn: _certify_failures),
    ("eisenstein.quadrature", "eisterm.eisenstein", "constant_term_quadrature", None),
    ("horospherical.lambda", "eisterm.horospherical", "lambda_constant",
     lambda fn: lambda rec, a, k, out: rec.add("horospherical.lambda.prime_bound",
                                               _argument(fn, "P", a, k))),
    ("horospherical.preimage", "eisterm.horospherical", "preimage", None),
    ("horospherical.map", "eisterm.horospherical", "horospherical_map",
     lambda fn: lambda rec, a, k, out: rec.add("horospherical.map.points", len(out))),
    ("horospherical.map", "eisterm.horospherical", "horospherical_map_complex",
     lambda fn: lambda rec, a, k, out: rec.add("horospherical.map.points", len(out))),
    ("horospherical.kernel", "eisterm.horospherical", "kernel_coefficient", None),
    ("horospherical.matrix_group", "eisterm.horospherical", "matrix_group",
     lambda fn: _on_miss(fn, "horospherical.matrix_group.gl2", lambda out: len(out.gl2))),
]


def install(recorder):
    """Wrap every target that exists; list the others in recorder.absent."""
    loaded = []
    for name in MODULES:
        try:
            loaded.append(importlib.import_module(name))
        except ImportError:
            recorder.absent.append(name)
    for span, modname, attr, hook_factory in TARGETS:
        module = sys.modules.get(modname)
        owner_name, _, method = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, method, None) if owner is not None else None
        if original is None:
            recorder.absent.append(f"{modname}.{attr}")
            continue
        if hasattr(original, "cache_info"):
            recorder.lru.setdefault(span, []).append(original)
        hook = hook_factory(original) if hook_factory else None
        wrapper = recorder.wrap(span, original, hook)
        if owner_name:
            setattr(owner, method, wrapper)
            continue
        for mod in loaded:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
    return recorder


def layer_metrics(snap):
    """Per-layer metrics from a snapshot, by benchmark name."""
    s, own, calls, n = snap["seconds"], snap["self_seconds"], snap["calls"], snap["counts"]
    hits = n.get("eisenstein.class_sums.hits", 0)
    lookups = hits + n.get("eisenstein.class_sums.misses", 0)
    return {
        "field.prime_ideals.s": s.get("field.prime_ideals", 0.0),
        "field.prime_ideals.count": n.get("field.prime_ideals.count", 0),
        "field.units.s": s.get("field.units", 0.0),
        "classfield.ray_class_group.s": s.get("classfield.ray_class_group", 0.0),
        "classfield.class_of_ideal.calls": calls.get("classfield.class_of_ideal", 0),
        "classfield.class_of_ideal.s": s.get("classfield.class_of_ideal", 0.0),
        "schwartz.fourier.calls": calls.get("schwartz.fourier", 0),
        "schwartz.fourier.s": s.get("schwartz.fourier", 0.0),
        "schwartz.fourier.entries": n.get("schwartz.fourier.entries", 0),
        "schwartz.act_group.s": s.get("schwartz.act_group", 0.0),
        "zeta.shintani.calls": calls.get("zeta.shintani", 0),
        "zeta.shintani.s": s.get("zeta.shintani", 0.0),
        "zeta.siegel.s": s.get("zeta.siegel", 0.0),
        "zeta.bernoulli.s": s.get("zeta.bernoulli", 0.0),
        "eisenstein.class_sums.calls": calls.get("eisenstein.class_sums", 0),
        "eisenstein.class_sums.hit_ratio": hits / lookups if lookups else 0.0,
        "eisenstein.class_sums.s": s.get("eisenstein.class_sums", 0.0),
        "eisenstein.class_sums.points": n.get("eisenstein.class_sums.points", 0),
        "eisenstein.constant_term.self_s": own.get("eisenstein.constant_term", 0.0),
        "eisenstein.certify.s": s.get("eisenstein.certify", 0.0),
        "eisenstein.certify.failures": n.get("eisenstein.certify.failures", 0),
        "eisenstein.quadrature.s": s.get("eisenstein.quadrature", 0.0),
        "horospherical.lambda.s": s.get("horospherical.lambda", 0.0),
        "horospherical.lambda.prime_bound": n.get("horospherical.lambda.prime_bound", 0),
        "horospherical.preimage.self_s": own.get("horospherical.preimage", 0.0),
        "horospherical.map.s": s.get("horospherical.map", 0.0),
        "horospherical.map.points": n.get("horospherical.map.points", 0),
        "horospherical.kernel.s": s.get("horospherical.kernel", 0.0),
        "horospherical.matrix_group.s": s.get("horospherical.matrix_group", 0.0),
        "horospherical.matrix_group.gl2": n.get("horospherical.matrix_group.gl2", 0),
    }


def self_shares(snap, total_s):
    """Self seconds of each span as a share of total_s, largest first."""
    shares = {span: sec / total_s for span, sec in snap["self_seconds"].items()}
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))
