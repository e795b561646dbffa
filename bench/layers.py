"""Per-layer tracing of gkmchar from outside the package.

Each traced function is replaced by a wrapper on every attribute that names
it: the defining module, every module that copied it with ``from .x import
f``, the package namespace, and every class attribute (so
``LaurentPoly.__rmul__``, an alias of ``__mul__``, is wrapped too).  A wrapper
counts calls, adds the call's wall time to ``total`` (outermost activation
only, so recursion is not counted twice) and its time minus wrapped children
to ``self``.  Time spent in the speed clock's signal handler is removed.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, qualified name) of every traced function
TARGETS = (
    ("cli", "main"),
    ("graphs", "load_graph_data"),
    ("graphs", "validate_class"),
    ("graphs", "symplectic_class"),
    ("characters", "polarize"),
    ("characters", "character_expand"),
    ("characters", "character_oracle"),
    ("characters", "multiplicity"),
    ("characters", "kostant_count"),
    ("characters", "hull_report"),
    ("characters", "in_convex_hull"),
    ("laurent", "LaurentPoly.__mul__"),
    ("laurent", "divide_exact"),
    ("laurent", "eval_numeric"),
    ("laurent", "congruent_mod_edge"),
    ("residues", "res_T"),
    ("residues", "to_z_form"),
    ("lattice", "complete_to_basis"),
    ("reduction", "moment_map"),
    ("reduction", "chi_reduced"),
    ("reduction", "wall_crossing_check"),
    ("reduction", "qr_check"),
    ("selftest", "run_selftest"),
)


def _products(args, result):
    other = args[1]
    return len(args[0]) * (1 if isinstance(other, int) else len(other))


# work counts measured at the same boundaries: name -> (target, counter)
WORK = {
    "characters.character_expand.terms_out":
        ("characters.character_expand", lambda args, out: len(out.poly)),
    "characters.character_oracle.terms_out":
        ("characters.character_oracle", lambda args, out: len(out)),
    "laurent.LaurentPoly.__mul__.term_products":
        ("laurent.LaurentPoly.__mul__", _products),
    "laurent.divide_exact.terms_in":
        ("laurent.divide_exact", lambda args, out: len(args[0])),
    "residues.res_T.terms_out":
        ("residues.res_T", lambda args, out: len(out.total)),
}

STATS = ("calls", "total_ms", "self_ms")


def metric_names():
    names = [f"{m}.{q}.{s}" for m, q in TARGETS for s in STATS]
    return names + list(WORK)


class Tracer:
    """Installs wrappers on a loaded gkmchar package and accumulates stats.

    ``clock`` must have a ``handler_s`` attribute (see speed.SpeedClock).
    """

    def __init__(self, package: str, clock):
        self.package = package
        self.clock = clock
        self.calls = {}
        self.total = {}
        self.self_s = {}
        self.work = {name: 0 for name in WORK}
        self._active = {}
        self._stack = []
        self._patches = []          # (owner, attribute name, original)

    def _modules(self):
        prefix = self.package + "."
        return [m for name, m in sorted(sys.modules.items())
                if m is not None
                and (name == self.package or name.startswith(prefix))]

    def install(self):
        modules = self._modules()
        owners = list(modules)
        for mod in modules:
            for value in vars(mod).values():
                if isinstance(value, type) and \
                        value.__module__.startswith(self.package):
                    owners.append(value)
        for mod_name, qual in TARGETS:
            key = f"{mod_name}.{qual}"
            home = sys.modules[f"{self.package}.{mod_name}"]
            obj = home
            for part in qual.split("."):
                obj = getattr(obj, part)
            counters = [(n, fn) for n, (target, fn) in WORK.items()
                        if target == key]
            wrapper = self._wrap(key, obj, counters)
            hits = 0
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is obj:
                        setattr(owner, attr, wrapper)
                        self._patches.append((owner, attr, obj))
                        hits += 1
            if not hits:
                raise RuntimeError(f"{key} not found in any namespace")
            self.calls[key] = 0
            self.total[key] = 0.0
            self.self_s[key] = 0.0
            self._active[key] = 0

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def patched_names(self):
        return sorted(f"{getattr(o, '__name__', o)}.{a}"
                      for o, a, _ in self._patches)

    def _wrap(self, key, fn, counters):
        now = time.perf_counter
        clock = self.clock
        stack = self._stack
        calls, total, self_s = self.calls, self.total, self.self_s
        active, work = self._active, self.work

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            h0 = clock.handler_s
            t0 = now()
            stack.append(0.0)
            active[key] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = (now() - t0) - (clock.handler_s - h0)
                child = stack.pop()
                active[key] -= 1
                calls[key] += 1
                self_s[key] += elapsed - child
                if not active[key]:
                    total[key] += elapsed
                if stack:
                    stack[-1] += elapsed
            for name, count in counters:
                work[name] += count(args, result)
            return result

        return wrapper

    def snapshot(self) -> dict:
        """Counts and raw seconds accumulated so far, keyed by metric name."""
        out = {}
        for key in self.calls:
            out[f"{key}.calls"] = self.calls[key]
            out[f"{key}.total_ms"] = self.total[key]
            out[f"{key}.self_ms"] = self.self_s[key]
        out.update(self.work)
        return out
