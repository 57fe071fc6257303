"""Spans around calls into fusionexp's public functions, installed from outside.

The package imports with ``from .x import y``, so a function lives under its
name in every module that imports it.  Patching only the defining module
would miss callers such as ``protocols.fusion_pow``; ``patch_everywhere``
therefore replaces the object in every ``fusionexp`` namespace that holds it.

Spans nest on one stack (the program is single-threaded).  A span's self time
is its duration minus the durations of its direct child spans.  Spans are
aggregated per function as they close, because the traced workloads make
millions of calls; each aggregate keeps calls, total and self time, and the
calls made from each traced parent, which gives ratios such as pow_sm calls
per fusion_pow.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

# module -> public functions timed in the traced run, one layer per module.
TRACED = {
    "primes": ("is_prime",),
    "field": ("is_irreducible", "find_irreducible", "make_field_params",
              "fe_mul", "fe_inv", "fe_pow"),
    "group": ("gen_group_params", "pow_sm", "g_pow"),
    "fusion": ("fusion_pow", "fb_mul"),
    "dlp": ("dlog_bsgs", "dlog_pollard_rho", "fdlog_solve",
            "fdlog_bruteforce", "dlog_bruteforce"),
    "reductions": ("run_reduction_matrix",),
    "protocols": ("fdh_keygen", "fdh_shared", "felgamal_encrypt",
                  "felgamal_decrypt", "vss_deal", "vss_verify",
                  "vss_verify_all", "vss_reconstruct"),
    "cli": ("load_system_config", "cmd_eval", "cmd_fdlog", "cmd_demo"),
}


def patch_everywhere(module: str, name: str, make_replacement):
    """Replace fusionexp.<module>.<name> in every fusionexp namespace holding it.

    make_replacement(original) builds the new callable.  Returns a function
    that restores the original everywhere.
    """
    original = getattr(sys.modules[f"fusionexp.{module}"], name)
    replacement = make_replacement(original)
    patched = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "fusionexp" or mod_name.startswith("fusionexp.")):
            continue
        if getattr(mod, name, None) is original:
            setattr(mod, name, replacement)
            patched.append(mod)

    def restore():
        for mod in patched:
            setattr(mod, name, original)

    return restore


class Tracer:
    """Per-function call counts, total and self time, and parent->child counts."""

    def __init__(self):
        self.stack: list[list] = []  # open spans: [qualified name, child seconds]
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.edges: Counter = Counter()  # (parent or None, child) -> calls
        self.extra: Counter = Counter()  # counts read from a function's own outputs
        self.samples: defaultdict = defaultdict(list)  # values reported as medians
        self.enabled = False
        self._restores: list = []

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) as a span named name."""
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self.stack
        parent = stack[-1][0] if stack else None
        frame = [name, 0.0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            stack.pop()
            if stack:
                stack[-1][1] += dt
            self.calls[name] += 1
            self.total_s[name] += dt
            self.self_s[name] += dt - frame[1]
            self.edges[(parent, name)] += 1

    def _wrap(self, qualname: str, fn):
        span = self.span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return span(qualname, fn, *args, **kwargs)

        return traced

    def _wrap_bsgs(self, qualname: str, fn):
        # dlog_bsgs reports its group multiplications through a stats dict.
        span, extra = self.span, self.extra

        @functools.wraps(fn)
        def traced(inst, stats=None):
            own = {} if stats is None else stats
            out = span(qualname, fn, inst, own)
            if self.enabled:
                extra[qualname + ".mults"] += own.get("mults", 0)
            return out

        return traced

    def install(self) -> None:
        """Wrap every TRACED function; fusionexp.cli must already be imported."""
        for module, names in TRACED.items():
            for name in names:
                qualname = f"{module}.{name}"
                wrap = self._wrap_bsgs if qualname == "dlp.dlog_bsgs" else self._wrap
                self._restores.append(
                    patch_everywhere(module, name, functools.partial(wrap, qualname))
                )

    def uninstall(self) -> None:
        while self._restores:
            self._restores.pop()()

    def snapshot(self) -> dict:
        """Plain-JSON aggregates, mergeable with ``merge``."""
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "edges": [[p, c, k] for (p, c), k in self.edges.items()],
            "extra": dict(self.extra),
            "samples": dict(self.samples),
        }

    def merge(self, snap: dict) -> None:
        self.calls.update(snap["calls"])
        for k, v in snap["total_s"].items():
            self.total_s[k] += v
        for k, v in snap["self_s"].items():
            self.self_s[k] += v
        for p, c, k in snap["edges"]:
            self.edges[(p, c)] += k
        self.extra.update(snap["extra"])
        for k, v in snap["samples"].items():
            self.samples[k].extend(v)
