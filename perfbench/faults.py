"""Fault injection for the benchmark's self-test: corrupt or fail one call."""

from __future__ import annotations

import functools

import fusionexp as fx

from tracer import patch_everywhere


def _corrupt(value):
    if isinstance(value, fx.FusionBase):
        comps = list(value.components)
        c = comps[0]
        comps[0] = fx.GroupElement(c.params, c.residue * c.params.generator % c.params.modulus)
        return fx.FusionBase(value.group, value.field, tuple(comps))
    if isinstance(value, fx.FieldElement):
        return fx.fe_add(value, fx.fe_one(value.params))
    if isinstance(value, int):
        return value + 1
    raise TypeError(f"no corruption defined for {type(value).__name__}")


def inject(module: str, name: str, mode: str, nth: int = 1):
    """Make the nth call of fusionexp.<module>.<name> return a wrong value
    (mode "wrong") or raise (mode "raise").  Returns the restore function."""

    def make(original):
        count = 0

        @functools.wraps(original)
        def faulty(*args, **kwargs):
            nonlocal count
            count += 1
            out = original(*args, **kwargs)
            if count != nth:
                return out
            if mode == "raise":
                raise RuntimeError(f"injected fault in {module}.{name}")
            return _corrupt(out)

        return faulty

    return patch_everywhere(module, name, make)
