"""Span recorder installed from outside the library.

Each traced callable is replaced by a wrapper wherever it is bound: in every
``quadalg`` module namespace that holds it (``picard`` imports
``reduce_posdef`` by name) and in every class namespace of its defining class
and subclasses (``RingElement.__rmul__`` is ``__mul__``; each ring backend
overrides ``descriptor``).  Spans are aggregated as they close: per name, the
number of calls and the self time, which is the span's duration minus the
time of the traced spans it caused.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (module, qualified name) of every traced callable
TARGETS = (
    ("ring", "Ring.__eq__"),
    ("ring", "Ring.descriptor"),
    ("ring", "RingElement.__mul__"),
    ("ring", "TableRing.try_divide"),
    ("ring", "QuotientRing.enumerate_elements"),
    ("ring", "LocalizationRing.try_from_rational"),
    ("forms", "reduce_posdef"),
    ("forms", "act_gl2tw"),
    ("forms", "GL2Matrix.__mul__"),
    ("forms", "TwistedForm.__init__"),
    ("picard", "reduced_forms"),
    ("picard", "pic_mod_conjugation"),
    ("picard", "form_to_ideal"),
    ("picard", "ideal_mul"),
    ("picard", "ideal_to_form"),
    ("picard", "is_invertible"),
    ("picard", "OrderIdeal.from_lattice"),
    ("algebras", "algebras_isomorphic"),
    ("algebras", "types_isomorphic"),
    ("algebras", "oriented_isomorphic"),
    ("algebras", "isomorphic_bruteforce"),
    ("algebras", "AlgebraHom.verifies"),
    ("glue", "verification_report"),
    ("glue", "build_glued"),
    ("glue", "check_transition_hom"),
    ("glue", "check_cocycle_transitions"),
    ("cli", "build_parser"),
    ("cli", "emit_table"),
    ("cli", "run"),
)


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out += _subclasses(sub)
    return out


class Tracer:
    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self._children: list[float] = []  # time of closed child spans, per open span
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        calls, self_s, children, clock = self.calls, self.self_s, self._children, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            calls[name] += 1
            children.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                self_s[name] += elapsed - children.pop()
                if children:
                    children[-1] += elapsed

        return span

    def _rebind(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, qa) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "quadalg" or key.startswith("quadalg.")]
        for mod_name, qualname in TARGETS:
            name = f"{mod_name}.{qualname}"
            module = getattr(qa, mod_name)
            if "." not in qualname:
                original = getattr(module, qualname)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, attr, wrapper)
                continue
            cls_name, attr = qualname.split(".")
            for cls in _subclasses(getattr(module, cls_name)):
                raw = cls.__dict__.get(attr)
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    wrapper = classmethod(self._wrap(name, raw.__func__))
                else:
                    wrapper = self._wrap(name, raw)
                for alias, value in list(cls.__dict__.items()):
                    if value is raw:
                        self._rebind(cls, alias, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def take_self_s(self) -> dict[str, float]:
        """Self seconds accumulated since the last call, by name."""
        out = dict(self.self_s)
        self.self_s.clear()
        return out
