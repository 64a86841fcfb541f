"""Every target of the benchmark's span recorder is live.

``perfbench/spans.py`` wraps a class-level target only where a class in the
subtree of the named class defines it in its own ``__dict__``, so a method
that moves to a base class would leave its span metrics at 0 without an
error.  The module is loaded by file path, as ``tests/oracles.py`` loads
``perfbench/oracles.py``; it imports no quadalg."""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

from quadalg.cli import builtin_ring


def _load_spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    spans = _load_spans()
    dead = []
    for module, qualname in spans.TARGETS:
        mod = importlib.import_module(f"quadalg.{module}")
        if "." not in qualname:
            live = callable(getattr(mod, qualname, None))
        else:
            cls_name, attr = qualname.split(".")
            live = any(attr in cls.__dict__ for cls in spans._subclasses(getattr(mod, cls_name)))
        if not live:
            dead.append(f"{module}.{qualname}")
    assert not dead, f"span targets that no class or module defines itself: {dead}"


def test_quotient_ring_divisions_are_traced():
    # a quotient ring is a TableRing, so the span on TableRing.try_divide
    # counts its divisions: one each for is_unit(3) over Z/8 and over F_4
    spans = _load_spans()
    qa = SimpleNamespace(**{module: importlib.import_module(f"quadalg.{module}")
                            for module, _ in spans.TARGETS})
    for alias in ("zmod8", "f4"):
        ring = builtin_ring(alias)
        tracer = spans.Tracer()
        tracer.install(qa)
        try:
            assert ring.is_unit(3)
        finally:
            tracer.uninstall()
        assert tracer.calls["ring.TableRing.try_divide"] == 1, alias
