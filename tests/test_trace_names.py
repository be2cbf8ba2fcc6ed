"""The names the benchmark tracer wraps exist, and uninstalling restores them.

``perfbench/spans.py`` times the layers of a session by rebinding methods
(``METHOD_SPANS``) and module-level functions (``FUNCTION_SPANS``) of
``repro`` by name.  A simplification that deletes or renames one of them
breaks ``perfbench/run.py --trace 1``; this test catches that in tier-1 by
installing and uninstalling the tracer, loaded from the file as it is.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(spans):
    """Every (owner, attribute) the tracer rebinds, with its current value:
    methods as found in their class's own dict, functions at every
    ``repro`` module that holds them by name."""
    bound = {}
    for owner_path, attr, _ in spans.METHOD_SPANS:
        module_name, cls_name = owner_path.split(":")
        cls = getattr(importlib.import_module(module_name), cls_name)
        bound[(cls, attr)] = cls.__dict__[attr]
    for module_name, attr, _ in spans.FUNCTION_SPANS:
        original = getattr(importlib.import_module(module_name), attr)
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "") or "").startswith("repro") and \
                    getattr(module, attr, None) is original:
                bound[(module, attr)] = original
    return bound


def test_tracer_installs_and_uninstall_restores_every_original():
    from repro.hardware.measure import LocalBuilder, LocalRunner

    spans = _load_spans()
    originals = _bindings(spans)
    run, build_dispatch = LocalRunner.run, LocalBuilder.build_one_dispatch
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert LocalRunner.run is not run
        assert LocalBuilder.build_one_dispatch is not build_dispatch
        for (owner, attr), original in originals.items():
            current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            assert current is not original, f"{owner.__name__}.{attr} was not wrapped"
    finally:
        tracer.uninstall()
    assert LocalRunner.run is run
    assert LocalBuilder.build_one_dispatch is build_dispatch
    assert _bindings(spans) == originals
