"""The benchmark's tracer resolves and restores every function it wraps.

perfbench/spans.py looks each traced name up with getattr when a traced
run starts, so a renamed or deleted function would break every traced
benchmark run without failing any other test.
"""

import importlib
import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans")


def test_every_traced_name_resolves(spans):
    names = spans.function_names()
    targets = [(importlib.import_module(f"portinf.{name.split('.')[0]}"), name.split(".")[1])
               for name in names]
    originals = [getattr(module, fn, None) for module, fn in targets]
    missing = [name for name, fn in zip(names, originals) if not callable(fn)]
    assert not missing, f"traced names not found in portinf: {missing}"
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (module, fn), original in zip(targets, originals):
            assert getattr(module, fn).__wrapped__ is original
    finally:
        tracer.uninstall()
    for (module, fn), original in zip(targets, originals):
        assert getattr(module, fn) is original
