"""Every name a module exports in ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import secrelay

MODULES = ["secrelay"] + [
    f"secrelay.{info.name}" for info in pkgutil.iter_modules(secrelay.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), name
    assert [n for n in exported if not hasattr(module, n)] == []
    # the star import reads __all__ and fails on a stale entry
    exec(f"from {name} import *", {})


def test_metric_is_one_class():
    from secrelay import fading, sweep

    assert fading.Metric is sweep.Metric is secrelay.Metric
