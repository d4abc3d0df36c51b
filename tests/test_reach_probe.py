"""The reach probe (``benchmarks/reach.py`` and its hook in
``benchmarks/reach_hook/``), loaded by path: the function lookup the hook
records defaults through, and the Makefile recipes the probe runs."""

import functools
import importlib.util
import sys
from pathlib import Path

import numpy as np

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reach = _load("benchmarks_reach", BENCHMARKS / "reach.py")
hook = reach.hook


def _traced(fn):
    """A stand-in for the perfbench tracer's wrappers."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return fn(*args, **kwargs)

    return wrapper


class Owner:
    @staticmethod
    def static(a, b=1):
        return a + b

    @property
    def value(self):
        return 1

    def method(self, x, *, scale=2.0):
        def closure(y=3):
            return y

        return x * scale, closure


_METHOD = Owner.__dict__["method"]
Owner.method = _traced(_METHOD)


def test_resolves_through_staticmethod_property_and_wrappers():
    namespace = {"Owner": Owner}
    for fn in (Owner.__dict__["static"].__func__, Owner.__dict__["value"].fget, _METHOD):
        assert hook.resolve(fn.__code__, namespace) is fn


def test_closures_are_skipped():
    closure = Owner().method(1.0)[1]
    assert hook.resolve(closure.__code__, {"Owner": Owner}) is None


def test_defaulted_parameters_cover_positional_and_keyword_only():
    def fn(a, b=2, *args, c=3, d, **kwargs):
        return a

    assert hook.defaulted_parameters(fn) == [("b", 2), ("c", 3)]


def test_same_compares_values_not_types():
    assert hook.same(1, 1.0) and hook.same(np.float64(0.5), 0.5)
    assert not hook.same("reconstruction", "free_energy")
    assert not hook.same(np.zeros(3), None)


def test_hook_is_inert_without_its_variable():
    assert sys.getprofile() is None


def test_recipes_come_from_the_makefile(tmp_path):
    recipe = reach.make_recipe("serve-smoke", tmp_path)
    assert recipe and all(argv[0] == sys.executable for argv in recipe)
    paths = [arg for argv in recipe for arg in argv if "repro-serve-smoke" in arg]
    assert paths and all(path.startswith(f"{tmp_path}/") for path in paths)
