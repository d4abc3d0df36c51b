"""Reach probe hook for ``benchmarks/reach.py``.

Python imports ``sitecustomize`` at start-up from the first ``sys.path``
entry that holds one, so putting this directory on ``PYTHONPATH`` covers a
process and every child process it starts.  The hook does nothing unless
``REPRO_REACH_DIR`` is set.  When it is, a profile function records, for
every function defined under ``src/repro``, whether it ran and which of its
defaulted parameters received a value other than the default; the process
writes one JSON file into ``REPRO_REACH_DIR`` at exit.

A function is identified by ``(path under src, first line, qualname)``.  Its
defaults are found from ``co_qualname`` through the module namespace,
unwrapping ``staticmethod``, ``classmethod``, ``property`` and
``__wrapped__`` (so a wrapper patched over a method still resolves to the
method).  Closures, lambdas and comprehensions are skipped: their defaults
cannot be resolved from a qualname.
"""

import dis
import os
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def code_key(code):
    """``[path under src, first line, qualname]`` of a code object."""
    return [os.path.relpath(code.co_filename, SRC), code.co_firstlineno, code.co_qualname]


def unwrapped(obj):
    """``obj`` and every function it wraps."""
    stack, seen = [obj], []
    while stack:
        obj = stack.pop()
        if obj is None or any(obj is other for other in seen):
            continue
        seen.append(obj)
        if isinstance(obj, (staticmethod, classmethod)):
            stack.append(obj.__func__)
        elif isinstance(obj, property):
            stack.extend((obj.fget, obj.fset, obj.fdel))
        stack.append(getattr(obj, "__wrapped__", None))
    return seen


def resolve(code, namespace):
    """The function whose ``__code__`` is ``code``, looked up by qualname
    in its module ``namespace``, or None."""
    parts = code.co_qualname.split(".")
    if any(part.startswith("<") for part in parts):
        return None
    obj = namespace.get(parts[0])
    for part in parts[1:]:
        owner = getattr(obj, "__dict__", {})
        obj = owner.get(part) if isinstance(obj, type) else getattr(obj, part, None)
    for candidate in unwrapped(obj):
        if getattr(candidate, "__code__", None) is code:
            return candidate
    return None


def defaulted_parameters(fn):
    """``[(name, default), ...]`` for every parameter of ``fn`` with a default."""
    code = fn.__code__
    positional = code.co_varnames[: code.co_argcount]
    defaults = fn.__defaults__ or ()
    pairs = list(zip(positional[len(positional) - len(defaults):], defaults))
    pairs += sorted((fn.__kwdefaults__ or {}).items())
    return pairs


def same(value, default):
    """Whether a received argument equals the parameter's default."""
    if value is default:
        return True
    try:
        equal = value == default
    except Exception:
        return False
    return type(equal).__name__ in ("bool", "bool_") and bool(equal)


def _install(out_dir):
    import atexit
    import json
    import sys
    import threading

    src = str(SRC) + os.sep
    skip = object()
    # code -> skip, or [first RESUME offset, key, [(name, default), ...]]
    state = {}
    called, non_default, unresolved = [], [], []

    def watch(code, namespace):
        if not code.co_filename.startswith(src):
            return skip
        key = code_key(code)
        called.append(key)
        if "<" in code.co_qualname:
            return skip
        fn = resolve(code, namespace)
        if fn is None:
            unresolved.append(key)
            return skip
        pending = defaulted_parameters(fn)
        if not pending:
            return skip
        # A generator's frame re-enters at every resume, after its body may
        # have rebound a parameter; only the first entry holds the arguments.
        resume = min(i.offset for i in dis.get_instructions(code) if i.opname == "RESUME")
        return [resume, key, pending]

    def profile(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        entry = state.get(code)
        if entry is None:
            entry = state[code] = watch(code, frame.f_globals)
        if entry is skip or frame.f_lasti > entry[0]:
            return
        received = frame.f_locals
        pending = []
        for name, default in entry[2]:
            if same(received.get(name, default), default):
                pending.append((name, default))
            else:
                non_default.append(entry[1] + [name])
        entry[2] = pending
        if not pending:
            state[code] = skip

    def dump():
        sys.setprofile(None)
        threading.setprofile(None)
        path = Path(out_dir) / f"{os.getpid()}.json"
        record = {"called": called, "non_default": non_default, "unresolved": unresolved}
        path.write_text(json.dumps(record))

    atexit.register(dump)
    threading.setprofile(profile)
    sys.setprofile(profile)


if os.environ.get("REPRO_REACH_DIR"):
    _install(os.environ["REPRO_REACH_DIR"])
