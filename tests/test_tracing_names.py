"""perfbench/tracing.py times sylpipe's layers by replacing the functions and
methods it names in _PATCHES. A name that sylpipe no longer defines makes a
traced benchmark run (`python3 perfbench/run.py --trace 1`) fail, so every
name it replaces must still be defined where it looks.
"""

import os
import types

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def load_tracing():
    """perfbench/tracing.py as a module, run from its source without writing
    a bytecode cache next to it."""
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = TRACING
    with open(TRACING, encoding="utf-8") as fh:
        exec(compile(fh.read(), TRACING, "exec"), module.__dict__)
    return module


def test_every_traced_name_is_defined():
    patches = load_tracing()._PATCHES
    assert patches
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in patches
               if attr not in owner.__dict__]
    assert not missing, missing
