"""The seams that `perfbench/tracing.py` wraps from outside the program.

`python3 perfbench/run.py --trace 1` replaces the functions named in
`tracing.TRACED` by name and reads two arguments by position, so a refactor
that renames or reorders them would silently drop per-layer metrics.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py")
_tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_tracing)
TRACED = _tracing.TRACED


def test_every_traced_function_resolves():
    for layer, names in TRACED.items():
        module = importlib.import_module(f"etacm.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"etacm.{layer}.{name}"


def test_positional_arguments_read_by_the_tracer():
    from etacm.etafunc import w_pow_s_with_err
    from etacm.ffield import roots_mod_l

    assert list(inspect.signature(w_pow_s_with_err).parameters)[3] == "prec"
    assert list(inspect.signature(roots_mod_l).parameters)[0] == "f"
