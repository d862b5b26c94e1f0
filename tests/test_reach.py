"""The library holds what its CLI runs, and a named few more.

`cli.dispatch` runs in-process under `sys.setprofile` over ARGVS: every
subcommand, the exit codes 0, 2, 3 and 64, both CM paths (the multiple-root
shortcut and point counting, with the twists of j = 0 and 1728 and a
certificate that the quadratic twist settles), a `roots` call of degree 40,
above `ffield.NEWTON_DEGREE`, and one at a 127-bit modulus, where primality
takes the strong Lucas test.  Every function defined under src/etacm must be
entered by them, or be named in KEEP with the reason it stays.  A function
that nothing runs fails the test: delete it, or name it in KEEP.
"""

import ast
import contextlib
import io
import sys
from pathlib import Path

import etacm
from etacm import etafunc
from etacm.cli import EXIT_OK, EXIT_PRECISION, EXIT_PRECONDITION, EXIT_USAGE, dispatch

SRC = Path(etacm.__file__).resolve().parent

_DEGREE_40 = " ".join(str(i * 7919 % 101 or 1) for i in range(41))

ARGVS = [
    (["classpoly", "--disc", "-56", "--p1", "3", "--p2", "13", "--all-b"], EXIT_OK),
    (["classpoly", "--disc", "-8", "--p1", "3", "--p2", "13"], EXIT_PRECONDITION),
    (["--precision-max", "64", "classpoly", "--disc", "-35759", "--p1", "3", "--p2", "5"],
     EXIT_PRECISION),
    (["modpoly", "--p1", "3", "--p2", "5"], EXIT_OK),
    (["modpoly", "--verify-embedded"], EXIT_OK),
    (["nsystem", "--disc", "-56", "--p1", "3", "--p2", "13"], EXIT_OK),
    (["multiplicity", "--disc", "-56", "--p1", "3", "--p2", "13"], EXIT_OK),
    (["cm-curve", "--disc", "-56", "--p1", "3", "--p2", "13", "--prime", "3593", "--b", "16"],
     EXIT_OK),
    (["cm-curve", "--disc", "-3", "--p1", "3", "--p2", "13", "--prime", "7"], EXIT_OK),
    (["cm-curve", "--disc", "-4", "--p1", "5", "--p2", "13", "--prime", "29"], EXIT_OK),
    (["cm-curve", "--disc", "-368", "--p1", "3", "--p2", "13", "--prime", "1553",
      "--seed", "53"], EXIT_OK),
    (["cm-curve", "--disc", "-779", "--p1", "3", "--p2", "13", "--prime", "279039035670103"],
     EXIT_OK),
    (["roots", "--modulus", "3593", "--coeffs", "1 -2 -1 2 -1"], EXIT_OK),
    (["roots", "--modulus", "101", "--coeffs", _DEGREE_40], EXIT_OK),
    (["roots", "--modulus", str(2**127 - 1), "--coeffs", "1 0 -4"], EXIT_OK),
    (["reproduce-example"], EXIT_OK),
    (["bogus"], EXIT_USAGE),
]

_ACCEPTANCE = "states a claim of the paper in tests/test_acceptance.py"
_BOUNDARY = ("a method of the point and value types that the acceptance suite passes to "
             "and gets from the public point functions")
_POINT_FUNCTIONS = ("runs only under the public point functions eta, j_invariant, "
                    "double_eta_quotient and w_pow_s")
_TRACED = "perfbench/tracing.py wraps it and tests/test_trace_seams.py pins it"
_FROM_FORM = ("rounds to nearest for UpperHalfPoint.from_form, whose points tools/same_outputs.py "
              "and the suites evaluate at")

KEEP = {
    "apcomplex.ApComplex.to_complex": _BOUNDARY,
    "apcomplex.ApComplex.__repr__": _BOUNDARY,
    "apcomplex.UpperHalfPoint.__new__": _BOUNDARY,
    "apcomplex.UpperHalfPoint.from_form": _BOUNDARY,
    "apcomplex.UpperHalfPoint.prec": _BOUNDARY,
    "apcomplex.UpperHalfPoint.to_complex": _BOUNDARY,
    "apcomplex._to_float": "converts a part for ApComplex.to_complex, " + _BOUNDARY,
    "apcomplex._nearest": _FROM_FORM,
    "apcomplex._div_nearest": _FROM_FORM,
    "apcomplex._sqrt_nearest": _FROM_FORM,
    "apcomplex.check_prec": _POINT_FUNCTIONS,
    "apcomplex.add": _POINT_FUNCTIONS,
    "etafunc._form_of": _POINT_FUNCTIONS,
    "etafunc._j_bits": _POINT_FUNCTIONS,
    "etafunc.j_invariant_with_err": _POINT_FUNCTIONS,
    "etafunc._to_target": _POINT_FUNCTIONS,
    "etafunc._to_target.attempt": _POINT_FUNCTIONS,
    "etafunc.eta": _ACCEPTANCE,
    "etafunc.eta.evaluate": _ACCEPTANCE,
    "etafunc.double_eta_quotient": _ACCEPTANCE,
    "etafunc.double_eta_quotient.evaluate": _ACCEPTANCE,
    "etafunc.w_pow_s": _ACCEPTANCE,
    "etafunc.w_pow_s_with_err": _TRACED,
    "etafunc.j_invariant": _TRACED,
    "classpoly.ClassPolynomial.degree": _ACCEPTANCE,
    "classpoly.involution_transform": _ACCEPTANCE,
    "ffield.has_multiple_root": _ACCEPTANCE,
    "qforms.class_number": _ACCEPTANCE,
    "cli.main": "the console entry point; it only calls dispatch",
}


def defined_functions() -> dict[tuple[str, int], str]:
    """{(file, first line): dotted name} of every def under src/etacm, nested
    ones included; the first line is that of the first decorator, as in the
    function's code object."""
    out = {}

    def walk(node, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(path, line)] = name
                walk(child, path, name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), str(path), path.stem + ".")
    return out


def entered_by_the_cli() -> set[tuple[str, int]]:
    """(file, first line) of every function entered while ARGVS run, with
    every etacm cache emptied first, so that a cached result hides no call:
    the functools caches, and the kernels' memos of pi, ln 2 and the cos/sin
    table, which other tests may have filled."""
    for name, module in list(sys.modules.items()):
        if name == "etacm" or name.startswith("etacm."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
    etafunc._CONSTANTS.clear()
    etafunc._COS_SIN_TABLE.clear()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    codes = []
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        sys.setprofile(profile)
        try:
            for argv, _ in ARGVS:
                codes.append(dispatch(argv))
        finally:
            sys.setprofile(None)
    assert codes == [code for _, code in ARGVS]
    return {(str(Path(file).resolve()), line) for file, line in entered}


def test_every_function_is_run_by_the_cli_or_kept():
    functions = defined_functions()
    assert set(KEEP) <= set(functions.values()), "KEEP names a function that is gone"
    entered = entered_by_the_cli()
    missed = {name for key, name in functions.items() if key not in entered}
    assert missed - set(KEEP) == set(), "nothing runs these: delete them or name them in KEEP"
    assert set(KEEP) - missed == set(), "the CLI runs these now: take them out of KEEP"
