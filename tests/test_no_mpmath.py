"""etacm runs without mpmath: no module under src/etacm imports it, and a
fresh interpreter whose import system refuses it runs the worked example
and the public point functions with the usual output, having loaded none of
mpmath, dataclasses and inspect (start-up cost that etacm does not need)."""

import ast
import subprocess
import sys
from pathlib import Path

import etacm
from etacm.apcomplex import UpperHalfPoint
from etacm.etafunc import eta, j_invariant

SRC = Path(etacm.__file__).resolve().parent

WORKED = ["cm-curve", "--disc", "-56", "--p1", "3", "--p2", "13", "--prime", "3593",
          "--b", "10"]
REPRODUCED = "".join(f"PASS {name}\n" for name in (
    "class-polynomial-coefficients", "class-polynomial-roots-mod-3593",
    "four-perfect-square-quadratics", "discriminant-divisible-by-class-polynomial",
    "curve-order-membership"))

SCRIPT = """
import contextlib, io, sys

class RefuseMpmath:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "mpmath":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None

sys.meta_path.insert(0, RefuseMpmath())
sys.path.insert(0, SRC)
from etacm import UpperHalfPoint, eta, j_invariant
from etacm.cli import dispatch

for argv in ARGVS:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = dispatch(argv)
    print(repr((code, out.getvalue())))
z = UpperHalfPoint.from_form(1, 10, -56, 128)
print(repr((eta(z, 128), eta(z, 128).triple, j_invariant(z, 128).triple)))
print(sorted({"mpmath", "dataclasses", "inspect"} & set(sys.modules)))
"""


def test_no_module_imports_mpmath():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert all(name.partition(".")[0] != "mpmath" for name in names), path.name


def test_runs_with_mpmath_refused():
    script = (SCRIPT.replace("SRC", repr(str(SRC.parent)))
              .replace("ARGVS", repr([WORKED, ["reproduce-example"]])))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    z = UpperHalfPoint.from_form(1, 10, -56, 128)
    assert run.stdout.splitlines() == [
        repr((0, "3593 1337 2089 3600 6 shortcut=yes\n")),
        repr((0, REPRODUCED)),
        repr((eta(z, 128), eta(z, 128).triple, j_invariant(z, 128).triple)),
        "[]",
    ]
