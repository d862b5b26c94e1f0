"""Golden outputs: H, Phi and the worked cm-curve line are pinned, so that a
change meant to keep every output cannot change one unseen.

The hashes are the 16-hex SHA-256 prefixes that `tools/time_modpoly.py`
(of `serialize(phi)`) and `tools/time_classpoly.py` (of `repr(H.coeffs)`)
print; a change that alters an output on purpose regenerates them with those
tools.
"""

import contextlib
import hashlib
import io

import pytest

from etacm.classpoly import compute_class_polynomial
from etacm.cli import dispatch
from etacm.modpoly import serialize
from etacm.qforms import b_candidates


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.mark.parametrize("p1, p2, want", [
    (3, 5, "06d3d0cd4c1e9aaf"),
    (3, 7, "234d7ee8187b2a1a"),
    (5, 7, "5e7bfaaa0e21d793"),
    (5, 13, "3b255a003b72fb5f"),
    (13, 3, "b8be6e3c37dd2410"),
])
def test_modular_polynomials(phi_pool, p1, p2, want):
    assert digest(serialize(phi_pool(p1, p2))) == want


def test_computed_phi_3_13(phi313_computed):
    # computed, not read from the embedded resource
    assert digest(serialize(phi313_computed)) == "1b43d2ab75d8c609"


@pytest.mark.parametrize("D, p1, p2, B, want", [
    (-56, 3, 13, 10, "0b8edca213558da9"),
    (-55067, 3, 7, None, "90a0bf15e3cae7cc"),  # h = 90, at its first B
    (-35759, 3, 5, None, "c0b928fb339a5eaf"),  # h = 259, at its first B
])
def test_class_polynomials(D, p1, p2, B, want):
    B = b_candidates(D, p1, p2)[0] if B is None else B
    H = compute_class_polynomial(D, p1, p2, B)
    assert digest(repr(H.coeffs).encode()) == want


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("b, line", [(10, "3593 1337 2089 3600 6 shortcut=yes"),
                                     (16, "3593 3055 2517 3600 6 shortcut=no")],
                         ids=["B=10", "B=16"])
def test_worked_cm_curve(seed, b, line):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = dispatch(["--seed", str(seed), "cm-curve", "--disc", "-56", "--p1", "3",
                         "--p2", "13", "--prime", "3593", "--b", str(b)])
    assert (code, out.getvalue()) == (0, line + "\n")
