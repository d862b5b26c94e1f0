"""Golden outputs: H, Phi, the worked example's cm-curve, multiplicity and
reproduce-example output, cm-curve lines on both CM paths, the order
certificates behind them, and x^q mod H and the roots of H mod q at a 255-bit
q are pinned, so that a change meant to keep every output cannot change one
unseen.

The hashes are the 16-hex SHA-256 prefixes that `tools/time_modpoly.py`
(of `serialize(phi)`), `tools/time_classpoly.py` (of `repr(H.coeffs)`) and
`tools/time_roots.py` (of `repr` of the coefficient tuple of x^q mod H)
print; a change that alters an output on purpose regenerates them with those
tools, and the CLI lines by running the same arguments.
"""

import contextlib
import hashlib
import io

import pytest

from etacm.classpoly import compute_class_polynomial
from etacm.cli import dispatch
from etacm.ffield import FpPolynomial, _pow_mod, roots_mod_l
from etacm.modpoly import serialize
from etacm.pipeline import construct_cm_curve
from etacm.qforms import b_candidates


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = dispatch(argv)
    return code, out.getvalue()


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
    assert run_cli(["--seed", str(seed), "cm-curve", "--disc", "-56", "--p1", "3",
                    "--p2", "13", "--prime", "3593", "--b", str(b)]) == (0, line + "\n")


def test_worked_multiplicity():
    assert run_cli(["multiplicity", "--disc", "-56", "--p1", "3", "--p2", "13"]) == (
        0, "B=10 MULTIPLE u=10 v=1\nB=16 SIMPLE\nB=62 SIMPLE\nB=68 MULTIPLE u=-10 v=1\n")


def test_reproduce_example():
    assert run_cli(["reproduce-example"]) == (0, "".join(
        f"PASS {name}\n" for name in (
            "class-polynomial-coefficients", "class-polynomial-roots-mod-3593",
            "four-perfect-square-quadratics", "discriminant-divisible-by-class-polynomial",
            "curve-order-membership")))


# N = 39, certificate seed 0: three witnessed D through the multiple-root
# shortcut (128-247-bit q), and three D without a witness, where cm-curve
# picks B, through point counting (21-48-bit q)
@pytest.mark.parametrize("D, q, B, line", [
    (-23, 172393879683465410441577777363007074811, 35,
     "6653159313502292100473769531125079936 4435439542334861400315846354083386624 "
     "172393879683465410419275429868125786424 22302347494881288388 shortcut=yes"),
    (-131, 2931441168763077782425916721326357540578583101139019158306311, 5,
     "1774478656717364020641633590157302318207933428683706043667427 "
     "2160132827399268607903061300546987392331483319502143748547055 "
     "2931441168763077782425916721325440613623082665208193641015699 "
     "916926955500435930825517290613 shortcut=yes"),
    (-156, 114895811409235922874586334582966967655234090096450506652900218987767203951, 0,
     "39873278889038824206878672849549045883428304805882171723942751589421009265 "
     "103179393532183164720976671621677342359108263268221785584561980384792142144 "
     "114895811409235922874586334582966967635799073448049673890219312479741101672 "
     "19435016648400832762680906508026102280 shortcut=yes"),
    (-204, 1080907, None, "402193 628431 1079020 1888 shortcut=no"),
    (-620, 4138928021, None, "1065607447 2800452603 4138950780 22758 shortcut=no"),
    (-779, 279039035670103, None,
     "26891574581200 110940728277501 279039003618163 32051941 shortcut=no"),
], ids=["D=-23", "D=-131", "D=-156", "D=-204", "D=-620", "D=-779"])
def test_cm_curve_lines(D, q, B, line):
    argv = ["cm-curve", "--disc", str(D), "--p1", "3", "--p2", "13", "--prime", str(q)]
    argv += [] if B is None else ["--b", str(B)]
    assert run_cli(argv) == (0, f"{q} {line}\n")


Q23 = 172393879683465410441577777363007074811
Q131 = 2931441168763077782425916721326357540578583101139019158306311
Q156 = 114895811409235922874586334582966967655234090096450506652900218987767203951


# (a4, a6, order, trace, checks, ambiguous, alt_order, used_shortcut) of
# construct_cm_curve: the worked example, the six N = 39 jobs above, a job
# that the quadratic twist settles (40 points drawn), and two counted ones
@pytest.mark.parametrize("D, p1, p2, q, B, seed, want", [
    *[(-56, 3, 13, 3593, 10, s, (1337, 2089, 3600, 6, 17, False, None, True)) for s in range(4)],
    *[(-56, 3, 13, 3593, 16, s, (3055, 2517, 3600, 6, 17, False, None, False)) for s in range(4)],
    (-23, 3, 13, Q23, 35, 0,
     (6653159313502292100473769531125079936, 4435439542334861400315846354083386624,
      172393879683465410419275429868125786424, 22302347494881288388, 2, False, None, True)),
    (-131, 3, 13, Q131, 5, 0,
     (1774478656717364020641633590157302318207933428683706043667427,
      2160132827399268607903061300546987392331483319502143748547055,
      2931441168763077782425916721325440613623082665208193641015699,
      916926955500435930825517290613, 1, False, None, True)),
    (-156, 3, 13, Q156, 0, 0,
     (39873278889038824206878672849549045883428304805882171723942751589421009265,
      103179393532183164720976671621677342359108263268221785584561980384792142144,
      114895811409235922874586334582966967635799073448049673890219312479741101672,
      19435016648400832762680906508026102280, 1, False, None, True)),
    (-204, 3, 13, 1080907, None, 0, (402193, 628431, 1079020, 1888, 8, False, None, False)),
    (-620, 3, 13, 4138928021, None, 0,
     (1065607447, 2800452603, 4138950780, 22758, 5, False, None, False)),
    (-779, 3, 13, 279039035670103, None, 0,
     (26891574581200, 110940728277501, 279039003618163, 32051941, 3, False, None, False)),
    (-368, 3, 13, 1553, None, 53, (793, 11, 1536, 18, 40, False, None, False)),
    (-4, 5, 13, 29, None, 0, (1, 0, 20, 10, 20, False, None, True)),
    (-3, 3, 13, 7, None, 0, (0, 3, 13, 5, 20, False, None, True)),
])
def test_certificates(D, p1, p2, q, B, seed, want):
    curve, cert, shortcut = construct_cm_curve(D, p1, p2, q, B, seed=seed)
    assert cert.curve == curve
    assert (curve.a4.value, curve.a6.value, cert.order, cert.trace, cert.checks,
            cert.ambiguous, cert.alt_order, shortcut) == want


# H mod q = 2^255 - 19 at the first B: x^q mod H through the exponentiation
# that root finding runs, and the roots with their multiplicities (none for
# the worked example at this q)
@pytest.mark.parametrize("D, p1, p2, xq, roots", [
    (-56, 3, 13, "ceb9d4675b18b503", []),
    (-356, 3, 5, "8c61223a300213b2", [
        (20968390033420292723282559316107636608720972457219807495922375049806218815710, 1),
        (44673698727418234634586863259958600423726053822429290424926138531371376254461, 1)]),
], ids=["D=-56", "D=-356"])
def test_roots_mod_q(D, p1, p2, xq, roots):
    q = 2**255 - 19
    H = compute_class_polynomial(D, p1, p2, b_candidates(D, p1, p2)[0])
    hq = FpPolynomial.make(H.coeffs, q)
    assert digest(repr(tuple(_pow_mod([0, 1], q, list(hq.coeffs), q))).encode()) == xq
    assert sorted(roots_mod_l(hq).items()) == roots
