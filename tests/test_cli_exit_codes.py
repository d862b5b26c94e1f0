"""Property tests: the CLI returns a documented exit code and never raises."""
import contextlib
import io

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from etacm.arith import is_probable_prime  # noqa: E402
from etacm.classpoly import check_integrality_conditions  # noqa: E402
from etacm.cli import EXIT_OK, EXIT_PRECISION, EXIT_PRECONDITION, EXIT_USAGE, dispatch  # noqa: E402
from etacm.qforms import b_candidates  # noqa: E402


SMALL = st.integers(-60, 60)
# flags and values of the cheap subcommands; no --out, so nothing is written
TOKENS = ["roots", "nsystem", "multiplicity", "--modulus", "--coeffs", "--disc",
          "--p1", "--p2", "--b", "--seed", "--precision-max", "-v", "-h",
          "0", "7", "-3", "-56", "x", "", "1 2", "--", "-"]


# the computing subcommands on small inputs, so that each run costs milliseconds:
# |D| <= 400 (h <= 19), pairs of J-degree <= 4 or refused at once, and CM
# primes below about 20000 besides a few fixed values (psi_13 is a strong
# pseudoprime; 1, 0, -43 and 9 are not primes).  Half the pairs, discriminants, B and primes are drawn from the
# admissible ones (a CM prime is the first prime (t^2 - D v^2) / 4 from a
# drawn t), so that many runs compute.
PAIRS = [(3, 5), (3, 7), (3, 13), (5, 7), (5, 13), (13, 3)]
BAD_PAIRS = [(3, 11), (3, 3), (2, 13), (9, 5), (1, 7), (-3, 5), (0, 0)]
ADMISSIBLE = {pair: [D for D in range(-3, -401, -1) if check_integrality_conditions(D, *pair)]
              for pair in PAIRS}
PRECISION_MAX = st.sampled_from([-1, 0, 32, 63, 64, 65, 128, 256, 4096])
FIXED_PRIMES = st.sampled_from([3593, 43, 1009, 3317044064679887385961981, 1, 0, -43, 9])


def cm_prime(D: int, t: int) -> int:
    """The first prime (t'^2 - D v^2) / 4 with t <= t' < t + 100 and v in
    {1, 2}, a prime where D has a CM curve, or 3593 if there is none."""
    return next((n // 4 for t1 in range(t, t + 100) for v in (1, 2)
                 for n in [t1 * t1 - D * v * v] if n % 4 == 0 and is_probable_prime(n // 4)),
                3593)


@st.composite
def computing_argv(draw):
    cmd = draw(st.sampled_from(["classpoly", "cm-curve", "modpoly"]))
    argv = ["--precision-max", str(draw(PRECISION_MAX))] if draw(st.booleans()) else []
    p1, p2 = draw(st.sampled_from(PAIRS) | st.sampled_from(BAD_PAIRS))
    argv += [cmd, "--p1", str(p1), "--p2", str(p2)]
    if cmd == "modpoly":
        return argv + (["--verify-embedded"] if draw(st.booleans()) else [])
    admissible = (p1, p2) in ADMISSIBLE and draw(st.booleans())
    D = draw(st.sampled_from(ADMISSIBLE[p1, p2]) if admissible else st.integers(-400, 4))
    argv += ["--disc", str(D)]
    if cmd == "cm-curve" and admissible and draw(st.booleans()):
        argv += ["--prime", str(cm_prime(D, draw(st.integers(1, 200))))]
    elif cmd == "cm-curve":
        argv += ["--prime", str(draw(FIXED_PRIMES | st.integers(-5, 20000)))]
    if draw(st.booleans()):
        bs = b_candidates(D, p1, p2) if admissible else [0]
        argv += ["--b", str(draw(st.sampled_from(bs) | st.integers(-5, 200)))]
    elif cmd == "classpoly" and draw(st.booleans()):
        argv += ["--all-b"]
    return argv


@st.composite
def admissible_argv(draw):
    """classpoly or cm-curve on an admissible (D, pair, B) with a CM prime."""
    cmd = draw(st.sampled_from(["classpoly", "cm-curve"]))
    p1, p2 = pair = draw(st.sampled_from(PAIRS))
    D = draw(st.sampled_from(ADMISSIBLE[pair]))
    argv = [cmd, "--p1", str(p1), "--p2", str(p2), "--disc", str(D),
            "--b", str(draw(st.sampled_from(b_candidates(D, p1, p2))))]
    if cmd == "cm-curve":
        argv += ["--prime", str(cm_prime(D, draw(st.integers(1, 200))))]
    return argv


@st.composite
def subcommand_argv(draw):
    cmd = draw(st.sampled_from(["roots", "nsystem", "multiplicity"]))
    if cmd == "roots":
        coeffs = " ".join(str(c) for c in draw(st.lists(SMALL, max_size=5)))
        return [cmd, "--modulus", str(draw(SMALL)), "--coeffs", coeffs]
    argv = [cmd, "--disc", str(draw(SMALL)), "--p1", str(draw(SMALL)), "--p2", str(draw(SMALL))]
    if draw(st.booleans()):
        argv += ["--b", str(draw(SMALL))]
    return argv


class TestExitCodes:
    """dispatch returns a documented exit code and never raises."""

    @staticmethod
    def quiet_dispatch(argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return dispatch(argv)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(subcommand_argv())
    def test_small_integer_inputs(self, argv):
        assert self.quiet_dispatch(argv) in (EXIT_OK, EXIT_PRECONDITION, EXIT_PRECISION,
                                             EXIT_USAGE)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.sampled_from(TOKENS), max_size=8))
    def test_malformed_flag_lists(self, argv):
        assert self.quiet_dispatch(argv) in (EXIT_OK, EXIT_PRECONDITION, EXIT_PRECISION,
                                             EXIT_USAGE)

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(computing_argv())
    def test_computing_subcommands(self, argv):
        assert self.quiet_dispatch(argv) in (EXIT_OK, EXIT_PRECONDITION, EXIT_PRECISION,
                                             EXIT_USAGE)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(admissible_argv())
    def test_admissible_inputs_compute(self, argv):
        # a CM prime may still be one that cm-curve refuses (q = 3, say);
        # nothing else may fail
        code = self.quiet_dispatch(argv)
        assert code == EXIT_OK or (code == EXIT_PRECONDITION and argv[0] == "cm-curve")
