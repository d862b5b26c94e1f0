"""Property tests: the CLI returns a documented exit code and never raises."""
import contextlib
import io

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from etacm.cli import EXIT_OK, EXIT_PRECISION, EXIT_PRECONDITION, EXIT_USAGE, dispatch  # noqa: E402


SMALL = st.integers(-60, 60)
# flags and values of the cheap subcommands; no --out, so nothing is written
TOKENS = ["roots", "nsystem", "multiplicity", "--modulus", "--coeffs", "--disc",
          "--p1", "--p2", "--b", "--seed", "--precision-max", "-v", "-h",
          "0", "7", "-3", "-56", "x", "", "1 2", "--", "-"]


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
