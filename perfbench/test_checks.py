"""The benchmark's output checks accept etacm's outputs and reject corrupted ones.

    python3 -m pytest perfbench/test_checks.py
"""

import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import etacm  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402


def rng():
    return random.Random(7)


@pytest.fixture(scope="module")
def classpoly_case():
    job = inputs.ClassPolyJob(-932, 3, 13, 2, inputs.class_number(-932))
    return job, etacm.compute_class_polynomial(job.D, job.p1, job.p2, job.B).coeffs


@pytest.fixture(scope="module")
def cm_case():
    D, B = -56, 10
    q, t, _ = inputs.split_prime(D, *inputs.bits_range(128), random.Random(3))
    job = inputs.CMJob(D, q, t, B, inputs.class_number(D))
    curve, cert, shortcut = etacm.construct_cm_curve(D, 3, 13, q, B=B)
    out = (curve.a4.value, curve.a6.value, cert.order, shortcut)
    return job, out, checks.hilbert_class_polynomial(D)


def test_classpoly_accepts_and_rejects_off_by_one(classpoly_case):
    job, coeffs = classpoly_case
    checks.check_classpoly(job, coeffs, rng())
    bad = list(coeffs)
    bad[job.h // 2] += 1
    with pytest.raises(checks.CheckFailed, match="split"):
        checks.check_classpoly(job, tuple(bad), rng())


def test_worked_example_is_pinned():
    job = inputs.ClassPolyJob(*inputs.WORKED, 4)
    checks.check_classpoly(job, (-1, 2, -1, -2, 1), rng())
    with pytest.raises(checks.CheckFailed):
        checks.check_classpoly(job, (-1, 2, -1, -1, 1), rng())


@pytest.mark.parametrize("where", [(0, 0), (28, 1), (55, 0)])
def test_modpoly_rejects_off_by_one(where):
    phi = etacm.load_embedded(3, 13)
    table = [list(row) for row in phi.coeffs]
    checks.check_modpoly(3, 13, table, rng())
    kx, kj = where
    table[kx][kj] += 1
    with pytest.raises(checks.CheckFailed, match="Phi"):
        checks.check_modpoly(3, 13, table, rng())


def test_cm_accepts_the_curve(cm_case):
    job, out, hilbert = cm_case
    checks.check_cm(job, *out, hilbert, rng())


def test_cm_rejects_changed_a6(cm_case):
    job, (a4, a6, order, shortcut), hilbert = cm_case
    with pytest.raises(checks.CheckFailed):
        checks.check_cm(job, a4, (a6 + 1) % job.q, order, shortcut, hilbert, rng())


def test_cm_rejects_order_without_trace(cm_case):
    job, (a4, a6, _, shortcut), hilbert = cm_case
    with pytest.raises(checks.CheckFailed, match="order"):
        checks.check_cm(job, a4, a6, job.q + 1, shortcut, hilbert, rng())


def test_cm_rejects_wrong_shortcut_flag(cm_case):
    job, (a4, a6, order, _), hilbert = cm_case
    with pytest.raises(checks.CheckFailed, match="used_shortcut"):
        checks.check_cm(job, a4, a6, order, False, hilbert, rng())


def test_count_jobs_have_no_witness_and_stay_in_the_window():
    jobs, _ = inputs.count_jobs(11)
    for job in jobs:
        assert not any(inputs.witness(job.D, 39, B) for B in inputs.b_roots(job.D, 39))
        assert not inputs.hasse_fault(job.q, job.t)

