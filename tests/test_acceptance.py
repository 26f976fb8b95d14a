"""Acceptance suite: every ``dfplattice verify`` check, once, at its stated tolerance.

``test_invariant`` runs each ``verification.SUITES`` check exactly once per
session through the ``checked`` cache.  The ten exit criteria read their
checks' results from that cache, print one PASS/FAIL line each, and assert
both the tolerance and the stated runtime ceiling.
"""

import functools

import numpy as np
import pytest
from scipy.special import iv as sp_iv

from dfplattice import verification as V
from dfplattice.specfun import bessel_i_scaled

CHECKS = {check.name: check for suite in V.SUITES.values() for check in suite}


@pytest.fixture(scope="session")
def checked():
    """``checked(name)`` runs the named check on first use and returns its cached result."""
    return functools.cache(lambda name: CHECKS[name].run())


@pytest.mark.parametrize("name", list(CHECKS))
def test_invariant(checked, name):
    r = checked(name)
    assert r.passed, f"{name}: achieved {r.achieved} {r.direction} {r.tolerance}"


def _report(checked, criterion: str, names, budget_s: float):
    results = [checked(name) for name in names]
    total = sum(r.seconds for r in results)
    ok = all(r.passed for r in results) and total < budget_s
    detail = "; ".join(
        f"{r.name}: {r.achieved:.3g} {r.direction} {r.tolerance:g}" for r in results
    )
    print(f"{'PASS' if ok else 'FAIL'} {criterion} [{total:.2f}s < {budget_s:g}s] {detail}")
    for r in results:
        if r.direction == "<=":
            assert r.achieved <= r.tolerance, f"{criterion}: {r.name} achieved {r.achieved}"
        else:
            assert r.achieved >= r.tolerance, f"{criterion}: {r.name} achieved {r.achieved}"
    assert total < budget_s, f"{criterion}: runtime {total:.2f}s over budget {budget_s}s"


def test_criterion_01_square_condition(checked):
    # z(xi)^2 = d(xi)^2 on (n,N,h) in {(1,64,1), (2,32,0.5), (3,16,1), (1,32,1), (2,8,0.5)}
    # x alpha in {1e-8, 1/4, 1/2}, max deviation <= 1e-12, under 1 s
    _report(checked, "criterion-01 square-condition", ["operators-square-condition"], 1.0)


def test_criterion_02_parseval_and_convolution(checked):
    names = ["spectral-parseval", "spectral-convolution-theorem"]
    _report(checked, "criterion-02 parseval+convolution", names, 1.0)


def test_criterion_03_heat_kernel_dual_route(checked):
    names = ["solver-heat-kernel-dual-route", "solver-heat-kernel-normalization"]
    _report(checked, "criterion-03 heat-kernel-dual-route", names, 1.0)


def test_criterion_04_dfp_vs_ode_oracle(checked):
    names = ["solver-dfp-vs-ode-oracle", "solver-ode-oracle-order"]
    _report(checked, "criterion-04 dfp-vs-ode-oracle", names, 30.0)


def test_criterion_05_klein_gordon_residual(checked):
    names = ["solver-kg-residual", "solver-kg-residual-order"]
    _report(checked, "criterion-05 klein-gordon-residual", names, 10.0)


def test_criterion_06_levy_subordination(checked):
    names = [
        "solver-subordination-sitewise",
        "solver-subordination-modewise",
        "specfun-levy-laplace-identity",
    ]
    _report(checked, "criterion-06 levy-subordination", names, 60.0)


def test_criterion_07_wright_machinery(checked):
    names = [
        "specfun-wright-trig-identities",
        "specfun-mittag-leffler",
        "specfun-legendre-duplication",
        "specfun-kilbas-classifier",
    ]
    _report(checked, "criterion-07 wright-machinery", names, 1.0)


def test_criterion_08_hartman_watson_laplace(checked):
    _report(checked, "criterion-08 hartman-watson-laplace", ["specfun-hartman-watson-laplace"], 30.0)
    # the check's targets I_k(r) = bessel_i_scaled(k, r) e^r, pinned against scipy
    for k, r in V.HARTMAN_WATSON_POINTS:
        target = float(sp_iv(k, r))
        assert abs(bessel_i_scaled(k, r) * np.exp(r) - target) <= 1e-13 * target


def test_criterion_09_mellin_identity_and_barnes(checked):
    names = ["solver-mellin-fg-identity", "solver-mellin-barnes-reconstruction"]
    _report(checked, "criterion-09 mellin-psi11-identity", names, 60.0)


def test_criterion_10_self_adjointness_and_normalization(checked):
    names = ["operators-self-adjointness", "solver-dfp-normalization-preservation"]
    _report(checked, "criterion-10 self-adjointness+normalization", names, 1.0)
