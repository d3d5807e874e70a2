"""The direct L-BFGS-B driver against ``scipy.optimize.minimize``.

``repro.optimize.lbfgsb`` calls scipy's private compiled routine, so these
tests are the guard against scipy changing it: on the installed scipy the
driver must reproduce ``minimize(method="L-BFGS-B")`` bit for bit, except
for the loss it reports after an abnormal stop, which is ``fun(x)``.
"""

import numpy as np
import pytest
import scipy.optimize as sopt
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines.greedyh import GreedyH
from repro.domain import Domain
from repro.linalg import Prefix
from repro.optimize import opt_0, opt_marginals, pidentity_loss_and_grad
from repro.optimize.lbfgsb import minimize_lbfgsb
from repro.optimize.opt0 import _opt0_restart
from repro.optimize.opt_general import opt_general
from repro.workload import k_way_marginals


def _prefix_gram(m: int) -> np.ndarray:
    P = np.tril(np.ones((m, m)))
    return P.T @ P


def _problem(kind: str, n: int, seed: int):
    """``(fun, x0)`` for one of four objective families on R^n."""
    rng = np.random.default_rng(seed)
    if kind == "pidentity":
        # OPT_0's objective on a prefix Gram, Θ of shape (p, n / p).
        p = 2 if n % 2 == 0 else 1
        V = _prefix_gram(n // p)

        def fun(x):
            loss, grad = pidentity_loss_and_grad(x.reshape(p, -1), V)
            return loss, grad.ravel()

        return fun, 0.25 * rng.random(n)

    A = rng.normal(size=(n + 2, n))
    b = 5.0 * rng.normal(size=n + 2)
    E = 0.3 * rng.normal(size=(n, n))

    def fun(x):
        if kind == "capped" and np.abs(x).max() > 2.0:
            return np.inf, np.zeros(n)  # far probes are infeasible
        r = A @ x - b
        g = A.T @ r + x**3
        if kind == "inexact":
            g = g + E @ g  # a wrong gradient: most runs end ABNORMAL
        return float(0.5 * r @ r + 0.25 * np.sum(x**4)), g

    return fun, rng.normal(size=n)


def _bounds(bound: str, n: int):
    """The driver's ``lower`` and the matching ``minimize`` bounds."""
    if bound == "zero":  # OPT_0, OPT_general
        return 0.0, sopt.Bounds(0.0, np.inf)
    if bound == "per_coordinate":  # OPT_M's floor on the last weight
        lower = np.where(np.arange(n) % 3 == 1, -np.inf, 0.0)
        lower[-1] = 1e-4
        return lower, [(None if np.isinf(l) else l, None) for l in lower]
    return None, None  # GreedyH


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["quartic", "capped", "inexact", "pidentity"]),
    bound=st.sampled_from(["zero", "per_coordinate", "none"]),
    n=st.integers(1, 24),
    seed=st.integers(0, 2**16),
    maxiter=st.sampled_from([1, 5, 500]),
)
@example(kind="pidentity", bound="zero", n=20, seed=2938, maxiter=500)
def test_matches_scipy_minimize(kind, bound, n, seed, maxiter):
    objective, x0 = _problem(kind, n, seed)
    lower, bounds = _bounds(bound, n)
    calls = [0]

    def fun(x):
        calls[0] += 1
        return objective(x)

    res = sopt.minimize(
        fun, x0, jac=True, method="L-BFGS-B", bounds=bounds,
        options={"maxiter": maxiter},
    )
    scipy_calls, calls[0] = calls[0], 0
    x, f = minimize_lbfgsb(fun, x0, lower=lower, maxiter=maxiter)
    assert x.tobytes() == res.x.tobytes()
    abnormal = res.status == 2
    # One more evaluation after an abnormal stop, at the returned point.
    assert calls[0] == scipy_calls + abnormal
    if abnormal:  # scipy may report the loss of a rejected probe
        assert f == objective(x)[0]
    else:
        assert f == res.fun


def test_abnormal_stop_reports_the_loss_of_the_returned_point():
    # OPT_0 on a 10-point prefix Gram, p = 2: the line search fails, and
    # scipy reports the loss of the rejected probe, below the true one.
    V = _prefix_gram(10)
    theta0 = 0.25 * np.random.default_rng(2938).random((2, 10))

    def fun(x):
        loss, grad = pidentity_loss_and_grad(x.reshape(2, 10), V)
        return loss, grad.ravel()

    res = sopt.minimize(
        fun, theta0.ravel(), jac=True, method="L-BFGS-B",
        bounds=sopt.Bounds(0.0, np.inf), options={"maxiter": 500},
    )
    assert res.message.startswith("ABNORMAL")
    true_loss = fun(res.x)[0]
    assert res.fun < true_loss

    loss, theta = _opt0_restart((V, theta0, 500))
    assert theta.tobytes() == res.x.tobytes()
    assert loss == true_loss


def test_x0_is_clipped_and_not_modified():
    x0 = np.array([-1.0, 2.0, -3.0])
    kept = x0.copy()
    seen = []

    def fun(x):
        seen.append(x.copy())
        return float(x @ x), 2.0 * x

    x, f = minimize_lbfgsb(fun, x0, lower=[0.0, -np.inf, 0.5])
    assert np.array_equal(x0, kept)
    assert np.array_equal(seen[0], [0.0, 2.0, 0.5])
    assert x[1] == pytest.approx(0.0, abs=1e-8)
    assert (x[0], x[2]) == (0.0, 0.5)
    assert f == 0.25


def test_a_gradient_of_the_wrong_size_is_refused():
    with pytest.raises(ValueError):
        minimize_lbfgsb(lambda x: (float(x @ x), np.zeros(2)), np.ones(5))


def test_no_call_site_uses_scipy_minimize(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("scipy's L-BFGS-B wrapper was called")

    monkeypatch.setattr(sopt, "minimize", refuse)
    monkeypatch.setattr(sopt, "fmin_l_bfgs_b", refuse)
    V = _prefix_gram(8)
    assert opt_0(V, p=1, rng=0, restarts=2, workers=1).loss <= np.trace(V)
    W = k_way_marginals(Domain(["a", "b"], [3, 4]), 1)
    assert np.isfinite(opt_marginals(W, rng=0, restarts=2, workers=1).loss)
    assert np.isfinite(opt_general(V, rng=0, maxiter=20).loss)
    assert len(GreedyH(maxiter=20).select(Prefix(8)).blocks) > 0
