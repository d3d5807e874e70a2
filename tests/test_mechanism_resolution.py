"""One noise mechanism from request to draw.

Every public entry point takes ``mechanism: str | Mechanism`` plus an
optional ``delta`` and resolves them once with ``get_mechanism``; below
the entry points only the instance travels.  So at each entry point:

* the name with its δ and the equal :class:`Mechanism` instance give
  bit-identical outputs, state included (ledger curves, cached x̂);
* a Laplace request with an explicit ``delta`` is refused, before any
  budget is spent.
"""

import numpy as np
import pytest

from repro import workload
from repro.api import Schema, Session, marginal, prefix, total
from repro.core import HDMM
from repro.core.error import expected_error, rootmse
from repro.privacy import GaussianMechanism, LaplaceMechanism
from repro.service import PrivacyAccountant, QueryService

EPS_GRID = np.array([0.25, 0.5, 1.0, 2.0])

#: (name, delta) spelling and the equal instance, per mechanism.
SPELLINGS = {
    "laplace": (("laplace", None), LaplaceMechanism()),
    "gaussian": (("gaussian", 1e-7), GaussianMechanism(1e-7)),
}


def _bits(value):
    """A structure of exact bit patterns: equal iff the values are equal
    bit for bit (arrays by dtype, shape and bytes; floats by hex)."""
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (float, np.floating)):
        return ("float", float(value).hex())
    if isinstance(value, (list, tuple)):
        return tuple(_bits(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _bits(v)) for k, v in value.items()))
    return ("other", repr(value))


@pytest.fixture(scope="module")
def fitted():
    W = workload.prefix_1d(16)
    mech = HDMM(restarts=1, rng=0).fit(W)
    x = np.random.default_rng(1).poisson(30, 16).astype(float)
    return mech, x


def _service():
    svc = QueryService(
        accountant=PrivacyAccountant(default_cap=100.0), restarts=1, rng=0
    )
    x = np.random.default_rng(2).poisson(30, 16).astype(float)
    svc.add_dataset("d", x, epsilon_cap=100.0)
    return svc


def _dataset():
    sess = Session(accountant=PrivacyAccountant(default_cap=100.0), restarts=1, rng=0)
    schema = Schema.from_spec({"age": 8, "sex": ["M", "F"]})
    data = np.random.default_rng(5).poisson(20, schema.domain.shape()).astype(float)
    return sess.dataset("adult", schema=schema, data=data, epsilon_cap=100.0)


def _spent(acct, name):
    c = acct.curve(name)
    return (c.epsilon, c.delta, c.rho)


# Each entry runs one call under ``kw`` (``mechanism=...`` and maybe
# ``delta=...``) on fresh state and returns everything it produced.


def _run(fitted, kw):
    mech, x = fitted
    return mech.run(x, 0.7, rng=3, return_data_vector=True, **kw)


def _run_batch(fitted, kw):
    mech, x = fitted
    return mech.run_batch(x, EPS_GRID[:2], trials=3, rng=4, **kw)


def _run_batch_exact(fitted, kw):
    mech, x = fitted
    return mech.run_batch(x, EPS_GRID[:2], trials=2, rng=4, exact=True, **kw)


def _hdmm_expected_error(fitted, kw):
    return fitted[0].expected_error(EPS_GRID, **kw)


def _hdmm_expected_rootmse(fitted, kw):
    return fitted[0].expected_rootmse(EPS_GRID, **kw)


def _expected_error(fitted, kw):
    mech, _ = fitted
    return expected_error(mech.workload, mech.strategy, EPS_GRID, **kw)


def _rootmse(fitted, kw):
    mech, _ = fitted
    return rootmse(mech.workload, mech.strategy, EPS_GRID, **kw)


def _service_measure(fitted, kw):
    svc = _service()
    r = svc.measure("d", workload.prefix_1d(16), EPS_GRID[:2], trials=3, rng=5, **kw)
    return r.answers, r.x_hat, r.charged, r.mechanism, _spent(svc.accountant, "d")


def _service_answer(fitted, kw):
    svc = _service()
    q = workload.prefix_1d(16)
    r = svc.answer("d", [q], eps=0.5, rng=6, **kw)
    hit = svc.answer("d", [q])  # the cached x̂ serves it free
    return (
        [(a.values, a.route, a.mechanism) for a in r.answers + hit.answers],
        r.charged,
        _spent(svc.accountant, "d"),
    )


def _plan(fitted, kw):
    ds = _dataset()
    exprs = [marginal("age"), total(), prefix("age")]
    plans = [ds.plan(exprs, eps=0.5, **kw)]  # misses only
    ds.ask_many([marginal("age")], eps=1.0, rng=0, **kw)
    plans.append(ds.plan(exprs, eps=0.5, **kw))  # hits too
    return [
        (plan.delta, [
            (e.route, e.epsilon, e.mechanism, e.expected_rmse,
             e.rmse_laplace, e.rmse_gaussian)
            for e in plan.entries
        ])
        for plan in plans
    ]


def _ask_many(fitted, kw):
    ds = _dataset()
    answers = ds.ask_many([marginal("age"), total()], eps=0.8, rng=1, **kw)
    return (
        [(a.values, a.route, a.epsilon, a.mechanism) for a in answers],
        _spent(ds.session.service.accountant, "adult"),
    )


def _accountant(method):
    def call(fitted, kw):
        acct = PrivacyAccountant(default_cap=100.0)
        acct.register("d", 100.0)
        out = getattr(acct, method)("d", [0.5, 0.25], **kw)
        return out, _spent(acct, "d")

    return call


ENTRIES = {
    "HDMM.run": _run,
    "HDMM.run_batch": _run_batch,
    "HDMM.run_batch(exact)": _run_batch_exact,
    "HDMM.expected_error": _hdmm_expected_error,
    "HDMM.expected_rootmse": _hdmm_expected_rootmse,
    "expected_error": _expected_error,
    "rootmse": _rootmse,
    "QueryService.measure": _service_measure,
    "QueryService.answer": _service_answer,
    "Dataset.plan": _plan,
    "Dataset.ask_many": _ask_many,
    "PrivacyAccountant.check": _accountant("check"),
    "PrivacyAccountant.charge": _accountant("charge"),
    "PrivacyAccountant.charge_parallel": _accountant("charge_parallel"),
}


@pytest.mark.parametrize("entry", sorted(ENTRIES))
@pytest.mark.parametrize("kind", sorted(SPELLINGS))
def test_name_and_instance_agree_bit_for_bit(fitted, entry, kind):
    (name, delta), instance = SPELLINGS[kind]
    by_name = {"mechanism": name}
    if delta is not None:
        by_name["delta"] = delta
    call = ENTRIES[entry]
    assert _bits(call(fitted, by_name)) == _bits(
        call(fitted, {"mechanism": instance})
    )


@pytest.mark.parametrize("entry", sorted(ENTRIES))
@pytest.mark.parametrize("mechanism", ["laplace", LaplaceMechanism()], ids=["name", "instance"])
def test_laplace_with_a_delta_is_refused(fitted, entry, mechanism):
    with pytest.raises(ValueError, match="does not take a delta"):
        ENTRIES[entry](fitted, {"mechanism": mechanism, "delta": 1e-6})


def test_refusal_spends_nothing():
    svc = _service()
    with pytest.raises(ValueError):
        svc.answer("d", [workload.prefix_1d(16)], eps=0.5, delta=1e-6)
    with pytest.raises(ValueError):
        svc.measure("d", workload.prefix_1d(16), 0.5, delta=1e-6)
    assert svc.accountant.spent("d") == 0.0
    assert svc.reconstructions("d") == []
