"""L-BFGS-B driven directly through scipy's compiled routine.

The optimizers here solve small problems (rarely more than a thousand
coordinates), where ``scipy.optimize.minimize`` spends more time in its
Python wrapper — bounds conversion, ``ScalarFunction`` bookkeeping, result
objects — than in the algorithm.  :func:`minimize_lbfgsb` runs scipy's
``setulb`` (the 17-argument signature of scipy ≥ 1.15) in the same loop
as scipy's ``_minimize_lbfgsb``, at the same defaults, so its iterates
are bit-identical to ``minimize(method="L-BFGS-B")``.
``tests/test_lbfgsb.py`` pins that equivalence on the installed scipy.

One deliberate difference: when the routine stops on anything but
convergence or a cap (a failed line search ends "ABNORMAL"), scipy
returns the restored iterate with the loss of the last rejected probe.
Here the loss is re-evaluated at the returned point.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import _lbfgsb

# scipy's L-BFGS-B defaults (``ftol`` is passed to the routine as ``factr``).
MAXCOR = 10
FACTR = 2.2204460492503131e-09 / np.finfo(float).eps
PGTOL = 1e-5
MAXLS = 20
MAXFUN = 15000

# ``task[0]`` codes of the routine.
_NEW_X, _FG, _CONVERGENCE, _STOP = 1, 3, 4, 5


def minimize_lbfgsb(fun, x0, lower=None, maxiter: int = 15000):
    """Minimize ``fun`` from ``x0`` subject to ``x >= lower``.

    ``fun(x)`` returns ``(loss, gradient)``; it must neither modify ``x``
    nor keep it.  ``lower`` is ``None`` (no bounds), a scalar or one bound
    per coordinate, ``-inf`` meaning none.  Returns ``(x, loss)`` with
    ``loss == fun(x)[0]``.
    """
    x = np.array(x0, dtype=np.float64).ravel()  # the routine updates x
    n = x.size
    low = np.zeros(n)
    nbd = np.zeros(n, np.int32)
    if lower is not None:
        lb = np.broadcast_to(np.asarray(lower, dtype=np.float64), (n,))
        bounded = ~np.isinf(lb)
        low[bounded] = lb[bounded]
        nbd[bounded] = 1
        x = np.clip(x, lb, np.inf)
    m = MAXCOR
    f = np.array(0.0)
    g = np.zeros(n)
    upper = np.zeros(n)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, np.int32)
    task = np.zeros(2, np.int32)
    ln_task = np.zeros(2, np.int32)
    lsave = np.zeros(4, np.int32)
    isave = np.zeros(44, np.int32)
    dsave = np.zeros(29)
    nit = nfev = 0
    seen = None
    while True:
        _lbfgsb.setulb(m, x, low, upper, nbd, f, g, FACTR, PGTOL, wa,
                       iwa, task, lsave, isave, dsave, MAXLS, ln_task)
        if task[0] == _FG:
            # After a failed line search the routine can ask again for
            # the point it evaluated last; serve it from the last call,
            # as scipy does.  The routine writes into ``g``: hand it a copy.
            if x.tobytes() != seen:
                seen = x.tobytes()
                fx, gx = fun(x)
                # The routine reads n values from ``g`` unchecked.
                gx = np.asarray(gx, dtype=np.float64).reshape(n)
                nfev += 1
            f, g = fx, gx.copy()
        elif task[0] == _NEW_X:
            nit += 1
            if nit >= maxiter:
                task[:] = (_STOP, 504)
            elif nfev > MAXFUN:
                task[:] = (_STOP, 502)
        else:
            break
    if task[0] not in (_CONVERGENCE, _STOP):
        f = fun(x)[0]
    return x, float(f)
