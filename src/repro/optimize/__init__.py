"""Strategy optimization operators (paper Sections 5-7).

==================  ============================  =======================
Operator            Input workload                Output strategy
==================  ============================  =======================
``opt_0``           explicit Gram WᵀW             p-Identity matrix A(Θ)
``opt_kron``        (union of) products           single Kronecker product
``opt_union``       union of products             union of Kronecker products
``opt_marginals``   union of products             weighted marginals M(θ)
``opt_general``     explicit Gram WᵀW             full p x n matrix (MM stand-in)
``opt_hdmm``        union of products             best of the above (Algorithm 2)
==================  ============================  =======================

Every operator accepts ``workers`` (and ``executor``): independent random
restarts / sub-problems fan out over the deterministic parallel engine of
:mod:`repro.optimize.parallel`.  Randomness is assigned per task index via
``numpy.random.SeedSequence.spawn``, so for a fixed seed the results are
bit-identical regardless of worker count.
"""

from .driver import default_operators, identity_result, opt_hdmm
from .opt0 import OptResult, PIdentity, opt_0, pidentity_loss_and_grad
from .opt_general import general_loss_and_grad, opt_general
from .opt_kron import default_p, opt_kron
from .opt_marginals import marginals_loss_and_grad, opt_marginals
from .opt_union import opt_union, partition_products
from .parallel import (
    reduce_best,
    resolve_executor,
    resolve_workers,
    run_tasks,
    spawn_generators,
    spawn_seeds,
)

__all__ = [
    "OptResult",
    "PIdentity",
    "default_operators",
    "default_p",
    "general_loss_and_grad",
    "identity_result",
    "marginals_loss_and_grad",
    "opt_0",
    "opt_general",
    "opt_hdmm",
    "opt_kron",
    "opt_marginals",
    "opt_union",
    "partition_products",
    "pidentity_loss_and_grad",
    "reduce_best",
    "resolve_executor",
    "resolve_workers",
    "run_tasks",
    "spawn_generators",
    "spawn_seeds",
]
