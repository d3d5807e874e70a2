"""Resilient multi-tenant serving front-end for the HDMM query service.

A zero-dependency asyncio HTTP/1.1 server wrapping
:class:`repro.api.Session` / :class:`repro.service.QueryService` with
the three robustness mechanisms a privacy budget forces on a network
edge:

* :mod:`repro.server.deadline` — per-request deadlines with per-stage
  budgets and the ε-spend fence (expiry before the charge refuses free;
  a committed debit is never refunded);
* :mod:`repro.server.admission` — bounded queue + per-dataset limiter,
  structured 429/503 shedding, free routes always admitted;
* :mod:`repro.server.breaker` — circuit breaker around cold fits, with
  degraded direct-measurement serving while open.

:mod:`repro.server.app` binds them into :class:`ServerApp` (the
transport-free request handler) and :mod:`repro.server.http` serves it
over ``asyncio.start_server`` with health/readiness/metrics endpoints
and drain-then-flush shutdown.  The retry policy the lower layers share
lives in the stdlib-only leaf :mod:`repro.util.retry`.
"""

from __future__ import annotations

from .admission import AdmissionController, ShedError
from .app import ServerApp
from .breaker import BreakerOpenError, CircuitBreaker
from .deadline import Deadline, DeadlineExceededError
from .errors import error_response
from .http import HttpServer, serve_in_thread

__all__ = [
    "AdmissionController",
    "BreakerOpenError",
    "CircuitBreaker",
    "Deadline",
    "DeadlineExceededError",
    "HttpServer",
    "ServerApp",
    "ShedError",
    "error_response",
    "serve_in_thread",
]
