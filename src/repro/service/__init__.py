"""JSON service layer over the attack engine (stdlib WSGI, no dependencies).

Usage::

    from repro.api import Engine
    from repro.service import create_app, serve

    engine = Engine()
    engine.generate(preset="webmd", users=300, name="demo")
    serve(engine, host="127.0.0.1", port=8321)      # blocking

or mount :func:`create_app`'s return value under any WSGI server.  The
in-process client in :mod:`repro.service.testing` drives the app without
sockets for tests and examples.
"""

from repro.service.app import (
    DEFAULT_ADMISSION_WAIT_S,
    DEFAULT_MAX_SYNC_ATTACKS,
    DeHealthApp,
    MAX_BODY_BYTES,
    MAX_GENERATE_USERS,
    MAX_INGEST_POSTS,
    MAX_INGEST_USERS,
    MAX_LIST_LIMIT,
    MAX_SERVICE_WORKERS,
    MAX_SWEEP_REQUESTS,
    RETRIABLE_STATUSES,
    SHED_STATUSES,
    create_app,
)
from repro.service.breaker import (
    DEFAULT_BREAKER_COOLDOWN_S,
    DEFAULT_BREAKER_THRESHOLD,
    CircuitBreaker,
)
from repro.service.server import ThreadingWSGIServer, make_service_server, serve
from repro.service.testing import ServiceResponse, call_app

__all__ = [
    "CircuitBreaker",
    "DEFAULT_ADMISSION_WAIT_S",
    "DEFAULT_BREAKER_COOLDOWN_S",
    "DEFAULT_BREAKER_THRESHOLD",
    "DEFAULT_MAX_SYNC_ATTACKS",
    "DeHealthApp",
    "MAX_BODY_BYTES",
    "MAX_GENERATE_USERS",
    "MAX_INGEST_POSTS",
    "MAX_INGEST_USERS",
    "MAX_LIST_LIMIT",
    "MAX_SERVICE_WORKERS",
    "MAX_SWEEP_REQUESTS",
    "RETRIABLE_STATUSES",
    "SHED_STATUSES",
    "ServiceResponse",
    "ThreadingWSGIServer",
    "call_app",
    "create_app",
    "make_service_server",
    "serve",
]
