"""The campaign job service: content-addressed cache, jobs, HTTP API.

Everything the paper reports rests on one invariant: a run is a pure
function of ``(spec, seed, backend, engine version)``.  This package
cashes that invariant in — literally:

* :mod:`~repro.service.keys` — canonical content keys.  Dict order,
  tuple-vs-list spelling and numpy dtype wrappers never change a key;
  any change to the four components always does.
* :mod:`~repro.service.cache` — :class:`ResultCache`, a memory-LRU over
  an atomic on-disk object store, plus :class:`CachedDispatch`, which
  serves a campaign plan hits-first and computes each distinct key at
  most once.  Corrupt entries are misses (recompute), never crashes.
* :mod:`~repro.service.jobs` — :class:`JobManager`, a worker pool
  running submitted campaigns in the background with per-point
  progress, cancellation (leaving resumable partial directories) and
  :func:`resume_campaign` to finish them bit-identically.
* :mod:`~repro.service.server` / :mod:`~repro.service.client` — the
  ``repro serve`` HTTP/JSON API (stdlib ``http.server``) and its thin
  ``urllib`` client.

Quick start::

    from repro.service import JobManager, ResultCache

    manager = JobManager(workers=2, cache="cache/")
    job = manager.submit(campaign, seed=1, out="results/")
    manager.wait(job.id)
    print(job.result.table(), manager.cache.summary())

or over the wire: ``repro serve --cache-dir cache/`` then
``repro submit --campaign fig4.json --wait``.
"""

from .cache import (
    CACHE_SCHEMA,
    CachedDispatch,
    CacheStats,
    ResultCache,
    make_cache,
    plan_keys,
)
from .client import ServiceClient, ServiceError
from .jobs import (
    JOB_STATES,
    MAX_CAMPAIGN_POINTS,
    Job,
    JobCancelled,
    JobManager,
    resume_campaign,
)
from .keys import (
    KEY_SCHEMA,
    canonical_json,
    canonicalize,
    content_digest,
    point_key,
    spec_key,
)
from .server import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    ReproServer,
    serve,
    start_server,
)

__all__ = [
    "CACHE_SCHEMA",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "JOB_STATES",
    "KEY_SCHEMA",
    "MAX_CAMPAIGN_POINTS",
    "CacheStats",
    "CachedDispatch",
    "Job",
    "JobCancelled",
    "JobManager",
    "ReproServer",
    "ResultCache",
    "ServiceClient",
    "ServiceError",
    "canonical_json",
    "canonicalize",
    "content_digest",
    "make_cache",
    "plan_keys",
    "point_key",
    "resume_campaign",
    "serve",
    "spec_key",
    "start_server",
]
