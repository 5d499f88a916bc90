"""``repro serve`` — the campaign job service over plain HTTP/JSON.

Stdlib only (:mod:`http.server` + a :class:`JobManager`): one process,
a threading HTTP front end, a worker pool behind a queue, and a shared
content-addressed :class:`~repro.service.cache.ResultCache`.  Endpoints:

====== ========================== ==========================================
Method Path                       Meaning
====== ========================== ==========================================
GET    ``/health``                liveness + library version
GET    ``/cache/stats``           cache counters (hits/misses/corrupt/...)
POST   ``/jobs``                  submit a campaign (JSON body, below)
GET    ``/jobs``                  all jobs, submission order
GET    ``/jobs/<id>``             one job's status snapshot
GET    ``/jobs/<id>/results``     manifest + per-point result payloads
GET    ``/jobs/<id>/analysis``    statistical analysis of a finished job
POST   ``/jobs/<id>/cancel``      flag the job; it stops between points
====== ========================== ==========================================

The submit body is ``{"campaign": <CampaignSpec dict>, "seed": 0,
"executor": "serial", "workers": null, "backend": null,
"flush_every": 1}`` — everything but ``campaign`` optional.  Responses
are one JSON line with sorted keys, so equal analyses are byte-identical
(the CI smoke job diffs a cold submission's analysis against a warm
re-submission's).  A request body may be at most
:data:`MAX_BODY_BYTES`; a larger ``Content-Length`` is answered with
413 and the connection is closed.

Single-writer discipline is the cache's, not the server's: concurrent
submissions of overlapping grids are the *intended* workload — each
distinct point computes once, everything else replays.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Optional, Union
from urllib.parse import parse_qs, urlsplit

from .cache import ResultCache
from .jobs import Job, JobManager

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8750

#: Largest request body the server reads (1 MiB; a campaign spec is a
#: few hundred bytes).  A larger declared ``Content-Length`` gets a 413
#: before any of the body is read.
MAX_BODY_BYTES = 1 << 20

#: Submit-body keys forwarded to :meth:`JobManager.submit` verbatim.
_SUBMIT_OPTIONS = ("seed", "executor", "workers", "backend", "flush_every", "overwrite")


class _HttpError(Exception):
    """Internal: carries an HTTP status + message to the response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class ServiceHandler(BaseHTTPRequestHandler):
    """Routes the endpoint table above onto the server's JobManager."""

    server_version = "repro-service"
    protocol_version = "HTTP/1.1"

    @property
    def manager(self) -> JobManager:
        return self.server.manager  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _send(self, payload: Any, status: int = 200) -> None:
        # No indent: json takes its C encoder only when indent is None.
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> Any:
        header = self.headers.get("Content-Length") or "0"
        if not (header.isascii() and header.isdigit()):
            # The body's end is unknown: answer, then drop the connection.
            self.close_connection = True
            raise _HttpError(400, f"invalid Content-Length: {header!r}")
        length = int(header)
        if length > MAX_BODY_BYTES:
            # Unread body: answer, then drop the connection.
            self.close_connection = True
            raise _HttpError(
                413, f"request body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            return json.loads(raw)
        except json.JSONDecodeError as error:
            raise _HttpError(400, f"request body is not valid JSON: {error}")

    def _job(self, job_id: str) -> Job:
        try:
            return self.manager.job(job_id)
        except KeyError:
            raise _HttpError(404, f"unknown job {job_id!r}")

    def _dispatch(self, method: str) -> None:
        url = urlsplit(self.path)
        parts = [part for part in url.path.split("/") if part]
        try:
            payload, status = self._route(method, parts, parse_qs(url.query))
        except _HttpError as error:
            payload, status = {"error": str(error)}, error.status
        except Exception as error:  # noqa: BLE001 — answered, not raised
            # Anything a route didn't classify as a client error is a
            # server fault; answer with a JSON body instead of dropping
            # the connection.
            payload, status = {"error": f"{type(error).__name__}: {error}"}, 500
        self._send(payload, status)

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def _route(
        self, method: str, parts: list[str], query: dict[str, list[str]]
    ) -> tuple[Any, int]:
        if method == "GET" and parts == ["health"]:
            from .. import __version__

            return {"ok": True, "version": __version__}, 200
        if method == "GET" and parts == ["cache", "stats"]:
            stats = self.manager.cache_stats()
            return {"cache": stats, "enabled": stats is not None}, 200
        if parts and parts[0] == "jobs":
            if method == "POST" and len(parts) == 1:
                return self._submit()
            if method == "GET" and len(parts) == 1:
                return [job.status_dict() for job in self.manager.jobs()], 200
            if len(parts) >= 2:
                job = self._job(parts[1])
                if method == "GET" and len(parts) == 2:
                    return job.status_dict(), 200
                if method == "GET" and parts[2:] == ["results"]:
                    return self._results(job)
                if method == "GET" and parts[2:] == ["analysis"]:
                    return self._analysis(job, query)
                if method == "POST" and parts[2:] == ["cancel"]:
                    job.cancel()
                    return job.status_dict(), 200
        raise _HttpError(404, f"no such endpoint: {method} /{'/'.join(parts)}")

    def _submit(self) -> tuple[Any, int]:
        body = self._read_body()
        if not isinstance(body, dict) or "campaign" not in body:
            raise _HttpError(400, 'submit body must be {"campaign": {...}, ...}')
        options = {key: body[key] for key in _SUBMIT_OPTIONS if key in body}
        unknown = set(body) - set(_SUBMIT_OPTIONS) - {"campaign"}
        if unknown:
            raise _HttpError(400, f"unknown submit options: {sorted(unknown)}")
        try:
            job = self.manager.submit(body["campaign"], **options)
        except (KeyError, TypeError, ValueError) as error:
            # Bad submissions (unknown kind, invalid field, ...) are
            # client errors, not tracebacks — but only here: the same
            # exception types elsewhere are genuine server faults.
            raise _HttpError(400, f"{type(error).__name__}: {error}")
        return job.status_dict(), 201

    @staticmethod
    def _finished(job: Job) -> Job:
        if not job.done:
            raise _HttpError(409, f"job {job.id} is still {job.status}")
        if job.result is None:
            raise _HttpError(409, f"job {job.id} {job.status}: {job.error or 'no results'}")
        return job

    def _results(self, job: Job) -> tuple[Any, int]:
        job = self._finished(job)
        assert job.result is not None
        results = []
        for meta, result in job.result.iter_results():
            line = dict(meta)
            line["result"] = result.to_dict()
            results.append(line)
        results.sort(key=lambda line: line["point"])
        return {"id": job.id, "manifest": job.result.manifest, "results": results}, 200

    def _analysis(self, job: Job, query: dict[str, list[str]]) -> tuple[Any, int]:
        job = self._finished(job)
        assert job.result is not None
        analysis = (query.get("analysis") or [None])[0]
        if analysis is not None:
            from ..inference import analysis_kinds

            # The kind name is the client's input; a failure *inside* a
            # valid analysis is a server fault and maps to 500.
            if analysis not in analysis_kinds():
                raise _HttpError(
                    400,
                    f"unknown analysis {analysis!r}; one of {sorted(analysis_kinds())}",
                )
        return {"id": job.id, "analysis": job.result.analyze(analysis).to_dict()}, 200

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        self._dispatch("POST")


class ReproServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that owns a JobManager (and its cache)."""

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int] = (DEFAULT_HOST, DEFAULT_PORT),
        *,
        manager: Optional[JobManager] = None,
        workers: int = 1,
        cache: Union[None, str, Path, ResultCache] = None,
        root: Union[None, str, Path] = None,
        verbose: bool = False,
    ) -> None:
        super().__init__(address, ServiceHandler)
        self.manager = manager or JobManager(workers=workers, cache=cache, root=root)
        self.verbose = verbose

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def start_server(
    host: str = DEFAULT_HOST,
    port: int = 0,
    **kwargs: Any,
) -> tuple[ReproServer, threading.Thread]:
    """Start a server on a background thread (``port=0`` picks a free
    one) — the embedding/test entry point.  Shut down with
    ``server.shutdown(); server.server_close()``."""
    server = ReproServer((host, port), **kwargs)
    thread = threading.Thread(target=server.serve_forever, name="repro-serve", daemon=True)
    thread.start()
    return server, thread


def serve(
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    **kwargs: Any,
) -> int:
    """Run the service in the foreground until interrupted — what
    ``repro serve`` calls."""
    server = ReproServer((host, port), **kwargs)
    cache = server.manager.cache
    where = "disabled" if cache is None else (cache.root or "memory")
    print(f"repro service listening on {server.url}")
    print(f"  workers: {server.manager.workers}  cache: {where}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
    return 0
