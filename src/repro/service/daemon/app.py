"""The ``repro serve`` daemon: durable multi-tenant release serving.

Layering (route → service → tracked cost → durable storage):

* :mod:`.http` frames requests off asyncio streams;
* :class:`ReleaseDaemon` routes them, enforces **admission control**
  (structured machine-readable rejections, never a crash), and serves
  releases through the shared
  :class:`~repro.service.session.ReleaseSession` /
  :class:`~repro.service.cache.ExtensionCache` hot path;
* every successful release is recorded in the fsync'd append-only
  :class:`~repro.service.daemon.audit.AuditLog` and then charged to the
  tenant's in-memory
  :class:`~repro.service.daemon.accounts.BudgetAccount`.

Commit order for one release (all under the serving lock)::

    admission check  →  compute release  →  audit append (fsync)
                     →  in-memory spend  →  respond

The audit append is the release's only durable write, and the audit
log is the only durable record of ε spent: at startup every tenant's
accountant is rebuilt from it
(:meth:`~repro.service.daemon.accounts.AccountStore.restore`).  So a
``kill -9`` anywhere in that sequence leaves nothing to reconcile:
before the append completes nothing was spent or released, and after it
the restart charges the release exactly as the live spend would have
(the conservative direction when the client never saw the response — ε
is never under-counted).  A failed append leaves the log unchanged and
answers ``internal_error``; nothing is charged, live or after a
restart.

Endpoints
---------
=======  ========================  ===========================================
GET      ``/healthz``              liveness + audit/account-store probes
                                   (503 when a durable layer degrades)
GET      ``/metrics``              Prometheus text exposition (per-tenant
                                   release/ε/latency series, error codes)
GET      ``/v1/estimators``        the estimator registry
GET      ``/v1/stats``             session/cache counters, uptime
GET      ``/v1/tenants/<t>``       one tenant's budget account
PUT      ``/v1/tenants/<t>``      provision a tenant (body:
                                   ``{"total_epsilon": x}``)
GET      ``/v1/audit/summary``     audit-log replay: per-tenant ε totals
POST     ``/v1/release``           serve one private release
=======  ========================  ===========================================

Error responses are ``{"error": {"code", "message"}, ...}`` with the
codes in :data:`ERROR_CODES`; see the README's daemon section.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
import traceback
from typing import Optional

from ... import telemetry
from ...estimators.registry import canonical_name, get_spec, registry_specs
from ...mechanisms.accountant import BudgetExceededError
from ..batch import _RequestServer
from ..session import ReleaseSession
from .accounts import (
    AccountExistsError,
    AccountStore,
    InvalidTenantError,
    validate_tenant,
)
from .audit import AuditLog, release_label
from .http import (
    HttpProtocolError,
    HttpRequest,
    json_response_bytes,
    read_http_request,
    text_response_bytes,
)

__all__ = ["ReleaseDaemon", "BackgroundDaemon", "ERROR_CODES"]

# Machine-readable admission-control codes and the HTTP status each
# travels with.  Clients dispatch on the code, not the message.
ERROR_CODES = {
    "malformed_request": 400,   # undecodable body / missing or bad fields
    "invalid_tenant": 400,      # tenant id fails the safe-name pattern
    "invalid_request": 400,     # well-formed but unservable (bad graph, …)
    "unknown_tenant": 404,      # no account and no default budget
    "unknown_estimator": 404,   # not in the registry
    "not_found": 404,           # no such route
    "method_not_allowed": 405,
    "account_exists": 409,      # PUT of an already-provisioned tenant
    "non_private_refused": 403, # exact estimator without --allow-non-private
    "over_budget": 429,         # admission control: ε would exceed budget
    "internal_error": 500,      # estimator crash or other server fault
}


def _error_body(code: str, message: str) -> tuple[int, dict]:
    return ERROR_CODES[code], {"error": {"code": code, "message": message}}


class ReleaseDaemon:
    """Long-lived multi-tenant release server over one state directory.

    Parameters
    ----------
    state_dir:
        Durable root: ``accounts/`` (per-tenant budget files, written
        once at provisioning) and ``audit.jsonl`` (append-only release
        log, the ε ledger) live here.  Holds privacy-critical accounting
        state — permission it accordingly.  Raises ``ValueError`` if
        the state would under-count a tenant's ε (see
        :meth:`~repro.service.daemon.accounts.AccountStore.restore`).
    default_tenant_budget:
        When set, a tenant seen for the first time is auto-provisioned
        with this total ε; when ``None``, unknown tenants are rejected
        (``unknown_tenant``) until provisioned via
        ``PUT /v1/tenants/<t>``.
    default_graph_path, max_graphs, extension_cache_dir, base_seed,
    allow_non_private:
        Serving knobs with the same meaning as on ``serve-batch``; the
        daemon reuses :class:`ReleaseSession` (and through it the
        persistent :class:`~repro.service.cache.ExtensionCache`), so
        hot tenants get the amortized extension path.
    """

    def __init__(
        self,
        state_dir: str | os.PathLike,
        *,
        default_tenant_budget: Optional[float] = None,
        default_graph_path: Optional[str] = None,
        max_graphs: int = 8,
        extension_cache_dir: Optional[str] = None,
        base_seed: int = 0,
        allow_non_private: bool = False,
        telemetry_log_path: Optional[str] = None,
    ) -> None:
        if default_tenant_budget is not None and default_tenant_budget <= 0:
            raise ValueError(
                "default_tenant_budget must be > 0, got "
                f"{default_tenant_budget}"
            )
        self.state_dir = os.fspath(state_dir)
        os.makedirs(self.state_dir, exist_ok=True)
        self.accounts = AccountStore(os.path.join(self.state_dir, "accounts"))
        self.audit = AuditLog(os.path.join(self.state_dir, "audit.jsonl"))
        try:
            self.accounts.restore(self.audit.startup_ledgers)
        except BaseException:
            self.audit.close()
            raise
        self._default_tenant_budget = default_tenant_budget
        self._allow_non_private = allow_non_private
        self.session = ReleaseSession(
            max_graphs=max_graphs,
            cache_dir=extension_cache_dir,
        )
        self._server = _RequestServer(
            self.session,
            default_graph_path=default_graph_path,
            base_seed=base_seed,
        )
        # One lock serializes admission → release → audit → account:
        # per-tenant budgets stay race-free and the (non-thread-safe)
        # session sees one query at a time, while read-only endpoints
        # stay responsive off-lock.
        self._serving_lock = asyncio.Lock()
        # Monotonic clock for uptime: wall clock (time.time) can step
        # under NTP correction, making uptime jump or go negative.
        self._started_monotonic = time.monotonic()
        # Tenant-labelled series only ever see validated tenant names, so
        # their label cardinality is bounded by the provisioned accounts.
        self.metrics = telemetry.MetricsRegistry(parent=telemetry.default_registry())
        self._requests = self.metrics.counter(
            "repro_daemon_requests_total",
            "Release requests admitted past tenant validation, by tenant",
            labels=("tenant",),
        )
        self._releases = self.metrics.counter(
            "repro_daemon_releases_total",
            "Releases served and durably committed, by tenant",
            labels=("tenant",),
        )
        self._epsilon = self.metrics.counter(
            "repro_daemon_epsilon_spent_total",
            "Privacy budget spent on committed releases, by tenant",
            labels=("tenant",),
        )
        self._latency = self.metrics.histogram(
            "repro_daemon_request_seconds",
            "End-to-end release latency (compute + audit fsync), by tenant",
            labels=("tenant",),
        )
        self._errors = self.metrics.counter(
            "repro_daemon_errors_total",
            "Error responses, by structured admission-control code",
            labels=("code",),
        )
        self.telemetry_log = (
            telemetry.TelemetryLog(telemetry_log_path)
            if telemetry_log_path is not None
            else None
        )

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Serve one client connection (keep-alive loop)."""
        try:
            while True:
                try:
                    request = await read_http_request(reader)
                except HttpProtocolError as exc:
                    status, body = _error_body("malformed_request", str(exc))
                    self._errors.inc(code="malformed_request")
                    writer.write(
                        json_response_bytes(status, body, keep_alive=False)
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                try:
                    status, body = await self._route(request)
                except Exception as exc:  # noqa: BLE001 - daemon never dies
                    traceback.print_exc()
                    status, body = _error_body(
                        "internal_error", f"{type(exc).__name__}: {exc}"
                    )
                if isinstance(body, dict) and "error" in body:
                    self._errors.inc(code=body["error"]["code"])
                if isinstance(body, str):
                    # /metrics is the one plain-text route (Prometheus
                    # exposition); everything else speaks JSON.
                    payload = text_response_bytes(
                        status, body, keep_alive=request.keep_alive
                    )
                else:
                    payload = json_response_bytes(
                        status, body, keep_alive=request.keep_alive
                    )
                writer.write(payload)
                await writer.drain()
                if not request.keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass  # client vanished; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _route(self, request: HttpRequest) -> tuple[int, dict | str]:
        path = request.path.rstrip("/") or "/"
        if path == "/healthz":
            if request.method != "GET":
                return _error_body("method_not_allowed", "GET only")
            return self._healthz_body()
        if path == "/metrics":
            if request.method != "GET":
                return _error_body("method_not_allowed", "GET only")
            return 200, telemetry.render_prometheus()
        if path == "/v1/estimators":
            if request.method != "GET":
                return _error_body("method_not_allowed", "GET only")
            return 200, {"estimators": self._estimator_index()}
        if path == "/v1/stats":
            if request.method != "GET":
                return _error_body("method_not_allowed", "GET only")
            return 200, self._stats_body()
        if path == "/v1/audit/summary":
            if request.method != "GET":
                return _error_body("method_not_allowed", "GET only")
            return 200, self.audit.replay().to_dict()
        if path.startswith("/v1/tenants/"):
            tenant = path[len("/v1/tenants/"):]
            if request.method == "GET":
                return self._get_tenant(tenant)
            if request.method == "PUT":
                return await self._put_tenant(tenant, request)
            return _error_body("method_not_allowed", "GET or PUT only")
        if path == "/v1/release":
            if request.method != "POST":
                return _error_body("method_not_allowed", "POST only")
            return await self._post_release(request)
        return _error_body("not_found", f"no route {request.method} {path}")

    # ------------------------------------------------------------------
    # Read-only endpoints
    # ------------------------------------------------------------------
    def uptime(self) -> float:
        return time.monotonic() - self._started_monotonic

    @property
    def releases_served(self) -> int:
        return int(self._releases.total())

    @property
    def requests_rejected(self) -> int:
        """Error responses sent; a degraded ``/healthz`` is not one."""
        return int(self._errors.total())

    def _healthz_body(self) -> tuple[int, dict]:
        """Liveness + dependency probes.

        ``checks`` maps each durable dependency to ``"ok"`` or a
        failure description; any failure degrades the endpoint to 503
        (so a scraping load balancer stops routing to a daemon that
        can no longer commit releases durably)."""
        checks = {
            "audit_log": self.audit.probe() or "ok",
            "account_store": self.accounts.probe() or "ok",
        }
        healthy = all(status == "ok" for status in checks.values())
        body = {
            "status": "ok" if healthy else "degraded",
            "uptime_seconds": self.uptime(),
            "checks": checks,
        }
        return (200 if healthy else 503), body

    @staticmethod
    def _estimator_index() -> list[dict]:
        return [
            {
                "name": spec.name,
                "aliases": list(spec.aliases),
                "statistic": spec.statistic,
                "requires_epsilon": spec.requires_epsilon,
                "summary": spec.summary,
                "options": list(spec.options),
            }
            for spec in registry_specs()
        ]

    def _stats_body(self) -> dict:
        return {
            "uptime_seconds": self.uptime(),
            "releases_served": self.releases_served,
            "requests_rejected": self.requests_rejected,
            "next_audit_seq": self.audit.next_seq,
            "tenants": self.accounts.tenants(),
            "session": self.session.stats.to_dict(),
        }

    def _get_tenant(self, tenant: str) -> tuple[int, dict]:
        try:
            account = self.accounts.get(tenant)
        except InvalidTenantError as exc:
            return _error_body("invalid_tenant", str(exc))
        if account is None:
            return _error_body(
                "unknown_tenant", f"tenant {tenant!r} has no account"
            )
        return 200, account.summary()

    async def _put_tenant(
        self, tenant: str, request: HttpRequest
    ) -> tuple[int, dict]:
        try:
            validate_tenant(tenant)
        except InvalidTenantError as exc:
            return _error_body("invalid_tenant", str(exc))
        try:
            body = request.json_body()
            total = body["total_epsilon"]
            if not isinstance(total, (int, float)) or not total > 0:
                raise ValueError(
                    f"total_epsilon must be a number > 0, got {total!r}"
                )
        except (ValueError, TypeError, KeyError) as exc:
            return _error_body(
                "malformed_request",
                f"PUT body must be {{'total_epsilon': x}}: {exc}",
            )
        async with self._serving_lock:
            try:
                account = self.accounts.create(tenant, float(total))
            except AccountExistsError as exc:
                return _error_body("account_exists", str(exc))
        return 201, account.summary()

    # ------------------------------------------------------------------
    # The release path
    # ------------------------------------------------------------------
    async def _post_release(self, request: HttpRequest) -> tuple[int, dict]:
        try:
            body = request.json_body()
            if not isinstance(body, dict):
                raise ValueError("release request must be a JSON object")
        except ValueError as exc:
            return _error_body("malformed_request", str(exc))

        try:
            tenant = validate_tenant(body.get("tenant"))
        except InvalidTenantError as exc:
            return _error_body("invalid_tenant", str(exc))
        request_id = body.get("id")
        self._requests.inc(tenant=tenant)
        request_started = time.perf_counter()

        estimator = body.get("estimator")
        if not isinstance(estimator, str) or not estimator:
            return self._reject(
                "malformed_request", "request needs an 'estimator' field",
                tenant, request_id,
            )
        try:
            name = canonical_name(estimator)
        except KeyError as exc:
            return self._reject(
                "unknown_estimator", str(exc.args[0]), tenant, request_id
            )
        spec = get_spec(name)

        epsilon = body.get("epsilon")
        if spec.requires_epsilon:
            if not isinstance(epsilon, (int, float)) or not epsilon > 0:
                return self._reject(
                    "malformed_request",
                    f"estimator {name!r} needs a numeric 'epsilon' > 0, "
                    f"got {epsilon!r}",
                    tenant, request_id,
                )
            epsilon = float(epsilon)
        elif not self._allow_non_private:
            return self._reject(
                "non_private_refused",
                f"estimator {name!r} is non-private and this daemon runs "
                "budgeted accounts; start with --allow-non-private to "
                "serve it",
                tenant, request_id,
            )
        else:
            epsilon = None

        async with self._serving_lock:
            account = self.accounts.get_or_create(
                tenant, self._default_tenant_budget
            )
            if account is None:
                return self._reject(
                    "unknown_tenant",
                    f"tenant {tenant!r} has no budget account and the "
                    "daemon has no default budget; provision it via "
                    f"PUT /v1/tenants/{tenant}",
                    tenant, request_id,
                )
            # Admission control: refuse before any mechanism runs, so a
            # rejected request spends nothing and crashes nothing.
            if epsilon is not None and not account.accountant.can_spend(
                epsilon
            ):
                status, payload = self._reject(
                    "over_budget",
                    f"spend of {epsilon} exceeds tenant {tenant!r}'s "
                    f"remaining budget {account.accountant.remaining()}",
                    tenant, request_id,
                )
                payload["budget"] = account.summary()
                return status, payload

            seq = self.audit.allocate_seq()
            loop = asyncio.get_running_loop()
            try:
                # The compute-heavy part runs off-loop so health checks
                # and account reads stay responsive mid-release.  The
                # serving lock stays held: one release at a time is the
                # price of race-free budgets on a non-thread-safe
                # session.
                response = await loop.run_in_executor(
                    None, self._server.serve_request, dict(body), seq
                )
            except BudgetExceededError as exc:
                return self._reject(
                    "over_budget", str(exc), tenant, request_id
                )
            except KeyError as exc:
                message = exc.args[0] if exc.args else exc
                return self._reject(
                    "unknown_estimator", str(message), tenant, request_id
                )
            except (ValueError, OSError) as exc:
                return self._reject(
                    "invalid_request", str(exc), tenant, request_id
                )
            except Exception as exc:  # noqa: BLE001 - daemon never dies
                traceback.print_exc()
                return self._reject(
                    "internal_error",
                    f"{type(exc).__name__}: {exc}",
                    tenant, request_id,
                )

            # The one durable write: the audit log is the ε ledger (see
            # the module docstring).  If it raises, nothing is charged.
            self.audit.append_release(
                tenant=tenant,
                request_id=request_id if request_id is not None else seq,
                estimator=name,
                epsilon=0.0 if epsilon is None else epsilon,
                fingerprint=response.get("fingerprint"),
                seq=seq,
            )
            if epsilon is not None:
                account.accountant.spend(
                    epsilon,
                    release_label(name, response.get("fingerprint"), seq),
                )
            elapsed = time.perf_counter() - request_started
            self._releases.inc(tenant=tenant)
            if epsilon is not None:
                self._epsilon.inc(epsilon, tenant=tenant)
            self._latency.observe(elapsed, tenant=tenant)
            if self.telemetry_log is not None:
                self.telemetry_log.event(
                    "release",
                    tenant=tenant,
                    estimator=name,
                    epsilon=0.0 if epsilon is None else epsilon,
                    seq=seq,
                    seconds=elapsed,
                    fingerprint=response.get("fingerprint"),
                )

            response["id"] = request_id if request_id is not None else seq
            response["tenant"] = tenant
            response["seq"] = seq
            response["budget"] = {
                "total_epsilon": account.accountant.total_epsilon,
                "spent": account.accountant.spent(),
                "remaining": account.accountant.remaining(),
            }
            return 200, response

    @staticmethod
    def _reject(
        code: str, message: str, tenant: str, request_id: object
    ) -> tuple[int, dict]:
        status, payload = _error_body(code, message)
        payload["tenant"] = tenant
        if request_id is not None:
            payload["id"] = request_id
        return status, payload

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def serve(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        ready: Optional[asyncio.Event] = None,
    ) -> None:
        """Bind and serve until cancelled.

        ``self.port`` carries the actual bound port (useful with
        ``port=0``); ``ready`` (if given) is set once the socket
        listens.
        """
        server = await asyncio.start_server(self.handle_connection, host, port)
        self.port = server.sockets[0].getsockname()[1]
        if ready is not None:
            ready.set()
        try:
            async with server:
                await server.serve_forever()
        finally:
            self.close()

    def close(self) -> None:
        """Flush durable state: spill warm extension tables (when a
        persistent cache is attached), write a final metrics snapshot
        to the telemetry log, and close the audit log."""
        try:
            self.session.persist_warm_extensions()
        finally:
            if self.telemetry_log is not None:
                self.telemetry_log.metrics_event(
                    releases_served=self.releases_served,
                    requests_rejected=self.requests_rejected,
                )
                self.telemetry_log.close()
            self.audit.close()

    def start_in_background(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> "BackgroundDaemon":
        """Run this daemon on a dedicated event-loop thread.

        For tests and embedding; the CLI runs :meth:`serve` on the main
        loop instead.  Returns a :class:`BackgroundDaemon` handle whose
        ``stop()`` shuts the loop down and flushes durable state.
        """
        return BackgroundDaemon(self, host, port)


class BackgroundDaemon:
    """A :class:`ReleaseDaemon` running on its own thread + event loop."""

    def __init__(self, daemon: ReleaseDaemon, host: str, port: int) -> None:
        self.daemon = daemon
        self._started = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._task: Optional[asyncio.Task] = None
        self._thread = threading.Thread(
            target=self._run, args=(host, port), daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30.0):
            raise RuntimeError("daemon failed to start within 30s")

    @property
    def port(self) -> int:
        return self.daemon.port

    def _run(self, host: str, port: int) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop

        async def _main() -> None:
            ready = asyncio.Event()
            self._task = asyncio.current_task()
            serve = asyncio.ensure_future(
                self.daemon.serve(host, port, ready=ready)
            )
            await ready.wait()
            self._started.set()
            try:
                await serve
            except asyncio.CancelledError:
                serve.cancel()
                try:
                    await serve
                except asyncio.CancelledError:
                    pass

        try:
            loop.run_until_complete(_main())
        except asyncio.CancelledError:
            pass
        finally:
            loop.close()

    def stop(self) -> None:
        """Stop serving and join the loop thread (idempotent)."""
        loop, task = self._loop, self._task
        if loop is not None and task is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(task.cancel)
            except RuntimeError:
                pass  # loop already closed between the check and the call
        self._thread.join(timeout=30.0)

    def __enter__(self) -> "BackgroundDaemon":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
