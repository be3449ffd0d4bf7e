"""The dashboard HTTP server: a stdlib front-end over the telemetry bus.

:class:`DashboardServer` wraps a ``ThreadingHTTPServer`` running in a
daemon thread; every handler only *reads* bus state (snapshot, topic
history), so serving any number of pollers cannot perturb a running
campaign -- that invariant is what the determinism tests pin down.

Endpoints (all JSON unless noted):

===========================  =============================================
``/``                        the live HTML view (:data:`INDEX_HTML`)
``/api/status``              :meth:`TelemetryBus.snapshot`
``/api/topics``              topic -> latest sequence number
``/api/events``              ring history; ``?topic=&since=&limit=`` or the
                             cursor form ``?topics=a,b,worker.*&since_global=``
                             (returns ``next``, the new cursor)
``/api/scenarios``           registered scenarios (+ Gantt capability)
``/gantt.svg``               SVG Gantt; ``?scenario=&seed=&full=1``
===========================  =============================================
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.telemetry import TelemetryBus, get_bus
from repro.telemetry.bus import Subscription


def _scenario_index() -> Dict[str, Any]:
    from repro.scenarios import registry
    from repro.scenarios.composer import RECORD_MODELS

    return {
        "scenarios": [
            {
                "name": spec.name,
                "model": spec.model,
                "description": spec.description,
                "tags": list(spec.tags),
                "gantt": spec.model in RECORD_MODELS,
            }
            for spec in registry.all_specs()
        ]
    }


class _Handler(BaseHTTPRequestHandler):
    """One request; the bus to read from hangs off the server object."""

    server_version = "repro-dashboard/1"
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # observation must stay silent; errors surface as HTTP statuses

    # -- helpers -------------------------------------------------------------
    def _send(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Cache-Control", "no-store")
        self.end_headers()
        self.wfile.write(body)

    def _json(self, payload: Any, status: int = 200) -> None:
        body = json.dumps(payload, default=repr).encode("utf-8")
        self._send(status, body, "application/json; charset=utf-8")

    def _query(self) -> Tuple[str, Dict[str, str]]:
        parts = urlsplit(self.path)
        query = {key: values[-1] for key, values in parse_qs(parts.query).items()}
        return parts.path, query

    # -- routing -------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        try:
            path, query = self._query()
            bus: TelemetryBus = self.server.bus  # type: ignore[attr-defined]
            if path == "/":
                from repro.dashboard.static import INDEX_HTML

                self._send(200, INDEX_HTML.encode("utf-8"),
                           "text/html; charset=utf-8")
            elif path == "/api/status":
                self._json(bus.snapshot())
            elif path == "/api/topics":
                self._json({"topics": bus.topics()})
            elif path == "/api/events":
                self._events(bus, query)
            elif path == "/api/scenarios":
                self._json(_scenario_index())
            elif path == "/gantt.svg":
                self._gantt(query)
            else:
                self._json({"error": f"unknown path {path!r}"}, status=404)
        except BrokenPipeError:
            pass  # client went away mid-response; nothing to clean up
        except Exception as error:  # pragma: no cover - defensive
            try:
                self._json({"error": repr(error)}, status=500)
            except Exception:
                pass

    def _events(self, bus: TelemetryBus, query: Dict[str, str]) -> None:
        limit = min(int(query.get("limit", "256")), 4096)
        topic = query.get("topic", "")
        if topic:
            # Legacy single-topic form with a per-topic seq cursor.
            since = int(query.get("since", "0"))
            events = bus.events(topic, since=since, limit=limit)
            self._json({
                "topic": topic,
                "events": [event.as_dict() for event in events],
            })
            return
        # Cursor form: one request covers every topic of interest.  The
        # client resends the returned "next" as since_global, so each tick
        # downloads only new events instead of the full ring history.
        since_global = int(query.get("since_global", "0"))
        raw_topics = query.get("topics", "")
        topics = [t for t in (s.strip() for s in raw_topics.split(",")) if t]
        events = bus.events_since(
            since_global, topics=topics or None, limit=limit,
        )
        cursor = events[-1].gseq if events else since_global
        self._json({
            "events": [event.as_dict() for event in events],
            "next": cursor,
        })

    def _gantt(self, query: Dict[str, str]) -> None:
        from repro.dashboard.gantt import render_scenario_gantt
        from repro.scenarios.spec import SpecError

        scenario = query.get("scenario", "")
        if not scenario:
            self._json({"error": "missing ?scenario="}, status=400)
            return
        seed = int(query["seed"]) if "seed" in query else None
        smoke = query.get("full", "") not in ("1", "true")
        try:
            svg = render_scenario_gantt(scenario, seed=seed, smoke=smoke)
        except KeyError as error:
            self._json({"error": str(error)}, status=404)
            return
        except SpecError as error:
            self._json({"error": str(error)}, status=400)
            return
        self._send(200, svg.encode("utf-8"), "image/svg+xml; charset=utf-8")


class DashboardServer:
    """A threaded HTTP dashboard bound to one telemetry bus.

    ::

        server = DashboardServer(port=0)     # 0 = pick a free port
        server.start()
        print(server.url)                    # http://127.0.0.1:NNNNN
        ...
        server.stop()

    Also usable as a context manager.  The server thread and every handler
    thread are daemons: an exiting CLI never hangs on a connected poller.

    While it serves, the server holds a subscription to its bus that takes
    no events (the views read the bus history).  It marks the bus as
    observed, so span-gated instrumentation -- the harness spans and the
    distributed workers' forwarded ``worker.*`` spans -- is on for every
    campaign that starts under the dashboard.
    """

    def __init__(
        self,
        port: int = 0,
        *,
        host: str = "127.0.0.1",
        bus: Optional[TelemetryBus] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.bus = bus if bus is not None else get_bus()
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._observer: Optional[Subscription] = None

    def start(self) -> "DashboardServer":
        if self._httpd is not None:
            raise RuntimeError("dashboard server already started")
        httpd = ThreadingHTTPServer((self.host, self.port), _Handler)
        httpd.daemon_threads = True
        httpd.bus = self.bus  # type: ignore[attr-defined]
        self._httpd = httpd
        self.port = httpd.server_address[1]
        self._thread = threading.Thread(
            target=httpd.serve_forever,
            name="repro-dashboard",
            daemon=True,
        )
        self._thread.start()
        self._observer = self.bus.subscribe(topics=(), buffer=1)
        return self

    def stop(self) -> None:
        if self._httpd is None:
            return
        if self._observer is not None:
            self._observer.close()
            self._observer = None
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._httpd = None
        self._thread = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def __enter__(self) -> "DashboardServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def __repr__(self) -> str:
        state = "serving" if self._httpd is not None else "stopped"
        return f"DashboardServer(url={self.url!r}, {state})"
