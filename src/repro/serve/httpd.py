"""The HTTP binding of :class:`~.server.ReproServer`.

Kept apart from ``server.py`` so that importing :mod:`repro.serve` (the
job model, the store, ``exec_scenario``) loads no HTTP stack:
``http.server`` brings in ``socketserver``, ``mimetypes`` and
``email.*``.  ``ReproServer.__init__`` imports this module, so only a
process that actually serves pays for it.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .server import _err


def bind(repro, host: str, port: int) -> ThreadingHTTPServer:
    """A threaded HTTP server on ``(host, port)`` dispatching every
    request to ``repro.handle``; not yet serving."""
    http = ThreadingHTTPServer((host, port), _Handler)
    http.daemon_threads = True
    http.repro = repro
    return http


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1"

    def log_message(self, *args) -> None:    # quiet: metrics, not stderr
        pass

    def _dispatch(self, method: str) -> None:
        body = None
        length = int(self.headers.get("Content-Length") or 0)
        if length:
            body = self.rfile.read(length)
        try:
            code, payload, headers = self.server.repro.handle(
                method, self.path, body)
        except Exception as exc:   # noqa: BLE001 - the 500 boundary
            code, payload, headers = 500, _err(
                "internal", f"{type(exc).__name__}: {exc}"), {}
        data = json.dumps(payload, sort_keys=True).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    def do_PUT(self) -> None:        # JSON 405, not http.server's
        self._dispatch("PUT")        # HTML 501

    def do_DELETE(self) -> None:
        self._dispatch("DELETE")
