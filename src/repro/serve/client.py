"""A small stdlib HTTP client for the serve API.

Used by ``repro serve submit``/``status``, the Poisson load generator,
the CI smoke test, and the chaos tests — one implementation of the
JSON-over-HTTP contract instead of four.  ``http.client`` (and with it
``email.*`` and ``ssl``) is imported by the first request, not by
importing this module.
"""

from __future__ import annotations

import json
import time
from typing import Dict, Optional, Tuple
from urllib.parse import urlparse

from ..errors import ReproError


class ServeUnavailable(ReproError):
    """The server did not answer (connection refused, socket error)."""


class JobTimeout(ReproError):
    """A job did not reach a terminal state within the wait budget."""


class ServeClient:
    """One server endpoint; a fresh connection per request (the load
    generator runs many of these concurrently across threads)."""

    def __init__(self, url: str, timeout_s: float = 10.0):
        parsed = urlparse(url)
        if parsed.scheme != "http" or not parsed.hostname:
            raise ReproError(f"serve url must be http://host:port, "
                             f"got {url!r}")
        try:
            port = parsed.port
        except ValueError as exc:       # non-numeric or out of range
            raise ReproError(f"serve url {url!r}: {exc}") from exc
        self.host = parsed.hostname
        self.port = port or 80
        self.timeout_s = timeout_s

    def request(self, method: str, path: str,
                body: Optional[Dict] = None) -> Tuple[int, Dict, Dict]:
        """Returns (status, parsed JSON body, response headers).

        Every transport failure — no connection, a reply that is not
        HTTP, a body cut short — raises :class:`ServeUnavailable`."""
        from http.client import HTTPConnection, HTTPException
        conn = HTTPConnection(self.host, self.port,
                              timeout=self.timeout_s)
        try:
            payload = (json.dumps(body).encode()
                       if body is not None else None)
            headers = {"Content-Type": "application/json"} \
                if payload else {}
            conn.request(method, path, body=payload, headers=headers)
            resp = conn.getresponse()
            raw = resp.read()
            try:
                data = json.loads(raw) if raw else {}
            except json.JSONDecodeError:
                data = {"ok": False, "raw": raw.decode(errors="replace")}
            return resp.status, data, dict(resp.getheaders())
        except (OSError, HTTPException) as exc:
            raise ServeUnavailable(
                f"{method} {self.host}:{self.port}{path}: {exc}") from exc
        finally:
            conn.close()

    # -- the API surface -------------------------------------------------

    def submit(self, scenario: Dict, key: Optional[str] = None,
               client: Optional[str] = None) -> Tuple[int, Dict, Dict]:
        body: Dict = {"scenario": scenario}
        if key is not None:
            body["key"] = key
        if client is not None:
            body["client"] = client
        return self.request("POST", "/jobs", body)

    def job(self, job_id: str) -> Tuple[int, Dict]:
        status, data, _ = self.request("GET", f"/jobs/{job_id}")
        return status, data

    def jobs(self) -> Dict:
        return self.request("GET", "/jobs")[1]

    def wait(self, job_id: str, timeout_s: float = 60.0,
             poll_s: float = 0.05) -> Dict:
        """Poll until the job is terminal; returns the job dict."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            status, data = self.job(job_id)
            if status == 200:
                job = data["job"]
                if job["state"] not in ("queued", "running"):
                    return job
            time.sleep(poll_s)
        raise JobTimeout(f"job {job_id} not terminal after {timeout_s}s")

    def healthz(self) -> Tuple[int, Dict]:
        status, data, _ = self.request("GET", "/healthz")
        return status, data

    def readyz(self) -> Tuple[int, Dict]:
        status, data, _ = self.request("GET", "/readyz")
        return status, data

    def metricz(self) -> Dict:
        return self.request("GET", "/metricz")[1]

    def drain(self) -> Tuple[int, Dict]:
        status, data, _ = self.request("POST", "/drain")
        return status, data

    def wait_ready(self, timeout_s: float = 15.0) -> None:
        deadline = time.monotonic() + timeout_s
        last = "no answer"
        while time.monotonic() < deadline:
            try:
                status, _ = self.readyz()
                if status == 200:
                    return
                last = f"readyz={status}"
            except ServeUnavailable as exc:
                last = str(exc)
            time.sleep(0.05)
        raise ServeUnavailable(
            f"server at {self.host}:{self.port} not ready after "
            f"{timeout_s}s ({last})")
