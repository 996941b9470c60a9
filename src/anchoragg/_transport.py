"""The one wire transport of the external services: a JSON object per request
and per reply, as one HTTP POST or as one line on a child process's stdin and
stdout. No retries: every failure raises the caller's error class at once."""

from __future__ import annotations

import contextlib
import json
import subprocess
import threading
from typing import Sequence


class JsonLinesTransport:
    """Round trips to an HTTP ``endpoint`` or to a ``command`` run as a child.

    ``service`` names the peer in the messages of the ``error`` it raises.
    The child starts on first use and restarts if it has exited; a lock
    serializes its exchanges, so threads may share one transport.
    """

    def __init__(self, endpoint: str | None, command: Sequence[str] | None,
                 timeout: float, error: type[Exception], service: str):
        if (endpoint is None) == (command is None):
            raise ValueError("exactly one of endpoint/command must be given")
        self.endpoint = endpoint
        self.command = list(command) if command else None
        self.timeout = timeout
        self.error = error
        self.service = service
        self._proc = None
        self._lock = threading.Lock()

    def roundtrip(self, request: dict) -> dict:
        reply = self._post(request) if self.endpoint else self._exchange(request)
        try:
            return json.loads(reply)
        except ValueError as exc:
            raise self.error(f"{self.service} response is not JSON") from exc

    def _post(self, request: dict) -> bytes:
        # lazy: urllib.request adds ~27 ms and ~1.8 MB to every start-up
        import http.client
        import urllib.error
        import urllib.request

        post = urllib.request.Request(
            self.endpoint, data=json.dumps(request).encode("utf-8"),
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(post, timeout=self.timeout) as resp:
                status = resp.status
                if status == 200:
                    return resp.read()
        except urllib.error.HTTPError as exc:
            exc.close()
            status = exc.code
        except (OSError, http.client.HTTPException) as exc:
            raise self.error(f"{self.service} endpoint unreachable: {exc}") from exc
        raise self.error(f"{self.service} endpoint returned HTTP {status}")

    def _exchange(self, request: dict) -> str:
        with self._lock:
            if self._proc is None or self._proc.poll() is not None:
                self.close()
                self._proc = subprocess.Popen(
                    self.command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                    text=True, bufsize=1)
            try:
                self._proc.stdin.write(json.dumps(request) + "\n")
                self._proc.stdin.flush()
                line = self._proc.stdout.readline()
            except OSError as exc:
                raise self.error(f"{self.service} subprocess failed: {exc}") from exc
        if not line:
            raise self.error(f"{self.service} subprocess closed its stdout")
        return line

    def close(self) -> None:
        """End the child: close its stdin, wait 5 s for it to exit, then kill it."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        with contextlib.suppress(OSError):  # a dead child's unflushed pipe
            proc.stdin.close()
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()
