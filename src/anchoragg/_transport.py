"""The one wire transport of the external services: a JSON object per request
and per reply, as one HTTP POST or as one line on a child process's stdin and
stdout. No retries: every failure raises the caller's error class at once."""

from __future__ import annotations

import contextlib
import json
import os
import select
import subprocess
import threading
import time
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
        self._pending = b""  # bytes the child wrote past its last full line
        self._lock = threading.Lock()

    def roundtrip(self, request: dict) -> dict:
        reply = self._post(request) if self.endpoint else self._exchange(request)
        try:
            payload = json.loads(reply)
        except ValueError as exc:
            raise self.error(f"{self.service} response is not JSON") from exc
        if not isinstance(payload, dict):
            raise self.error(f"{self.service} response is not a JSON object")
        return payload

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

    def _exchange(self, request: dict) -> bytes:
        with self._lock:
            if self._proc is None or self._proc.poll() is not None:
                self.close()
                self._proc = subprocess.Popen(
                    self.command, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
                # written raw, so a child that stops reading cannot block us
                os.set_blocking(self._proc.stdin.fileno(), False)
                self._pending = b""
            deadline = time.monotonic() + self.timeout
            try:
                sent = self._write(json.dumps(request).encode("utf-8") + b"\n",
                                   deadline)
                line = self._read_line(deadline) if sent else None
            except OSError as exc:
                self.close()
                raise self.error(f"{self.service} subprocess failed: {exc}") from exc
            if line is None:
                self._end(grace=0)
                raise self.error(f"{self.service} subprocess did not "
                                 f"{'reply' if sent else 'read its request'} "
                                 f"within {self.timeout} s")
            if not line:
                self.close()  # reap the child now, not on the next request
                raise self.error(f"{self.service} subprocess closed its stdout")
        return line

    def _write(self, data: bytes, deadline: float) -> bool:
        """Write ``data`` to the child's stdin; False when ``deadline`` passes
        first. A request the pipe has room for goes out in one write, with
        no wait; a larger one waits only while the pipe is full."""
        fd = self._proc.stdin.fileno()
        view = memoryview(data)
        while view:
            try:
                view = view[os.write(fd, view):]
            except BlockingIOError:
                left = deadline - time.monotonic()
                if left <= 0 or not select.select([], [fd], [], left)[1]:
                    return False
        return True

    def _read_line(self, deadline: float) -> bytes | None:
        """The child's next line; b"" at end of output, None when
        ``deadline`` passes first. The deadline covers the whole line, so a
        child that hangs mid-line cannot stall the caller either."""
        fd = self._proc.stdout.fileno()  # read raw: select cannot see a buffer
        while b"\n" not in self._pending:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                return None
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return b""
            self._pending += chunk
        line, _, self._pending = self._pending.partition(b"\n")
        return line

    def close(self) -> None:
        """End the child: close its stdin, wait 5 s for it to exit, then kill it."""
        self._end(grace=5)

    def _end(self, grace: float) -> None:
        proc, self._proc = self._proc, None
        if proc is None:
            return
        with contextlib.suppress(OSError):  # a dead child's unflushed pipe
            proc.stdin.close()
        try:
            proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()
