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
        """The body of the reply to one POST. ``timeout`` bounds the whole
        exchange: connecting, then sending the request and reading the
        reply, after which a timer shuts the socket, so a reply that drips
        in cannot outlast it."""
        # lazy: only an HTTP service needs them
        import http.client
        import socket
        import urllib.parse

        deadline = time.monotonic() + self.timeout
        url = urllib.parse.urlsplit(self.endpoint)
        expired = threading.Event()
        try:
            if url.scheme not in ("http", "https"):
                raise ValueError(f"not an http(s) URL: {self.endpoint!r}")
            conn = (http.client.HTTPSConnection if url.scheme == "https" else
                    http.client.HTTPConnection)(url.hostname, url.port,
                                                timeout=self.timeout)
            with contextlib.closing(conn):
                conn.connect()
                # held here: the connection lets go of it once the headers
                # say the server closes, but the response reads on
                sock = conn.sock

                def expire():
                    expired.set()
                    with contextlib.suppress(OSError):
                        sock.shutdown(socket.SHUT_RDWR)

                timer = threading.Timer(deadline - time.monotonic(), expire)
                timer.start()
                try:
                    conn.request("POST", urllib.parse.urlunsplit(
                        ("", "", url.path or "/", url.query, "")),
                        body=json.dumps(request).encode("utf-8"),
                        headers={"Content-Type": "application/json"})
                    resp = conn.getresponse()
                    status, body = resp.status, resp.read()
                finally:
                    timer.cancel()
                    timer.join()  # the timer must not outlive the socket
        except (OSError, ValueError, http.client.HTTPException) as exc:
            if not expired.is_set():
                raise self.error(f"{self.service} endpoint unreachable: {exc}") from exc
        if expired.is_set():
            raise self.error(f"{self.service} endpoint did not reply within "
                             f"{self.timeout} s")
        if status != 200:
            raise self.error(f"{self.service} endpoint returned HTTP {status}")
        return body

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
        """Close the child's stdin and reap it as soon as it exits, killing
        it if it has not exited within ``grace`` seconds."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        with contextlib.suppress(OSError):  # a dead child's unflushed pipe
            proc.stdin.close()
        if not _exits_within(proc, grace):
            proc.kill()
        proc.wait()
        proc.stdout.close()


def _exits_within(proc: subprocess.Popen, grace: float) -> bool:
    """Whether ``proc`` exits within ``grace`` seconds. Where the platform
    has process handles (``os.pidfd_open``), the wait is one ``select`` on
    the child's, which wakes the moment it exits; elsewhere it is
    ``Popen.wait``, which polls."""
    if proc.returncode is None and hasattr(os, "pidfd_open"):
        try:
            handle = os.pidfd_open(proc.pid)
        except OSError:  # a kernel without pidfd support
            pass
        else:
            try:
                return bool(select.select([handle], [], [], grace)[0])
            finally:
                os.close(handle)
    try:
        proc.wait(timeout=grace)
    except subprocess.TimeoutExpired:
        return False
    return True
