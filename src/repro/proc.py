"""Process supervision: the one place in ``repro`` that forks.

The gate's scenario children, the serve supervisor's job attempts and
the cluster's shard workers each run in a :class:`Worker`, and every
wait on them is :func:`wait`.  docs/architecture.md §8 is the contract.
``multiprocessing`` is imported on first use, so importing this module
(and the packages built on it) stays cheap.
"""

from __future__ import annotations

import contextlib
import os
import select
import signal
import time
import traceback
import weakref
from typing import Iterable, List, Optional

from .errors import ReproError

#: Seconds a child gets to exit on its own — after its pipe closes
#: (:meth:`Worker.close`) or after SIGTERM (:meth:`Worker.kill`) —
#: before the next rung of the ladder.
GRACE_S = 5.0

#: Deadline for each reply a forked shard worker owes the cluster
#: runner.  The slowest reply measured on ``repro collective --engine nic
#: --algo barrier --hosts 1024 --workers 2`` (2-CPU x86 VM, three runs)
#: is shard construction, 0.43-0.82 s; this is over 70x that.
REPLY_TIMEOUT_S = 60.0


class WorkerError(ReproError):
    """The child raised: ``kind`` is the exception class name, ``text``
    the child-side traceback (ending in the exception message)."""

    def __init__(self, name: str, kind: str, text: str):
        super().__init__(f"{name} raised {kind}:\n{text}")
        self.kind = kind
        self.text = text


class WorkerDied(ReproError):
    """The child exited without reporting.  ``signal`` is the POSIX
    signal name when a signal killed it, else ``None``."""

    def __init__(self, exitcode, name: str = "worker"):
        sig = None
        if isinstance(exitcode, int) and exitcode < 0:
            try:
                sig = signal.Signals(-exitcode).name
            except ValueError:  # pragma: no cover - unknown signal
                sig = f"signal {-exitcode}"
        detail = f"killed by {sig}" if sig else f"exitcode={exitcode}"
        super().__init__(f"{name} died without reporting ({detail})")
        self.exitcode = exitcode
        self.signal = sig


class WorkerHung(ReproError):
    """A reply did not arrive within its deadline."""


def reply(conn, fn, *args) -> None:
    """A one-shot body: report ``("done", fn(*args))``."""
    conn.send(("done", fn(*args)))


def _run_body(body, conn, parent_end, *args) -> None:  # pragma: no cover
    # The fork copied the parent's end too; holding it would keep the
    # pipe open, so the child could never see EOF when the parent closes.
    parent_end.close()
    try:
        body(conn, *args)
    except BaseException as exc:
        with contextlib.suppress(OSError):  # the parent is gone
            conn.send(("error", type(exc).__name__, traceback.format_exc()))
    finally:
        conn.close()


class Worker:
    """A forked child running ``body(conn, *args)`` over one duplex pipe.

    ``name`` heads every error this worker raises.  A worker is a valid
    :func:`wait` target (it has a ``fileno``).
    """

    def __init__(self, body, *args, name: str = "worker"):
        import multiprocessing as mp
        ctx = mp.get_context("fork")
        self.name = name
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=_run_body,
                                args=(body, child, self.conn) + args,
                                daemon=True)
        self.started = time.monotonic()
        self.proc.start()
        child.close()
        self.pid = self.proc.pid
        # One reusable poll set: a reply deadline costs one syscall.
        self._poll = select.poll()
        self._poll.register(self.conn.fileno(), select.POLLIN)

    def fileno(self) -> int:
        return self.conn.fileno()

    def wall(self) -> float:
        """Seconds since the child was forked."""
        return time.monotonic() - self.started

    def send(self, msg) -> None:
        try:
            self.conn.send(msg)
        except (BrokenPipeError, ConnectionResetError):
            raise self._died() from None

    def recv(self, timeout: Optional[float] = None):
        """The child's next message; raises :class:`WorkerHung` if none
        arrives within ``timeout`` seconds (``None`` = wait forever)."""
        if timeout is not None and not self._poll.poll(timeout * 1000):
            raise WorkerHung(f"{self.name} sent nothing for {timeout:g}s")
        try:
            msg = self.conn.recv()
        except (EOFError, ConnectionResetError):
            # EOF when the pipe drained first; ECONNRESET when the kill
            # landed mid-read.  Same fact either way.
            raise self._died() from None
        if msg[0] == "error":
            raise WorkerError(self.name, msg[1], msg[2])
        return msg

    def _died(self) -> WorkerDied:
        # Join first: until the child is reaped, exitcode reads None even
        # though the pipe already says it is dead.
        self.proc.join(GRACE_S)
        return WorkerDied(self.proc.exitcode, self.name)

    def kill(self) -> None:
        """Terminate → grace → SIGKILL → join: the child WILL be gone."""
        self.conn.close()
        self.proc.terminate()
        self.proc.join(GRACE_S)
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join()

    def close(self) -> bool:
        """Close the pipe and let the child exit; :meth:`kill` it if it
        has not within the grace.  True when it had to escalate."""
        self.conn.close()
        self.proc.join(GRACE_S)
        if not self.proc.is_alive():
            return False
        self.kill()
        return True


class Wake:
    """A self-pipe: :meth:`set` from any thread ends a :func:`wait`."""

    def __init__(self):
        self._r, self._w = os.pipe()
        for fd in (self._r, self._w):
            os.set_blocking(fd, False)
            # Closed once garbage: only then is no thread about to set().
            weakref.finalize(self, os.close, fd)

    def fileno(self) -> int:
        return self._r

    def set(self) -> None:
        with contextlib.suppress(BlockingIOError):  # a wake is pending
            os.write(self._w, b"\0")

    def clear(self) -> None:
        with contextlib.suppress(BlockingIOError):
            while os.read(self._r, 4096):
                pass


def wait(workers: Iterable[Worker], timeout: Optional[float] = None,
         wake: Optional[Wake] = None) -> List[Worker]:
    """Block until a worker's pipe is readable (a message or EOF),
    ``wake`` is set, or ``timeout`` seconds pass (``None`` = no limit).
    Returns the readable workers; a fired ``wake`` is cleared."""
    from multiprocessing.connection import wait as conn_wait
    targets = list(workers) + ([wake] if wake is not None else [])
    ready = conn_wait(targets, timeout)
    if wake in ready:
        wake.clear()
    return [w for w in ready if w is not wake]
