"""Cluster lifecycle: spawn shards, run the router, supervise restarts.

:class:`ClusterManager` owns the whole topology that ``hottiles serve
--cluster N`` runs: N shard worker processes (``python -m
repro.cluster.shard``), each bound to ``--port 0`` and reporting its
kernel-chosen port through the one-line stdout handshake, plus the
asyncio :class:`~repro.cluster.router.ClusterRouter` front end running on
a dedicated event-loop thread.

A supervisor thread polls shard processes; when one dies (crash, OOM,
``kill_shard`` chaos) its ring slot is marked down -- requests for its
digests answer ``503`` + ``Retry-After`` instead of dropping -- and the
shard is respawned with a small backoff, the router re-pointed at the
new ephemeral port, and the slot marked up again.  Shard-local state
(lineages, in-memory cache) dies with the process; completed plans
survive in the shared on-disk store, so the restarted shard warms back
up from content-addressed reads.

``drain_shard`` starts a graceful drain (in-flight plans finish, new
work answers ``503`` + ``Retry-After``), and ``restart_shard`` chains
drain -> stop -> respawn, which is the zero-dropped-connection rolling
restart docs/cluster.md describes.
"""

from __future__ import annotations

import asyncio
import os
import re
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, Optional

from repro.cluster.ipc import FrameError, recv_frame, send_frame
from repro.cluster.router import ClusterRouter
from repro.cluster.shard import HANDSHAKE_PREFIX

__all__ = ["ClusterManager", "ShardProcess"]

_HANDSHAKE_RE = re.compile(
    re.escape(HANDSHAKE_PREFIX) + r" shard=(\d+) port=(\d+) pid=(\d+)"
)

#: How long to wait for a freshly spawned shard to report its port.
HANDSHAKE_TIMEOUT_S = 30.0


def _src_root() -> str:
    """The directory that makes ``import repro`` work in a child."""
    import repro

    return str(Path(repro.__file__).resolve().parent.parent)


class ShardProcess:
    """One supervised shard worker process."""

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        self.proc: Optional[subprocess.Popen] = None
        self.port: int = 0
        self.restarts: int = 0
        self._handshake = threading.Event()
        self._reader: Optional[threading.Thread] = None

    @property
    def pid(self) -> Optional[int]:
        return self.proc.pid if self.proc is not None else None

    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None


class ClusterManager:
    """Spawn, front, and supervise a planning cluster."""

    def __init__(
        self,
        shards: int,
        store_dir: str,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        queue_depth: int = 16,
        timeout_s: float = 60.0,
        degraded_fallback: bool = True,
        supervise: bool = True,
        restart_backoff_s: float = 0.2,
        log=None,
    ) -> None:
        if shards < 1:
            raise ValueError("cluster needs at least one shard")
        self.host = host
        self.store_dir = str(store_dir)
        self.workers = workers
        self.queue_depth = queue_depth
        self.timeout_s = timeout_s
        self.degraded_fallback = degraded_fallback
        self.supervise = supervise
        self.restart_backoff_s = restart_backoff_s
        self._log = log or (lambda line: None)
        self._shards: Dict[int, ShardProcess] = {
            sid: ShardProcess(sid) for sid in range(shards)
        }
        self._stopped: set = set()  # shards intentionally taken down
        self._lock = threading.RLock()
        self._closing = threading.Event()
        self.router = ClusterRouter(
            {sid: (host, 0) for sid in self._shards}, host=host, port=port
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._loop_thread: Optional[threading.Thread] = None
        self._supervisor: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Startup
    # ------------------------------------------------------------------
    def start(self) -> None:
        Path(self.store_dir).mkdir(parents=True, exist_ok=True)
        for sid in self._shards:
            self._spawn(sid)
        self._start_router()
        if self.supervise:
            self._supervisor = threading.Thread(
                target=self._supervise_loop, name="cluster-supervisor", daemon=True
            )
            self._supervisor.start()

    def _spawn(self, shard_id: int) -> None:
        entry = self._shards[shard_id]
        cmd = [
            sys.executable, "-m", "repro.cluster.shard",
            "--shard-id", str(shard_id),
            "--host", self.host,
            "--port", "0",
            "--store-dir", self.store_dir,
            "--workers", str(self.workers),
            "--queue-depth", str(self.queue_depth),
            "--timeout", str(self.timeout_s),
        ]
        if not self.degraded_fallback:
            cmd.append("--no-degraded-fallback")
        env = dict(os.environ)
        src = _src_root()
        existing = env.get("PYTHONPATH", "")
        if src not in existing.split(os.pathsep):
            env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
        if entry._reader is not None:
            # A respawn: the old process has exited, so its reader is at
            # EOF and closes the old pipe.
            entry._reader.join(timeout=5.0)
        entry._handshake = threading.Event()
        entry.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        entry._reader = threading.Thread(
            target=self._read_shard_output, args=(entry, entry.proc),
            name=f"shard-{shard_id}-stdout", daemon=True,
        )
        entry._reader.start()
        if not entry._handshake.wait(HANDSHAKE_TIMEOUT_S):
            raise RuntimeError(
                f"shard {shard_id} did not report its port within "
                f"{HANDSHAKE_TIMEOUT_S:.0f}s"
            )
        self._log(
            f"shard {shard_id} up on {self.host}:{entry.port} pid={entry.pid}"
        )

    def _read_shard_output(self, entry: ShardProcess, proc: subprocess.Popen) -> None:
        """Drain one shard's stdout to EOF, then close it; catch the
        handshake line."""
        assert proc.stdout is not None
        with proc.stdout:
            for line in proc.stdout:
                line = line.rstrip("\n")
                match = _HANDSHAKE_RE.search(line)
                if match and int(match.group(1)) == entry.shard_id:
                    entry.port = int(match.group(2))
                    entry._handshake.set()
                elif line:
                    self._log(f"[shard {entry.shard_id}] {line}")

    def _start_router(self) -> None:
        for sid, entry in self._shards.items():
            self.router.update_shard(sid, self.host, entry.port)
        ready = threading.Event()

        def _run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            loop.run_until_complete(self.router.start())
            ready.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(self.router.stop())
                loop.close()

        self._loop_thread = threading.Thread(
            target=_run, name="cluster-router", daemon=True
        )
        self._loop_thread.start()
        if not ready.wait(10.0):
            raise RuntimeError("router event loop failed to start")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def bound_port(self) -> int:
        return self.router.bound_port

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.bound_port}"

    def describe(self) -> Dict[str, Any]:
        return {
            "host": self.host,
            "port": self.bound_port,
            "shards": [
                {
                    "shard": sid,
                    "port": entry.port,
                    "pid": entry.pid,
                    "alive": entry.alive(),
                    "restarts": entry.restarts,
                }
                for sid, entry in sorted(self._shards.items())
            ],
        }

    def shard_pid(self, shard_id: int) -> Optional[int]:
        return self._shards[shard_id].pid

    # ------------------------------------------------------------------
    # Control-plane ops (sync frame over a fresh connection)
    # ------------------------------------------------------------------
    def _control(self, shard_id: int, message: Dict[str, Any],
                 timeout_s: float = 10.0) -> Optional[Dict[str, Any]]:
        entry = self._shards[shard_id]
        try:
            with socket.create_connection(
                (self.host, entry.port), timeout=timeout_s
            ) as sock:
                send_frame(sock, message)
                return recv_frame(sock)
        except (OSError, FrameError):
            return None

    def drain_shard(self, shard_id: int) -> bool:
        """Start a graceful drain; the shard keeps answering 503s."""
        reply = self._control(shard_id, {"op": "drain"})
        return bool(reply and reply.get("status") == 200)

    def stop_shard(self, shard_id: int, timeout_s: float = 30.0) -> None:
        """Stop one shard's process without the supervisor respawning it."""
        with self._lock:
            self._stopped.add(shard_id)
        self.router.mark_down(shard_id)
        entry = self._shards[shard_id]
        self._control(shard_id, {"op": "stop"})
        if entry.proc is not None:
            try:
                entry.proc.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                entry.proc.kill()
                entry.proc.wait(timeout=5.0)

    def restart_shard(self, shard_id: int, drain: bool = True) -> None:
        """Rolling restart: drain, stop, respawn, re-point the router."""
        if drain:
            self.drain_shard(shard_id)
        self.stop_shard(shard_id)
        with self._lock:
            self._stopped.discard(shard_id)
            self._shards[shard_id].restarts += 1
            self._spawn(shard_id)
            entry = self._shards[shard_id]
        self.router.update_shard(shard_id, self.host, entry.port)

    def kill_shard(self, shard_id: int) -> Optional[int]:
        """SIGKILL a shard (chaos testing); the supervisor restarts it.

        The victim is marked down in the router immediately -- the
        supervisor's poll would do it within a tick anyway, but doing it
        synchronously means ``/healthz`` never reports the corpse as up,
        so callers can wait on ``shards_up`` recovering without racing
        the failure detector.
        """
        entry = self._shards[shard_id]
        pid = entry.pid
        if entry.proc is not None and entry.alive():
            entry.proc.kill()
            self.router.mark_down(shard_id)
        return pid

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------
    def _supervise_loop(self) -> None:
        while not self._closing.is_set():
            for sid, entry in self._shards.items():
                if self._closing.is_set():
                    return
                with self._lock:
                    intentionally_down = sid in self._stopped
                if intentionally_down or entry.alive():
                    continue
                self.router.mark_down(sid)
                self._log(f"shard {sid} died (pid={entry.pid}); restarting")
                self._closing.wait(self.restart_backoff_s)
                if self._closing.is_set():
                    return
                try:
                    with self._lock:
                        entry.restarts += 1
                        self._spawn(sid)
                    self.router.update_shard(sid, self.host, entry.port)
                except (RuntimeError, OSError) as exc:
                    self._log(f"shard {sid} restart failed: {exc}")
            self._closing.wait(0.1)

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Stop the supervisor, every shard, then the router loop."""
        self._closing.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout=5.0)
        for sid, entry in self._shards.items():
            with self._lock:
                self._stopped.add(sid)
            if entry.alive():
                self._control(sid, {"op": "stop"}, timeout_s=5.0)
        for entry in self._shards.values():
            if entry.proc is None:
                continue
            try:
                entry.proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                entry.proc.kill()
                try:
                    entry.proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    continue
            if entry._reader is not None:
                entry._reader.join(timeout=5.0)
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._loop_thread is not None:
            self._loop_thread.join(timeout=10.0)

    # ------------------------------------------------------------------
    def __enter__(self) -> "ClusterManager":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
