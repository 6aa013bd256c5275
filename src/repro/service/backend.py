"""Execution backends: where a shard's scoring actually runs.

Two strategies, one contract.  A backend owns ``n_shards`` scoring
workers; the service calls :meth:`ShardBackend.step` with one tick's
rows and gets a :class:`~repro.service.shard.ShardStepResult` back, and
the per-shard call sequence is strictly ordered (the service never
pipelines two ticks of the *same* shard).  Strategies:

- ``sequential`` — scorers live in-process, steps run inline on the
  event loop.  The determinism baseline.
- ``process`` — one long-lived worker process per shard (forked once,
  like the PR 7 warm pool), each holding its shard's scorer with the
  shared fitted detector copied at fork.  Tick rows travel through a
  preallocated ``multiprocessing.shared_memory`` buffer per shard (the
  same result-buffer idiom as ``repro.perf.pool``), with a pickled-pipe
  fallback when shared memory is unavailable; results return over the
  pipe as small scalar-only dataclasses.

Every backend implements the same crash-recovery surface: ``crash``
(test hook: the worker dies), ``restart`` (fresh worker, blank scorer)
and ``restore`` (load a :class:`~repro.service.shard.ShardState`
snapshot) — the service composes them into snapshot/replay recovery
that provably loses no quarantine state.
"""

from __future__ import annotations

from multiprocessing import get_context, shared_memory
from typing import Callable

import numpy as np

from repro.errors import ConfigError, ServiceError, ShardCrashed
from repro.service.shard import ShardScorer, ShardState, ShardStepResult

#: Recognized execution strategies.
STRATEGIES = ("sequential", "process")


def _fork_context():
    try:
        return get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX hosts
        return get_context("spawn")


class ShardBackend:
    """Common surface; concrete backends override the worker plumbing."""

    strategy: str = ""

    def __init__(
        self, make_scorer: Callable[[int], ShardScorer], n_shards: int
    ) -> None:
        if n_shards < 1:
            raise ConfigError(f"need at least one shard, got {n_shards}")
        self.make_scorer = make_scorer
        self.n_shards = n_shards

    def start(self) -> None:
        raise NotImplementedError

    def step(
        self, shard: int, tick: int, t: float, rows: np.ndarray
    ) -> ShardStepResult:
        raise NotImplementedError

    def snapshot(self, shard: int) -> ShardState:
        raise NotImplementedError

    def restore(self, shard: int, state: ShardState) -> None:
        raise NotImplementedError

    def crash(self, shard: int) -> None:
        raise NotImplementedError

    def restart(self, shard: int) -> None:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


class InProcessBackend(ShardBackend):
    """Scorers in this process, stepped inline (``sequential``)."""

    strategy = "sequential"

    def __init__(
        self, make_scorer: Callable[[int], ShardScorer], n_shards: int
    ) -> None:
        super().__init__(make_scorer, n_shards)
        self._scorers: list[ShardScorer | None] = [None] * n_shards

    def start(self) -> None:
        self._scorers = [self.make_scorer(i) for i in range(self.n_shards)]

    def _scorer(self, shard: int) -> ShardScorer:
        scorer = self._scorers[shard]
        if scorer is None:
            raise ShardCrashed(f"shard {shard} worker is down")
        return scorer

    def step(
        self, shard: int, tick: int, t: float, rows: np.ndarray
    ) -> ShardStepResult:
        return self._scorer(shard).step_tick(tick, t, rows)

    def snapshot(self, shard: int) -> ShardState:
        return self._scorer(shard).snapshot()

    def restore(self, shard: int, state: ShardState) -> None:
        self._scorer(shard).restore(state)

    def crash(self, shard: int) -> None:
        self._scorers[shard] = None

    def restart(self, shard: int) -> None:
        self._scorers[shard] = self.make_scorer(shard)

    def close(self) -> None:
        self._scorers = [None] * self.n_shards


# -- process backend -----------------------------------------------------------


def _shard_worker(conn, scorer: ShardScorer, rows_view) -> None:
    """Worker loop: step/snapshot/restore/stop over the pipe.

    ``rows_view`` is the forked-in numpy view over the shard's shared
    row buffer (None in pickled-pipe fallback mode).  Every reply is
    ``("ok", payload)`` or ``("err", message)``; unexpected worker death
    surfaces in the parent as :class:`ShardCrashed` via EOF.
    """
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):  # pragma: no cover - parent died
            return
        try:
            cmd = msg[0]
            if cmd == "step":
                _, tick, t, rows = msg
                if isinstance(rows, int):
                    # Rows live in the shared buffer; the int is the
                    # true column count to slice out of the wide view.
                    rows = rows_view[:, :rows].copy()
                conn.send(("ok", scorer.step_tick(tick, t, rows)))
            elif cmd == "snapshot":
                conn.send(("ok", scorer.snapshot()))
            elif cmd == "restore":
                scorer.restore(msg[1])
                conn.send(("ok", None))
            elif cmd == "stop":
                conn.send(("ok", None))
                return
            else:
                conn.send(("err", f"unknown command {cmd!r}"))
        except Exception as exc:  # noqa: BLE001 - forwarded to parent
            conn.send(("err", f"{type(exc).__name__}: {exc}"))


#: Widest row the shared buffers preallocate for (columns).  Featurized
#: rows are n_cores + 3 software features + current; 64 covers any SoC
#: in the spec sheet with room to spare at 512 bytes per board.
_ROW_COLUMNS_MAX = 64


class _ShardWorkerHandle:
    """One worker process plus its pipe and shared row buffer.

    The buffer is created before the fork, so the child inherits the
    mapping directly (no attach, no resource-tracker double-count);
    the parent alone closes and unlinks it.
    """

    def __init__(self, ctx, index: int, scorer: ShardScorer, use_shm: bool):
        self.index = index
        self.shm = None
        self.rows_view = None
        if use_shm:
            try:
                self.shm = shared_memory.SharedMemory(
                    create=True,
                    size=scorer.n_boards * _ROW_COLUMNS_MAX * 8,
                )
                self.rows_view = np.ndarray(
                    (scorer.n_boards, _ROW_COLUMNS_MAX),
                    dtype=np.float64,
                    buffer=self.shm.buf,
                )
            except OSError:  # pragma: no cover - /dev/shm unavailable
                self.shm = None
        self.conn, child_conn = ctx.Pipe()
        self.proc = ctx.Process(
            target=_shard_worker,
            args=(child_conn, scorer, self.rows_view),
            daemon=True,
        )
        self.proc.start()
        child_conn.close()

    def close(self, terminate: bool = False) -> None:
        if terminate and self.proc.is_alive():
            self.proc.terminate()
        self.proc.join(timeout=5.0)
        self.conn.close()
        if self.shm is not None:
            self.rows_view = None
            self.shm.close()
            try:
                self.shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            self.shm = None


class ProcessBackend(ShardBackend):
    """One forked worker process per shard, rows via shared memory."""

    strategy = "process"

    def __init__(
        self,
        make_scorer: Callable[[int], ShardScorer],
        n_shards: int,
        use_shm: bool = True,
    ) -> None:
        super().__init__(make_scorer, n_shards)
        self.use_shm = use_shm
        self._ctx = _fork_context()
        self._handles: list[_ShardWorkerHandle | None] = [None] * n_shards

    def start(self) -> None:
        for i in range(self.n_shards):
            self._handles[i] = _ShardWorkerHandle(
                self._ctx, i, self.make_scorer(i), self.use_shm
            )

    def _handle(self, shard: int) -> _ShardWorkerHandle:
        handle = self._handles[shard]
        if handle is None or not handle.proc.is_alive():
            raise ShardCrashed(f"shard {shard} worker is down")
        return handle

    def _call(self, shard: int, msg: tuple):
        handle = self._handle(shard)
        try:
            handle.conn.send(msg)
            status, payload = handle.conn.recv()
        except (EOFError, BrokenPipeError, OSError) as exc:
            raise ShardCrashed(
                f"shard {shard} worker died mid-call: {exc}"
            ) from exc
        if status != "ok":
            raise ServiceError(f"shard {shard} worker error: {payload}")
        return payload

    def step(
        self, shard: int, tick: int, t: float, rows: np.ndarray
    ) -> ShardStepResult:
        handle = self._handle(shard)
        if handle.rows_view is not None and (
            rows.shape[1] <= _ROW_COLUMNS_MAX
        ):
            n, d = rows.shape
            handle.rows_view[:n, :d] = rows
            # Worker slices its (n, d) view; send the width only.
            return self._call(shard, ("step", tick, t, d))
        return self._call(shard, ("step", tick, t, rows))

    def snapshot(self, shard: int) -> ShardState:
        return self._call(shard, ("snapshot",))

    def restore(self, shard: int, state: ShardState) -> None:
        self._call(shard, ("restore", state))

    def crash(self, shard: int) -> None:
        handle = self._handles[shard]
        if handle is not None and handle.proc.is_alive():
            handle.proc.terminate()
            handle.proc.join(timeout=5.0)

    def restart(self, shard: int) -> None:
        handle = self._handles[shard]
        if handle is not None:
            handle.close(terminate=True)
        self._handles[shard] = _ShardWorkerHandle(
            self._ctx, shard, self.make_scorer(shard), self.use_shm
        )

    def close(self) -> None:
        for i, handle in enumerate(self._handles):
            if handle is not None:
                try:
                    if handle.proc.is_alive():
                        handle.conn.send(("stop",))
                        handle.conn.recv()
                except (EOFError, BrokenPipeError, OSError):
                    pass
                handle.close(terminate=True)
            self._handles[i] = None


def make_backend(
    strategy: str,
    make_scorer: Callable[[int], ShardScorer],
    n_shards: int,
) -> ShardBackend:
    """Backend factory keyed by strategy name."""
    if strategy == "sequential":
        return InProcessBackend(make_scorer, n_shards)
    if strategy == "process":
        return ProcessBackend(make_scorer, n_shards)
    raise ConfigError(
        f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
    )
