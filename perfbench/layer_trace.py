"""Per-layer CPU and wall accounting by wrapping public functions at runtime.

Nothing under ``src/`` is edited: :class:`LayerTrace` replaces each listed
method (at class level) or module function with a wrapper that counts the
call and times it with ``time.thread_time_ns`` and ``time.perf_counter_ns``.
Install it before the deployment is built, because objects capture bound
methods at start-up; remove it with :meth:`LayerTrace.uninstall`.

A layer's *self* time is its call's time minus the time of wrapped calls
nested inside it on the same thread (``serialize`` runs inside ``worker``
and ``executor``, ``queues`` inside ``service`` ...), so self times add up
without double counting.  Counts live in one table per thread; a snapshot
sums the tables, and the per-task figures are differences of two snapshots
taken around the measured phase.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time

#: layer -> (module, class or None for a module function, attribute names).
LAYERS: dict[str, list[tuple[str, str | None, tuple[str, ...]]]] = {
    "executor": [("repro.core.executor", "FuncXExecutor", ("submit",)),
                 ("repro.core.client", "FuncXClient", ("batch_run", "submit"))],
    "service": [("repro.core.service", "FuncXService",
                 ("submit_batch", "submit", "complete_task", "get_result"))],
    "queues": [("repro.store.queues", "ReliableQueue",
                ("put", "lease_many", "ack"))],
    "forwarder": [("repro.core.forwarder", "Forwarder", ("step",))],
    "channel": [("repro.transport.channel", "ChannelEnd",
                 ("send", "send_many", "recv_all_ready"))],
    "agent": [("repro.endpoint.agent", "FuncXAgent", ("step",))],
    "manager": [("repro.endpoint.manager", "Manager", ("step",))],
    "worker": [("repro.endpoint.worker", None, ("execute_task_message",))],
    "serialize": [("repro.serialize.facade", "FuncXSerializer",
                   ("serialize", "deserialize"))],
    "stream": [("repro.core.stream", "ResultStreamServer", ("step",)),
               ("repro.core.stream", "ResultSubscription", ("ack",))],
}

#: Step loops: a call that returns 0 processed no event (a wasted wake-up).
STEP_LAYERS = ("forwarder", "agent", "manager", "stream")

#: The benchmark's own result checking and bookkeeping, timed like a layer
#: so that ``handoff`` holds only fabric time outside every wrapped call.
CHECKER = "checker"

# Row fields of a per-thread table entry.
CALLS, CPU_NS, WALL_NS, IDLE, BYTES = range(5)


class LayerTrace:
    """Installs the layer wrappers and sums their per-thread tables."""

    def __init__(self) -> None:
        self.layers = (*LAYERS, CHECKER)
        self._local = threading.local()
        self._tables: list[dict[str, list[int]]] = []
        self._tables_lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    # -- accounting -------------------------------------------------------
    def _state(self) -> tuple[dict[str, list[int]], list[list[int]]]:
        local = self._local
        table = getattr(local, "table", None)
        if table is None:
            table = {layer: [0, 0, 0, 0, 0] for layer in self.layers}
            local.table = table
            local.stack = []
            with self._tables_lock:
                self._tables.append(table)
        return table, local.stack

    def wrap(self, layer: str, fn, step: bool = False, nbytes=None):
        """``fn`` wrapped so each call is charged to ``layer``.

        ``step`` counts calls returning 0 as idle; ``nbytes(args, result)``
        adds the bytes the call moved.
        """
        thread_ns = time.thread_time_ns
        wall_ns = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            table, stack = self._state()
            children = [0, 0]
            stack.append(children)
            cpu0 = thread_ns()
            wall0 = wall_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                cpu = thread_ns() - cpu0
                wall = wall_ns() - wall0
                stack.pop()
                row = table[layer]
                row[CALLS] += 1
                row[CPU_NS] += cpu - children[0]
                row[WALL_NS] += wall - children[1]
                if stack:
                    parent = stack[-1]
                    parent[0] += cpu
                    parent[1] += wall
            if step and result == 0:
                table[layer][IDLE] += 1
            if nbytes is not None:
                table[layer][BYTES] += nbytes(args, result)
            return result

        return wrapper

    def wrap_checker(self, fn):
        return self.wrap(CHECKER, fn)

    def snapshot(self) -> dict[str, list[int]]:
        """Field sums over every thread's table, per layer."""
        with self._tables_lock:
            tables = list(self._tables)
        totals = {layer: [0, 0, 0, 0, 0] for layer in self.layers}
        for table in tables:
            for layer, row in table.items():
                total = totals[layer]
                for field, value in enumerate(list(row)):
                    total[field] += value
        return totals

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("layer trace already installed")
        for layer, targets in LAYERS.items():
            for module_name, class_name, attrs in targets:
                module = importlib.import_module(module_name)
                owner = module if class_name is None else getattr(module, class_name)
                for attr in attrs:
                    original = owner.__dict__[attr]
                    self._saved.append((owner, attr, original))
                    setattr(owner, attr, self.wrap(
                        layer, original, step=layer in STEP_LAYERS,
                        nbytes=_serialized_bytes if layer == "serialize" else None))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _serialized_bytes(args: tuple, result) -> int:
    """Buffer size of a ``serialize`` result or ``deserialize`` argument."""
    if isinstance(result, (bytes, bytearray)):
        return len(result)
    if len(args) > 1 and isinstance(args[1], (bytes, bytearray)):
        return len(args[1])
    return 0


def layer_metrics(delta: dict[str, list[int]], tasks: int) -> dict[str, float]:
    """Per-task layer figures from summed snapshot differences."""
    out: dict[str, float] = {}
    for layer, row in delta.items():
        calls = row[CALLS]
        out[f"{layer}.calls_per_task"] = calls / tasks
        out[f"{layer}.cpu_us_per_task"] = row[CPU_NS] / 1e3 / tasks
        out[f"{layer}.wall_us_per_task"] = row[WALL_NS] / 1e3 / tasks
        if layer in STEP_LAYERS:
            out[f"{layer}.idle_call_frac"] = row[IDLE] / calls if calls else 0.0
        if layer == "serialize":
            out["serialize.bytes_per_task"] = row[BYTES] / tasks
    return out
