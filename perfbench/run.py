"""Measured end-to-end benchmark of the live fabric, with zero injected latency.

One ``LocalDeployment`` (1 endpoint, 1 node, the default 4 workers and the
default ``EndpointConfig``) runs one of three seeded workloads:

* ``saturate_noop``    closed loop, ``FuncXExecutor``, a window of identity
                       tasks several times the endpoint's credit window;
* ``interactive_noop`` open loop, Poisson arrivals through
                       ``FuncXClient.submit`` (one request per task);
* ``payload_echo``     closed loop, small window, ``FuncXExecutor``, random
                       bytes above the stream's spill threshold echoed back.

Usage, from the repository root::

    python3 perfbench/run.py --workload saturate_noop --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
workload half of ``--seconds`` untraced and half traced (layer functions
wrapped at runtime, see ``layer_trace.py``) and prints the per-layer CPU
budget, the waits read from the task records, the registry counts and the
tracing overhead.
Every result is checked; the last line of output is one JSON object, and
the exit code is 1 when any task failed, timed out or returned a wrong
value.  See ``NOTES.md`` for the reasons behind each workload.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import math
import queue
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from layer_trace import LayerTrace, layer_metrics

SRC = Path(__file__).resolve().parent.parent / "src"

WORKLOADS = ("saturate_noop", "interactive_noop", "payload_echo")

#: Set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUPS = 7
#: Warm-up wave per set-up: several credit windows (the endpoint advertises
#: 24), so worker function caches and every credit window are filled.
WARMUP_TASKS = {"saturate_noop": 256, "interactive_noop": 192, "payload_echo": 128}
#: Throughput, CPU and latency are medians over segments of this length,
#: taken over the quieter half (see ``Measurement.quiet``), so a burst of
#: host interference moves a few segments instead of the whole run.
SEGMENT_S = 1.0
#: Time allowed for outstanding tasks to resolve after the measured phase.
DRAIN_TIMEOUT_S = 30.0

#: Outstanding tasks in ``saturate_noop``: about five credit windows.
SATURATE_WINDOW = 128
#: Poisson arrival rate of ``interactive_noop``; the slowest saturate run
#: keeps at least 4x headroom over it.
INTERACTIVE_RATE = 200.0
#: Longest round on one deployment.  The service keeps every task's payload
#: and result for the deployment's lifetime, so ``payload_echo`` runs its
#: measured phase in rounds on fresh deployments to bound memory; its
#: ``peak_rss_mb`` is one round's retained task table.
ROUND_S = {"payload_echo": 2.0}
#: Outstanding tasks in ``payload_echo``: one per worker.
PAYLOAD_WINDOW = 4
#: Payload sizes: above the stream's 64 KiB spill threshold, well below the
#: service's 512 KiB payload limit.
PAYLOAD_BYTES = (66 * 1024, 96 * 1024)
#: Distinct seeded inputs per run; tasks cycle through them.
NOOP_POOL = 4096
PAYLOAD_POOL = 64


def echo(value):
    """The function every workload runs: return the argument unchanged."""
    return value


def digest(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=16).digest()


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
@dataclass
class Inputs:
    """What the seed generates: arguments, their checks and arrival times."""

    args: list
    expected: list
    by_digest: bool = False
    schedule: list[float] = field(default_factory=list)

    def check(self, index: int, value) -> bool:
        want = self.expected[index % len(self.expected)]
        if self.by_digest:
            return isinstance(value, bytes) and digest(value) == want
        return value == want


def make_inputs(workload: str, seed: int, seconds: float) -> Inputs:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "payload_echo":
        args = [rng.randbytes(rng.randrange(*PAYLOAD_BYTES))
                for _ in range(PAYLOAD_POOL)]
        return Inputs(args, [digest(a) for a in args], by_digest=True)
    args = [rng.getrandbits(62) for _ in range(NOOP_POOL)]
    inputs = Inputs(args, args)
    if workload == "interactive_noop":
        at = rng.expovariate(INTERACTIVE_RATE)
        while at < seconds:
            inputs.schedule.append(at)
            at += rng.expovariate(INTERACTIVE_RATE)
    return inputs


def warmup_inputs(workload: str) -> Inputs:
    """Seed-independent warm-up inputs, so set-up does the same work each run."""
    return make_inputs(workload, seed=-1, seconds=0.0)


# ----------------------------------------------------------------------
# deployment
# ----------------------------------------------------------------------
class Rig:
    """One deployment, its endpoint, the registered function and a submitter."""

    def __init__(self, workload: str):
        from repro.fabric import LocalDeployment

        self.deployment = LocalDeployment()
        client = self.deployment.client()
        endpoint_id = self.deployment.create_endpoint("bench", nodes=1)
        function_id = client.register_function(echo)
        self.service = self.deployment.service
        self.executor = None
        if workload == "interactive_noop":
            self.submit = lambda x: client.submit(function_id, endpoint_id, x)
        else:
            executor = client.executor(endpoint_id)
            self.executor = executor
            self.submit = lambda x: executor.submit(function_id, x)

    def close(self, settled: bool) -> None:
        if self.executor is not None:
            self.executor.shutdown(wait=settled)
        self.deployment.shutdown()
        # A deployment is a web of reference cycles (threads, callbacks);
        # free it now, so the next round does not run on top of it.
        self.deployment = self.executor = self.submit = self.service = None
        gc.collect()


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    timed_out: int = 0


def resolved_ok(future, inputs: Inputs, index: int) -> bool:
    try:
        value = future.result(timeout=0)
    except Exception:
        return False
    return inputs.check(index, value)


def set_up(workload: str, tally: Tally) -> tuple[Rig, float]:
    """Build a rig and run its warm-up wave; returns it with the set-up time."""
    inputs = warmup_inputs(workload)
    start = time.monotonic()
    rig = Rig(workload)
    futures = [rig.submit(inputs.args[i % len(inputs.args)])
               for i in range(WARMUP_TASKS[workload])]
    deadline = start + DRAIN_TIMEOUT_S
    for index, future in enumerate(futures):
        tally.attempted += 1
        if not future.wait(max(0.0, deadline - time.monotonic())):
            tally.timed_out += 1
            tally.failed += 1
        elif not resolved_ok(future, inputs, index):
            tally.failed += 1
    return rig, time.monotonic() - start


# ----------------------------------------------------------------------
# measured phase
# ----------------------------------------------------------------------
class Phase:
    """Completions, latencies and per-segment CPU of one measured round."""

    def __init__(self, seconds: float):
        segments = max(1, round(seconds / SEGMENT_S))
        self.start = time.monotonic()
        self.edges = [self.start + k * seconds / segments
                      for k in range(1, segments + 1)]
        self.passed = 0  # edges already behind the loop
        # (wall, process cpu, completions, host steal, host total) at each
        # segment boundary the loop observed.
        self.ticks = [(self.start, time.process_time(), 0, *host_cpu_ticks())]
        self.completed = 0
        # (time, latency ms): the time is the completion in a closed loop
        # and the due time in an open one, and picks the sample's segment.
        self.latencies: list[tuple[float, float]] = []
        self.lateness: list[float] = []
        self.resolved: list[tuple[str, float]] = []  # (task id, resolve time)

    @property
    def running(self) -> bool:
        return self.passed < len(self.edges)

    @property
    def next_edge(self) -> float:
        return self.edges[self.passed]

    def tick(self, now: float) -> None:
        """Close the segment once ``now`` passes its edge.

        A loop that stalls past several edges closes one longer segment.
        """
        if self.running and now >= self.next_edge:
            self.ticks.append((now, time.process_time(), self.completed,
                               *host_cpu_ticks()))
            while self.running and now >= self.next_edge:
                self.passed += 1

    def deltas(self) -> list[tuple[float, float, int, int, int]]:
        """(wall s, process CPU s, completions, steal, total) per segment."""
        return [tuple(b - a for a, b in zip(t0, t1))
                for t0, t1 in zip(self.ticks, self.ticks[1:])]


class Loop:
    """Drives one round of a workload and checks every result."""

    def __init__(self, rig: Rig, inputs: Inputs, tally: Tally, wrap=None):
        self.rig = rig
        self.inputs = inputs
        self.tally = tally
        self.done: queue.SimpleQueue = queue.SimpleQueue()
        self.outstanding: dict = {}  # future -> (input index, timed from)
        self.next_index = 0
        self.phase: Phase | None = None
        # An open loop times every arrival of the phase, also those that
        # resolve after it; a closed loop times what completes within it.
        self.time_late_results = False
        # The traced run charges result checking to the "checker" layer.
        self.handle = wrap(self._handle) if wrap else self._handle

    def launch(self, index: int, timed_from: float) -> None:
        future = self.rig.submit(self.inputs.args[index % len(self.inputs.args)])
        self.tally.attempted += 1
        self.outstanding[future] = (index, timed_from)
        future.add_done_callback(
            lambda f: self.done.put((f, time.monotonic())))

    def _handle(self, future, resolved_at: float) -> None:
        """Check one resolved task and record it."""
        index, timed_from = self.outstanding.pop(future)
        phase = self.phase
        if not resolved_ok(future, self.inputs, index):
            self.tally.failed += 1
            return
        if phase.running:
            phase.completed += 1
        elif not self.time_late_results:
            return
        if timed_from >= phase.start:
            at = timed_from if self.time_late_results else resolved_at
            phase.latencies.append((at, (resolved_at - timed_from) * 1e3))
            phase.resolved.append((future.task_id, resolved_at))

    def closed(self, window: int, seconds: float) -> Phase:
        """Keep ``window`` tasks outstanding for ``seconds``."""
        phase = self.phase = Phase(seconds)
        for _ in range(window):
            self.launch(self.next_index, time.monotonic())
            self.next_index += 1
        while True:
            now = time.monotonic()
            phase.tick(now)
            if not phase.running:
                break
            try:
                future, resolved_at = self.done.get(
                    timeout=max(0.0, phase.next_edge - now))
            except queue.Empty:
                continue
            self.handle(future, resolved_at)
            self.launch(self.next_index, time.monotonic())
            self.next_index += 1
        return phase

    def open(self, seconds: float) -> Phase:
        """Submit each task at its Poisson due time, whatever is outstanding."""
        phase = self.phase = Phase(seconds)
        self.time_late_results = True
        due = [phase.start + at for at in self.inputs.schedule if at < seconds]
        while True:
            now = time.monotonic()
            phase.tick(now)
            if self.next_index < len(due) and now >= due[self.next_index]:
                phase.lateness.append((now - due[self.next_index]) * 1e3)
                self.launch(self.next_index, due[self.next_index])
                self.next_index += 1
                continue
            if not phase.running:
                break
            wake = phase.next_edge
            if self.next_index < len(due):
                wake = min(wake, due[self.next_index])
            try:
                future, resolved_at = self.done.get(timeout=max(0.0, wake - now))
            except queue.Empty:
                continue
            self.handle(future, resolved_at)
        return phase

    def drain(self) -> bool:
        """Check what is still outstanding; returns whether all resolved."""
        deadline = time.monotonic() + DRAIN_TIMEOUT_S
        while self.outstanding:
            try:
                future, resolved_at = self.done.get(
                    timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                self.tally.timed_out += len(self.outstanding)
                self.tally.failed += len(self.outstanding)
                self.outstanding.clear()
                return False
            self.handle(future, resolved_at)
        return True


@dataclass
class Measurement:
    """A measured phase, summed over its rounds."""

    segments: list[tuple[float, float, int, int, int]] = field(default_factory=list)
    latencies: list[list[float]] = field(default_factory=list)
    lateness: list[float] = field(default_factory=list)
    completed: int = 0
    # Traced runs only: per-layer and registry deltas, waits per task.
    layers: dict[str, list[int]] = field(default_factory=dict)
    registry: dict[str, float] = field(default_factory=dict)
    waits: dict[str, list[float]] = field(default_factory=dict)

    def add(self, phase: Phase) -> None:
        self.segments += phase.deltas()
        walls = [tick[0] for tick in phase.ticks]
        by_segment: list[list[float]] = [[] for _ in walls[1:]]
        for at, latency in phase.latencies:
            index = bisect.bisect_right(walls, at) - 1
            by_segment[min(len(by_segment) - 1, max(0, index))].append(latency)
        self.latencies += by_segment
        self.lateness += phase.lateness
        self.completed += phase.completed

    def quiet(self) -> list[int]:
        """Segments whose host steal share is at most the run's median.

        Steal is CPU time the hypervisor gave to other guests.  Even a few
        percent of it doubles wake-up latency here, and it comes in bursts;
        the segments it spares show the fabric, not its neighbours.  With
        no steal (or no ``/proc/stat``) every segment is quiet.
        """
        shares = [steal / total if total else 0.0
                  for _, _, _, steal, total in self.segments]
        cut = statistics.median(shares)
        return [i for i, share in enumerate(shares) if share <= cut]

    def steal_pct(self) -> float:
        steal = sum(seg[3] for seg in self.segments)
        total = sum(seg[4] for seg in self.segments)
        return 100.0 * steal / total if total else 0.0

    def tasks_per_s(self) -> float:
        return statistics.median(self.segments[i][2] / self.segments[i][0]
                                 for i in self.quiet())

    def latency_ms(self, q: int) -> float:
        """Median over quiet segments of each segment's ``q``-th percentile."""
        return statistics.median(percentile(self.latencies[i], q)
                                 for i in self.quiet() if self.latencies[i])

    @property
    def samples(self) -> int:
        return sum(len(seg) for seg in self.latencies)

    def all_latencies(self) -> list[float]:
        return [value for seg in self.latencies for value in seg]

    def cpu_ms_per_task(self) -> float:
        return statistics.median(self.segments[i][1] * 1e3 / max(1, self.segments[i][2])
                                 for i in self.quiet())

    def whole(self) -> tuple[float, float]:
        """Whole-phase (tasks/s, CPU ms per task), for reconciliation."""
        wall = sum(seg[0] for seg in self.segments)
        cpu = sum(seg[1] for seg in self.segments)
        return self.completed / wall, cpu * 1e3 / max(1, self.completed)


def measure(workload: str, inputs: Inputs, seconds: float, tally: Tally,
            rig: Rig | None = None, trace=None) -> Measurement:
    """Run the measured phase in rounds, each on its own deployment.

    ``rig`` is the already set-up deployment for the first round.  With a
    ``trace`` installed, layer and registry counts are taken around each
    round and the task records are read before its deployment closes.
    """
    rounds = max(1, math.ceil(seconds / ROUND_S.get(workload, seconds)))
    result = Measurement()
    for _ in range(rounds):
        if rig is None:
            rig, _ = set_up(workload, tally)
        try:
            loop = Loop(rig, inputs, tally,
                        wrap=None if trace is None else trace.wrap_checker)
            if trace is not None:
                before = trace.snapshot(), registry_totals(rig.deployment.metrics)
            if workload == "interactive_noop":
                phase = loop.open(seconds / rounds)
            else:
                window = (SATURATE_WINDOW if workload == "saturate_noop"
                          else PAYLOAD_WINDOW)
                phase = loop.closed(window, seconds / rounds)
            if trace is not None:
                after = trace.snapshot(), registry_totals(rig.deployment.metrics)
            loop.drain()
            result.add(phase)
            if trace is not None:
                _accumulate(result.layers, before[0], after[0])
                for name, value in after[1].items():
                    result.registry[name] = (result.registry.get(name, 0.0)
                                             + value - before[1].get(name, 0.0))
                for name, values in task_waits(rig.service, phase.resolved).items():
                    result.waits.setdefault(name, []).extend(values)
        finally:
            rig.close(settled=tally.timed_out == 0)
            rig = None
    return result


def _accumulate(total: dict[str, list[int]], before: dict[str, list[int]],
                after: dict[str, list[int]]) -> None:
    for layer, row in after.items():
        acc = total.setdefault(layer, [0] * len(row))
        for field_index, value in enumerate(row):
            acc[field_index] += value - before[layer][field_index]


# ----------------------------------------------------------------------
# host probe and helpers
# ----------------------------------------------------------------------
def host_ref_ms() -> float:
    """Median time of a fixed single-thread pure-Python loop (host drift)."""
    def once() -> float:
        start = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i & 7
        return (time.perf_counter() - start) * 1e3
    return statistics.median(once() for _ in range(3))


def host_cpu_ticks() -> tuple[int, int]:
    """(steal, total) CPU ticks of the host so far, from ``/proc/stat``."""
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            fields = [int(v) for v in stat.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return fields[7], sum(fields)


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else float("nan")
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def registry_totals(metrics) -> dict[str, float]:
    """Counter values and histogram count/sum, summed over label sets."""
    totals: dict[str, float] = {}
    for record in metrics.snapshot():
        name = record["name"]
        if record["kind"] == "counter":
            totals[name] = totals.get(name, 0.0) + record["value"]
        elif record["kind"] == "histogram":
            totals[name + ":count"] = totals.get(name + ":count", 0.0) + record["count"]
            totals[name + ":sum"] = totals.get(name + ":sum", 0.0) + record["sum"]
    return totals


def registry_metrics(delta: dict[str, float], tasks: int) -> dict[str, float]:
    """Batch-size means and per-task retry counts from registry deltas."""
    def mean(name: str) -> float:
        count = delta.get(name + ":count", 0.0)
        return delta.get(name + ":sum", 0.0) / count if count else 0.0

    delivered = delta.get("stream.results_delivered", 0.0)
    out = {
        "dispatch.batch_size": mean("dispatch.batch_size"),
        "stream.batch_size": mean("stream.batch_size"),
        "executor.submit_batch_size": mean("executor.submit_batch_size"),
        "stream.spill_frac": (delta.get("stream.results_spilled", 0.0) / delivered
                              if delivered else 0.0),
    }
    for name in ("forwarder.requeue_events", "stream.redeliveries",
                 "service.duplicate_results", "forwarder.credit_stalls"):
        out[name] = delta.get(name, 0.0) / tasks
    return out


def task_waits(service, resolved: list[tuple[str, float]]) -> dict[str, list[float]]:
    """Waits in ms between the timestamps on each task's record.

    The live path never enters RUNNING, so execution start is derived as
    success - result_return_time - execution_time.
    """
    waits: dict[str, list[float]] = {"wait.queued_ms": [], "wait.dispatch_ms": [],
                                     "wait.return_ms": [], "wait.delivery_ms": []}
    for task_id, resolved_at in resolved:
        task = service.task_by_id(task_id)
        times = task.state_times
        success = times["success"]
        back = task.metadata.get("result_return_time", 0.0)
        started = success - back - task.metadata.get("execution_time", 0.0)
        waits["wait.queued_ms"].append((times["dispatched"] - times["queued"]) * 1e3)
        waits["wait.dispatch_ms"].append((started - times["dispatched"]) * 1e3)
        waits["wait.return_ms"].append(back * 1e3)
        waits["wait.delivery_ms"].append((resolved_at - success) * 1e3)
    return waits


# ----------------------------------------------------------------------
# the two kinds of run
# ----------------------------------------------------------------------
def run_end_to_end(workload: str, inputs: Inputs, seconds: float, tally: Tally):
    setups = []
    rig = None
    for _ in range(SETUPS):
        if rig is not None:
            rig.close(settled=True)
        rig, elapsed = set_up(workload, tally)
        setups.append(elapsed)
    run = measure(workload, inputs, seconds, tally, rig=rig)
    segments = f"median of {len(run.quiet())}/{len(run.segments)} quiet segments"
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "tasks_per_s": (run.tasks_per_s(), "1/s"),
        "latency_p50_ms": (run.latency_ms(50), "ms"),
        "latency_p90_ms": (run.latency_ms(90), "ms"),
        "cpu_ms_per_task": (run.cpu_ms_per_task(), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    samples = {
        "setup_s": f"median of {SETUPS} set-ups",
        "tasks_per_s": f"{segments}, {run.completed} tasks",
        "latency_p50_ms": f"{segments}, {run.samples} tasks",
        "latency_p90_ms": f"{segments}, {run.samples} tasks",
        "cpu_ms_per_task": segments,
        "peak_rss_mb": "process high-water mark",
    }
    extra = [("latency_p99_ms", percentile(run.all_latencies(), 99), "ms",
              f"all {run.samples} tasks, not gated")]
    return metrics, samples, extra, run


def run_traced(workload: str, inputs: Inputs, seconds: float, tally: Tally):
    """Half the time untraced, half traced; per-layer figures from the latter."""
    plain = measure(workload, inputs, seconds / 2, tally)
    trace = LayerTrace()
    trace.install()
    try:
        traced = measure(workload, inputs, seconds / 2, tally, trace=trace)
    finally:
        trace.uninstall()

    tasks = max(1, traced.completed)
    out = layer_metrics(traced.layers, tasks)
    out.update(registry_metrics(traced.registry, tasks))
    out.update({name: statistics.median(values) if values else 0.0
                for name, values in traced.waits.items()})
    plain_rate, plain_cpu = plain.whole()
    traced_rate, traced_cpu = traced.whole()
    layer_cpu_us = sum(v for k, v in out.items() if k.endswith(".cpu_us_per_task"))
    out["handoff.cpu_us_per_task"] = traced_cpu * 1e3 - layer_cpu_us
    plain_p50 = plain.latency_ms(50)
    traced_p50 = traced.latency_ms(50)
    out.update({
        "traced.tasks_per_s": traced_rate,
        "traced.cpu_ms_per_task": traced_cpu,
        "traced.latency_p50_ms": traced_p50,
        "trace_overhead.tasks_per_s": traced_rate - plain_rate,
        "trace_overhead.cpu_ms_per_task": traced_cpu - plain_cpu,
        "trace_overhead.latency_p50_ms": traced_p50 - plain_p50,
    })
    reconcile = (layer_cpu_us, out["handoff.cpu_us_per_task"], traced_cpu)
    return out, traced, reconcile


# ----------------------------------------------------------------------
def unit_of(name: str) -> str:
    if name.endswith(("_us_per_task",)):
        return "us"
    if name.endswith("_ms") or name.endswith("_ms_per_task"):
        return "ms"
    if name.endswith("tasks_per_s"):
        return "1/s"
    if name.endswith("bytes_per_task"):
        return "B"
    if name.endswith("_frac"):
        return "1"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "fabric.py").is_file():
        print(f"error: the package sources are missing ({SRC}); run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    inputs = make_inputs(args.workload, args.seed, args.seconds)
    tally = Tally()
    ref_before = host_ref_ms()
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    if args.trace:
        out, run, (layer_cpu_us, handoff_us, traced_cpu) = run_traced(
            args.workload, inputs, args.seconds, tally)
        metrics = {name: (value, unit_of(name)) for name, value in sorted(out.items())}
        for name, (value, unit) in metrics.items():
            print(f"  {name:34s} {value:14.4f} {unit:6s}")
        print(f"  reconcile: layer self CPU {layer_cpu_us:.1f} us + handoff "
              f"{handoff_us:.1f} us = traced cpu_ms_per_task {traced_cpu:.4f} ms "
              f"({run.completed} tasks)")
    else:
        metrics, samples, extra, run = run_end_to_end(
            args.workload, inputs, args.seconds, tally)
        for name, (value, unit) in metrics.items():
            print(f"  {name:18s} {value:12.4f} {unit:4s} {samples[name]}")
        for name, value, unit, note in extra:
            print(f"  {name:18s} {value:12.4f} {unit:4s} {note}")
    if run.lateness:
        late = run.lateness
        print(f"  generator lateness ms: p50 {percentile(late, 50):.4f}  "
              f"p90 {percentile(late, 90):.4f}  p99 {percentile(late, 99):.4f}  "
              f"({len(late)} arrivals)")
    failed_frac = tally.failed / max(1, tally.attempted)
    print(f"  failed_frac {failed_frac:.6f} (1)  attempted {tally.attempted}  "
          f"failed {tally.failed}  timed out {tally.timed_out}")
    print(f"  host_ref_ms before {ref_before:.2f}  after {host_ref_ms():.2f}  "
          "(1M-iteration reference loop, not gated)")
    print(f"  host_steal_pct {run.steal_pct():.2f}  (hypervisor steal over the "
          "measured segments, not gated)")
    correct = tally.failed == 0 and tally.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
