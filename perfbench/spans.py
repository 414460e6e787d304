"""Outside-in span recorder for the traced run.

:class:`SpanRecorder` replaces the public entry points listed in
:data:`ENTRY_POINTS` with timing wrappers before the cluster is built
and puts the originals back afterwards.  Nothing inside ``repro``
changes; the traced run's outcome fingerprint must equal the untraced
run's.

One span is one call of an entry point.  It records the entry point,
host start and end, simulated start and end, the span below it on the
host stack (its parent) and a rados op id.  A generator entry point is
timed per resume: each resume pushes the span on the host stack and
each suspension pops it, with ``send``/``throw``/``close`` passed
through, so a span's host time is the sum of its resumes.  Self time
is that sum minus the part of it its child spans cover, and is added
up as the stack unwinds.  Calls of ``RadosClient.write_object`` and
``read_object`` start a new op id; every other span inherits its
parent's, so spans share an op id only where the host stack links them.

Spans live in flat arrays while the run goes and are written out once,
by :meth:`SpanRecorder.dump`.

CPU charges come two ways: through the ``CpuComplex.execute``
generator, and through ``Machine._charge``, which the flattened
machines (``_DmaSeg``, ``_OpLoop``, ...) call instead.  Charges are
counted with the public ``CpuComplex.observer`` hook, which both fire.
A charge's queue wait (simulated seconds from core request to grant)
is taken from the ``execute`` span for the first way, and from hooks on
``Machine._charge`` (request) and ``Machine._chg_done`` (grant = end
minus service time) for the second.
"""

from __future__ import annotations

import inspect
import json
import os
from array import array
from time import perf_counter
from typing import Any, Callable, Optional

from repro.cluster import builder
from repro.cluster.builder import Cluster
from repro.cluster.strategy import OffloadStrategy
from repro.core.doca import DocaDma
from repro.core.pipeline import DmaPipeline
from repro.core.proxy_objectstore import ProxyObjectStore
from repro.core.rpc import RpcChannel
from repro.hw import net as hw_net
from repro.hw.cpu import CpuComplex
from repro.hw.dma import DmaEngine
from repro.hw.net import BandwidthPipe, Network
from repro.hw.storage import SsdDevice
from repro.msgr.messenger import AsyncMessenger, Connection
from repro.objectstore.bluestore import BlueStore
from repro.osd.daemon import OsdDaemon
from repro.osd.opqueue import WeightedPriorityQueue
from repro.qos.admission import AdmissionController
from repro.rados.client import RadosClient
from repro.sim import Environment
from repro.sim.machine import Machine

#: (layer, owner, attribute).  The span name is ``layer.Owner.attr``.
ENTRY_POINTS: tuple[tuple[str, Any, str], ...] = (
    ("cluster", builder, "build_doceph_cluster"),
    ("cluster", builder, "build_baseline_cluster"),
    ("cluster", OffloadStrategy, "build"),
    ("cluster", Cluster, "boot"),
    ("sim", Environment, "run"),
    ("hw.cpu", CpuComplex, "execute"),
    ("hw.net", Network, "deliver"),
    ("hw.net", BandwidthPipe, "transmit"),
    ("hw.dma", DmaEngine, "transfer"),
    ("hw.storage", SsdDevice, "write"),
    ("hw.storage", SsdDevice, "read"),
    ("msgr", AsyncMessenger, "send_message"),
    ("msgr", Connection, "send"),
    ("core", ProxyObjectStore, "queue_transaction"),
    ("core", ProxyObjectStore, "read"),
    ("core", DmaPipeline, "push"),
    ("core", RpcChannel, "call"),
    ("core", RpcChannel, "respond"),
    ("core", DocaDma, "transfer"),
    ("osd", OsdDaemon, "ms_dispatch"),
    ("osd", WeightedPriorityQueue, "enqueue"),
    ("osd", WeightedPriorityQueue, "dequeue"),
    ("objectstore", BlueStore, "queue_transaction"),
    ("objectstore", BlueStore, "read"),
    ("rados", RadosClient, "write_object"),
    ("rados", RadosClient, "read_object"),
    ("rados", RadosClient, "ms_dispatch"),
    ("qos", AdmissionController, "try_acquire"),
    ("qos", AdmissionController, "release"),
)

_NEW_OP = {"rados.RadosClient.write_object", "rados.RadosClient.read_object"}


def span_name(layer: str, owner: Any, attr: str) -> str:
    owner_name = owner.__name__.rsplit(".", 1)[-1]
    if inspect.ismodule(owner):
        return f"{layer}.{attr}"
    return f"{layer}.{owner_name}.{attr}"


#: Every span name, in ENTRY_POINTS order.
SPAN_NAMES = tuple(span_name(*ep) for ep in ENTRY_POINTS)


class SpanRecorder:
    """Columnar in-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.env: Optional[Environment] = None
        self.names = SPAN_NAMES
        self.layer_of = {span_name(*ep): ep[0] for ep in ENTRY_POINTS}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.host_start = array("d")
        self.host_end = array("d")
        self.sim_start = array("d")
        self.sim_end = array("d")
        self.host_active = array("d")
        self.host_self = array("d")
        #: ``work/perf`` (simulated service seconds) of a
        #: ``CpuComplex.execute`` span, else 0.
        self.value = array("d")
        self.done = array("b")
        #: [span, host time at resume, host time covered by children]
        self._stack: list[list[Any]] = []
        self._ops = 0
        self._saved: list[tuple[Any, str, Any]] = []
        #: ``_RxChunk`` constructions (one per NIC chunk; not a span).
        self.rx_chunks = 0
        #: Completed CPU charges (``CpuComplex.observer`` calls).
        self.cpu_charges = 0
        #: Summed queue wait of the charges made by ``Machine._charge``.
        self.machine_cpu_wait = 0.0
        self._charge_at: dict[int, float] = {}
        #: Simulated enqueue → hand-out waits of osd op-queue items.
        self.queue_waits: list[float] = []
        self._enqueued_at: dict[int, float] = {}

    # -------------------------------------------------------------- spans
    def _new_span(self, nid: int) -> int:
        idx = len(self.name)
        stack = self._stack
        parent = stack[-1][0] if stack else -1
        if self.names[nid] in _NEW_OP:
            self._ops += 1
            op = self._ops
        else:
            op = self.op[parent] if parent >= 0 else -1
        now = self.env.now
        t = perf_counter()
        self.name.append(nid)
        self.parent.append(parent)
        self.op.append(op)
        self.host_start.append(t)
        self.host_end.append(t)
        self.sim_start.append(now)
        self.sim_end.append(now)
        self.host_active.append(0.0)
        self.host_self.append(0.0)
        self.value.append(0.0)
        self.done.append(0)
        return idx

    def _resume(self, idx: int) -> None:
        self._stack.append([idx, perf_counter(), 0.0])

    def _suspend(self, done: bool) -> None:
        idx, t0, child = self._stack.pop()
        t = perf_counter()
        dur = t - t0
        self.host_self[idx] += dur - child
        self.host_active[idx] += dur
        self.host_end[idx] = t
        self.sim_end[idx] = self.env.now
        if done:
            self.done[idx] = 1
        if self._stack:
            self._stack[-1][2] += dur

    # ------------------------------------------------------------ wrappers
    def _wrap(self, nid: int, fn: Callable[..., Any]) -> Callable[..., Any]:
        rec = self
        name = self.names[nid]
        if inspect.isgeneratorfunction(fn):
            work_arg = name == "hw.cpu.CpuComplex.execute"

            def gen_wrapper(*args: Any, **kwargs: Any) -> Any:
                idx = rec._new_span(nid)
                if work_arg:
                    # execute(self, category, thread, work)
                    rec.value[idx] = args[3] / args[0].perf
                return rec._drive(idx, fn(*args, **kwargs))

            return gen_wrapper

        if name == "osd.WeightedPriorityQueue.enqueue":
            def enqueue_wrapper(queue: Any, payload: Any, *args: Any,
                                **kwargs: Any) -> Any:
                idx = rec._new_span(nid)
                rec._resume(idx)
                try:
                    rec._enqueued_at[id(payload)] = queue.env.now
                    return fn(queue, payload, *args, **kwargs)
                finally:
                    rec._suspend(True)

            return enqueue_wrapper

        on_dequeued = self._on_dequeued
        is_dequeue = name == "osd.WeightedPriorityQueue.dequeue"

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            idx = rec._new_span(nid)
            rec._resume(idx)
            try:
                out = fn(*args, **kwargs)
                if is_dequeue:
                    out.callbacks.append(on_dequeued)
                return out
            finally:
                rec._suspend(True)

        return wrapper

    def _drive(self, idx: int, gen: Any) -> Any:
        """Run ``gen`` as a subgenerator, timing each resume (PEP 380)."""
        send = gen.send
        value = None
        err: Optional[BaseException] = None
        while True:
            self._resume(idx)
            try:
                out = send(value) if err is None else gen.throw(err)
            except StopIteration as stop:
                self._suspend(True)
                return stop.value
            except BaseException:
                self._suspend(True)
                raise
            self._suspend(False)
            err = None
            try:
                value = yield out
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # thrown in by the driver
                err = exc
                value = None

    def _on_dequeued(self, event: Any) -> None:
        start = self._enqueued_at.pop(id(event._value), None)
        if start is not None:
            self.queue_waits.append(event.env.now - start)

    # ------------------------------------------------------- install/restore
    def install(self) -> None:
        """Wrap every entry point (call before the cluster is built)."""
        if self._saved:
            raise RuntimeError("recorder already installed")
        for nid, (_layer, owner, attr) in enumerate(ENTRY_POINTS):
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(nid, original))
        rx_init = hw_net._RxChunk.__init__
        self._saved.append((hw_net._RxChunk, "__init__", rx_init))

        def counted_init(chunk: Any, *args: Any, **kwargs: Any) -> None:
            self.rx_chunks += 1
            rx_init(chunk, *args, **kwargs)

        hw_net._RxChunk.__init__ = counted_init

        charge = Machine._charge
        chg_done = Machine._chg_done
        self._saved.append((Machine, "_charge", charge))
        self._saved.append((Machine, "_chg_done", chg_done))
        charge_at = self._charge_at

        def timed_charge(machine: Any, thread: Any, work: float,
                         cont: Callable[[], None]) -> None:
            if work > 0:
                charge_at[id(machine)] = machine.env.now
            charge(machine, thread, work, cont)

        def timed_chg_done(machine: Any, event: Any) -> None:
            start = charge_at.pop(id(machine), None)
            if event._ok and start is not None:
                # 1 ns resolution: an uncontended charge is float noise
                self.machine_cpu_wait += max(0.0, round(
                    machine.env.now - machine._chg_wall - start, 9))
            chg_done(machine, event)

        Machine._charge = timed_charge
        Machine._chg_done = timed_chg_done

    def observe_cpus(self, cpus: list[Any]) -> None:
        """Count every completed charge on ``cpus`` from now on."""
        def observer(*_args: Any) -> None:
            self.cpu_charges += 1

        for cpu in cpus:
            if cpu.observer is not None:
                raise RuntimeError(f"{cpu.name} already has an observer")
            cpu.observer = observer

    def restore(self) -> None:
        """Put every original entry point back."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # --------------------------------------------------------------- output
    def mark(self) -> dict[str, Any]:
        """Counters' state now, for measuring a phase (see :meth:`since`)."""
        return {"span": len(self.name), "rx_chunks": self.rx_chunks,
                "queue_waits": len(self.queue_waits),
                "cpu_charges": self.cpu_charges,
                "machine_cpu_wait": self.machine_cpu_wait}

    def since(self, mark: Optional[dict[str, Any]] = None) -> dict[str, Any]:
        """Per-span-name calls and self time, and the counters, after
        ``mark`` (from the start when None)."""
        if mark is None:
            mark = {"span": 0, "rx_chunks": 0, "queue_waits": 0,
                    "cpu_charges": 0, "machine_cpu_wait": 0.0}
        names = self.names
        execute = names.index("hw.cpu.CpuComplex.execute")
        calls = {n: 0 for n in names}
        self_s = {n: 0.0 for n in names}
        cpu_wait = self.machine_cpu_wait - mark["machine_cpu_wait"]
        for i in range(mark["span"], len(self.name)):
            nid = self.name[i]
            calls[names[nid]] += 1
            self_s[names[nid]] += self.host_self[i]
            if nid == execute and self.done[i]:
                # 1 ns resolution: an uncontended charge is float noise
                cpu_wait += max(0.0, round(self.sim_end[i] - self.sim_start[i]
                                           - self.value[i], 9))
        return {
            "calls": calls,
            "self_s": self_s,
            "cpu_charges": self.cpu_charges - mark["cpu_charges"],
            "cpu_queue_wait_s": cpu_wait,
            "rx_chunks": self.rx_chunks - mark["rx_chunks"],
            "osd_queue_wait_s": sum(self.queue_waits[mark["queue_waits"]:]),
        }

    def dump(self, path: str) -> None:
        """Write the spans: ``path`` + ``.json`` header, ``.bin`` columns."""
        columns = ("name", "parent", "op", "host_start", "host_end",
                   "sim_start", "sim_end", "host_active", "host_self",
                   "value", "done")
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path + ".bin", "wb") as out:
            for col in columns:
                getattr(self, col).tofile(out)
        header = {
            "spans": len(self.name),
            "names": list(self.names),
            "layers": [self.layer_of[n] for n in self.names],
            "columns": [[c, getattr(self, c).typecode] for c in columns],
            "layout": "column after column, native byte order",
        }
        with open(path + ".json", "w") as out:
            json.dump(header, out, indent=1)
