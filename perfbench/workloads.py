"""The four benchmark workloads: inputs from a seed, set-up, measured call.

Each repeat builds a fresh cluster in a fresh ``Environment``, so the
modelled caches (the DocaDma memory-region cache, the BlueStore
allocator) start empty on every repeat.  Set-up (build + boot +
prepopulate) is timed apart from the measured call, and the measured
call returns a :class:`Outcome` holding everything the outcome
fingerprint and the end-to-end metrics need.

The drivers call only public ``repro`` APIs.  Host time is taken by
the :class:`~hostclock.HostClock` each measured call runs under.
"""

from __future__ import annotations

import hashlib
import json
import random
from time import perf_counter
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional

from repro.bench.metrics import (
    CpuWindow,
    collect_fault_report,
    collect_health_report,
)
from repro.cluster import builder
from repro.cluster.builder import BENCH_POOL
from repro.cluster.config import DocephProfile
from repro.cluster.strategy import get_strategy
from repro.core.proxy_objectstore import ProxyObjectStore
from repro.faults import FaultPlan
from repro.osd.opqueue import QosSpec
from repro.qos.admission import AdmissionController
from repro.qos.tenants import default_tenants
from repro.qos.workload import TenantStats, open_loop_tenant, tenant_rng
from repro.rados.client import RadosError
from repro.sim import Environment
from repro.util.stats import percentile

from hostclock import HostClock

KB = 1 << 10
MB = 1 << 20

#: Simulated warm-up before the closed-loop measurement window opens.
WARMUP_S = 1.0
#: Closed-loop measurement window (simulated seconds): sized so every
#: write workload completes more than 1000 ops in it, leaving at least
#: ten samples beyond p99.
CLOSED_WINDOW_S = 14.0
#: Open-loop arrival window (simulated seconds).
QOS_WINDOW_S = 16.0
#: Objects written before the open-loop window, the read working set.
QOS_PREPOPULATE = 16
#: Latency samples a run needs so that ten lie beyond p99.
MIN_LATENCY_SAMPLES = 1000
#: Closed-loop I/O contexts, each keeping one write outstanding.
CLOSED_CLIENTS = 8
#: Closed-loop object size.
CLOSED_OBJECT_SIZE = 4 * MB
#: Open-loop tenants (``default_tenants``: t1 bursty, t3 limit-capped).
QOS_TENANTS = 4
#: Open-loop object size.
QOS_OBJECT_SIZE = 64 * KB
#: Share of open-loop ops that are reads.
QOS_READ_RATIO = 0.5
#: Admission window per tenant.  ``default_tenants``' 64 leaves the
#: limit-capped tenant's per-OSD backlog a slow random walk over a 12 s
#: window, so its tail (the run's p99) is set by the seed; 8 keeps the
#: ~15% shed and ~1.2x overload and a steady p99.
QOS_ADMISSION_WINDOW = 8
#: Offload strategy of the open-loop cluster.
QOS_STRATEGY = "full-osd"


@dataclass
class Phase:
    """Host seconds of each set-up phase of one repeat."""

    build_s: float = 0.0
    boot_s: float = 0.0
    prepopulate_s: float = 0.0

    @property
    def total_s(self) -> float:
        return self.build_s + self.boot_s + self.prepopulate_s


@dataclass
class Outcome:
    """What one measured call simulated (all simulated quantities)."""

    #: Client-observed latencies (s) of ops completed in the window,
    #: in completion order.
    latencies: list[float]
    attempted: int
    failed: int
    shed: int
    #: Ops completed during the whole measured call (warm-up, window
    #: and drain): the denominator of every per-op figure.
    ops_total: int
    window_s: float
    sim_start: float
    sim_end: float
    events: int
    windows: list[CpuWindow]
    host_windows: list[CpuWindow]
    faults: dict[str, Any]
    health: dict[str, Any]
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def sim_s(self) -> float:
        return self.sim_end - self.sim_start

    def fingerprint(self) -> str:
        """sha256 over the simulated outcome.

        Covers per-op latencies (1 ns), CPU busy-seconds and context
        switches per (complex, category) over the window, the
        completed/failed/shed counts and the fault and health counters.
        The event count and the ``{seq, now}`` schedule digest are left
        out on purpose: a change that schedules fewer events but
        simulates the same outcome keeps its fingerprint.
        """
        payload = {
            "latency_ns": [round(x * 1e9) for x in self.latencies],
            "cpu": {
                w.name: {
                    "busy_ns": {c: round(b * 1e9) for c, b in
                                sorted(w.busy_by_category.items())},
                    "ctx": dict(sorted(w.ctx_by_category.items())),
                }
                for w in self.windows
            },
            "completed": len(self.latencies),
            "attempted": self.attempted,
            "failed": self.failed,
            "shed": self.shed,
            "faults": _rounded(self.faults),
            "health": _rounded(self.health),
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def end_to_end(self) -> dict[str, float]:
        """The simulated (modelled-design) end-to-end figures."""
        ordered = sorted(self.latencies)
        host = self.host_windows
        return {
            "sim_iops": len(self.latencies) / self.window_s,
            "sim_lat_p50_ms": 1e3 * percentile(ordered, 50),
            "sim_lat_p99_ms": 1e3 * percentile(ordered, 99),
            "sim_host_cpu_pct": (
                sum(w.utilization_pct for w in host) / len(host)
            ),
        }


def _rounded(value: Any) -> Any:
    """Floats to 1e-9 so a re-associated sum cannot flip a fingerprint."""
    if isinstance(value, float):
        return round(value, 9)
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    return value


def all_cpus(cluster: Any) -> list[Any]:
    """Every CPU complex of ``cluster``: hosts, DPUs and the client."""
    cpus = cluster.host_cpus() + cluster.dpu_cpus()
    if cluster.client_cpu is not None:
        cpus.append(cluster.client_cpu)
    return cpus


class _CpuWindowProbe:
    """Snapshot every CPU complex at window open and close (no events)."""

    def __init__(self, cluster: Any) -> None:
        self.cpus = all_cpus(cluster)
        self.hosts = {id(c) for c in cluster.host_cpus()}
        self.start = [c.accounting.snapshot(cluster.env.now)
                      for c in self.cpus]

    def close(self, now: float) -> tuple[list[CpuWindow], list[CpuWindow]]:
        windows = [CpuWindow.between(c, s, c.accounting.snapshot(now))
                   for c, s in zip(self.cpus, self.start)]
        host = [w for c, w in zip(self.cpus, windows) if id(c) in self.hosts]
        return windows, host


def _reset_breakdowns(cluster: Any) -> None:
    for osd in cluster.osds:
        if isinstance(osd.store, ProxyObjectStore):
            osd.store.reset_breakdowns()


def _dma_wait_s(cluster: Any) -> float:
    """Summed ``dma_wait`` of the DoCeph per-write breakdowns (Table 3)."""
    return sum(b.dma_wait for osd in cluster.osds
               if isinstance(osd.store, ProxyObjectStore)
               for b in osd.store.breakdowns)


def _run_process(env: Environment, gen: Any, name: str) -> Any:
    return env.run(until=env.process(gen, name=name))


# ------------------------------------------------------------------ closed loop


@dataclass(frozen=True)
class ClosedLoop:
    """:data:`CLOSED_CLIENTS` I/O contexts each keep one
    :data:`CLOSED_OBJECT_SIZE` write outstanding."""

    mode: str  # "doceph" | "baseline"
    faults: Optional[str] = None

    def build(self, env: Environment, seed: int) -> Any:
        plan = (FaultPlan.parse(self.faults, seed=seed)
                if self.faults else None)
        if self.mode == "baseline":
            return builder.build_baseline_cluster(env, fault_plan=plan)
        profile = None
        if self.faults:
            # the fallback scenario's prompt fault detection
            profile = DocephProfile(cooldown_seconds=0.5,
                                    rpc_timeout_seconds=0.5)
        return builder.build_doceph_cluster(env, profile, fault_plan=plan)

    def prepopulate(self, cluster: Any, seed: int) -> None:
        return None

    def measure(self, cluster: Any, seed: int, clock: HostClock) -> Outcome:
        env = cluster.env
        client = cluster.client
        # object names carry a seed-derived tag, so CRUSH placement
        # moves with the seed
        tag = f"{random.Random(seed).getrandbits(32):08x}"
        _reset_breakdowns(cluster)
        sim_start = env.now
        ev_start = env.events_scheduled
        t_open = sim_start + WARMUP_S
        t_close = t_open + CLOSED_WINDOW_S
        latencies: list[float] = []
        counts = {"attempted": 0, "failed": 0, "total": 0}

        def io_context(idx: int) -> Any:
            seq = 0
            while env.now < t_close:
                oid = f"bench_{tag}_{idx}_{seq}"
                seq += 1
                issued = env.now
                in_window = issued >= t_open
                counts["attempted"] += in_window
                try:
                    result = yield from client.write_object(
                        BENCH_POOL, oid, CLOSED_OBJECT_SIZE
                    )
                except RadosError:
                    counts["failed"] += in_window
                    continue
                counts["total"] += 1
                if in_window:
                    latencies.append(result.latency)

        workers = [env.process(io_context(i), name=f"bench-client-{i}")
                   for i in range(CLOSED_CLIENTS)]
        clock.run_to(env, t_open)
        probe = _CpuWindowProbe(cluster)
        clock.run_to(env, t_close)
        for w in workers:
            clock.run_until(env, w)
        windows, host = probe.close(env.now)
        return Outcome(
            latencies=latencies,
            attempted=counts["attempted"],
            failed=counts["failed"],
            shed=0,
            ops_total=counts["total"],
            window_s=max(env.now - t_open, 1e-9),
            sim_start=sim_start,
            sim_end=env.now,
            events=env.events_scheduled - ev_start,
            windows=windows,
            host_windows=host,
            faults=collect_fault_report(cluster).as_dict(),
            health=collect_health_report(cluster).as_dict(),
            extra={"dma_wait_s": _dma_wait_s(cluster)},
        )


# ------------------------------------------------------------------ open loop


class OpenLoopQos:
    """Open-loop multi-tenant serving on the :data:`QOS_STRATEGY`
    strategy."""

    def specs(self) -> list[Any]:
        return [replace(s, read_ratio=QOS_READ_RATIO)
                for s in default_tenants(count=QOS_TENANTS,
                                         object_size=QOS_OBJECT_SIZE,
                                         window=QOS_ADMISSION_WINDOW)]

    def build(self, env: Environment, seed: int) -> Any:
        cluster = get_strategy(QOS_STRATEGY).build(env)
        n = len(cluster.osds)
        admission = AdmissionController()
        for spec in self.specs():
            q = spec.qos
            # aggregate contract / OSD count, as repro.qos.run_qos does
            per_osd = QosSpec(reservation=q.reservation / n, weight=q.weight,
                              limit=(q.limit / n) if q.limit else 0.0)
            for osd in cluster.osds:
                osd.set_qos(spec.name, per_osd)
            admission.set_window(spec.name, spec.window)
        cluster.client.admission = admission
        return cluster

    def prepopulate(self, cluster: Any, seed: int) -> None:
        client = cluster.client

        def prep() -> Any:
            for i in range(QOS_PREPOPULATE):
                yield from client.write_object(
                    BENCH_POOL, f"qos_pre_{i}", QOS_OBJECT_SIZE
                )

        _run_process(cluster.env, prep(), "bench-prepopulate")

    def measure(self, cluster: Any, seed: int, clock: HostClock) -> Outcome:
        env = cluster.env
        client = cluster.client
        specs = self.specs()
        _reset_breakdowns(cluster)
        sim_start = env.now
        ev_start = env.events_scheduled
        t_close = sim_start + QOS_WINDOW_S
        probe = _CpuWindowProbe(cluster)
        stats = [TenantStats(name=s.name) for s in specs]
        pending: list[Any] = []
        arrivals = [
            env.process(
                open_loop_tenant(env, client, spec, st,
                                 tenant_rng(seed, spec.name), t_close,
                                 QOS_PREPOPULATE, pending),
                name=f"qos-arrivals-{spec.name}",
            )
            for spec, st in zip(specs, stats)
        ]
        clock.run_to(env, t_close)
        windows, host = probe.close(env.now)
        for proc in arrivals + pending:
            clock.run_until(env, proc)
        latencies = [x for st in stats for x in st.latencies]
        admission = client.admission
        queue: dict[str, int] = {}
        for osd in cluster.osds:
            for key, value in osd.qos_stats().items():
                queue[key] = queue.get(key, 0) + value
        shed = sum(st.shed for st in stats)
        return Outcome(
            latencies=latencies,
            attempted=sum(st.offered for st in stats),
            failed=shed + sum(st.failed for st in stats),
            shed=shed,
            ops_total=sum(st.completed + st.completed_late for st in stats),
            window_s=QOS_WINDOW_S,
            sim_start=sim_start,
            sim_end=env.now,
            events=env.events_scheduled - ev_start,
            windows=windows,
            host_windows=host,
            faults=collect_fault_report(cluster).as_dict(),
            health=collect_health_report(cluster).as_dict(),
            extra={
                "dma_wait_s": _dma_wait_s(cluster),
                "admitted": sum(admission.admitted.values()),
                "shed": admission.total_shed(),
                "queue": queue,
            },
        )


@dataclass(frozen=True)
class Workload:
    """A named driver; why each workload exists is in BENCHMARK.json."""

    name: str
    driver: Any
    #: Entry points (``spans.ENTRY_POINTS`` names) this workload must
    #: call; the traced run fails if one of them records no call.
    uses: frozenset[str]


_COMMON = frozenset({
    "sim.Environment.run",
    "cluster.Cluster.boot",
    "hw.cpu.CpuComplex.execute",
    "hw.storage.SsdDevice.write",
    "msgr.AsyncMessenger.send_message",
    "msgr.Connection.send",
    "osd.OsdDaemon.ms_dispatch",
    "osd.WeightedPriorityQueue.enqueue",
    "osd.WeightedPriorityQueue.dequeue",
    "objectstore.BlueStore.queue_transaction",
    "rados.RadosClient.write_object",
    "rados.RadosClient.ms_dispatch",
})
_DOCEPH = frozenset({
    "cluster.build_doceph_cluster",
    "hw.net.BandwidthPipe.transmit",
    "core.ProxyObjectStore.queue_transaction",
    "core.DmaPipeline.push",
    "core.RpcChannel.call",
    "core.RpcChannel.respond",
})

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "doceph-write-4m",
            ClosedLoop("doceph"),
            _COMMON | _DOCEPH,
        ),
        Workload(
            "baseline-write-4m",
            ClosedLoop("baseline"),
            _COMMON | {"cluster.build_baseline_cluster"},
        ),
        Workload(
            "qos-mixed-64k",
            OpenLoopQos(),
            _COMMON | _DOCEPH - {"cluster.build_doceph_cluster"} | {
                "cluster.OffloadStrategy.build",
                "rados.RadosClient.read_object",
                "core.ProxyObjectStore.read",
                "objectstore.BlueStore.read",
                "hw.storage.SsdDevice.read",
                "qos.AdmissionController.try_acquire",
                "qos.AdmissionController.release",
            },
        ),
        Workload(
            "doceph-write-4m-dmafault",
            ClosedLoop("doceph", faults="dma,p=0.3"),
            _COMMON | _DOCEPH | {
                "hw.dma.DmaEngine.transfer",
                "core.DocaDma.transfer",
            },
        ),
    )
}


def set_up(workload: Workload, seed: int, clock: HostClock,
           on_env: Optional[Callable[[Environment], None]] = None
           ) -> tuple[Any, Phase]:
    """Build, boot and prepopulate a fresh cluster.

    The phases are timed back to back as one span, and one calibration
    right after it rescales all three to the reference speed (see
    :mod:`hostclock`)."""
    driver = workload.driver
    env = Environment()
    if on_env is not None:
        on_env(env)
    t0 = perf_counter()
    cluster = driver.build(env, seed)
    t1 = perf_counter()
    _run_process(env, cluster.boot(), "cluster-boot")
    t2 = perf_counter()
    driver.prepopulate(cluster, seed)
    t3 = perf_counter()
    scale = clock.scale()
    return cluster, Phase(build_s=scale * (t1 - t0),
                          boot_s=scale * (t2 - t1),
                          prepopulate_s=scale * (t3 - t2))
