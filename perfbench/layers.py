"""Per-layer metrics of the traced run, and the cProfile cross-check.

Counts come from two places.  Where a layer's public entry point is on
the hot path, the count is its span count.  Where a flattened private
machine inlines the entry point (``_WirePump`` inlines
``Network.deliver`` and ``BandwidthPipe.transmit`` for messenger
frames, ``_DmaSeg`` inlines ``DmaEngine.transfer``), the count comes
from the layer's own public counters, read before and after the
measured call.  Self times only come from spans, so work done inside a
flattened machine is ``sim`` self time.

Every ``*_per_op`` figure divides by the ops completed during the
whole measured call.
"""

from __future__ import annotations

import pstats
from typing import Any

from repro.core.proxy_objectstore import ProxyObjectStore
from repro.perf import _profile_breakdown

from workloads import all_cpus

#: cProfile subpackages compared with span layers (``hw.*`` → ``hw``).
XCHECK = ("sim", "hw", "msgr", "core", "osd", "objectstore", "rados",
          "qos", "cluster")


def counters(cluster: Any) -> dict[str, float]:
    """The public counters the per-layer counts are read from."""
    out: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0) + value

    for node in cluster.nodes:
        if node.dma is not None:
            add("dma.transfers", node.dma.transfers)
            add("dma.failures", node.dma.failures)
            add("dma.wait_s", node.dma.wait_time)
    net = cluster.network
    for addr in net.addresses():
        add("net.tx_bytes", net.nic(addr).tx.bytes_transferred)
    msgrs = [osd.messenger for osd in cluster.osds]
    msgrs += [cluster.mon.messenger, cluster.client.messenger]
    for m in msgrs:
        add("msgr.received", m.messages_received)
    for cpu in all_cpus(cluster):
        add("cpu.ctx", cpu.accounting.total_ctx())
    for osd in cluster.osds:
        store = osd.store
        if isinstance(store, ProxyObjectStore):
            add("doca.hits", store.doca.cache_hits)
            add("doca.misses", store.doca.cache_misses)
            add("core.fallback_segments", store.fallback.fallback_segments)
    for server in cluster.proxy_servers:
        add("rpc.retries", server.rpc.retries)
    client = cluster.client
    add("rados.resends", client.resends)
    add("rados.timeouts", client.timeouts)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(outcome: Any, spans: dict[str, Any],
                  before: dict[str, float], after: dict[str, float],
                  peak_pending: int) -> dict[str, float]:
    """The per-layer metrics of one traced measured call."""
    ops = outcome.ops_total
    calls = spans["calls"]
    self_s = spans["self_s"]

    def delta(key: str) -> float:
        return after.get(key, 0) - before.get(key, 0)

    def per_op(x: float) -> float:
        return _ratio(x, ops)

    def layer_self_ms(layer: str) -> float:
        return per_op(1e3 * sum(t for n, t in self_s.items()
                                if _layer(n) == layer))

    dma_ok, dma_bad = delta("dma.transfers"), delta("dma.failures")
    hits, misses = delta("doca.hits"), delta("doca.misses")
    queue = outcome.extra.get("queue", {})
    admitted = outcome.extra.get("admitted", 0)
    shed = outcome.extra.get("shed", 0)
    m = {
        "sim.events_per_op": per_op(outcome.events),
        "sim.peak_pending": float(peak_pending),
        "sim.self_ms_per_op": layer_self_ms("sim"),
        "hw.cpu.charges_per_op": per_op(spans["cpu_charges"]),
        "hw.cpu.self_ms_per_op": layer_self_ms("hw.cpu"),
        "hw.cpu.queue_wait_ms_per_op": per_op(1e3 * spans["cpu_queue_wait_s"]),
        "hw.cpu.ctx_per_op": per_op(delta("cpu.ctx")),
        "hw.net.deliveries_per_op": per_op(
            calls["hw.net.Network.deliver"] + delta("msgr.received")),
        "hw.net.chunks_per_op": per_op(spans["rx_chunks"]),
        "hw.net.bytes_per_op": per_op(delta("net.tx_bytes")),
        "hw.net.self_ms_per_op": layer_self_ms("hw.net"),
        "hw.dma.transfers_per_op": per_op(dma_ok + dma_bad),
        "hw.dma.wait_ms_per_op": per_op(1e3 * delta("dma.wait_s")),
        "hw.dma.success_ratio": _ratio(dma_ok, dma_ok + dma_bad),
        "hw.dma.self_ms_per_op": layer_self_ms("hw.dma"),
        "hw.storage.ios_per_op": per_op(calls["hw.storage.SsdDevice.write"]
                                        + calls["hw.storage.SsdDevice.read"]),
        "hw.storage.self_ms_per_op": layer_self_ms("hw.storage"),
        "msgr.messages_per_op": per_op(
            calls["msgr.AsyncMessenger.send_message"]),
        "msgr.self_ms_per_op": layer_self_ms("msgr"),
        "core.pushes_per_op": per_op(calls["core.DmaPipeline.push"]),
        "core.rpc_calls_per_op": per_op(calls["core.RpcChannel.call"]),
        "core.rpc_retries": delta("rpc.retries"),
        "core.fallback_segments": delta("core.fallback_segments"),
        "core.mr_cache_hit_ratio": _ratio(hits, hits + misses),
        "core.dma_wait_ms_per_op": per_op(
            1e3 * outcome.extra.get("dma_wait_s", 0.0)),
        "core.self_ms_per_op": layer_self_ms("core"),
        "osd.dispatches_per_op": per_op(calls["osd.OsdDaemon.ms_dispatch"]),
        "osd.queue_wait_ms_per_op": per_op(1e3 * spans["osd_queue_wait_s"]),
        "osd.self_ms_per_op": layer_self_ms("osd"),
        "objectstore.txns_per_op": per_op(
            calls["objectstore.BlueStore.queue_transaction"]),
        "objectstore.reads_per_op": per_op(calls["objectstore.BlueStore.read"]),
        "objectstore.self_ms_per_op": layer_self_ms("objectstore"),
        "rados.ops_attempted": float(outcome.attempted),
        "rados.ops_failed": float(outcome.failed),
        "rados.resends": delta("rados.resends"),
        "rados.timeouts": delta("rados.timeouts"),
        "rados.success_ratio": _ratio(outcome.attempted - outcome.failed,
                                      outcome.attempted),
        "rados.self_ms_per_op": layer_self_ms("rados"),
        "qos.admitted": float(admitted),
        "qos.shed": float(shed),
        "qos.admit_ratio": _ratio(admitted, admitted + shed),
        "qos.self_ms_per_op": layer_self_ms("qos"),
    }
    for key in ("tagged_enqueued", "reservation_served", "weight_served",
                "limit_deferrals"):
        m[f"qos.{key}"] = float(queue.get(key, 0))
    return m


def _layer(span_name: str) -> str:
    head = span_name.split(".", 2)
    return f"{head[0]}.{head[1]}" if head[0] == "hw" else head[0]


def span_shares(self_s: dict[str, float]) -> dict[str, float]:
    """Self-time share (%) per cProfile subpackage, from the spans."""
    total = sum(self_s.values())
    shares = {sub: 0.0 for sub in XCHECK}
    for name, t in self_s.items():
        sub = _layer(name).split(".", 1)[0]
        shares[sub] += 100.0 * _ratio(t, total)
    return shares


def profile_shares(stats: pstats.Stats) -> dict[str, float]:
    """tottime share (%) per ``repro`` subpackage, as repro.perf does."""
    by_sub, _hot = _profile_breakdown(stats)
    return {sub: 100.0 * by_sub.get(sub, {}).get("share", 0.0)
            for sub in XCHECK}


_QOS_ZERO = ("qos.admitted", "qos.shed", "qos.admit_ratio",
             "qos.self_ms_per_op", "qos.tagged_enqueued",
             "qos.reservation_served", "qos.weight_served",
             "qos.limit_deferrals")
_NO_FAULT_ZERO = ("core.rpc_retries", "core.fallback_segments")
_NO_READ_ZERO = ("objectstore.reads_per_op",)

#: Metrics that must be exactly zero on a workload: the model does no
#: such work there, so a non-zero value means the traced run took a path
#: the workload was not meant to take.
PREDICTED_ZERO: dict[str, tuple[str, ...]] = {
    "baseline-write-4m": (
        "hw.dma.transfers_per_op", "hw.dma.wait_ms_per_op",
        "hw.dma.success_ratio", "hw.dma.self_ms_per_op",
        "core.pushes_per_op", "core.rpc_calls_per_op",
        "core.mr_cache_hit_ratio", "core.dma_wait_ms_per_op",
        "core.self_ms_per_op",
    ) + _NO_FAULT_ZERO + _QOS_ZERO + _NO_READ_ZERO,
    "doceph-write-4m": _NO_FAULT_ZERO + _QOS_ZERO + _NO_READ_ZERO,
    "qos-mixed-64k": _NO_FAULT_ZERO,
    "doceph-write-4m-dmafault": _QOS_ZERO + _NO_READ_ZERO,
}
