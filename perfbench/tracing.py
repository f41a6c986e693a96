"""Span recording for the traced benchmark run.

A :class:`SpanLog` keeps one row per span in parallel arrays (name id,
wire seq, parent, wall start/end, virtual start/end, bytes), so a
multi-second traced run costs a few tens of bytes per span and nothing
is written until shutdown.  Wall times come from ``time.perf_counter``,
which on Linux reads the system-wide monotonic clock, so spans taken in
the client and in the server process share one time axis and a server
span nests inside the client span that waited for it.

Span names are ``"<layer>:<method>"``; the layer part (a module name
such as ``fs.coherency`` or ``storage.volume``) is what the per-layer
metrics aggregate over.  The server's spans carry the wire ``seq`` of
the request being served, which is how :func:`analyze` hangs them under
the client's ``transport.invoke`` span for the same request.
"""

from __future__ import annotations

import json
import operator
import time
import types
from array import array
from typing import Callable, Dict, Iterable, List, Optional

#: SimClock categories reported as ``sim.<category>_us_per_op``; any
#: other category's charges land in the ``other`` column.
SIM_CATEGORIES = ("cpu", "cross_domain", "local_call", "disk", "network")

_ARRAYS = (
    ("name", "H"), ("seq", "q"), ("parent", "q"), ("nbytes", "q"),
    ("t0", "d"), ("t1", "d"), ("v0", "d"), ("v1", "d"),
)


class SpanLog:
    """In-memory span table for one process."""

    def __init__(self, max_spans: int = 3_000_000) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        for field, code in _ARRAYS:
            setattr(self, field, array(code))
        #: Per-request virtual-clock charges, one row per dispatched
        #: request: ``req_seq[i]`` and ``len(SIM_CATEGORIES) + 1``
        #: category deltas (the last is every other category).
        self.req_seq = array("q")
        self.req_cat = array("d")
        self.max_spans = max_spans
        self.dropped = 0
        self.enabled = True
        #: Wire seq of the request this process is working on.
        self.seq_now = 0
        #: Virtual clock read at span boundaries (server side only).
        self.clock = None
        self._stack: List[int] = []

    def name_id(self, name: str) -> int:
        try:
            return self._ids[name]
        except KeyError:
            self._ids[name] = len(self.names)
            self.names.append(name)
            return self._ids[name]

    # --- recording -------------------------------------------------------
    def open(self, name_id: int) -> int:
        index = len(self.t0)
        if index >= self.max_spans:
            self.dropped += 1
            return -1
        vnow = self.clock.now_us if self.clock is not None else 0.0
        self.name.append(name_id)
        self.seq.append(self.seq_now)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.nbytes.append(0)
        self.v0.append(vnow)
        self.v1.append(vnow)
        self._stack.append(index)
        self.t1.append(0.0)
        self.t0.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        end = time.perf_counter()
        if index < 0:
            return
        self.t1[index] = end
        if self.clock is not None:
            self.v1[index] = self.clock.now_us
        self._stack.pop()

    def wrap(self, fn: Callable, name: str, on_close=None) -> Callable:
        """``fn`` recorded as span ``name``; ``on_close(log, index, args)``
        may annotate the span after a successful call."""
        name_id = self.name_id(name)
        log = self

        def traced(*args, **kwargs):
            if not log.enabled:
                return fn(*args, **kwargs)
            index = log.open(name_id)
            try:
                result = fn(*args, **kwargs)
                if on_close is not None and index >= 0:
                    on_close(log, index, args)
                return result
            finally:
                log.close(index)

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def wrap_methods(self, cls: type, layer: str, names: Iterable[str]) -> None:
        """Shadow each plain function ``cls.<name>`` (own or inherited)
        with a span wrapper named ``<layer>:<name>``."""
        for name in names:
            fn = _plain_function(cls, name)
            if fn is not None:
                setattr(cls, name, self.wrap(fn, f"{layer}:{name}"))

    # --- persistence -----------------------------------------------------
    def save(self, path: str) -> None:
        header = {
            "names": self.names,
            "dropped": self.dropped,
            "lengths": {f: len(getattr(self, f)) for f, _ in _ARRAYS},
            "requests": len(self.req_seq),
        }
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for field, _ in _ARRAYS:
                getattr(self, field).tofile(out)
            self.req_seq.tofile(out)
            self.req_cat.tofile(out)

    @classmethod
    def load(cls, path: str) -> "SpanLog":
        log = cls()
        with open(path, "rb") as src:
            header = json.loads(src.readline())
            for field, code in _ARRAYS:
                data = array(code)
                data.fromfile(src, header["lengths"][field])
                setattr(log, field, data)
            log.req_seq.fromfile(src, header["requests"])
            log.req_cat.fromfile(
                src, header["requests"] * (len(SIM_CATEGORIES) + 1)
            )
        log.names = header["names"]
        log._ids = {name: i for i, name in enumerate(log.names)}
        log.dropped = header["dropped"]
        return log


def _plain_function(cls: type, name: str) -> Optional[types.FunctionType]:
    for klass in cls.__mro__:
        if name in vars(klass):
            value = vars(klass)[name]
            return value if isinstance(value, types.FunctionType) else None
    return None


def public_functions(*interfaces: type) -> List[str]:
    """Names of the public plain functions the given classes declare."""
    names = set()
    for interface in interfaces:
        names.update(
            name for name, value in vars(interface).items()
            if not name.startswith("_")
            and isinstance(value, types.FunctionType)
        )
    return sorted(names)


# --- the server side --------------------------------------------------------

def instrument_server(log: SpanLog, serve_module) -> None:
    """Wrap the public entry points of every layer a served request can
    pass through.  Call before ``serve_module.main()`` builds the world,
    so objects that cache bound methods at construction cache the
    wrappers."""
    from repro.fs.base import ChannelOps, LayerFsCache, LayerPagerObject
    from repro.fs.coherency import (
        CoherencyLayer, CoherencyOps, CoherentDirectory, CoherentFile,
    )
    from repro.fs.dfs import DfsDirectory, DfsFile, DfsLayer, DfsOps
    from repro.fs.disk_layer import DiskDirectory, DiskFile, DiskLayer, DiskOps
    from repro.fs.file import File
    from repro.ipc import transport, wire
    from repro.naming.context import NamingContext
    from repro.storage.block_device import BlockDevice
    from repro.storage.volume import Volume
    from repro.unix.posixlike import Posix
    from repro.vm.cache_object import CacheObject, FsCache
    from repro.vm.memory_object import MemoryObject
    from repro.vm.page import PageStore
    from repro.vm.pager_object import FsPager, PagerObject
    from repro.vm.vmm import VmCache, Vmm, VmmCacheObject

    file_ops = public_functions(File, MemoryObject)
    context_ops = public_functions(NamingContext) + [
        "create_file", "create_dir", "rename",
    ]
    channel_ops = sorted(
        set(public_functions(ChannelOps))
        & set(public_functions(PagerObject, FsPager, CacheObject, FsCache))
    )
    layers = (
        ("fs.dfs", DfsFile, DfsDirectory, DfsLayer, DfsOps),
        ("fs.coherency", CoherentFile, CoherentDirectory, CoherencyLayer,
         CoherencyOps),
        ("fs.disk", DiskFile, DiskDirectory, DiskLayer, DiskOps),
    )
    for layer, file_cls, dir_cls, layer_cls, ops_cls in layers:
        log.wrap_methods(file_cls, layer, file_ops)
        log.wrap_methods(dir_cls, layer, context_ops)
        log.wrap_methods(layer_cls, layer, context_ops + ["fault"])
        log.wrap_methods(ops_cls, layer, channel_ops)
    for cls in (LayerPagerObject, LayerFsCache, PageStore, VmCache, Vmm,
                VmmCacheObject):
        log.wrap_methods(cls, "vm", public_functions(*cls.__mro__[:-1]))
    log.wrap_methods(Volume, "storage.volume", public_functions(Volume))
    log.wrap_methods(BlockDevice, "storage.device", ["read_block", "read_blocks", "flush"])
    for name in ("write_block", "write_blocks"):
        fn = _plain_function(BlockDevice, name)
        setattr(BlockDevice, name, log.wrap(
            fn, f"storage.device:{name}", on_close=_count_written,
        ))
    log.wrap_methods(Posix, "unix", public_functions(Posix))
    log.wrap_methods(serve_module.FileService, "serve",
                     public_functions(serve_module.FileService))
    _wrap_dispatch(log, transport.ExportRegistry)
    _wrap_wire(log, wire, "server")

    build_service = serve_module.build_service

    def build_and_watch(*args, **kwargs):
        world, node, service = build_service(*args, **kwargs)
        log.clock = world.clock
        return world, node, service

    serve_module.build_service = build_and_watch


def _count_written(log: SpanLog, index: int, args) -> None:
    """Device writes record the bytes they moved
    (``write_block(index, data)`` / ``write_blocks(start, data)``)."""
    log.nbytes[index] = len(args[2])


def _wrap_dispatch(log: SpanLog, registry_cls: type) -> None:
    """``ExportRegistry.call`` as span ``transport.dispatch:call``, plus
    one row of per-category virtual-clock charges per request."""
    call = registry_cls.call
    name_id = log.name_id("transport.dispatch:call")

    def traced_call(self, target, op, args, kwargs):
        categories = log.clock.categories() if log.clock is not None else {}
        index = log.open(name_id)
        try:
            return call(self, target, op, args, kwargs)
        finally:
            log.close(index)
            if log.clock is not None:
                after = log.clock.categories()
                deltas = [after.get(c, 0.0) - categories.get(c, 0.0)
                          for c in SIM_CATEGORIES]
                total = log.clock.now_us - log.v0[index] if index >= 0 else 0.0
                log.req_seq.append(log.seq_now)
                log.req_cat.extend(deltas)
                log.req_cat.append(total - sum(deltas))

    registry_cls.call = traced_call


def instrument_client(log: SpanLog) -> None:
    """Wrap the benchmark client's own transport and codec calls:
    ``SocketTransport.invoke`` (one span per request frame, tagged with
    its seq) and the client side of the wire codec."""
    from repro.ipc import transport, wire

    invoke = transport.SocketTransport.invoke
    name_id = log.name_id("transport.invoke:invoke")

    def traced_invoke(self, *args, **kwargs):
        if not log.enabled:
            return invoke(self, *args, **kwargs)
        index = log.open(name_id)
        try:
            return invoke(self, *args, **kwargs)
        finally:
            log.close(index)
            if index >= 0:
                log.seq[index] = log.seq_now

    transport.SocketTransport.invoke = traced_invoke
    _wrap_wire(log, wire, "client")


def _wrap_wire(log: SpanLog, wire_module, side: str) -> None:
    """``pack_frame``/``unpack_body`` as ``wire.<side>_encode`` /
    ``wire.<side>_decode`` spans; both keep ``log.seq_now`` current."""
    pack, unpack = wire_module.pack_frame, wire_module.unpack_body
    encode_id = log.name_id(f"wire.{side}_encode:pack_frame")
    decode_id = log.name_id(f"wire.{side}_decode:unpack_body")

    def pack_frame(kind, seq, src, dst, op, payload):
        log.seq_now = seq
        if not log.enabled:
            return pack(kind, seq, src, dst, op, payload)
        index = log.open(encode_id)
        try:
            return pack(kind, seq, src, dst, op, payload)
        finally:
            log.close(index)

    def unpack_body(body):
        if not log.enabled:
            return unpack(body)
        index = log.open(decode_id)
        try:
            message = unpack(body)
        finally:
            log.close(index)
        if side == "server":
            log.seq_now = message.seq
            if index >= 0:
                log.seq[index] = message.seq
        return message

    wire_module.pack_frame = pack_frame
    wire_module.unpack_body = unpack_body


# --- analysis ------------------------------------------------------------------

#: Span layer -> per-layer wall metric (mean self time per op).
WALL_METRICS = {
    "wire.client_encode": "wire.client_encode_us",
    "wire.client_decode": "wire.client_decode_us",
    "wire.server_decode": "wire.server_decode_us",
    "wire.server_encode": "wire.server_encode_us",
    "transport.dispatch": "transport.dispatch_us",
    "serve": "serve.self_us",
    "unix": "unix.self_us",
    "fs.dfs": "fs.dfs.self_us",
    "fs.coherency": "fs.coherency.self_us",
    "fs.disk": "fs.disk.self_us",
    "vm": "vm.self_us",
    "storage.volume": "storage.volume_us",
    "storage.device": "storage.device_us",
    "transport.invoke": "trace.uncovered_us",
    "client.op": "trace.bench_loop_us",
}
#: Span layer -> per-layer virtual metric (mean virtual self time per
#: op over the deterministic window).
VIRTUAL_METRICS = {
    "fs.dfs": "fs.dfs.virtual_self_us",
    "fs.coherency": "fs.coherency.virtual_self_us",
    "fs.disk": "fs.disk.virtual_self_us",
}
DEVICE_READS = ("storage.device:read_block", "storage.device:read_blocks")
DEVICE_WRITES = ("storage.device:write_block", "storage.device:write_blocks")
FAULTS = ("vm:page_in", "vm:page_in_range", "vm:fault")
#: A server span may start or end this far outside the client span
#: that waited for it before it counts as escaped (clock read jitter).
ESCAPE_TOLERANCE_S = 5e-6


def _self_times(log: SpanLog, keep) -> tuple:
    """Per-span wall duration, wall self time and virtual self time;
    a span's duration is subtracted from its parent only if ``keep``
    selects it (a kept span's children are always kept)."""
    wall = array("d", map(operator.sub, log.t1, log.t0))
    virtual = array("d", map(operator.sub, log.v1, log.v0))
    wall_self, virtual_self = array("d", wall), array("d", virtual)
    for i, parent in enumerate(log.parent):
        if parent >= 0 and keep[i]:
            wall_self[parent] -= wall[i]
            virtual_self[parent] -= virtual[i]
    return wall, wall_self, virtual_self


def analyze(client: SpanLog, server: SpanLog, window: dict,
            window_ops: int) -> tuple:
    """Per-layer metrics of a traced run; returns ``(metrics, notes)``.

    Wall self times cover every timed op of the traced phase.  Server
    spans hang under the client ``transport.invoke`` span with the same
    wire seq, so each op's wall time splits exactly into the layers'
    self times plus the invoke spans' own remainder (what no layer
    covers).  Counts and virtual times cover the deterministic window:
    requests with ``window["start"]["seq"] < seq <= window["end"]["seq"]``.
    """
    if client.dropped or server.dropped:
        raise ValueError("span table overflowed; shorten the traced phase")
    invoke_id = client.name_id("transport.invoke:invoke")
    by_seq = {
        client.seq[i]: i for i in range(len(client.t0))
        if client.name[i] == invoke_id
    }
    server_keep = [seq in by_seq for seq in server.seq]
    c_wall, c_self, _ = _self_times(client, [True] * len(client.t0))
    s_wall, s_self, s_vself = _self_times(server, server_keep)

    escaped = 0
    for i, keep in enumerate(server_keep):
        if keep and server.parent[i] < 0:
            j = by_seq[server.seq[i]]
            c_self[j] -= s_wall[i]
            if (server.t0[i] < client.t0[j] - ESCAPE_TOLERANCE_S
                    or server.t1[i] > client.t1[j] + ESCAPE_TOLERANCE_S):
                escaped += 1

    c_layers = [name.split(":")[0] for name in client.names]
    s_layers = [name.split(":")[0] for name in server.names]
    roots = [
        i for i in range(len(client.t0))
        if client.parent[i] < 0 and c_layers[client.name[i]] == "client.op"
    ]
    ops = len(roots)
    wall_by_layer: Dict[str, float] = {}
    for i, self_time in enumerate(c_self):
        layer = c_layers[client.name[i]]
        wall_by_layer[layer] = wall_by_layer.get(layer, 0.0) + self_time
    for i, self_time in enumerate(s_self):
        if server_keep[i]:
            layer = s_layers[server.name[i]]
            wall_by_layer[layer] = wall_by_layer.get(layer, 0.0) + self_time
    unknown = set(wall_by_layer) - set(WALL_METRICS)
    if unknown:
        raise ValueError(f"spans from unmapped layers: {sorted(unknown)}")

    metrics: Dict[str, float] = {
        metric: wall_by_layer.get(layer, 0.0) / ops * 1e6
        for layer, metric in WALL_METRICS.items()
    }
    op_us = sum(c_wall[i] for i in roots) / ops * 1e6
    accounted = sum(metrics[m] for m in WALL_METRICS.values())
    if abs(accounted - op_us) > 1e-6 * op_us:
        raise ValueError(f"layer self times {accounted} != op time {op_us}")
    metrics["trace.op_us"] = op_us

    # --- the deterministic window -------------------------------------
    start, end = window["start"], window["end"]
    low, high = start["seq"], end["seq"]
    in_window = [low < seq <= high for seq in server.seq]
    names = server.names
    count = {"reads": 0, "writes": 0, "faults": 0}
    written = 0
    virtual_by_layer: Dict[str, float] = {}
    for i, inside in enumerate(in_window):
        if not inside:
            continue
        name = names[server.name[i]]
        if name in DEVICE_READS:
            count["reads"] += 1
        elif name in DEVICE_WRITES:
            count["writes"] += 1
            written += server.nbytes[i]
        elif name in FAULTS:
            count["faults"] += 1
        layer = s_layers[server.name[i]]
        virtual_by_layer[layer] = virtual_by_layer.get(layer, 0.0) + s_vself[i]
    width = len(SIM_CATEGORIES) + 1
    charged = [0.0] * width
    for row, seq in enumerate(server.req_seq):
        if low < seq <= high:
            for k in range(width):
                charged[k] += server.req_cat[row * width + k]
    user_bytes = end["user_bytes"] - start["user_bytes"]
    per_op = 1.0 / window_ops
    metrics.update({
        "transport.frames_per_op": (end["frames"] - start["frames"]) * per_op,
        "transport.bytes_per_op": (end["bytes"] - start["bytes"]) * per_op,
        "ipc.sim_messages_per_op": (
            end["stats"]["sim_messages"] - start["stats"]["sim_messages"]
        ) * per_op,
        "ipc.cross_domain_per_op": (
            end["stats"]["invoke_cross_domain"]
            - start["stats"]["invoke_cross_domain"]
        ) * per_op,
        "storage.device_reads_per_op": count["reads"] * per_op,
        "storage.device_writes_per_op": count["writes"] * per_op,
        "storage.write_amplification": written / user_bytes if user_bytes else 0.0,
        "vm.faults_per_op": count["faults"] * per_op,
        "sim.virtual_us_per_op": sum(charged) * per_op,
    })
    for k, category in enumerate(SIM_CATEGORIES):
        metrics[f"sim.{category}_us_per_op"] = charged[k] * per_op
    for layer, metric in VIRTUAL_METRICS.items():
        metrics[metric] = virtual_by_layer.get(layer, 0.0) * per_op
    notes = {
        "traced_ops": ops,
        "window_requests": sum(1 for s in server.req_seq if low < s <= high),
        "server_spans_escaping_client_span": escaped,
        "sim_other_us_per_op": charged[-1] * per_op,
    }
    return metrics, notes
