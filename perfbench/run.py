"""End-to-end wire benchmark: one client process against ``repro.serve``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sfs-hot-read --seed 1 --seconds 10 --trace 0

Each run spawns the unmodified ``python -m repro.serve`` for the
workload's stack, populates the working set over one TCP connection
(``SocketTransport`` + ``RemoteStub``), warms up, and drives a closed
loop for ``--seconds``, checking every reply against the client's model.
It prints one line per metric (name, value, unit) and, last, one JSON
object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` reports its per-layer metrics: an untraced phase (socket
floor, CPU per op, untraced p50) followed by a phase against
``perfbench/traced_serve.py``, which records a span at every layer
boundary of the server while the client records its own transport and
codec spans (see ``tracing.py``).  After its timed phase every run
probes the known ``Posix.rename`` defect outside the counted ops (see
``workloads.subdir_rename_raises_exdev``).  Workloads, their op mixes
and the layer-to-metric map are recorded in ``perfbench/spec.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-ups per untraced run; setup_s is their median.
SETUPS = 5
#: Timed ops of the traced phase over which the deterministic per-op
#: counts are taken.
WINDOW_OPS = 1000
#: server_rss_mb is read after this many timed ops (or at the end of a
#: shorter run): a fixed amount of work, because the sfs-meta server
#: grows with every op it serves and a faster server would otherwise
#: read as a bigger one.
RSS_OPS = 4000
#: Length of the slices whose medians p50_us averages (see p50_sliced()).
SLICE_S = 1.0
#: Bare pings timed for the socket floor.
PINGS = 2000
READY_TIMEOUT_S = 60.0
EXIT_TIMEOUT_S = 60.0


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


# --- the served process --------------------------------------------------------

class Server:
    """One spawned ``repro.serve`` (plain or traced) and its client."""

    def __init__(self, stack: str, spans_out: Optional[str] = None) -> None:
        if spans_out is None:
            cmd = [sys.executable, "-m", "repro.serve", "--stack", stack]
        else:
            cmd = [sys.executable, str(HERE / "traced_serve.py"), spans_out,
                   "--stack", stack]
        # A fixed hash seed keeps set/dict iteration order, and so the
        # served op sequence's simulated costs, identical across runs.
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, text=True,
        )
        try:
            line = self._ready_line()
            fields = dict(f.split("=", 1) for f in line.split()[2:])
            from repro.ipc.retry import RetryPolicy
            from repro.ipc.transport import SocketTransport
            from repro.serve import FileService

            self.transport = SocketTransport(
                fields["host"], int(fields["port"]), src="client",
                dst="gateway" if stack == "dfs" else "server",
                retry_policy=RetryPolicy(),
            )
            self.fs = self.transport.bind(
                "fs", idempotent=FileService.IDEMPOTENT_OPS)
            self.control = self.transport.bind("control")
        except BaseException:
            self.kill()
            raise

    def _ready_line(self) -> str:
        readable, _, _ = select.select([self.proc.stdout], [], [], READY_TIMEOUT_S)
        line = self.proc.stdout.readline() if readable else ""
        if not line.startswith("REPRO-SERVE READY"):
            raise RuntimeError(f"server did not report READY (got {line!r})")
        return line

    def cpu_s(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Ask the server to shut down and wait for it to exit."""
        try:
            self.control.shutdown()
            self.transport.close()
            self.proc.communicate(timeout=EXIT_TIMEOUT_S)
            if self.proc.returncode != 0:
                raise RuntimeError(f"server exited with {self.proc.returncode}")
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


# --- the closed loop -------------------------------------------------------------

class Tally:
    """Outcomes of a sequence of ops."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        #: Wall time at which each op's reply arrived.
        self.ends: List[float] = []
        self.ok_flags = bytearray()
        #: Every failure: wrong data, a transport error or a typed
        #: error.  Any makes the run incorrect.
        self.unexpected: List[str] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def ok(self) -> int:
        return sum(self.ok_flags)

    @property
    def failed(self) -> int:
        return self.attempted - self.ok


def run_op(op, tally: Tally, log=None, root_ids=None) -> None:
    kind, call, check = op
    index = log.open(root_ids[kind]) if log is not None else -1
    start = time.perf_counter()
    try:
        result = call()
        problem = None
    except Exception as exc:  # every failure is counted, none ends the run
        problem = exc
    end = time.perf_counter()
    if log is not None:
        log.close(index)
    tally.latencies.append(end - start)
    tally.ends.append(end)
    if problem is None:
        problem = check(result)
    tally.ok_flags.append(problem is None)
    if problem is not None:
        if not isinstance(problem, str):
            problem = f"{type(problem).__name__}: {problem}"
        tally.unexpected.append(f"{kind}: {problem}")


def timed_loop(workload, seconds: float, min_ops: int = 0, log=None,
               on_op=None) -> tuple:
    """Run the workload's op stream for ``seconds`` (and at least
    ``min_ops`` ops); returns ``(tally, start_s, elapsed_s)``."""
    tally = Tally()
    root_ids = None
    if log is not None:
        root_ids = {k: log.name_id(f"client.op:{k}") for k in workload.spec["mix"]}
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline or tally.attempted < min_ops:
        run_op(workload.next_op(), tally, log, root_ids)
        if on_op is not None:
            on_op(tally.attempted)
    return tally, start, time.perf_counter() - start


def prepare(spec: dict, seed: int, server: Server):
    """A fresh seeded workload with its working set populated."""
    from workloads import make_workload

    workload = make_workload(spec, seed, server.fs)
    workload.populate()
    return workload


def warm_up(workload, tally: Tally) -> None:
    """The workload's fixed warm-up ops; outcomes go to ``tally``."""
    for op in workload.warmup_ops():
        run_op(op, tally)


def rename_probe(server: Server, tally: Tally) -> int:
    """1 while the known subdirectory-rename defect is present, else 0.
    The probe is not one of the counted ops; an outcome other than
    EXDEV or a clean rename goes to ``tally`` as unexpected."""
    from workloads import subdir_rename_raises_exdev

    try:
        return int(subdir_rename_raises_exdev(server.fs))
    except Exception as exc:
        tally.unexpected.append(f"rename probe: {type(exc).__name__}: {exc}")
        return 0


def quantile(samples: List[float], q: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def p50_sliced(tally: Tally, start: float, elapsed: float) -> float:
    """The mean over the SLICE_S slices of the timed phase of each
    slice's median latency.  The host's vCPU speed moves between levels
    that last from seconds to minutes; this mean moves in proportion to
    the share of time spent at each level, where the median of all
    samples jumps from one level's latencies to another's when that
    share crosses one half.  (p99_us needs no slicing: the slowest 1% of
    a run comes from its slow stretches whatever their share.)"""
    count = max(1, int(elapsed // SLICE_S))
    width = elapsed / count
    slices: List[List[float]] = [[] for _ in range(count)]
    for latency, end in zip(tally.latencies, tally.ends):
        slices[min(count - 1, int((end - start) / width))].append(latency)
    return statistics.mean(quantile(s, 0.50) for s in slices if s)


# --- the two kinds of run -----------------------------------------------------

def end_to_end(spec: dict, seed: int, seconds: float) -> tuple:
    setups: List[float] = []
    warm = Tally()
    server = None
    try:
        for _ in range(SETUPS):
            if server is not None:
                server.stop()
            start = time.perf_counter()
            server = Server(spec["stack"])
            workload = prepare(spec, seed, server)
            setups.append(time.perf_counter() - start)
        warm_up(workload, warm)
        rss: List[float] = []

        def sample_rss(done: int) -> None:
            if done == RSS_OPS:
                rss.append(server.peak_rss_mb())

        tally, start, elapsed = timed_loop(workload, seconds, on_op=sample_rss)
        if not rss:
            rss.append(server.peak_rss_mb())
        defect = rename_probe(server, warm)
        server.stop()
    finally:
        if server is not None:
            server.kill()
    metrics = {
        "ops_per_s": tally.ok / elapsed,
        "p50_us": p50_sliced(tally, start, elapsed) * 1e6,
        "p99_us": quantile(tally.latencies, 0.99) * 1e6,
        "ok_frac": tally.ok / tally.attempted,
        "setup_s": statistics.median(setups),
        "server_rss_mb": rss[0],
    }
    notes = {
        "samples": tally.attempted,
        "failed_frac": tally.failed / tally.attempted,
        "setup_s_all": setups,
        "subdir_rename_exdev": defect,
    }
    return metrics, tally, warm.unexpected, notes


def per_layer(spec: dict, seed: int, seconds: float, scratch: str) -> tuple:
    """Half of ``seconds`` untraced, half traced."""
    import tracing

    seconds /= 2
    warm = Tally()
    # Phase A: untraced server -- socket floor, CPU per op, untraced p50.
    server = Server(spec["stack"])
    try:
        workload = prepare(spec, seed, server)
        warm_up(workload, warm)
        pings = []
        for _ in range(PINGS):
            start = time.perf_counter()
            server.transport.send(None, None, 0)
            pings.append(time.perf_counter() - start)
        transport = server.transport
        counters0 = (transport.retries, transport.reconnects)
        cpu0 = (time.process_time(), server.cpu_s())
        untraced, _, _ = timed_loop(workload, seconds)
        cpu1 = (time.process_time(), server.cpu_s())
        counters1 = (transport.retries, transport.reconnects)
        defect = rename_probe(server, warm)
        server.stop()
    finally:
        server.kill()

    # Phase B: traced server and client.
    client_log = tracing.SpanLog()
    client_log.enabled = False
    tracing.instrument_client(client_log)
    spans_out = os.path.join(scratch, "server.spans")
    server = Server(spec["stack"], spans_out)
    window: Dict[str, object] = {}

    def snapshot(tag: str) -> None:
        # The stats request is kept outside the window: issued before
        # the counters are read at its start, after them at its end.
        client_log.enabled = False
        stats = server.control.stats() if tag == "start" else None
        t = server.transport
        window[tag] = {
            "frames": t.messages,
            "bytes": t.bytes_out + t.bytes_in,
            "seq": client_log.seq_now,
            "user_bytes": workload.user_bytes,
            "stats": stats or server.control.stats(),
        }
        client_log.enabled = True

    def at_window_end(done: int) -> None:
        if done == WINDOW_OPS:
            snapshot("end")

    try:
        workload = prepare(spec, seed, server)
        warm_up(workload, warm)
        snapshot("start")
        traced, _, _ = timed_loop(workload, seconds, WINDOW_OPS, client_log,
                                  at_window_end)
        client_log.enabled = False
        server.stop()
    finally:
        server.kill()
    server_log = tracing.SpanLog.load(spans_out)

    ops = untraced.attempted
    metrics, notes = tracing.analyze(client_log, server_log, window, WINDOW_OPS)
    metrics.update({
        "transport.client_cpu_us_per_op": (cpu1[0] - cpu0[0]) / ops * 1e6,
        "transport.server_cpu_us_per_op": (cpu1[1] - cpu0[1]) / ops * 1e6,
        "transport.ping_p50_us": quantile(pings, 0.5) * 1e6,
        "transport.retries": counters1[0] - counters0[0],
        "transport.reconnects": counters1[1] - counters0[1],
        "trace.traced_p50_us": quantile(traced.latencies, 0.5) * 1e6,
        "trace.untraced_p50_us": quantile(untraced.latencies, 0.5) * 1e6,
        "unix.subdir_rename_exdev": defect,
    })
    metrics["trace.overhead_ratio"] = (
        metrics["trace.traced_p50_us"] / metrics["trace.untraced_p50_us"])
    notes.update({
        "samples": traced.attempted,
        "untraced_samples": ops,
        "server_spans": len(server_log.t0),
        "spans_dropped": server_log.dropped + client_log.dropped,
    })
    unexpected = warm.unexpected + untraced.unexpected
    return metrics, traced, unexpected, notes


# --- entry point ------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops the servers it spawned (the
    # ``finally`` blocks run on SystemExit).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "repro" / "serve.py").is_file():
        fail(f"no repro sources under {ROOT / 'src'}; run from a checkout")
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        spec = json.loads((HERE / "spec.json").read_text())["workloads"][args.workload]
    except KeyError:
        fail(f"unknown workload {args.workload!r}")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    # Client and server share one CPU (children inherit the affinity):
    # in a closed loop only one of them runs at a time, and a same-CPU
    # hand-off avoids the cross-CPU wake-up, whose latency on a
    # virtual machine is large and erratic.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench_tmp_") as scratch:
        if args.trace:
            values, tally, unexpected, notes = per_layer(
                spec, args.seed, args.seconds, scratch)
        else:
            values, tally, unexpected, notes = end_to_end(
                spec, args.seed, args.seconds)

    mismatched = {m["name"] for m in declared} ^ set(values)
    if mismatched:
        fail(f"computed and declared metrics differ: {sorted(mismatched)}")
    unexpected = unexpected + tally.unexpected
    for line in unexpected[:10]:
        print(f"perfbench: unexpected failure: {line}", file=sys.stderr)

    print(f"# workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for name, value in notes.items():
        print(f"#   {name} = {value}")
    metrics = {}
    for metric in declared:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']:34s} {value:16.6f} {metric['unit']}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
