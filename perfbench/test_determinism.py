"""The traced run's deterministic counts repeat exactly for one seed.

Run from the repository root (not part of the tier-1 suite; it spawns
servers)::

    python -m pytest perfbench -q
"""

import json
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import make_workload  # noqa: E402

SPEC = json.loads((HERE / "spec.json").read_text())["workloads"]

#: Per-layer metrics taken over the deterministic window: counts and
#: virtual time, never wall time.
DETERMINISTIC = [
    "transport.frames_per_op", "transport.bytes_per_op",
    "ipc.sim_messages_per_op", "ipc.cross_domain_per_op",
    "storage.device_reads_per_op", "storage.device_writes_per_op",
    "storage.write_amplification", "vm.faults_per_op",
    "sim.virtual_us_per_op", "sim.cpu_us_per_op",
    "sim.cross_domain_us_per_op", "sim.local_call_us_per_op",
    "sim.disk_us_per_op", "sim.network_us_per_op",
    "fs.dfs.virtual_self_us", "fs.coherency.virtual_self_us",
    "fs.disk.virtual_self_us",
]


def traced_run(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170,
        check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"], out.stderr
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", sorted(SPEC))
def test_same_seed_repeats_counts_exactly(workload):
    first, second = traced_run(workload, 11), traced_run(workload, 11)
    assert {m: first[m] for m in DETERMINISTIC} == {
        m: second[m] for m in DETERMINISTIC}
    assert first["transport.frames_per_op"] >= 1.0


class RecordingFs:
    """Stands in for the remote ``fs`` stub and records every call."""

    def __init__(self) -> None:
        self.calls = []
        self._next_fd = 3

    def __getattr__(self, op):
        def call(*args):
            self.calls.append((op, args))
            if op == "open":
                self._next_fd += 1
                return self._next_fd
            return None
        return call


def op_stream(workload: str, seed: int, count: int = 200) -> list:
    fs = RecordingFs()
    wl = make_workload(SPEC[workload], seed, fs)
    wl.populate()
    for _ in range(count):
        wl.next_op()[1]()
    return fs.calls


@pytest.mark.parametrize("workload", sorted(SPEC))
def test_seed_drives_the_op_sequence(workload):
    assert op_stream(workload, 1) == op_stream(workload, 1)
    assert op_stream(workload, 1) != op_stream(workload, 2)
