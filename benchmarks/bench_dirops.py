"""Wall-clock cost of a directory change against directory size.

One create+unlink pair through the served file API (``FileService`` over
the two-domain SFS stack, no wire) is timed in a directory holding
``large`` entries and in one holding ``small`` entries, in the same
process and interleaved, so host speed and frequency drift cancel in
the ratio.  ``large_over_small`` is the headline: a directory operation
whose CPU cost grows with the directory — parsing and repacking every
entry — shows as a large ratio; one that touches only the entry it
changes stays near 1.  Virtual time is not measured here: the modelled
cost of a directory rewrite legitimately grows with its size.

Usage (from the repo root)::

    PYTHONPATH=src:. python benchmarks/bench_dirops.py [--smoke]

``--smoke`` runs a few pairs and does not write the record.
"""

import argparse
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

from benchmarks.emit_common import (
    BENCH_DIR,
    dump_record,
    ensure_repo_on_path,
    env_summary,
    write_record,
)

ensure_repo_on_path()

from repro.fs.sfs import create_sfs
from repro.serve import FileService
from repro.storage.block_device import BlockDevice
from repro.unix.posixlike import O_CREAT, O_WRONLY
from repro.world import World

FILENAME = "BENCH_dirops.json"

#: The large directory stays below the volume's 1024 i-nodes.
FULL = {"small": 10, "large": 1000, "pairs": 400}
SMOKE = {"small": 10, "large": 200, "pairs": 20}


def _service(entries: int) -> FileService:
    """An SFS whose directory ``d`` already holds ``entries`` files
    (bulk-created, outside any timing)."""
    world = World()
    node = world.create_node("bench")
    stack = create_sfs(node, BlockDevice(node.nucleus, "sd0", 4096))
    fs = FileService(stack.top, world.create_user_domain(node))
    fs.mkdir("d")
    volume = stack.volume
    d_ino = volume.lookup(volume.sb.root_ino, "d")
    volume.create_many(d_ino, [f"f{i:05d}" for i in range(entries)])
    return fs


def _pair_us(fs: FileService, name: str) -> float:
    """Wall time of one create (open O_CREAT + close) and unlink."""
    path = "d/" + name
    t0 = time.perf_counter()
    fs.close(fs.open(path, O_WRONLY | O_CREAT))
    fs.unlink(path)
    return (time.perf_counter() - t0) * 1e6


def measure(cfg: dict) -> dict:
    small, large = _service(cfg["small"]), _service(cfg["large"])
    small_us, large_us = [], []
    for i in range(cfg["pairs"]):
        name = f"t{i:05d}"  # sorts after the bulk names: a fixed position
        small_us.append(_pair_us(small, name))
        large_us.append(_pair_us(large, name))
    small_med = statistics.median(small_us)
    large_med = statistics.median(large_us)
    return {
        "small_us": round(small_med, 1),
        "large_us": round(large_med, 1),
        "large_over_small": round(large_med / small_med, 2),
    }


def build_record(cfg: dict = FULL) -> dict:
    return {
        "config": dict(sorted(cfg.items())),
        "metrics": measure(cfg),
        "timing": (
            "wall-clock median per create+unlink pair; host-dependent "
            "except large_over_small, which is taken within one run"
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="a few pairs; validate the record, do not write it",
    )
    args = parser.parse_args(argv)
    env = env_summary()
    print("env: " + " ".join(f"{k}={v}" for k, v in sorted(env.items())))
    record = build_record(SMOKE if args.smoke else FULL)
    rendered = dump_record(record)
    print("; ".join(f"{k}={v}" for k, v in record["metrics"].items()))
    if args.smoke:
        print(f"smoke OK: {FILENAME} ({len(rendered)} bytes, not written)")
        return 0
    out = os.path.join(BENCH_DIR, FILENAME)
    write_record(out, record)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
