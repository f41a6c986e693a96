"""Resident directories change Python CPU only: the modelled cost, the
device traffic and the bytes on disk stay exactly those of parsing and
repacking the whole directory on every operation.  Plus the over-long
name defect: a rejected create must not leak an i-node."""

import hashlib

import pytest

from repro.errors import DeviceError, SpringError, StorageError
from repro.serve import build_service
from repro.storage.block_device import RamDevice
from repro.storage.directory import unpack_entries
from repro.storage.inode import FileType
from repro.storage.volume import Volume
from repro.unix.posixlike import O_RDWR
from repro.world import World

#: Recorded with the whole-directory unpack/pack implementation this
#: replaced, on the script in :func:`run_script`.  Exact: any drift
#: means the change is no longer CPU-only.
EXPECTED_NOW_US = 27087034.425780363
EXPECTED_READS = 1371
EXPECTED_WRITES = 504
EXPECTED_SHA256 = "8a3d017541ca443735dacf6775106bce5f4ba258b0b1dc6f0f73e71f84151f46"


def served_sfs():
    world, _node, fs = build_service("sfs", blocks=4096)
    (volume,) = world._volumes
    return world, volume, fs


def device_digest(device) -> str:
    digest = hashlib.sha256()
    for index in range(device.num_blocks):
        block = device.store.read(index)
        if block is not None:
            digest.update(index.to_bytes(4, "little"))
            digest.update(bytes(block))
    return digest.hexdigest()


def run_script():
    """300 creates, then stats (some missing), listdirs, unlinks,
    renames, re-creates, an fsync and over-long creates, all in one
    subdirectory of the served SFS."""
    world, volume, fs = served_sfs()
    fs.mkdir("d")
    for i in range(300):
        fs.write_file(f"d/f{i:03d}", bytes([i % 251]) * (i % 5 * 700))
    for i in range(0, 300, 3):
        fs.stat(f"d/f{i:03d}")
    for i in range(20):
        with pytest.raises(SpringError):
            fs.stat(f"d/missing{i}")
    for _ in range(3):
        assert len(fs.listdir("d")) == 300
    for i in range(0, 300, 2):
        fs.unlink(f"d/f{i:03d}")
    for i in range(1, 40, 4):
        fs.rename(f"d/f{i:03d}", f"d/r{i:03d}")
    for i in range(40):
        fs.write_file(f"d/g{i:03d}", b"g" * i)
    names = fs.listdir("d")
    fd = fs.open("d/g001", O_RDWR)
    fs.fsync(fd)
    fs.close(fd)
    for length in (256, 300, 1000):
        with pytest.raises(StorageError):
            fs.write_file("d/" + "x" * length, b"hi")
    assert fs.listdir("d") == names
    return world, volume


def test_modelled_cost_and_disk_image_unchanged():
    world, volume = run_script()
    assert world.clock.now_us == EXPECTED_NOW_US
    assert volume.device.reads == EXPECTED_READS
    assert volume.device.writes == EXPECTED_WRITES
    assert device_digest(volume.device) == EXPECTED_SHA256


@pytest.mark.parametrize("path", ["d/" + "x" * 256, "d/" + "é" * 128])
def test_overlong_name_is_typed_and_leaks_nothing(path):
    _world, volume, fs = served_sfs()
    fs.mkdir("d")
    fs.write_file("d/keep", b"k")
    before = fs.listdir("d")
    with pytest.raises(StorageError):
        fs.write_file(path, b"hi")
    assert fs.listdir("d") == before
    assert volume.fsck() == []


def test_overlong_rename_and_link_change_nothing():
    _world, volume, fs = served_sfs()
    fs.mkdir("d")
    fs.write_file("d/a", b"a")
    root = volume.sb.root_ino
    d_ino = volume.lookup(root, "d")
    a_ino = volume.lookup(d_ino, "a")
    with pytest.raises(StorageError):
        volume.rename(d_ino, "a", root, "y" * 256)
    with pytest.raises(StorageError):
        volume.link(d_ino, "y" * 256, a_ino)
    assert volume.list_names(d_ino) == ["a"]
    assert volume.list_names(root) == ["d"]
    assert volume.iget(a_ino).nlink == 1
    assert volume.fsck() == []


@pytest.mark.parametrize("change", [
    lambda volume, root, sub: volume.create(root, "c", FileType.REGULAR),
    lambda volume, root, sub: volume.rename(root, "a", sub, "a2"),
])
def test_failed_rewrite_leaves_no_stale_resident_copy(change):
    world = World()
    node = world.create_node("n")
    device = RamDevice(node.nucleus, "ram", 512)
    volume = Volume.mkfs(device, inode_count=64)
    root = volume.sb.root_ino
    volume.create_many(root, ["a", "b"])
    sub = volume.create(root, "s", FileType.DIRECTORY).ino
    device.inject_power_failure_after(0)
    with pytest.raises(DeviceError):
        change(volume, root, sub)
    device.clear_power_failure()
    for dir_ino in (root, sub):
        raw = volume.read_data(dir_ino, 0, volume.iget(dir_ino).size)
        assert volume.readdir(dir_ino) == unpack_entries(raw)
