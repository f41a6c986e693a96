"""Property test for resident directories: random namespace changes on a
:class:`Volume` keep every parsed, in-memory directory equal to its
on-disk bytes and the dentry cache consistent with the directories, and
a remount of the same device lists the same tree."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import FsError, StorageError
from repro.storage.block_device import RamDevice
from repro.storage.directory import unpack_entries
from repro.storage.inode import FileType
from repro.storage.volume import Volume
from repro.world import World

#: A small pool so operations collide; the last two exercise the
#: 255-byte name limit from both sides.
NAMES = ["a", "b", "c", "dd", "été", "z" * 255, "y" * 256]

dirs = st.integers(0, 5)
names = st.integers(0, len(NAMES) - 1)
op = st.one_of(
    st.tuples(st.just("create"), dirs, names),
    st.tuples(st.just("create_many"), dirs, st.lists(names, max_size=4)),
    st.tuples(st.just("mkdir"), dirs, names),
    st.tuples(st.just("link"), dirs, names, dirs, names),
    st.tuples(st.just("unlink"), dirs, names),
    st.tuples(st.just("rename"), dirs, names, dirs, names),
    st.tuples(st.just("lookup"), dirs, names),
)


def check_resident(volume: Volume, live_dirs):
    for dir_ino in live_dirs:
        assert volume.list_names(dir_ino) == sorted(volume.readdir(dir_ino))
    for dir_ino, directory in volume._dirs.items():
        raw = volume.read_data(dir_ino, 0, volume.iget(dir_ino).size)
        assert directory.pack() == raw
        assert unpack_entries(raw) == directory.inos
        assert directory.names == sorted(directory.inos)
    for (dir_ino, name), ino in volume._dentries.items():
        assert volume.readdir(dir_ino)[name] == ino
        assert volume.iget(ino).nlink > 0


def apply(volume: Volume, live_dirs, action):
    kind = action[0]
    parent = live_dirs[action[1] % len(live_dirs)]
    name = NAMES[action[2]] if kind != "create_many" else None
    if kind == "create":
        volume.create(parent, name, FileType.REGULAR)
    elif kind == "create_many":
        volume.create_many(parent, [NAMES[i] for i in action[2]])
    elif kind == "mkdir":
        live_dirs.append(volume.create(parent, name, FileType.DIRECTORY).ino)
    elif kind == "link":
        target = volume.lookup(parent, name)
        volume.link(live_dirs[action[3] % len(live_dirs)], NAMES[action[4]], target)
    elif kind == "unlink":
        ino = volume.lookup(parent, name)
        volume.unlink(parent, name)  # refuses a non-empty directory
        if ino in live_dirs and not volume._inodes[ino].allocated:
            live_dirs.remove(ino)
    elif kind == "rename":
        dst = live_dirs[action[3] % len(live_dirs)]
        if volume.iget(volume.lookup(parent, name)).is_dir and dst != parent:
            return  # moving directories would need loop checks
        volume.rename(parent, name, dst, NAMES[action[4]])
    else:
        volume.lookup(parent, name)


@given(ops=st.lists(op, max_size=30))
@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_resident_directories_match_disk(ops):
    world = World()
    node = world.create_node("prop")
    device = RamDevice(node.nucleus, "ram", 2048)
    volume = Volume.mkfs(device, inode_count=128)
    live_dirs = [volume.sb.root_ino]
    for action in ops:
        try:
            apply(volume, live_dirs, action)
        except (FsError, StorageError):
            pass  # exists / missing / not empty / bad name: nothing changed
        check_resident(volume, live_dirs)
        assert volume.fsck() == []
    listings = {d: volume.list_names(d) for d in live_dirs}
    volume.unmount()
    again = Volume.mount(device)
    assert {d: again.list_names(d) for d in live_dirs} == listings
    assert again.fsck() == []
