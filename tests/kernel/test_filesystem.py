"""Tests for the virtual filesystem tree operations."""

import pytest
from hypothesis import given, strategies as st

from repro.kernel.errors import Errno, KernelError
from repro.kernel.vfs.filesystem import VirtualFileSystem
from repro.kernel.vfs.inode import FileType, PseudoFileOps


@pytest.fixture
def vfs():
    return VirtualFileSystem()


class TestResolve:
    def test_root(self, vfs):
        assert vfs.resolve("/").path() == "/"

    def test_missing_raises_enoent(self, vfs):
        with pytest.raises(KernelError) as exc:
            vfs.resolve("/missing")
        assert exc.value.errno is Errno.ENOENT

    def test_file_component_raises_enotdir(self, vfs):
        vfs.create_file("/f")
        with pytest.raises(KernelError) as exc:
            vfs.resolve("/f/below")
        assert exc.value.errno is Errno.ENOTDIR

    def test_try_resolve_missing_returns_none(self, vfs):
        assert vfs.try_resolve("/none") is None

    def test_relative_resolution(self, vfs):
        vfs.makedirs("/home/user")
        vfs.create_file("/home/user/f")
        assert vfs.resolve("f", cwd="/home/user").path() == "/home/user/f"


class TestCreate:
    def test_create_file(self, vfs):
        dentry = vfs.create_file("/a.txt", mode=0o600, uid=7, gid=8)
        assert dentry.inode.is_regular
        assert dentry.inode.mode == 0o600
        assert dentry.inode.uid == 7

    def test_create_in_missing_parent_fails(self, vfs):
        with pytest.raises(KernelError):
            vfs.create_file("/no/such/file")

    def test_mkdir(self, vfs):
        vfs.mkdir("/d")
        assert vfs.resolve("/d").inode.is_dir

    def test_makedirs(self, vfs):
        vfs.makedirs("/a/b/c")
        assert vfs.resolve("/a/b/c").inode.is_dir

    def test_makedirs_existing_ok(self, vfs):
        vfs.makedirs("/a/b")
        vfs.makedirs("/a/b")  # idempotent

    def test_makedirs_through_file_fails(self, vfs):
        vfs.create_file("/f")
        with pytest.raises(KernelError) as exc:
            vfs.makedirs("/f/x")
        assert exc.value.errno is Errno.ENOTDIR

    def test_mknod(self, vfs):
        vfs.makedirs("/dev")
        dentry = vfs.mknod("/dev/door", (240, 0))
        assert dentry.inode.is_chardev
        assert dentry.inode.rdev == (240, 0)

    def test_create_pseudo(self, vfs):
        vfs.makedirs("/sys/kernel/security")
        ops = PseudoFileOps(read=lambda task: b"x")
        dentry = vfs.create_pseudo("/sys/kernel/security/f", ops)
        assert dentry.inode.is_pseudo


class TestSymlink:
    def test_follow(self, vfs):
        vfs.makedirs("/target")
        vfs.create_file("/target/f")
        vfs.symlink("/target", "/link")
        assert vfs.resolve("/link/f").path() == "/target/f"

    def test_nofollow_final(self, vfs):
        vfs.create_file("/real")
        vfs.symlink("/real", "/ln")
        dentry = vfs.resolve("/ln", follow_symlinks=False)
        assert dentry.inode.is_symlink

    def test_relative_target(self, vfs):
        vfs.makedirs("/a")
        vfs.create_file("/a/real")
        vfs.symlink("real", "/a/ln")
        assert vfs.resolve("/a/ln").path() == "/a/real"

    def test_loop_detected(self, vfs):
        vfs.symlink("/b", "/a")
        vfs.symlink("/a", "/b")
        with pytest.raises(KernelError) as exc:
            vfs.resolve("/a")
        assert exc.value.errno is Errno.ELOOP


class TestRemove:
    def test_unlink(self, vfs):
        vfs.create_file("/f")
        vfs.unlink("/f")
        assert not vfs.exists("/f")

    def test_unlink_directory_raises_eisdir(self, vfs):
        vfs.mkdir("/d")
        with pytest.raises(KernelError) as exc:
            vfs.unlink("/d")
        assert exc.value.errno is Errno.EISDIR

    def test_rmdir(self, vfs):
        vfs.mkdir("/d")
        vfs.rmdir("/d")
        assert not vfs.exists("/d")

    def test_rmdir_nonempty_raises(self, vfs):
        vfs.makedirs("/d/sub")
        with pytest.raises(KernelError) as exc:
            vfs.rmdir("/d")
        assert exc.value.errno is Errno.ENOTEMPTY

    def test_rmdir_file_raises_enotdir(self, vfs):
        vfs.create_file("/f")
        with pytest.raises(KernelError) as exc:
            vfs.rmdir("/f")
        assert exc.value.errno is Errno.ENOTDIR

    def test_cannot_remove_root(self, vfs):
        with pytest.raises(KernelError):
            vfs.rmdir("/")


class TestRename:
    def test_simple_rename(self, vfs):
        vfs.create_file("/a")
        vfs.rename("/a", "/b")
        assert not vfs.exists("/a")
        assert vfs.exists("/b")

    def test_rename_across_dirs(self, vfs):
        vfs.makedirs("/x")
        vfs.makedirs("/y")
        vfs.create_file("/x/f")
        vfs.rename("/x/f", "/y/g")
        assert vfs.exists("/y/g")

    def test_rename_preserves_inode(self, vfs):
        dentry = vfs.create_file("/a")
        ino = dentry.inode.ino
        moved = vfs.rename("/a", "/b")
        assert moved.inode.ino == ino

    def test_rename_replaces_existing_file(self, vfs):
        vfs.create_file("/a")
        vfs.create_file("/b")
        vfs.rename("/a", "/b")
        assert not vfs.exists("/a")
        assert vfs.exists("/b")

    def test_rename_onto_nonempty_dir_fails(self, vfs):
        vfs.create_file("/a")
        vfs.makedirs("/d/sub")
        with pytest.raises(KernelError) as exc:
            vfs.rename("/a", "/d")
        assert exc.value.errno is Errno.ENOTEMPTY

    def test_rename_onto_itself_does_nothing(self, vfs):
        dentry = vfs.makedirs("/d")
        assert vfs.rename("/d", "/d") is dentry
        assert vfs.resolve("/d") is dentry

    def test_rename_into_own_subtree_fails(self, vfs):
        vfs.makedirs("/d/sub")
        for new in ("/d/x", "/d/sub/x"):
            with pytest.raises(KernelError) as exc:
                vfs.rename("/d", new)
            assert exc.value.errno is Errno.EINVAL
        assert vfs.resolve("/d/sub").parent is vfs.resolve("/d")


class TestListdirAndMounts:
    def test_listdir_sorted(self, vfs):
        vfs.create_file("/b")
        vfs.create_file("/a")
        listing = vfs.listdir("/")
        assert listing == sorted(listing)
        assert {"a", "b"} <= set(listing)

    def test_listdir_file_raises(self, vfs):
        vfs.create_file("/f")
        with pytest.raises(KernelError):
            vfs.listdir("/f")

    def test_mount_creates_mountpoint(self, vfs):
        vfs.mount("securityfs", "/sys/kernel/security")
        assert vfs.resolve("/sys/kernel/security").inode.is_dir

    def test_mount_owner_of(self, vfs):
        vfs.mount("securityfs", "/sys/kernel/security")
        owner = vfs.mounts.owner_of("/sys/kernel/security/SACK/events")
        assert owner.fstype == "securityfs"
        assert vfs.mounts.owner_of("/tmp/x").fstype == "ramfs"


# -- property tests ----------------------------------------------------------

names = st.text(alphabet="abcdefgh", min_size=1, max_size=4)


class TestFilesystemProperties:
    @given(st.lists(names, min_size=1, max_size=8, unique=True))
    def test_create_then_unlink_restores_empty_dir(self, files):
        vfs = VirtualFileSystem()
        vfs.makedirs("/work")
        for name in files:
            vfs.create_file(f"/work/{name}")
        assert set(vfs.listdir("/work")) == set(files)
        for name in files:
            vfs.unlink(f"/work/{name}")
        assert vfs.listdir("/work") == []

    @given(st.lists(names, min_size=1, max_size=6))
    def test_makedirs_resolves_for_every_prefix(self, parts):
        vfs = VirtualFileSystem()
        path = "/" + "/".join(parts)
        vfs.makedirs(path)
        for i in range(1, len(parts) + 1):
            prefix = "/" + "/".join(parts[:i])
            assert vfs.resolve(prefix).inode.is_dir
