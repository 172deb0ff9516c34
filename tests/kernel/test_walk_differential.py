"""Differential test: the one path walk against the recursive walk it replaced.

``VirtualFileSystem.walk`` is the only resolution loop: ``resolve``,
``try_resolve``, ``lookup`` and ``sys_open`` all take it, and it returns
the resolved path with the dentry so an open never rebuilds it with
``Dentry.path()``.  The recursive walk below is the implementation it
replaced (raising ``ENOENT`` from ``Dentry.lookup``), kept here only as
the oracle together with ``Dentry.path()``.  Over random trees of
directories, files and absolute, relative and chained symlinks (cycles
included), every query must give the same dentry or the same errno, and
the path the walk hands back must be ``dentry.path()``.  ``sys_open`` is
checked the same way, ``O_CREAT`` included: an ``O_CREAT`` miss must
create the file the old open created, or fail with the same errno.

All but ``walk`` go through the dcache (``VirtualFileSystem.dcache``),
which the oracle never reads.  So that a stale entry would show, the
last tests change the namespace *between* queries: random creates,
mkdirs, symlinks, unlinks, rmdirs and renames interleaved with queries
and opens; each mutator run on a tree whose paths were just cached; and
a deep-copied kernel, whose lookups must reach only its own dentries.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.kernel import Kernel
from repro.kernel.errors import Errno, KernelError
from repro.kernel.vfs import OpenFlags
from repro.kernel.vfs import PseudoFileOps
from repro.kernel.vfs.filesystem import MAX_SYMLINK_DEPTH
from repro.kernel.vfs.path import (NAME_MAX, PATH_MAX, normalize,
                                   split_components, split_parent)

NAMES = ("a", "b", "c", "d")
#: Components a query or symlink target is built from.
COMPONENTS = NAMES + ("..", ".")

CREAT = OpenFlags.O_CREAT | OpenFlags.O_WRONLY


# -- the oracle: the walk as it was ------------------------------------------

def reference_walk(vfs, norm_path, follow, depth=0):
    if depth > MAX_SYMLINK_DEPTH:
        raise KernelError(Errno.ELOOP, norm_path)
    node = vfs.root
    comps = split_components(norm_path)
    for i, comp in enumerate(comps):
        if not node.inode.is_dir:
            raise KernelError(Errno.ENOTDIR, node.path())
        node = node.lookup(comp)
        is_final = i == len(comps) - 1
        if node.inode.is_symlink and (follow or not is_final):
            target = normalize(node.inode.symlink_target or "",
                               cwd=node.parent.path())
            rest = "/".join(comps[i + 1:])
            combined = target if not rest else target.rstrip("/") + "/" + rest
            return reference_walk(vfs, normalize(combined), follow,
                                  depth + 1)
    return node


def reference_outcome(vfs, path, cwd="/", follow=True):
    """The old ``resolve``: a dentry, or the errno it raised."""
    try:
        return reference_walk(vfs, normalize(path, cwd), follow)
    except KernelError as err:
        return err.errno


def reference_open(vfs, path, cwd, flags):
    """What the old ``sys_open`` (root, no LSM) did with *path*:
    ``("open", dentry)``, ``("create", parent, name)`` or an errno."""
    norm = normalize(path, cwd)
    found = reference_outcome(vfs, norm)
    if found is Errno.ENOENT:
        if not flags & OpenFlags.O_CREAT:
            return Errno.ENOENT
        parent_path, name = split_parent(norm)
        parent = reference_outcome(vfs, parent_path)
        if isinstance(parent, Errno):
            return parent
        if not parent.inode.is_dir:
            return Errno.ENOTDIR
        if name in parent.children:
            return Errno.EEXIST     # a dangling symlink in the way
        return ("create", parent, name)
    if isinstance(found, Errno):
        return found
    if found.inode.is_dir and flags & (OpenFlags.O_WRONLY | OpenFlags.O_RDWR):
        return Errno.EISDIR
    return ("open", found)


# -- random trees ------------------------------------------------------------

def _path_text(comps, absolute):
    text = "/".join(comps)
    return "/" + text if absolute else text


paths = st.tuples(st.lists(st.sampled_from(COMPONENTS), min_size=1,
                           max_size=5), st.booleans())


@st.composite
def trees(draw):
    """Creation steps ``(kind, parent index, name, target)``; each step
    adds under a directory made earlier (index into the directories)."""
    steps = []
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(("dir", "dir", "file", "symlink",
                                     "symlink")))
        parent = draw(st.integers(0, 20))
        name = draw(st.sampled_from(NAMES))
        target = draw(paths) if kind == "symlink" else None
        steps.append((kind, parent, name, target))
    return steps


def build(steps):
    kernel = Kernel()
    vfs = kernel.vfs
    vfs.makedirs("/t")
    dirs = ["/t"]
    for kind, parent, name, target in steps:
        parent_path = dirs[parent % len(dirs)]
        path = f"{parent_path}/{name}"
        if reference_outcome(vfs, path, follow=False) is not Errno.ENOENT:
            continue
        if kind == "dir":
            vfs.mkdir(path)
            dirs.append(path)
        elif kind == "file":
            vfs.create_file(path)
        else:
            comps, absolute = target
            text = _path_text(comps, absolute)
            if absolute:
                text = "/t" + text
            vfs.symlink(text, path)
    return kernel, dirs


def check_query(vfs, path, cwd, follow):
    """One query through ``resolve``, ``lookup``, ``try_resolve`` and
    ``walk``; returns the reference outcome."""
    expected = reference_outcome(vfs, path, cwd, follow)
    try:
        got = vfs.resolve(path, cwd, follow_symlinks=follow)
    except KernelError as err:
        got = err.errno
    assert got is expected, (path, cwd, follow)
    try:
        dentry, resolved = vfs.walk(normalize(path, cwd), follow)
    except KernelError as err:
        assert err.errno is expected and expected is not Errno.ENOENT
    else:
        if dentry is None:
            assert expected is Errno.ENOENT
        else:
            assert dentry is expected
            assert resolved == expected.path()
    if not isinstance(expected, Errno):
        dentry, resolved = vfs.lookup(path, cwd, follow_symlinks=follow)
        assert dentry is expected and resolved == expected.path()
    if follow:
        try:
            found = vfs.try_resolve(path, cwd)
        except KernelError as err:
            assert err.errno is expected and expected is not Errno.ENOENT
        else:
            assert found is (None if expected is Errno.ENOENT else expected)
    return expected


def check_open(kernel, path, cwd, flags):
    """One ``sys_open`` against the old open; returns the outcome kind."""
    vfs = kernel.vfs
    task = kernel.procs.init
    task.cwd = cwd
    expected = reference_open(vfs, path, cwd, flags)
    try:
        fd = kernel.sys_open(task, path, flags)
    except KernelError as err:
        assert err.errno is expected, (path, cwd, flags)
        return expected
    assert not isinstance(expected, Errno), (path, cwd, flags, expected)
    file = task.get_fd(fd).obj
    kernel.sys_close(task, fd)
    if expected[0] == "open":
        assert file.dentry is expected[1]
    else:
        _kind, parent, name = expected
        assert file.dentry.parent is parent and file.dentry.name == name
    assert file.path == file.dentry.path()
    return expected[0]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(trees(), st.lists(st.tuples(paths, st.integers(0, 20),
                                   st.booleans()), min_size=1, max_size=12))
def test_walk_matches_the_recursive_walk(steps, queries):
    kernel, dirs = build(steps)
    for (comps, absolute), cwd_index, follow in queries:
        path = _path_text(comps, absolute)
        if absolute:
            path = "/t" + path
        check_query(kernel.vfs, path, dirs[cwd_index % len(dirs)], follow)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(trees(), st.lists(st.tuples(paths, st.integers(0, 20),
                                   st.booleans()), min_size=1, max_size=12))
def test_sys_open_matches_the_old_open(steps, queries):
    kernel, dirs = build(steps)
    for (comps, absolute), cwd_index, create in queries:
        path = _path_text(comps, absolute)
        if absolute:
            path = "/t" + path
        check_open(kernel, path, dirs[cwd_index % len(dirs)],
                   CREAT if create else OpenFlags.O_RDONLY)


# -- a fixed tree that hits every case ------------------------------------------

def fixed_tree():
    kernel = Kernel()
    vfs = kernel.vfs
    vfs.makedirs("/t/real/sub")
    vfs.create_file("/t/real/f")
    vfs.create_file("/t/real/sub/g")
    vfs.symlink("/t/real", "/t/abs")             # absolute
    vfs.symlink("real/sub", "/t/rel")            # relative
    vfs.symlink("../../real", "/t/real/sub/up")  # relative, with ..
    vfs.symlink("/t/abs", "/t/chain1")           # chained: -> abs -> real
    vfs.symlink("chain1/sub", "/t/chain2")       # chained through a dir
    vfs.symlink("/t/loop2", "/t/loop1")          # ELOOP
    vfs.symlink("/t/loop1", "/t/loop2")
    vfs.symlink("/t/real/f", "/t/tofile")        # symlink to a file
    vfs.symlink("/t/nowhere/x", "/t/dangling")   # dangling
    vfs.symlink("", "/t/empty")                  # names nothing
    return kernel


FIXED_QUERIES = [
    ("/t/abs/f", "/", True, "dentry"),
    ("/t/rel/g", "/", True, "dentry"),
    ("sub/up/sub/g", "/t/real", True, "dentry"),
    ("/t/chain1/sub/g", "/", True, "dentry"),
    ("/t/chain2/g", "/", True, "dentry"),
    ("/t/chain2", "/", False, "dentry"),
    ("/t/real/sub/../f", "/", True, "dentry"),
    ("../../t/abs/./f", "/t/real", True, "dentry"),
    ("/t/loop1", "/", True, Errno.ELOOP),
    ("/t/loop1/x", "/", False, Errno.ELOOP),
    ("/t/loop1", "/", False, "dentry"),
    ("/t/real/f/x", "/", True, Errno.ENOTDIR),
    ("/t/tofile/x", "/", True, Errno.ENOTDIR),
    ("/t/real/missing", "/", True, Errno.ENOENT),
    ("/t/missing/deeper", "/", True, Errno.ENOENT),
    ("/t/dangling", "/", True, Errno.ENOENT),
    ("/t/dangling", "/", False, "dentry"),
    ("/t/empty", "/", True, Errno.ENOENT),
    ("/t/empty/x", "/", False, Errno.ENOENT),
    ("/t/empty", "/", False, "dentry"),
]


@pytest.mark.parametrize("path,cwd,follow,kind", FIXED_QUERIES)
def test_fixed_tree_cases(path, cwd, follow, kind):
    kernel = fixed_tree()
    expected = check_query(kernel.vfs, path, cwd, follow)
    if kind == "dentry":
        assert not isinstance(expected, Errno)
    else:
        assert expected is kind


FIXED_OPENS = [
    ("/t/abs/f", OpenFlags.O_RDONLY, "open"),
    ("/t/chain2/up/f", OpenFlags.O_RDONLY, "open"),
    ("/t/abs/new", CREAT, "create"),             # under a symlinked parent
    ("/t/chain2/new", CREAT, "create"),          # under a chained one
    ("/t/rel/../new", CREAT, "create"),
    ("/t/dangling", CREAT, Errno.EEXIST),
    ("/t/missing/new", CREAT, Errno.ENOENT),
    ("/t/real/f/new", CREAT, Errno.ENOTDIR),
    ("/t/loop1/new", CREAT, Errno.ELOOP),
    ("/t/abs/missing", OpenFlags.O_RDONLY, Errno.ENOENT),
    ("/t/abs", CREAT, Errno.EISDIR),
]


@pytest.mark.parametrize("path,flags,kind", FIXED_OPENS)
def test_fixed_tree_opens(path, flags, kind):
    kernel = fixed_tree()
    assert check_open(kernel, path, "/", flags) == kind


def test_created_file_path_is_the_resolved_one():
    kernel = fixed_tree()
    init = kernel.procs.init
    fd = kernel.sys_open(init, "/t/chain1/sub/new", CREAT)
    file = init.get_fd(fd).obj
    assert file.path == "/t/real/sub/new"
    assert kernel.vfs.resolve("/t/real/sub/new") is file.dentry


# -- namespace changes between queries: no stale dcache entry ------------------

def _absolute(comps):
    return "/t" + _path_text(comps, True)


def _existing(vfs):
    """Every name under ``/t`` now, symlinks included (no cycles: a
    symlink is a leaf of the dentry tree); none once ``/t`` itself was
    renamed or removed."""
    out = []
    top = vfs.root.children.get("t")
    if top is None or not top.inode.is_dir:
        return out

    def visit(node, path):
        for name, child in node.children.items():
            out.append(f"{path}/{name}")
            if child.inode.is_dir:
                visit(child, f"{path}/{name}")
    visit(top, "/t")
    return out


def draw_path(data, vfs):
    """Mostly a name the tree has now, so that changes and queries meet;
    otherwise any path, ``.`` and ``..`` included."""
    existing = _existing(vfs)
    if existing and data.draw(st.integers(0, 3)):
        path = data.draw(st.sampled_from(existing))
        if data.draw(st.booleans()):
            path += "/" + data.draw(st.sampled_from(NAMES))
        return path
    return _absolute(data.draw(paths)[0])


MUTATIONS = ("create", "mkdir", "symlink", "unlink", "rmdir", "rename")


def mutate(vfs, kind, path, other):
    """Apply one mutation; a refused one changes nothing."""
    try:
        if kind == "create":
            vfs.create_file(path)
        elif kind == "mkdir":
            vfs.mkdir(path)
        elif kind == "unlink":
            vfs.unlink(path)
        elif kind == "rmdir":
            vfs.rmdir(path)
        elif kind == "symlink":
            vfs.symlink(other, path)
        else:
            vfs.rename(path, other)
    except KernelError:
        pass


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(trees(), st.data())
def test_interleaved_changes_match_the_recursive_walk(steps, data):
    """Creates, mkdirs, symlinks, unlinks, rmdirs and renames between
    queries and opens.  After every change, every query made so far is
    asked again, so an entry the change made stale is asked for while
    it is still cached."""
    kernel, _dirs = build(steps)
    vfs = kernel.vfs
    asked = []
    for _ in range(data.draw(st.integers(2, 30))):
        kind = data.draw(st.sampled_from(("query", "open") + MUTATIONS))
        path = draw_path(data, vfs)
        if kind in MUTATIONS:
            other = draw_path(data, vfs)
            if kind == "symlink" and data.draw(st.booleans()):
                other = _path_text(data.draw(paths)[0], False)
            mutate(vfs, kind, path, other)
            for query in asked:
                check_query(vfs, *query)
            continue
        if data.draw(st.booleans()):            # relative to a cwd
            cwds = sorted(d.path() for d in _directories(vfs.root))
            cwd = data.draw(st.sampled_from(cwds))
            path = _path_text(data.draw(paths)[0], False)
        else:
            cwd = "/"
        follow = data.draw(st.booleans())
        if kind == "query":
            check_query(vfs, path, cwd, follow)
            asked.append((path, cwd, follow))
        else:
            check_open(kernel, path, cwd,
                       CREAT if follow else OpenFlags.O_RDONLY)
            asked.append((path, cwd, True))


def _directories(node):
    yield node
    for child in node.children.values():
        if child.inode.is_dir:
            yield from _directories(child)


def _every_path(vfs):
    """Every name in the tree and one below it, as the queries to cache."""
    out = []

    def visit(node, path):
        for name, child in node.children.items():
            out.append(f"{path}/{name}")
            out.append(f"{path}/{name}/x")
            if child.inode.is_dir:
                visit(child, f"{path}/{name}")
    visit(vfs.root, "")
    return out


def _prime(vfs):
    """Resolve every path of the tree, which caches each one found."""
    for path in _every_path(vfs):
        try:
            vfs.lookup(path)
        except KernelError:
            pass
    assert vfs.dcache


#: One call per VFS mutator on :func:`fixed_tree`, each removing,
#: replacing or adding a name that cached paths cross.
MUTATORS = {
    "create_file": lambda vfs: vfs.create_file("/t/real/new"),
    "mkdir": lambda vfs: vfs.mkdir("/t/nowhere"),
    "makedirs": lambda vfs: vfs.makedirs("/t/nowhere/x"),
    "mknod": lambda vfs: vfs.mknod("/t/real/node", (1, 3)),
    "symlink": lambda vfs: vfs.symlink("/t/real/sub", "/t/real/link"),
    "create_pseudo": lambda vfs: vfs.create_pseudo(
        "/t/real/pseudo", PseudoFileOps(read=lambda task: b"")),
    "unlink": lambda vfs: vfs.unlink("/t/abs"),
    "unlink_file": lambda vfs: vfs.unlink("/t/real/sub/g"),
    "rmdir": lambda vfs: (vfs.unlink("/t/real/sub/g"),
                          vfs.unlink("/t/real/sub/up"),
                          vfs.rmdir("/t/real/sub")),
    "rename": lambda vfs: vfs.rename("/t/real", "/t/moved"),
    "rename_over": lambda vfs: vfs.rename("/t/tofile", "/t/abs"),
}


@pytest.mark.parametrize("mutator", list(MUTATORS))
def test_each_mutator_drops_the_cache(mutator):
    kernel = fixed_tree()
    vfs = kernel.vfs
    _prime(vfs)
    before = _every_path(vfs)
    MUTATORS[mutator](vfs)
    assert vfs.dcache == {}
    for path in before + _every_path(vfs):
        for follow in (True, False):
            check_query(vfs, path, "/", follow)


def test_unlinked_file_is_not_served():
    kernel = fixed_tree()
    init = kernel.procs.init
    kernel.sys_close(init, kernel.sys_open(init, "/t/abs/f"))
    assert "/t/abs/f" in kernel.vfs.dcache
    kernel.sys_unlink(init, "/t/real/f")
    with pytest.raises(KernelError) as err:
        kernel.sys_open(init, "/t/abs/f")
    assert err.value.errno is Errno.ENOENT


def test_hit_skips_normalise_only_for_canonical_paths():
    kernel = fixed_tree()
    vfs = kernel.vfs
    vfs.resolve("/t/abs/f")
    assert set(vfs.dcache) == {"/t/abs/f"}
    entry = vfs.dcache["/t/abs/f"]
    assert entry == (vfs.walk("/t/real/f")[0], "/t/real/f", "/t/abs/f")
    # Non-canonical spellings reach the same entry after normalising
    # and store nothing new; a relative path is never a key.
    for path, cwd in (("/t//abs/./f", "/"), ("abs/f", "/t"),
                      ("../abs/f", "/t/real")):
        assert vfs.walk_cached(path, cwd) is entry
    assert set(vfs.dcache) == {"/t/abs/f"}
    # No-follow lookups and misses are never stored.
    vfs.lookup("/t/abs", follow_symlinks=False)
    assert vfs.try_resolve("/t/real/missing") is None
    for path in ("/t/loop1", "/t/real/f/x"):
        with pytest.raises(KernelError):
            vfs.resolve(path)
    assert set(vfs.dcache) == {"/t/abs/f"}


def test_a_path_longer_than_path_max_is_never_a_key():
    kernel = Kernel()
    vfs = kernel.vfs
    name = "n" * NAME_MAX
    cwd = "/"
    while len(cwd) <= PATH_MAX:
        vfs.mkdir(name, cwd=cwd)
        cwd = cwd.rstrip("/") + "/" + name
    # Relative to a cwd this deep the path resolves, but as an absolute
    # path it is too long, so it must not be served from the cache.
    assert vfs.lookup(".", cwd)[1] == cwd
    assert all(len(key) <= PATH_MAX for key in vfs.dcache)
    with pytest.raises(KernelError) as err:
        vfs.lookup(cwd)
    assert err.value.errno is Errno.ENAMETOOLONG


def test_deep_copy_resolves_only_to_its_own_dentries():
    kernel = fixed_tree()
    _prime(kernel.vfs)
    clone = copy.deepcopy(kernel)
    assert clone.vfs.dcache == {}
    originals = {id(d) for d in _all_dentries(kernel.vfs.root)}
    copies = {id(d) for d in _all_dentries(clone.vfs.root)}
    for path in _every_path(clone.vfs):
        for _ in range(2):                  # a miss, then a hit
            outcome = check_query(clone.vfs, path, "/", True)
            if not isinstance(outcome, Errno):
                assert id(outcome) in copies and id(outcome) not in originals
    init = clone.procs.init
    fd = clone.sys_open(init, "/t/chain2/g")
    assert id(init.get_fd(fd).obj.dentry) in copies
    # The original's cache still serves the original's dentries.
    assert all(id(entry[0]) in originals
               for entry in kernel.vfs.dcache.values())


def _all_dentries(node):
    yield node
    for child in node.children.values():
        yield from _all_dentries(child)
