"""A checkpoint reaches its original only through what is shared by design.

A fleet checkpoint is ``copy.deepcopy`` of a vehicle's world, and a
restored vehicle runs on it.  ``deepcopy`` copies functions by reference
and leaves class attributes alone, so a closure over a world object, a
default argument holding one or a cache kept on a class still reaches
the *original* world from the copy, which then acts on the original.
This test walks the copy's object graph (instances, containers,
closures, defaults, bound methods and class attributes) and fails on
any object the original's own graph holds, naming the path to it.

Shared by design, and so allowed: the host's :class:`PolicyCache`, a
:class:`CompiledPolicy` and its :class:`_SharedMemo` of translations,
enum members and immutable values (module constants among them).
"""

from __future__ import annotations

import copy
import enum
import functools
import re
import types
from collections import deque
from typing import Dict, Iterator, List, Tuple

import pytest

from repro.kernel import KernelError, OpenFlags
from repro.lsm.policycache import PolicyCache
from repro.sack.policy.compiler import CompiledPolicy, _SharedMemo
from repro.vehicle.devices import DOOR_LOCK, DOOR_UNLOCK
from repro.vehicle.ivi import SACK_MODES, build_ivi_world

#: Reached from a copy, these are the original's by design: the walk
#: neither reports nor enters them.
SHARED_BY_DESIGN = (PolicyCache, CompiledPolicy, _SharedMemo)

#: Values that cannot act on a world: sharing them is harmless.
IMMUTABLE = (type(None), bool, int, float, complex, str, bytes, range,
             slice, type, types.ModuleType, types.BuiltinFunctionType,
             types.BuiltinMethodType, types.CodeType, types.FunctionType,
             types.WrapperDescriptorType, types.MethodDescriptorType,
             property, staticmethod, classmethod, enum.Enum, re.Pattern,
             tuple, frozenset)

#: Class attributes that are the class's own machinery, not state.
_CLASS_MACHINERY = (types.FunctionType, property, staticmethod,
                    classmethod, type, types.MemberDescriptorType,
                    types.GetSetDescriptorType, functools.cached_property)


def _edges(obj, walk_classes: bool) -> Iterator[Tuple[str, object]]:
    """``(label, child)`` for every reference the walk follows."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield f"[{key!r}]", value
            if not isinstance(key, IMMUTABLE):
                yield f"<key {key!r}>", key
    elif isinstance(obj, (list, tuple, deque, set, frozenset)):
        for index, value in enumerate(obj):
            yield f"[{index}]", value
    elif isinstance(obj, types.FunctionType):
        for index, cell in enumerate(obj.__closure__ or ()):
            try:
                yield f".__closure__[{index}]", cell.cell_contents
            except ValueError:       # an empty cell
                pass
        yield ".__defaults__", obj.__defaults__
        yield ".__kwdefaults__", obj.__kwdefaults__
    elif isinstance(obj, types.MethodType):
        yield ".__self__", obj.__self__
        yield ".__func__", obj.__func__
    elif isinstance(obj, functools.partial):
        yield ".func", obj.func
        yield ".args", obj.args
        yield ".keywords", obj.keywords
    if isinstance(obj, (type, types.ModuleType, enum.Enum)):
        return
    for name, value in getattr(obj, "__dict__", {}).items():
        yield f".{name}", value
    for cls in type(obj).__mro__:
        for name in vars(cls).get("__slots__", ()):
            if hasattr(obj, name) and name not in ("__dict__",
                                                   "__weakref__"):
                yield f".{name}", getattr(obj, name)
    if walk_classes:
        for cls in type(obj).__mro__:
            if cls.__module__ == "builtins":
                continue
            for name, value in vars(cls).items():
                if not (name.startswith("__")
                        or isinstance(value, _CLASS_MACHINERY)):
                    yield f"<{cls.__name__}>.{name}", value


def _walk(root, walk_classes: bool, stop=lambda obj: False
          ) -> Dict[int, Tuple[object, int, str]]:
    """Every object reachable from *root*: ``id -> (object, parent id,
    label)``; *stop* (obj) ends the walk at an object it accepts."""
    seen: Dict[int, Tuple[object, int, str]] = {id(root): (root, 0, "")}
    queue = deque([root])
    while queue:
        obj = queue.popleft()
        if stop(obj):
            continue
        for label, child in _edges(obj, walk_classes):
            if isinstance(child, (str, int, float, type(None))) \
                    or id(child) in seen:
                continue
            seen[id(child)] = (child, id(obj), label)
            queue.append(child)
    return seen


def _path(seen, key: int, root_name: str) -> str:
    labels: List[str] = []
    while True:
        _obj, parent, label = seen[key]
        if not label:
            return root_name + "".join(reversed(labels))
        labels.append(label)
        key = parent


def leaks(original, clone, root_name: str = "clone") -> List[str]:
    """Paths from *clone* to objects of *original*'s graph that are not
    shared by design."""
    held = _walk(original, walk_classes=False)

    def leaked(obj) -> bool:
        return id(obj) in held and not isinstance(obj, IMMUTABLE)

    # The walk enters a shared function or tuple (its closure or items
    # may hold the original) but stops at a leak: the first one on a
    # path names it.
    reached = _walk(clone, walk_classes=True,
                    stop=lambda obj: isinstance(obj, SHARED_BY_DESIGN)
                    or leaked(obj))
    return sorted(
        f"{_path(reached, key, root_name)} -> {type(obj).__name__}"
        for key, (obj, _parent, _label) in reached.items()
        if leaked(obj) and not isinstance(obj, SHARED_BY_DESIGN))


def _drive(world) -> None:
    """Some denials, then one transition (a crash into emergency)."""
    kernel = world.kernel
    media = world.tasks["media_app"]
    for cmd in (DOOR_LOCK, DOOR_UNLOCK):
        fd = kernel.sys_open(media, "/dev/car/door", OpenFlags.O_RDONLY)
        try:
            with pytest.raises(KernelError):
                kernel.sys_ioctl(media, fd, cmd, 0)
        finally:
            kernel.sys_close(media, fd)
    with pytest.raises(KernelError):
        kernel.sys_open(media, "/dev/car/engine", OpenFlags.O_WRONLY)
    world.trigger_crash()
    assert world.situation == "emergency"


@pytest.mark.parametrize("mode", sorted(SACK_MODES))
def test_checkpoint_reaches_original_only_through_shared_objects(mode):
    world = build_ivi_world(SACK_MODES[mode])
    _drive(world)
    assert world.kernel.obs.audit.by_kind("avc")
    clone = copy.deepcopy(world)
    assert leaks(world, clone) == []


def test_walk_names_the_path_of_a_leak():
    """A closure, a default and a class attribute holding the
    original are each reported by their path."""

    class Holder:
        cache: Dict[str, object] = {}

    world = build_ivi_world(SACK_MODES["independent"])
    kernel = world.kernel
    world.reader = lambda: kernel.clock

    def writer(data, obs=kernel.obs):
        return obs

    world.writer = writer
    world.holder = Holder()
    Holder.cache["vfs"] = kernel.vfs
    found = leaks(world, copy.deepcopy(world))
    assert "clone.reader.__closure__[0] -> Kernel" in found
    assert "clone.writer.__defaults__[0] -> Observability" in found
    assert "clone.holder<Holder>.cache['vfs'] -> VirtualFileSystem" \
        in found
