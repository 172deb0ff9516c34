"""AppArmor profiles: rules, permission flags, and match semantics.

Decision semantics follow AppArmor: the permissions a profile grants to a
path are the union of all matching *allow* rules minus the union of all
matching *deny* rules; a request is permitted iff every requested
permission survives.  Deny rules therefore always win, regardless of rule
order — the property the SACK bridge relies on when it injects or removes
situation-dependent rules.
"""

from __future__ import annotations

import enum
from typing import FrozenSet, Iterable, List, Optional, Set, Tuple

from .globs import compile_glob, glob_match


class FilePerm(enum.IntFlag):
    """AppArmor file permission bits."""

    READ = 0x1        # r
    WRITE = 0x2       # w
    APPEND = 0x4      # a
    EXEC = 0x8        # x
    MMAP = 0x10       # m
    LOCK = 0x20       # k
    LINK = 0x40       # l

    NONE = 0x0


_PERM_CHARS = {
    "r": FilePerm.READ,
    "w": FilePerm.WRITE,
    "a": FilePerm.APPEND,
    "x": FilePerm.EXEC,
    "m": FilePerm.MMAP,
    "k": FilePerm.LOCK,
    "l": FilePerm.LINK,
}


_EXEC = int(FilePerm.EXEC)


class ExecMode(enum.Enum):
    """How a permitted exec transitions the confinement."""

    INHERIT = "ix"      # stay in the current profile
    PROFILE = "px"      # transition to the target's own profile
    UNCONFINED = "ux"   # drop confinement


def parse_perms(text: str) -> Tuple[FilePerm, Optional[ExecMode]]:
    """Parse an AppArmor permission string like ``rw`` or ``rpx``.

    Returns the permission flags and the exec mode (None when no ``x``).
    """
    text = text.strip()
    exec_mode: Optional[ExecMode] = None
    for mode in ExecMode:
        if mode.value in text:
            exec_mode = mode
            text = text.replace(mode.value, "x")
            break
    perms = FilePerm.NONE
    for ch in text:
        flag = _PERM_CHARS.get(ch)
        if flag is None:
            raise ValueError(f"unknown permission character {ch!r} in {text!r}")
        perms |= flag
    if perms & FilePerm.EXEC and exec_mode is None:
        exec_mode = ExecMode.INHERIT
    return perms, exec_mode


def perms_to_string(perms: FilePerm) -> str:
    """Inverse of :func:`parse_perms` (without exec-mode qualifiers)."""
    return "".join(ch for ch, flag in _PERM_CHARS.items() if perms & flag)


class PathRule:
    """One file rule: glob, permissions, allow/deny."""

    __slots__ = ("glob", "perms", "bits", "deny", "exec_mode", "matcher",
                 "origin")

    def __init__(self, glob: str, perms: FilePerm, deny: bool = False,
                 exec_mode: Optional[ExecMode] = None,
                 origin: str = "static"):
        self.glob = glob
        self.perms = perms
        #: ``perms`` as a plain int for the decision path, where each
        #: ``FilePerm`` ``&``/``|`` would run enum.py code.
        self.bits = int(perms)
        self.deny = deny
        self.exec_mode = exec_mode
        self.matcher = compile_glob(glob)
        #: Provenance tag; the SACK bridge marks its injected rules so it
        #: can retract exactly what it added.
        self.origin = origin

    def matches(self, path: str) -> bool:
        return self.matcher.match(path) is not None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "deny " if self.deny else ""
        return f"PathRule({kind}{self.glob} {perms_to_string(self.perms)})"


class NetworkRule:
    """A network rule: family (and optionally type)."""

    __slots__ = ("family", "sock_type", "deny")

    def __init__(self, family: str, sock_type: Optional[str] = None,
                 deny: bool = False):
        self.family = family
        self.sock_type = sock_type
        self.deny = deny

    def matches(self, family: str, sock_type: str = "stream") -> bool:
        if self.family != family:
            return False
        return self.sock_type is None or self.sock_type == sock_type


class ProfileMode(enum.Enum):
    ENFORCE = "enforce"
    COMPLAIN = "complain"


class Profile:
    """A confinement domain: attachment spec plus a rule set."""

    def __init__(self, name: str, attachment: Optional[str] = None,
                 mode: ProfileMode = ProfileMode.ENFORCE,
                 path_rules: Iterable[PathRule] = (),
                 capabilities: Iterable[str] = (),
                 deny_capabilities: Iterable[str] = (),
                 network_rules: Iterable[NetworkRule] = ()):
        self.name = name
        self.attachment = attachment
        self.mode = mode
        self.path_rules: List[PathRule] = list(path_rules)
        self.capabilities: Set[str] = set(capabilities)
        self.deny_capabilities: Set[str] = set(deny_capabilities)
        self.network_rules: List[NetworkRule] = list(network_rules)

    # -- rule editing (used by the SACK bridge) --------------------------------
    def add_rule(self, rule: PathRule) -> None:
        self.path_rules.append(rule)

    def remove_rules_by_origin(self, origin: str) -> int:
        """Drop every rule tagged *origin*; returns how many were removed."""
        before = len(self.path_rules)
        self.path_rules = [r for r in self.path_rules if r.origin != origin]
        return before - len(self.path_rules)

    # -- decisions ---------------------------------------------------------------
    def _perm_bits(self, path: str) -> int:
        """Union of matching allows minus union of matching denies."""
        allowed = denied = 0
        for rule in self.path_rules:
            if rule.matcher.match(path) is not None:
                if rule.deny:
                    denied |= rule.bits
                else:
                    allowed |= rule.bits
        return allowed & ~denied

    def effective_perms(self, path: str) -> FilePerm:
        """The permissions the profile grants on *path*."""
        return FilePerm(self._perm_bits(path))

    def allows_file(self, path: str, requested: int) -> bool:
        """Does the profile grant every bit of *requested* on *path*?"""
        requested = int(requested)
        if not requested:
            return True
        return self._perm_bits(path) & requested == requested

    def exec_mode_for(self, path: str) -> Optional[ExecMode]:
        """Exec transition for *path*, or None when exec is not allowed."""
        if not self._perm_bits(path) & _EXEC:
            return None
        mode: Optional[ExecMode] = None
        for rule in self.path_rules:
            if (not rule.deny and rule.bits & _EXEC
                    and rule.matcher.match(path) is not None):
                mode = rule.exec_mode or ExecMode.INHERIT
        return mode

    def allows_capability(self, cap_name: str) -> bool:
        if cap_name in self.deny_capabilities:
            return False
        return cap_name in self.capabilities

    def allows_network(self, family: str, sock_type: str = "stream") -> bool:
        for rule in self.network_rules:
            if rule.deny and rule.matches(family, sock_type):
                return False
        return any(not r.deny and r.matches(family, sock_type)
                   for r in self.network_rules)

    def rule_count(self) -> int:
        return (len(self.path_rules) + len(self.capabilities)
                + len(self.deny_capabilities) + len(self.network_rules))

    def clone(self) -> "Profile":
        """Deep-enough copy: new rule lists, shared compiled matchers."""
        copy = Profile(self.name, self.attachment, self.mode)
        copy.path_rules = list(self.path_rules)
        copy.capabilities = set(self.capabilities)
        copy.deny_capabilities = set(self.deny_capabilities)
        copy.network_rules = list(self.network_rules)
        return copy

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Profile({self.name!r}, mode={self.mode.value}, "
                f"rules={self.rule_count()})")
