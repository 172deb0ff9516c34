"""The type-enforcement policy store: types, AV rules, transitions,
file contexts.

Decision model (classic TE): an access ``(source_type, target_type,
class, perm)`` is allowed iff some ``allow`` rule grants it and no
``neverallow`` forbids it (we enforce neverallow at load time, as
checkpolicy does).  Domain transitions happen at exec via
``type_transition`` rules keyed on the executable's type.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..apparmor.globs import compile_glob, literal_prefix_len
from .context import (DEFAULT_FILE_CONTEXT, SecurityContext, parse_context)

# Object classes and their permission vocabularies.
CLASS_PERMS: Dict[str, FrozenSet[str]] = {
    "file": frozenset({"read", "write", "append", "execute", "create",
                       "unlink", "getattr", "setattr", "ioctl", "map"}),
    "chr_file": frozenset({"read", "write", "append", "execute", "create",
                           "unlink", "getattr", "setattr", "ioctl", "map"}),
    "dir": frozenset({"read", "write", "search", "add_name", "remove_name",
                      "getattr"}),
    "process": frozenset({"fork", "transition", "signal", "setcap"}),
    "socket": frozenset({"create", "bind", "connect", "listen", "accept",
                         "send", "recv"}),
    "capability": frozenset({"use"}),
}


class SelinuxPolicyError(ValueError):
    """Raised for ill-formed TE policies."""


@dataclasses.dataclass(frozen=True)
class AvRule:
    """An access-vector rule: allow source target:class { perms }."""

    source: str
    target: str
    tclass: str
    perms: FrozenSet[str]
    #: Provenance: 'static' or the SACK bridge's tag.
    origin: str = "static"

    def __post_init__(self):
        if self.tclass not in CLASS_PERMS:
            raise SelinuxPolicyError(f"unknown class {self.tclass!r}")
        unknown = self.perms - CLASS_PERMS[self.tclass]
        if unknown:
            raise SelinuxPolicyError(
                f"perms {sorted(unknown)} invalid for class {self.tclass}")


@dataclasses.dataclass(frozen=True)
class TypeTransition:
    """``type_transition source exec_type : process new_type``."""

    source: str
    exec_type: str
    new_type: str


@dataclasses.dataclass(frozen=True)
class FileContext:
    """A file-context spec: glob -> context (restorecon's input)."""

    glob: str
    context: SecurityContext


class SelinuxPolicy:
    """A loaded TE policy with an indexed access-vector table."""

    def __init__(self):
        self.types: Set[str] = {"kernel_t", "init_t", "unlabeled_t",
                                "file_t"}
        self._av: Dict[Tuple[str, str, str], Set[str]] = {}
        #: Per-key, per-origin permission sets, so an origin's rules can
        #: be replaced without touching the others'.
        self._av_origins: Dict[Tuple[str, str, str],
                               Dict[str, Set[str]]] = {}
        self._neverallow: List[AvRule] = []
        self._transitions: Dict[Tuple[str, str], str] = {}
        self.file_contexts: List[FileContext] = []
        self._fc_matchers: List[Tuple[object, FileContext]] = []
        self.revision = 0
        self._subscribers: List = []

    def subscribe(self, callback) -> None:
        """Call *callback* () after every admin edit — the feed that
        advances the LSM stack's situation epoch.  :meth:`replace_origin`
        notifies no one: the situation transition that asked for it makes
        the one epoch bump."""
        if callback not in self._subscribers:
            self._subscribers.append(callback)

    def _edited(self) -> None:
        """One admin edit: one revision, one notification."""
        self.revision += 1
        for callback in list(self._subscribers):
            callback()

    # -- loading ------------------------------------------------------------
    def declare_type(self, name: str) -> None:
        self.types.add(name)
        self._edited()

    def _check_rule(self, rule: AvRule) -> None:
        for t in (rule.source, rule.target):
            if t not in self.types:
                raise SelinuxPolicyError(f"undeclared type {t!r}")
        for never in self._neverallow:
            if (never.source == rule.source and never.target == rule.target
                    and never.tclass == rule.tclass
                    and never.perms & rule.perms):
                raise SelinuxPolicyError(
                    f"rule {rule} violates neverallow {never}")

    def add_rule(self, rule: AvRule) -> None:
        self._check_rule(rule)
        key = (rule.source, rule.target, rule.tclass)
        self._av.setdefault(key, set()).update(rule.perms)
        self._av_origins.setdefault(key, {}).setdefault(
            rule.origin, set()).update(rule.perms)
        self._edited()

    def add_neverallow(self, rule: AvRule) -> None:
        existing = self._av.get((rule.source, rule.target, rule.tclass),
                                set())
        if existing & rule.perms:
            raise SelinuxPolicyError(
                f"neverallow {rule} conflicts with existing allow rules")
        self._neverallow.append(rule)
        self._edited()

    def replace_origin(self, origin: str, rules: Iterable[AvRule]) -> None:
        """Make *rules* the whole of *origin*'s AV rules, in one revision.

        Every rule is checked (declared types, ``neverallow``) before
        anything changes, so a refused set leaves the table as it was.
        Only the keys *origin* had or gains are rebuilt.
        """
        wanted: Dict[Tuple[str, str, str], Set[str]] = {}
        for rule in rules:
            self._check_rule(rule)
            wanted.setdefault((rule.source, rule.target, rule.tclass),
                              set()).update(rule.perms)
        affected = set(wanted)
        affected.update(key for key, origins in self._av_origins.items()
                        if origin in origins)
        for key in affected:
            origins = self._av_origins.setdefault(key, {})
            if key in wanted:
                origins[origin] = wanted[key]
            else:
                origins.pop(origin, None)
            vector = set().union(*origins.values())
            if vector:
                self._av[key] = vector
            else:
                self._av.pop(key, None)
                del self._av_origins[key]
        self.revision += 1

    def add_transition(self, transition: TypeTransition) -> None:
        key = (transition.source, transition.exec_type)
        existing = self._transitions.get(key)
        if existing is not None and existing != transition.new_type:
            raise SelinuxPolicyError(
                f"conflicting type_transition for {key}")
        self._transitions[key] = transition.new_type
        self._edited()

    def add_file_context(self, spec: FileContext) -> None:
        self.file_contexts.append(spec)
        self._fc_matchers.append((compile_glob(spec.glob), spec))
        self._edited()

    # -- queries -----------------------------------------------------------
    def allowed_perms(self, source: str, target: str,
                      tclass: str) -> Set[str]:
        return self._av.get((source, target, tclass), set())

    def allows(self, source: str, target: str, tclass: str,
               perm: str) -> bool:
        return perm in self._av.get((source, target, tclass), ())

    def transition_for(self, source: str,
                       exec_type: str) -> Optional[str]:
        return self._transitions.get((source, exec_type))

    def context_for_path(self, path: str) -> SecurityContext:
        """restorecon: most specific file-context match wins."""
        best: Optional[FileContext] = None
        best_key = (-1, -1)
        for matcher, spec in self._fc_matchers:
            if matcher.match(path) is not None:
                key = (literal_prefix_len(spec.glob), len(spec.glob))
                if key > best_key:
                    best, best_key = spec, key
        return best.context if best is not None else DEFAULT_FILE_CONTEXT

    def rule_count(self) -> int:
        return sum(len(v) for v in self._av.values())
