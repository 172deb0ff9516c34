"""The live AppArmor policy store.

Profiles are loaded at boot but — crucially for SACK-enhanced AppArmor —
can be *replaced at runtime*, the equivalent of ``apparmor_parser -r``.
Every mutation bumps a revision counter; tasks hold profile *names*, so a
replaced profile takes effect for running processes immediately, exactly
the behaviour the SACK bridge needs at situation transitions.  Like the
kernel's ``aa_replace_profiles``, a multi-profile load (a profile text,
or the bridge's per-transition set) is one swap: one revision bump and
one notification, whatever the number of profiles.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..lsm.policycache import PolicyCache
from .globs import glob_match, literal_prefix_len
from .parser import parse_profiles
from .profile import Profile


class PolicyDb:
    """Name-indexed profile store with attachment resolution."""

    def __init__(self, policy_cache: Optional[PolicyCache] = None):
        self._profiles: Dict[str, Profile] = {}
        #: Parsed profile texts, shared with the other worlds on a host.
        self.policy_cache = (policy_cache if policy_cache is not None
                             else PolicyCache())
        self.revision = 0
        self.replace_count = 0
        # Attachment lookups are hot (every exec); AppArmor compiles them
        # into a DFA at load time, we memoise per policy revision instead.
        self._attach_cache: Dict[str, Optional[str]] = {}
        self._attach_cache_revision = -1
        self._subscribers: List = []

    def subscribe(self, callback) -> None:
        """Call *callback* () after every revision bump — the feed that
        advances the LSM stack's situation epoch on a profile reload."""
        if callback not in self._subscribers:
            self._subscribers.append(callback)

    def _notify(self) -> None:
        for callback in list(self._subscribers):
            callback()

    # -- loading -------------------------------------------------------------
    def load_profile(self, profile: Profile) -> None:
        """Add or replace one profile."""
        self._swap((profile,))

    def load_text(self, text: str) -> List[Profile]:
        """Parse and load profile text in one swap; returns the loaded
        profiles (fresh copies: the parsed text is shared)."""
        parsed = self.policy_cache.get(("apparmor", text),
                                       lambda: parse_profiles(text))
        profiles = [profile.clone() for profile in parsed]
        self._swap(profiles)
        return profiles

    def replace_profile(self, profile: Profile) -> None:
        """Replace an existing profile (it must already be loaded)."""
        self.replace_profiles((profile,))

    def replace_profiles(self, profiles: Iterable[Profile]) -> None:
        """Replace existing profiles in one swap: one revision, one
        notification.  Every name is checked first, so a missing one
        raises ``KeyError`` with nothing changed."""
        profiles = list(profiles)
        for profile in profiles:
            if profile.name not in self._profiles:
                raise KeyError(f"no profile named {profile.name!r} "
                               f"to replace")
        self._swap(profiles)

    def _swap(self, profiles) -> None:
        if not profiles:
            return
        live = self._profiles
        for profile in profiles:
            if profile.name in live:
                self.replace_count += 1
            live[profile.name] = profile
        self.revision += 1
        self._notify()

    def remove_profile(self, name: str) -> None:
        if name in self._profiles:
            del self._profiles[name]
            self.revision += 1
            self._notify()

    # -- queries ---------------------------------------------------------------
    def get(self, name: str) -> Optional[Profile]:
        return self._profiles.get(name)

    def profile_names(self) -> List[str]:
        return sorted(self._profiles)

    def __len__(self) -> int:
        return len(self._profiles)

    def attach_for_exe(self, exe_path: str) -> Optional[Profile]:
        """Find the profile whose attachment matches *exe_path*.

        When several attachments match, the most specific (longest literal
        prefix, then longest glob) wins, as in AppArmor.
        """
        if self._attach_cache_revision != self.revision:
            self._attach_cache.clear()
            self._attach_cache_revision = self.revision
        if exe_path in self._attach_cache:
            name = self._attach_cache[exe_path]
            return self._profiles.get(name) if name is not None else None
        profile = self._attach_for_exe_slow(exe_path)
        self._attach_cache[exe_path] = profile.name if profile else None
        return profile

    def _attach_for_exe_slow(self, exe_path: str) -> Optional[Profile]:
        best: Optional[Profile] = None
        best_key = (-1, -1)
        for profile in self._profiles.values():
            att = profile.attachment
            if att is None or not glob_match(att, exe_path):
                continue
            key = (literal_prefix_len(att), len(att))
            if key > best_key:
                best, best_key = profile, key
        return best

    def total_rules(self) -> int:
        return sum(p.rule_count() for p in self._profiles.values())
