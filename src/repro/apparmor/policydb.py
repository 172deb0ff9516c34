"""The live AppArmor policy store.

Profiles are loaded at boot but — crucially for SACK-enhanced AppArmor —
can be *replaced at runtime*, the equivalent of ``apparmor_parser -r``.
Every mutation bumps a revision counter; tasks hold profile *names*, so a
replaced profile takes effect for running processes immediately, exactly
the behaviour the SACK bridge needs at situation transitions.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .globs import glob_match, literal_prefix_len
from .parser import parse_profiles
from .profile import Profile


class PolicyDb:
    """Name-indexed profile store with attachment resolution."""

    def __init__(self):
        self._profiles: Dict[str, Profile] = {}
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
        if profile.name in self._profiles:
            self.replace_count += 1
        self._profiles[profile.name] = profile
        self.revision += 1
        self._notify()

    def load_text(self, text: str) -> List[Profile]:
        """Parse and load profile text; returns the loaded profiles."""
        profiles = parse_profiles(text)
        for profile in profiles:
            self.load_profile(profile)
        return profiles

    def replace_profile(self, profile: Profile) -> None:
        """Replace an existing profile (it must already be loaded)."""
        if profile.name not in self._profiles:
            raise KeyError(f"no profile named {profile.name!r} to replace")
        self.load_profile(profile)

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
