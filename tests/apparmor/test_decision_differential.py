"""Differential test: the int-mask decision path against the FilePerm one.

Profiles decide on plain-int permission bits (``PathRule.bits``).  The
union-minus-deny matcher below is the ``FilePerm`` arithmetic they used
before, kept here only as the oracle: every shipped profile, every
bridged profile set and a synthetic overlap profile must agree with it
on ``allows_file``, ``effective_perms`` and ``exec_mode_for`` over a
path grid crossed with every request mask.
"""

import re

import pytest

from repro.apparmor import AppArmorLsm, parse_profiles
from repro.apparmor.module import _mask_to_perms
from repro.apparmor.profile import ExecMode, FilePerm, PathRule, Profile
from repro.kernel.syscalls import MAY_EXEC, MAY_READ, MAY_WRITE
from repro.lsm import boot_kernel
from repro.sack import SackAppArmorBridge, parse_policy
from repro.vehicle.devices import IOCTL_SYMBOLS
from repro.vehicle.ivi import DEFAULT_SACK_POLICY, IVI_APPARMOR_PROFILES

#: Every request mask over the seven ``FilePerm`` bits.
MASKS = range(0x80)


def legacy_effective_perms(profile, path):
    allowed = FilePerm.NONE
    denied = FilePerm.NONE
    for rule in profile.path_rules:
        if rule.matches(path):
            if rule.deny:
                denied |= rule.perms
            else:
                allowed |= rule.perms
    return allowed & ~denied


def legacy_allows_file(profile, path, requested):
    if requested == FilePerm.NONE:
        return True
    return (legacy_effective_perms(profile, path) & requested) == requested


def legacy_exec_mode_for(profile, path):
    if not legacy_allows_file(profile, path, FilePerm.EXEC):
        return None
    mode = None
    for rule in profile.path_rules:
        if (not rule.deny and rule.matches(path)
                and rule.perms & FilePerm.EXEC):
            mode = rule.exec_mode or ExecMode.INHERIT
    return mode


def legacy_mask_to_perms(mask):
    perms = FilePerm.NONE
    if mask & MAY_READ:
        perms |= FilePerm.READ
    if mask & MAY_WRITE:
        perms |= FilePerm.WRITE
    if mask & MAY_EXEC:
        perms |= FilePerm.EXEC
    return perms


def synthetic_overlap_profile():
    """Allow and deny globs that overlap on every permission bit."""
    rules = [
        PathRule("/srv/**", FilePerm.READ | FilePerm.WRITE | FilePerm.LINK),
        PathRule("/srv/*/cache/**", FilePerm.READ | FilePerm.LOCK,
                 deny=True),
        PathRule("/srv/app/**", FilePerm.APPEND | FilePerm.MMAP),
        PathRule("/srv/app/*.log", FilePerm.WRITE | FilePerm.APPEND,
                 deny=True),
        PathRule("/srv/{app,web}/bin/*", FilePerm.EXEC | FilePerm.READ,
                 exec_mode=ExecMode.PROFILE),
        PathRule("/srv/app/bin/tool", FilePerm.EXEC,
                 exec_mode=ExecMode.UNCONFINED),
        PathRule("/srv/web/bin/*", FilePerm.EXEC, deny=True),
        PathRule("/usr/bin/*", FilePerm.EXEC | FilePerm.MMAP),
        PathRule("/usr/bin/s?", FilePerm.EXEC, deny=True),
        PathRule("/dev/car/**", FilePerm.READ | FilePerm.WRITE),
        PathRule("/dev/car/door", FilePerm.WRITE, deny=True),
        PathRule("/dev/car/[dw]*", FilePerm.LOCK),
    ]
    return Profile("overlap", path_rules=rules)


def shipped_profiles():
    return [(profile.name, profile)
            for profile in parse_profiles(IVI_APPARMOR_PROFILES)]


def bridged_profiles():
    """Each target profile as the bridge installs it, in every state."""
    policy = parse_policy(DEFAULT_SACK_POLICY)
    apparmor = AppArmorLsm()
    apparmor.policy.load_text(IVI_APPARMOR_PROFILES)
    bridge = SackAppArmorBridge(apparmor)
    boot_kernel([bridge, apparmor])
    bridge.load_policy(policy, ioctl_symbols=IOCTL_SYMBOLS)
    out = []
    for state in policy.states.names():
        bridge._install_state(state)
        out += [(f"{state}/{name}", apparmor.policy.get(name))
                for name in apparmor.policy.profile_names()]
    return out


def literal_prefix(glob):
    return re.split(r"[*?\[{]", glob, maxsplit=1)[0]


def path_grid(profiles):
    paths = {"/var/media/a000/t000.ogg", "/var/media/x.mp3",
             "/var/media", "/var/nav/map.db", "/var/log/rescue.log",
             "/usr/bin/media_app", "/usr/bin/sh", "/usr/bin/ls",
             "/usr/lib/libc.so", "/usr/lib/x/y.so",
             "/srv/app/bin/tool", "/srv/app/bin/run", "/srv/web/bin/run",
             "/srv/app/cache/blob", "/srv/web/cache/x/y",
             "/srv/app/out.log", "/srv/app/data", "/srv/web/index",
             "/sys/kernel/security/SACK/events",
             "/", "/etc/passwd", "/tmp/f", "/home/user/doc",
             "/proc/self/status", "/dev/null"}
    paths.update(f"/dev/car/{device}" for device in
                 ("door", "window", "audio", "engine", "speedometer",
                  "unknown", "door/sub"))
    for profile in profiles:
        for rule in profile.path_rules:
            prefix = literal_prefix(rule.glob)
            paths.update((prefix, prefix + "probe", prefix.rstrip("/")))
    paths.discard("")
    return sorted(paths)


CASES = (shipped_profiles() + bridged_profiles()
         + [("synthetic/overlap", synthetic_overlap_profile())])


@pytest.mark.parametrize("label,profile", CASES,
                         ids=[label for label, _ in CASES])
def test_int_masks_agree_with_fileperm_matcher(label, profile):
    for path in path_grid([profile]):
        old_effective = legacy_effective_perms(profile, path)
        effective = profile.effective_perms(path)
        assert effective == old_effective, (path, effective)
        assert isinstance(effective, FilePerm)
        assert profile.exec_mode_for(path) is \
            legacy_exec_mode_for(profile, path), path
        for mask in MASKS:
            expected = legacy_allows_file(profile, path, FilePerm(mask))
            assert profile.allows_file(path, mask) is expected, (path, mask)
            assert profile.allows_file(path, FilePerm(mask)) is expected


def test_grid_exercises_every_outcome():
    """The grid is not vacuous: it reaches grants, denies that cancel a
    grant, and every exec mode."""
    profile = synthetic_overlap_profile()
    paths = path_grid([profile])
    modes = {profile.exec_mode_for(path) for path in paths}
    assert modes == {None, ExecMode.PROFILE, ExecMode.UNCONFINED,
                     ExecMode.INHERIT}
    cancelled = [path for path in paths
                 if legacy_effective_perms(profile, path)
                 != _allow_union(profile, path)]
    assert cancelled
    bridged = dict(bridged_profiles())
    rescue = bridged["emergency/rescue_daemon"]
    assert rescue.allows_file("/dev/car/door", FilePerm.WRITE)
    assert not bridged["driving/rescue_daemon"].allows_file(
        "/dev/car/door", FilePerm.WRITE)


def _allow_union(profile, path):
    allowed = FilePerm.NONE
    for rule in profile.path_rules:
        if not rule.deny and rule.matches(path):
            allowed |= rule.perms
    return allowed


@pytest.mark.parametrize("mask", range(8))
def test_mask_table_matches_old_function(mask):
    assert _mask_to_perms(mask) == legacy_mask_to_perms(mask)
