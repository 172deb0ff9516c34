"""Tests for SACK-enhanced SELinux (the TE-backend bridge)."""

import copy
import importlib.util
from pathlib import Path

import pytest

from repro.kernel import KernelError, user_credentials
from repro.lsm import boot_kernel
from repro.sack import SituationEvent, parse_policy
from repro.sack.selinux_bridge import (SACK_ORIGIN, SackSelinuxBridge,
                                       SackSelinuxBridgeError)
from repro.selinux import SelinuxLsm, SelinuxPolicyError, parse_te_policy

TE_BASE = """
type rescue_t;
type rescue_exec_t;
type media_t;
type media_exec_t;
type car_door_t;
type car_audio_t;

allow rescue_t rescue_exec_t : file { read execute };
allow media_t media_exec_t : file { read execute };
allow rescue_t car_door_t : chr_file { read getattr };
allow media_t car_audio_t : chr_file { read };
type_transition init_t rescue_exec_t : process rescue_t;
type_transition init_t media_exec_t : process media_t;
filecon /dev/car/door system_u:object_r:car_door_t;
filecon /dev/car/audio system_u:object_r:car_audio_t;
filecon /usr/bin/rescue_daemon system_u:object_r:rescue_exec_t;
filecon /usr/bin/media_app system_u:object_r:media_exec_t;
"""

SACK_POLICY = """
policy se_bridge;
initial normal;
states {
  normal = 0;
  emergency = 1;
}
transitions {
  normal -> emergency on crash_detected;
  emergency -> normal on emergency_cleared;
}
permissions {
  DOORS;
  AUDIO;
}
state_per {
  normal: AUDIO;
  emergency: DOORS, AUDIO;
}
per_rules {
  DOORS {
    allow write /dev/car/door subject=rescue_daemon;
    allow ioctl /dev/car/door subject=rescue_daemon;
  }
  AUDIO {
    allow ioctl /dev/car/audio;
  }
}
guard /dev/car/**;
"""

DOMAINS = {"rescue_daemon": "rescue_t", "media_app": "media_t"}


@pytest.fixture
def world():
    selinux = SelinuxLsm(parse_te_policy(TE_BASE))
    bridge = SackSelinuxBridge(selinux, subject_domains=DOMAINS)
    kernel, fw = boot_kernel([bridge, selinux])
    kernel.vfs.makedirs("/dev/car")
    for name in ("door", "audio"):
        # Plain nodes suffice: the bridge emits rules for both file
        # classes, and no driver behaviour is under test here.
        kernel.vfs.create_file(f"/dev/car/{name}", mode=0o666)
    for exe in ("rescue_daemon", "media_app"):
        kernel.vfs.create_file(f"/usr/bin/{exe}", mode=0o755)
    bridge.load_policy(parse_policy(SACK_POLICY))
    return kernel, selinux, bridge


def confined(kernel, name):
    task = kernel.sys_fork(kernel.procs.init)
    task.cred = user_credentials(0, caps=())
    kernel.sys_execve(task, f"/usr/bin/{name}")
    return task


class TestTranslation:
    def test_subjectless_rule_covers_all_domains(self, world):
        _, selinux, bridge = world
        # AUDIO's ioctl rule has no subject: both domains get it.
        assert selinux.policy.allows("rescue_t", "car_audio_t",
                                     "chr_file", "ioctl")
        assert selinux.policy.allows("media_t", "car_audio_t",
                                     "chr_file", "ioctl")

    def test_subject_rule_scoped_to_domain(self, world):
        _, selinux, bridge = world
        bridge.ssm.process_event(SituationEvent(name="crash_detected"))
        assert selinux.policy.allows("rescue_t", "car_door_t",
                                     "chr_file", "write")
        assert not selinux.policy.allows("media_t", "car_door_t",
                                         "chr_file", "write")

    def test_unknown_subject_rejected(self):
        selinux = SelinuxLsm(parse_te_policy(TE_BASE))
        bridge = SackSelinuxBridge(selinux, subject_domains={})
        with pytest.raises(SackSelinuxBridgeError):
            bridge.load_policy(parse_policy(SACK_POLICY))

    def test_deny_rules_rejected(self):
        selinux = SelinuxLsm(parse_te_policy(TE_BASE))
        bridge = SackSelinuxBridge(selinux, subject_domains=DOMAINS)
        deny_policy = SACK_POLICY.replace(
            "allow ioctl /dev/car/audio;",
            "allow ioctl /dev/car/audio;\n    deny write /dev/car/audio;")
        with pytest.raises(SackSelinuxBridgeError):
            bridge.load_policy(parse_policy(deny_policy))

    def test_injected_rules_tagged(self, world):
        _, selinux, _ = world
        origins = selinux.policy._av_origins
        assert any(SACK_ORIGIN in per_origin
                   for per_origin in origins.values())


class TestTransitions:
    def test_rules_injected_and_retracted(self, world):
        _, selinux, bridge = world
        bridge.ssm.process_event(SituationEvent(name="crash_detected"))
        assert selinux.policy.allows("rescue_t", "car_door_t",
                                     "chr_file", "write")
        bridge.ssm.process_event(SituationEvent(name="emergency_cleared"))
        assert not selinux.policy.allows("rescue_t", "car_door_t",
                                         "chr_file", "write")

    def test_static_rules_survive_updates(self, world):
        _, selinux, bridge = world
        for _ in range(3):
            bridge.ssm.process_event(SituationEvent(name="crash_detected"))
            bridge.ssm.process_event(
                SituationEvent(name="emergency_cleared"))
        assert selinux.policy.allows("rescue_t", "car_door_t",
                                     "chr_file", "read")

    def test_next_check_sees_the_transition(self, world):
        kernel, selinux, bridge = world
        rescue = confined(kernel, "rescue_daemon")
        with pytest.raises(KernelError):
            kernel.write_file(rescue, "/dev/car/door", b"x", create=False)
        bridge.ssm.process_event(SituationEvent(name="crash_detected"))
        kernel.write_file(rescue, "/dev/car/door", b"unlock",
                          create=False)

    def test_update_stats(self, world):
        _, _, bridge = world
        assert bridge.update_count == 1
        bridge.ssm.process_event(SituationEvent(name="crash_detected"))
        stats = bridge.stats()
        assert stats["state"] == "emergency"
        assert stats["av_updates"] == 2
        assert stats["rules_injected"] > 0


class TestEndToEnd:
    def test_case_study_on_selinux_backend(self, world):
        """The Fig. 4 scenario enforced by type enforcement."""
        kernel, selinux, bridge = world
        rescue = confined(kernel, "rescue_daemon")
        media = confined(kernel, "media_app")

        with pytest.raises(KernelError):
            kernel.write_file(rescue, "/dev/car/door", b"unlock",
                              create=False)

        bridge.ssm.process_event(SituationEvent(name="crash_detected"))
        kernel.write_file(rescue, "/dev/car/door", b"unlock",
                          create=False)
        with pytest.raises(KernelError):
            kernel.write_file(media, "/dev/car/door", b"unlock",
                              create=False)

        bridge.ssm.process_event(SituationEvent(name="emergency_cleared"))
        with pytest.raises(KernelError):
            kernel.write_file(rescue, "/dev/car/door", b"unlock",
                              create=False)


# -- one swap per state -----------------------------------------------------

#: Loaded after the fixture policy: its initial state grants every domain
#: door writes, then trips the base policy's ``neverallow`` on the rescue
#: domain's audio writes — partway through the translated rule list.
TE_NEVERALLOW = TE_BASE + """
neverallow rescue_t car_audio_t : chr_file { write };
"""

REFUSED_POLICY = SACK_POLICY.replace(
    "allow ioctl /dev/car/audio;",
    "allow ioctl /dev/car/audio;\n    allow write /dev/car/door;\n"
    "    allow write /dev/car/audio subject=rescue_daemon;")


def _world(te_text, sack_text):
    selinux = SelinuxLsm(parse_te_policy(te_text))
    bridge = SackSelinuxBridge(selinux, subject_domains=DOMAINS)
    _, framework = boot_kernel([bridge, selinux])
    bridge.load_policy(parse_policy(sack_text))
    return selinux, bridge, framework


class TestAtomicInstall:
    def test_refused_load_changes_nothing(self):
        selinux, bridge, framework = _world(TE_NEVERALLOW, SACK_POLICY)
        te_policy = selinux.policy
        before = (copy.deepcopy(te_policy._av),
                  copy.deepcopy(te_policy._av_origins), te_policy.revision,
                  bridge.policy, bridge.ssm, bridge.current_state,
                  framework.epoch)
        with pytest.raises(SelinuxPolicyError):
            bridge.load_policy(parse_policy(REFUSED_POLICY))
        assert (te_policy._av, te_policy._av_origins, te_policy.revision,
                bridge.policy, bridge.ssm, bridge.current_state,
                framework.epoch) == before
        # The refused policy's door grant never reached the table.
        assert not te_policy.allows("media_t", "car_door_t", "file",
                                    "write")

    def test_one_transition_is_one_revision_and_one_bump(self):
        selinux, bridge, framework = _world(TE_BASE, SACK_POLICY)
        revision = selinux.policy.revision
        epoch = framework.epoch
        reasons = dict(framework.bump_reasons)
        assert bridge.ssm.process_event(
            SituationEvent(name="crash_detected")) is not None
        assert selinux.policy.revision == revision + 1
        assert framework.epoch == epoch + 1
        assert framework.bump_reasons["transition"] == \
            reasons.get("transition", 0) + 1

    def test_replace_origin_is_one_revision_even_when_empty(self):
        selinux, _, _ = _world(TE_BASE, SACK_POLICY)
        te_policy = selinux.policy
        revision = te_policy.revision
        te_policy.replace_origin(SACK_ORIGIN, [])
        assert te_policy.revision == revision + 1
        assert not any(SACK_ORIGIN in origins
                       for origins in te_policy._av_origins.values())
        # The static grants are untouched.
        assert te_policy.allows("rescue_t", "car_door_t", "chr_file",
                                "read")


class RemoveThenAddBridge(SackSelinuxBridge):
    """The install before the one-swap change, kept for the differential
    test: retract every sack-origin permission, then add the state's
    rules one at a time."""

    def _install_state(self, state_name):
        te_policy = self.selinux.policy
        for key, origins in list(te_policy._av_origins.items()):
            if not origins.pop(SACK_ORIGIN, None):
                continue
            survivors = set().union(*origins.values())
            if survivors:
                te_policy._av[key] = survivors
            else:
                te_policy._av.pop(key, None)
        for rule in self.policy.rules_for_state(state_name):
            for av_rule in self.translate(rule):
                te_policy.add_rule(av_rule)
        return {}


def _example_policies():
    path = Path(__file__).resolve().parents[2] / "examples" / \
        "selinux_backend.py"
    spec = importlib.util.spec_from_file_location("selinux_backend", path)
    example = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(example)
    return example.TE_BASE, example.SACK_POLICY


@pytest.mark.parametrize("source", ["fixture", "example"])
def test_one_swap_matches_remove_then_add(source):
    te_text, sack_text = ((TE_BASE, SACK_POLICY) if source == "fixture"
                          else _example_policies())
    installs = []
    for bridge_type in (SackSelinuxBridge, RemoveThenAddBridge):
        selinux = SelinuxLsm(parse_te_policy(te_text))
        bridge = bridge_type(selinux, subject_domains=DOMAINS)
        boot_kernel([bridge, selinux])
        bridge.load_policy(parse_policy(sack_text))
        installs.append((selinux.policy, bridge))
    (new_policy, new), (old_policy, old) = installs
    names = list(new.policy.states.names())
    # Every state, entered from every state (and itself).
    for state in names + names[::-1] + [n for n in names for _ in "ab"]:
        new._install_state(state)
        old._install_state(state)
        assert new_policy._av == old_policy._av, state
