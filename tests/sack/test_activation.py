"""One policy activation through SACKfs, for every SACK variant.

Independent SACK and both MAC bridges share one front end: a policy
written to ``SACK/policy`` is compiled, its SSM wired and its load
recorded once, and the SACKfs views read the same way whichever variant
sits behind them.
"""

import pytest

from repro.apparmor import AppArmorLsm
from repro.kernel import user_credentials
from repro.lsm import boot_kernel
from repro.sack import SackAppArmorBridge, SackFs, SackLsm
from repro.sack.selinux_bridge import SackSelinuxBridge
from repro.selinux import SelinuxLsm, parse_te_policy

POLICY = """
policy activation;
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
  }
  AUDIO {
    allow read /dev/car/audio;
  }
}
guard /dev/car/**;
targets {
  rescue_daemon;
}
"""

PROFILES = """
profile rescue_daemon /usr/bin/rescue_daemon {
  /usr/bin/rescue_daemon rm,
  /dev/car/** r,
}
"""

TE_BASE = """
type rescue_t;
type rescue_exec_t;
type car_door_t;
type car_audio_t;

allow rescue_t rescue_exec_t : file { read execute };
type_transition init_t rescue_exec_t : process rescue_t;
filecon /dev/car/door system_u:object_r:car_door_t;
filecon /dev/car/audio system_u:object_r:car_audio_t;
filecon /usr/bin/rescue_daemon system_u:object_r:rescue_exec_t;
"""

SDS_UID = 990
SACK = "/sys/kernel/security/SACK"


def independent():
    sack = SackLsm()
    return sack, [sack]


def apparmor():
    apparmor = AppArmorLsm()
    apparmor.policy.load_text(PROFILES)
    bridge = SackAppArmorBridge(apparmor)
    return bridge, [bridge, apparmor]


def selinux():
    selinux = SelinuxLsm(parse_te_policy(TE_BASE))
    bridge = SackSelinuxBridge(selinux,
                               subject_domains={"rescue_daemon": "rescue_t"})
    return bridge, [bridge, selinux]


VARIANTS = {"independent": independent, "apparmor": apparmor,
            "selinux": selinux}


def read(kernel, name):
    return kernel.read_file(kernel.procs.init, f"{SACK}/{name}").decode()


@pytest.mark.parametrize("backend", sorted(VARIANTS))
def test_one_activation_through_sackfs(backend):
    module, stack = VARIANTS[backend]()
    kernel, _ = boot_kernel(stack)
    kernel.vfs.makedirs("/dev/car")
    for node in ("door", "audio"):
        kernel.vfs.create_file(f"/dev/car/{node}", mode=0o666)
    SackFs(kernel, module, authorized_event_uids={SDS_UID})
    obs = kernel.obs
    kernel.write_file(kernel.procs.init, f"{SACK}/policy", POLICY.encode(),
                      create=False)

    assert read(kernel, "current") == "normal 0\n"
    assert read(kernel, "states") == "normal 0\nemergency 1\n"
    assert read(kernel, "state_per") == (
        "emergency: AUDIO, DOORS\nnormal: AUDIO\n")
    assert read(kernel, "per_rules") == (
        "AUDIO:\n  allow read /dev/car/audio\n"
        "DOORS:\n  allow write /dev/car/door subject=rescue_daemon\n")
    assert "activation" in read(kernel, "policy")
    assert "ssm_transitions 0" in read(kernel, "stats")

    applies = obs.metrics.histograms_named("sack_bridge_apply_ns")
    applied = sum(h.count for h in applies.values())

    sds = kernel.sys_fork(kernel.procs.init)
    sds.comm = "sds"
    sds.cred = user_credentials(SDS_UID)
    kernel.write_file(sds, f"{SACK}/events", b"crash_detected\n",
                      create=False)

    assert read(kernel, "current") == "emergency 1\n"
    assert "ssm_transitions 1" in read(kernel, "stats")
    assert module.current_state == "emergency"
    loads = obs.metrics.counter_totals(["sack_policy_loads_total"])
    assert loads == {"sack_policy_loads_total": 1}
    assert obs.metrics.counter("sack_policy_loads_total",
                               {"backend": backend}).value == 1
    assert len(kernel.audit.by_kind("sack_policy_loaded")) == 1

    applies = obs.metrics.histograms_named("sack_bridge_apply_ns")
    if backend == "independent":
        assert applies == {}
    else:
        # The initial state at load, then the transition's rewrite.
        assert applied == 1
        (labels, histogram), = applies.items()
        assert dict(labels) == {"backend": backend}
        assert histogram.count == 2
