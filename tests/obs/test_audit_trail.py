"""The hub's audit ring is the kernel's one audit trail.

Each denial, whichever module refuses it, leaves exactly one AVC record
in ``kernel.obs.audit`` and adds one to ``lsm_denials_total`` for that
module; nothing else records it a second time.  Accesses that a
complain-mode profile lets through leave one record of their own kind
and no AVC record.
"""

import pytest

from repro.abac import AbacEffect, AbacLsm, AbacPolicy, AbacRule
from repro.apparmor import AppArmorLsm
from repro.kernel import (Capability, KernelError, SocketFamily,
                          user_credentials)
from repro.lsm import boot_kernel
from repro.sack import SackAppArmorBridge, SackLsm, parse_policy
from repro.sack.policy.model import RuleOp

POLICY = """
policy trail;
initial normal;
states {
  normal = 0;
}
transitions {
}
permissions {
  AUDIO;
}
state_per {
  normal: AUDIO;
}
per_rules {
  AUDIO {
    allow read /dev/car/audio;
  }
}
guard /dev/car/**;
targets {
  app;
}
"""

PROFILES = """
profile app /usr/bin/app {
  /usr/bin/app rm,
}

profile noisy /usr/bin/noisy flags=(complain) {
  /usr/bin/noisy rm,
}
"""

def boot(modules):
    kernel, _ = boot_kernel(modules)
    kernel.vfs.makedirs("/dev/car")
    kernel.vfs.create_file("/dev/car/audio", mode=0o666)
    for exe in ("app", "noisy"):
        kernel.vfs.create_file(f"/usr/bin/{exe}", mode=0o755)
    return kernel


def spawn(kernel, exe="app", caps=()):
    task = kernel.sys_fork(kernel.procs.init)
    kernel.sys_execve(task, f"/usr/bin/{exe}")
    task.cred = user_credentials(1000, caps=caps)
    return task


def denials_of(kernel, module):
    """``lsm_denials_total`` summed over every hook of *module*."""
    counters = kernel.obs.metrics.series()[0]
    return sum(value for key, value in counters.items()
               if key.startswith("lsm_denials_total{")
               and f"module={module}" in key)


def independent_sack():
    sack = SackLsm()
    kernel = boot([sack])
    sack.load_policy(parse_policy(POLICY))
    return kernel, "sack"


def apparmor_bridge():
    apparmor = AppArmorLsm()
    apparmor.policy.load_text(PROFILES)
    bridge = SackAppArmorBridge(apparmor)
    kernel = boot([bridge, apparmor])
    bridge.load_policy(parse_policy(POLICY))
    return kernel, "apparmor"


def abac():
    module = AbacLsm()
    kernel = boot([module])
    module.load_policy(AbacPolicy(rules=[
        AbacRule(AbacEffect.PERMIT, frozenset({RuleOp.READ}),
                 "/dev/car/**")], guards=["/dev/car/**"]))
    return kernel, "abac"


@pytest.mark.parametrize("world", [independent_sack, apparmor_bridge, abac])
def test_one_denial_one_record_one_count(world):
    kernel, module = world()
    task = spawn(kernel)
    records, denials = len(kernel.obs.audit), denials_of(kernel, module)
    kernel.read_file(task, "/dev/car/audio")  # an allow leaves nothing
    assert len(kernel.obs.audit) == records
    with pytest.raises(KernelError):
        kernel.write_file(task, "/dev/car/audio", b"x", create=False)
    assert len(kernel.obs.audit) == records + 1
    assert denials_of(kernel, module) == denials + 1
    record = kernel.obs.audit.tail(1)[0]
    assert (record.kind, record.module, record.path, record.comm) == \
        ("avc", module, "/dev/car/audio", "app")


def test_mac_capable_denial_is_audited():
    # The task holds the capability, so the capability module allows and
    # AppArmor's refusal is a real denial: one AVC record naming it.
    kernel, _ = apparmor_bridge()
    task = spawn(kernel, caps=[Capability.CAP_NET_ADMIN])
    records = len(kernel.obs.audit)
    assert not kernel.capable(task, Capability.CAP_NET_ADMIN)
    assert len(kernel.obs.audit) == records + 1
    assert denials_of(kernel, "apparmor") == 1
    record = kernel.obs.audit.tail(1)[0]
    assert (record.kind, record.module, record.hook, record.path) == \
        ("avc", "apparmor", "capable", "CAP_NET_ADMIN")


def test_capability_module_probes_stay_unaudited():
    kernel, _ = apparmor_bridge()
    task = spawn(kernel)
    records = len(kernel.obs.audit)
    assert not kernel.capable(task, Capability.CAP_NET_ADMIN)
    assert len(kernel.obs.audit) == records
    assert denials_of(kernel, "capability") == 0


def test_complain_allow_leaves_one_non_avc_record():
    kernel, _ = apparmor_bridge()
    task = spawn(kernel, exe="noisy")
    records = len(kernel.obs.audit)
    kernel.sys_socket(task, SocketFamily.AF_UNIX)
    added = kernel.obs.audit.records()[records:]
    assert [(r.kind, r.module) for r in added] == [("complain", "apparmor")]


def test_abac_policy_load_is_recorded():
    kernel, _ = abac()
    loads = kernel.obs.audit.query(kind="policy_load", module="abac")
    assert [r.detail for r in loads] == ["policy=abac-policy rules=1"]


@pytest.mark.parametrize("world", [independent_sack, apparmor_bridge])
def test_identical_worlds_leave_identical_trails(world):
    """The trail depends on the input alone: no host-timed field (such as
    a policy load's duration) reaches a record."""
    trails = []
    for _ in range(2):
        kernel, _module = world()
        with pytest.raises(KernelError):
            kernel.write_file(spawn(kernel), "/dev/car/audio", b"x",
                              create=False)
        trails.append(kernel.obs.audit.to_text())
    assert "type=MAC_POLICY_LOAD" in trails[0]
    assert "duration_ns" not in trails[0]
    assert trails[0] == trails[1]
