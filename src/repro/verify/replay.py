"""Counterexample replay: confirm a static finding on a live kernel.

A model-checker verdict is only as credible as the model.  The replay
driver closes that loop: it boots a full IVI world with the *same* policy
the model was built from, drives the SSM along the counterexample's
transition trace through the real kernel surfaces (situation events
through the SACKfs write handler, degradation through
``enter_failsafe``), and then issues the counterexample's access request
as the real subject task through the real syscall path.  A confirmed
replay means the violation is not a modeling artifact — the live kernel
grants (or denies) exactly as the trace predicted.

Multi-revision traces replay their post-OTA suffix: the world boots the
revision the violating node lives in (an applied bundle starts a fresh
SSM at that policy's initial state, which is exactly where the suffix
begins).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from .counterexample import (STEP_EVENT, STEP_FAILSAFE, STEP_OTA,
                             Counterexample, TraceStep)

#: SACKfs event channel (the SDS's kernel entry point).
EVENTS_PATH = "/sys/kernel/security/SACK/events"

OUTCOME_ALLOW = "allow"
OUTCOME_DENY = "deny"
OUTCOME_INCONCLUSIVE = "inconclusive"


@dataclasses.dataclass
class ReplayResult:
    """What actually happened when the trace ran on a live kernel."""

    confirmed: bool
    outcome: str            # allow | deny | inconclusive
    detail: str
    final_state: str = ""
    steps_applied: int = 0
    mode: str = "independent"

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


def _suffix_after_ota(trace: Sequence[TraceStep]
                      ) -> Tuple[TraceStep, ...]:
    """The trace steps after the last OTA apply (all, when none)."""
    steps = list(trace)
    for i in range(len(steps) - 1, -1, -1):
        if steps[i].kind == STEP_OTA:
            return tuple(steps[i + 1:])
    return tuple(steps)


def _select_policy(cex: Counterexample, policies) -> str:
    """The policy text of the revision the violating node lives in."""
    if isinstance(policies, str):
        return policies
    texts = list(policies)
    rev = cex.revision
    if rev.startswith("rev"):
        index_text = rev[3:].split(":", 1)[0]
        if index_text.isdigit() and int(index_text) < len(texts):
            return texts[int(index_text)]
    return texts[-1]


def _event_writer(world):
    """The task SACKfs will accept situation events from."""
    sds = world.tasks.get("sds")
    return sds if sds is not None else world.kernel.procs.init


def _subject_task(world, comm: str):
    """The live task named *comm*, forked on demand for witnesses."""
    task = world.tasks.get(comm)
    if task is not None:
        return task
    from ..kernel import user_credentials
    kernel = world.kernel
    exe = f"/usr/bin/{comm}"
    kernel.vfs.create_file(exe, mode=0o755)
    task = kernel.sys_fork(kernel.procs.init)
    task.cred = user_credentials(4242)
    kernel.sys_execve(task, exe, comm=comm)
    world.tasks[comm] = task
    return task


def _probe_access(world, request) -> Tuple[str, str]:
    """Issue the counterexample's access request; returns (outcome, why)."""
    from ..kernel import KernelError, OpenFlags
    from ..kernel.errors import Errno
    kernel = world.kernel
    task = _subject_task(world, request.subject)
    denied = (Errno.EACCES, Errno.EPERM)

    if request.op == "ioctl":
        fd = None
        try:
            fd = kernel.sys_open(task, request.path, OpenFlags.O_RDONLY)
            kernel.sys_ioctl(task, fd, request.cmd or 0, 0)
        except KernelError as exc:
            if exc.errno in denied:
                return OUTCOME_DENY, f"kernel denied: {exc}"
            if exc.errno == Errno.ENOTTY:
                # The driver saw the command: MAC mediation passed.
                return OUTCOME_ALLOW, f"device refused command: {exc}"
            return OUTCOME_INCONCLUSIVE, f"probe failed: {exc}"
        finally:
            if fd is not None:
                kernel.sys_close(task, fd)
        return OUTCOME_ALLOW, "ioctl delivered to the device"

    if request.op in ("read", "write"):
        flags = (OpenFlags.O_RDONLY if request.op == "read"
                 else OpenFlags.O_WRONLY)
        try:
            fd = kernel.sys_open(task, request.path, flags)
        except KernelError as exc:
            if exc.errno in denied:
                return OUTCOME_DENY, f"kernel denied: {exc}"
            return OUTCOME_INCONCLUSIVE, f"probe failed: {exc}"
        kernel.sys_close(task, fd)
        return OUTCOME_ALLOW, f"open for {request.op} succeeded"

    return (OUTCOME_INCONCLUSIVE,
            f"operation {request.op!r} has no replay probe")


def replay_counterexample(cex: Counterexample, policies,
                          mode: str = "independent") -> ReplayResult:
    """Execute *cex* against a freshly booted live kernel instance.

    *policies* is the policy text (or revision chain) the model was
    built from; *mode* selects ``independent`` SACK or the ``apparmor``
    bridge.  Confirmed means: the trace reached the predicted state AND
    the live access decision matches the counterexample's ``actual``.
    """
    from ..vehicle.ivi import build_ivi_world, sack_mode
    config = sack_mode(mode)
    policy_text = _select_policy(cex, policies)
    world = build_ivi_world(config, policy_text=policy_text,
                            with_sds=False)
    module = world.sack or world.bridge
    ssm = module.ssm if module is not None else None
    if ssm is None:
        return ReplayResult(False, OUTCOME_INCONCLUSIVE,
                            "world booted without a SACK module",
                            mode=mode)
    writer = _event_writer(world)
    applied = 0
    for step in _suffix_after_ota(cex.trace):
        if step.kind == STEP_EVENT:
            from ..kernel import KernelError
            try:
                world.kernel.write_file(writer, EVENTS_PATH,
                                        f"{step.label}\n".encode(),
                                        create=False)
            except KernelError as exc:
                return ReplayResult(
                    False, OUTCOME_INCONCLUSIVE,
                    f"event {step.label!r} rejected by SACKfs: {exc}",
                    final_state=ssm.current_name, steps_applied=applied,
                    mode=mode)
        elif step.kind == STEP_FAILSAFE:
            ssm.enter_failsafe("replay: forced degradation",
                               now_ns=world.kernel.clock.now_ns)
        else:
            return ReplayResult(
                False, OUTCOME_INCONCLUSIVE,
                f"unexpected {step.kind!r} step after OTA suffix split",
                final_state=ssm.current_name, steps_applied=applied,
                mode=mode)
        applied += 1
        if ssm.current_name != step.to_state:
            return ReplayResult(
                False, OUTCOME_INCONCLUSIVE,
                f"step {applied} ({step.describe()}) left the live SSM "
                f"in {ssm.current_name!r}, not {step.to_state!r}",
                final_state=ssm.current_name, steps_applied=applied,
                mode=mode)
    final_state = ssm.current_name
    if final_state != cex.state:
        return ReplayResult(
            False, OUTCOME_INCONCLUSIVE,
            f"trace ended in {final_state!r} but the counterexample "
            f"names {cex.state!r}", final_state=final_state,
            steps_applied=applied, mode=mode)
    if cex.request is None:
        # Structural violations have nothing to probe; reaching the
        # state is all the replay can (and needs to) confirm.
        return ReplayResult(
            True, OUTCOME_INCONCLUSIVE,
            "structural counterexample: state reached, no access to "
            "probe", final_state=final_state, steps_applied=applied,
            mode=mode)
    outcome, why = _probe_access(world, cex.request)
    confirmed = outcome in (OUTCOME_ALLOW, OUTCOME_DENY) \
        and outcome == cex.actual
    detail = (f"live kernel: {cex.request.describe()} -> {outcome} "
              f"in state {final_state!r} ({why}); "
              f"model predicted {cex.actual}")
    return ReplayResult(confirmed, outcome, detail,
                        final_state=final_state, steps_applied=applied,
                        mode=mode)
