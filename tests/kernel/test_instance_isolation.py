"""Cross-kernel isolation: two kernels side by side must not share state.

Fleet orchestration (``repro.fleet``) runs many kernels in one process
and fingerprints each of them, so every per-kernel resource — inode
numbers, open-file ids, mapping ids, socket ids, the observability hub
(metrics, audit ring, span-tracer ID counters), and the AVC — must be
allocated per instance.  A process-global counter would make vehicle N's
ids depend on how many vehicles booted before it, breaking bit-for-bit
reproducibility across fleet sizes and worker counts.
"""

from repro.kernel import Kernel, OpenFlags, user_credentials
from repro.sack.events import SituationEvent
from repro.vehicle import EnforcementConfig, build_ivi_world


def _drive_identically(world):
    world.drive_to_speed(40)
    world.trigger_crash()
    world.rescue_unlock_doors()
    return world


class TestIdentialTwins:
    """Two identically-driven worlds end in bit-identical kernel state."""

    def test_inode_numbers_match(self):
        a = build_ivi_world(EnforcementConfig.SACK_INDEPENDENT)
        b = build_ivi_world(EnforcementConfig.SACK_INDEPENDENT)
        for path in ("/dev/car/door", "/dev/car/audio", "/usr/bin/sds",
                     "/sys/kernel/security/SACK/events"):
            assert a.kernel.vfs.resolve(path).inode.ino == \
                b.kernel.vfs.resolve(path).inode.ino, path

    def test_ids_independent_of_prior_kernels(self):
        # The regression this file exists for: booting extra kernels
        # first must not shift a fresh kernel's id sequences.
        for _ in range(3):
            build_ivi_world(EnforcementConfig.SACK_INDEPENDENT)
        late = build_ivi_world(EnforcementConfig.SACK_INDEPENDENT)
        fresh = build_ivi_world(EnforcementConfig.SACK_INDEPENDENT)
        assert late.kernel.vfs.resolve("/dev/car/door").inode.ino == \
            fresh.kernel.vfs.resolve("/dev/car/door").inode.ino

    def test_open_file_and_socket_ids_match(self):
        from repro.kernel.ipc import SocketFamily

        ka, kb = Kernel(), Kernel()
        ids = []
        for k in (ka, kb):
            k.vfs.create_file("/tmp/x", mode=0o666)
            task = k.sys_fork(k.procs.init)
            task.cred = user_credentials(1000)
            fd = k.sys_open(task, "/tmp/x", OpenFlags.O_RDONLY)
            sock = k.net.socket(SocketFamily.AF_UNIX)
            ids.append((task.get_fd(fd).obj.id, sock.id))
        assert ids[0] == ids[1]

    def test_transitions_and_span_ids_match(self):
        a = build_ivi_world(EnforcementConfig.SACK_INDEPENDENT)
        b = build_ivi_world(EnforcementConfig.SACK_INDEPENDENT)
        for w in (a, b):
            w.kernel.obs.spans.enable()
            _drive_identically(w)
        ha = [(t.event.name, t.from_state, t.to_state, t.at_ns)
              for t in a.sack.ssm.history]
        hb = [(t.event.name, t.from_state, t.to_state, t.at_ns)
              for t in b.sack.ssm.history]
        assert ha == hb and ha
        assert a.kernel.obs.spans.span_summaries() == \
            b.kernel.obs.spans.span_summaries()


class TestDisjointObservability:
    """Activity in one kernel never shows up in another's hub."""

    def test_two_kernels_fully_disjoint(self):
        a = build_ivi_world(EnforcementConfig.SACK_INDEPENDENT)
        b = build_ivi_world(EnforcementConfig.SACK_INDEPENDENT)
        a.kernel.obs.spans.enable()
        b.kernel.obs.spans.enable()

        obs_b = b.kernel.obs
        framework_b = b.framework

        def snapshot_b():
            return (obs_b.spans.started, obs_b.spans._trace_seq,
                    [r.kind for r in obs_b.audit.records()],
                    obs_b.metrics.to_prometheus(),
                    framework_b.epoch,
                    b.sackfs.events_received,
                    b.sack.ssm.events_processed)

        before = snapshot_b()
        _drive_identically(a)   # b stays untouched
        assert snapshot_b() == before

        # And the driven kernel did record its own activity.
        obs_a = a.kernel.obs
        assert obs_a.spans.started > 0
        assert len(obs_a.audit.records()) > 0
        assert a.sackfs.events_received > 0

    def test_event_sequencers_are_per_kernel(self):
        a = build_ivi_world(EnforcementConfig.SACK_INDEPENDENT)
        b = build_ivi_world(EnforcementConfig.SACK_INDEPENDENT)
        _drive_identically(a)
        # b's sequencer has not moved; a fresh write to b numbers from 1.
        assert b.sackfs.sequencer.peek() == 1
        assert a.sackfs.sequencer.peek() > 1
