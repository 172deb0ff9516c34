"""``sackctl`` — the SACK policy administration tool.

Subcommands::

    sackctl check <policy.sack>          validate; exit 1 on errors
    sackctl verify [policy.sack]         statically model-check the policy
                                         (default: built-in IVI policy)
                                         against the cross-state safety
                                         properties; prints per-property
                                         pass/fail, model-size stats, and
                                         counterexample traces; exit 1 on
                                         any violation (--replay executes
                                         each counterexample against a
                                         live kernel, --export dumps them
                                         as JSON)
    sackctl format <policy.sack>         print the canonical form
    sackctl compile <policy.sack>        show per-state compiled rulesets
    sackctl simulate <policy.sack> -e crash_detected -e emergency_cleared
                                         drive the SSM through events
    sackctl query <policy.sack> --state S --op write --path /dev/car/door
                                         [--subject comm] [--cmd NAME]
                                         one access decision
    sackctl trace <policy.sack> -e crash_detected --access read:/dev/car/gps
                                         boot a kernel, drive events and
                                         accesses, print the trace buffer
    sackctl audit <policy.sack> -e crash_detected --access ioctl:/dev/car/door:DOOR_UNLOCK
                                         same, but print the audit records
    sackctl chaos --seed 1..5 --ticks 200
                                         seeded fault-injection scenarios
                                         with fail-closed invariant checks;
                                         exit 1 on any violation
    sackctl spans <policy.sack> -e crash_detected --access read:/dev/car/gps
                                         drive events and accesses with the
                                         causal span tracer on; print the
                                         span trees and latency breakdown
                                         (--chrome / --folded for the
                                         export formats)
    sackctl fleet status --vehicles 10 --epochs 8
                                         boot a fleet of vehicle kernels,
                                         run it, and print the roll-up
    sackctl fleet rollout --vehicles 10 [--fail-canary]
                                         staged OTA rollout (canary ->
                                         waves -> full); --fail-canary
                                         injects a canary apply failure
                                         and shows the automatic rollback
    sackctl fleet rollback --vehicles 10 operator-initiated mid-rollout abort
    sackctl fleet bus --vehicles 6       crash one vehicle and tail the V2X
                                         bus (publish/deliver/drop/filter)
    sackctl fleet top --vehicles 25      live fleet dashboard: throughput,
                                         per-state counts, SLO/burn-rate
                                         status, top denial series
    sackctl fleet metrics --vehicles 10  whole-fleet OpenMetrics dump from
                                         the streaming telemetry pipeline

The observability subcommands (``trace``, ``audit``, ``spans``, ``avc``)
accept ``--kernel <vehicle-id> --fleet-size N``: instead of booting one
standalone kernel they boot a fleet, run it briefly so cross-vehicle
traffic exists, then drive the events/accesses into — and dump the
observability of — the selected vehicle's kernel only.  Every vehicle
kernel carries its own tracefs/audit/AVC state, so what you see is that
vehicle's view, not a fleet-wide mixture.

``trace`` and ``audit`` run against a real booted simulator kernel with
independent SACK enforcing, SACKfs mounted, and tracefs recording every
tracepoint; accesses are issued by an unprivileged task (uid 1000) so MAC
decisions actually bite.  Access syntax: ``op:path[:ioctl_cmd]`` with op
one of read/write/ioctl.

ioctl command names resolve against the vehicle device ABI
(``repro.vehicle.devices.IOCTL_SYMBOLS``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Tuple

from ..sack import (SituationEvent, check_policy, compile_policy,
                    format_policy, has_errors, parse_policy)
from ..sack.policy.model import RuleOp
from ..vehicle.devices import IOCTL_SYMBOLS


def _load(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_policy(handle.read())


def cmd_check(args) -> int:
    policy = _load(args.policy)
    diagnostics = check_policy(policy)
    for diag in diagnostics:
        print(diag)
    if has_errors(diagnostics):
        print(f"{policy.name}: FAILED "
              f"({sum(d.severity.value == 'error' for d in diagnostics)} "
              f"error(s))")
        return 1
    print(f"{policy.name}: OK ({len(diagnostics)} warning(s))")
    return 0


def cmd_verify(args) -> int:
    import json as _json

    from ..verify import SolverUnavailable, verify_policy

    if args.policy:
        with open(args.policy, "r", encoding="utf-8") as handle:
            policy_text = handle.read()
        source = args.policy
    else:
        from ..vehicle.ivi import DEFAULT_SACK_POLICY
        policy_text = DEFAULT_SACK_POLICY
        source = "built-in IVI policy"
    try:
        report = verify_policy(policy_text, ioctl_symbols=IOCTL_SYMBOLS,
                               properties=args.property or None,
                               solver=args.solver)
    except SolverUnavailable as exc:
        print(f"error: {exc}")
        return 2
    if args.json:
        print(_json.dumps(report.to_dict(), indent=2))
    else:
        print(f"verifying {source}")
        for line in report.summary_lines():
            print(line)
    # Status/side-channel output goes to stderr under --json so stdout
    # stays parseable (same convention as ``sackctl chaos --json``).
    out = sys.stderr if args.json else sys.stdout
    if args.export:
        doc = {"policy": source,
               "counterexamples": [cex.to_dict()
                                   for cex in report.counterexamples]}
        with open(args.export, "w", encoding="utf-8") as handle:
            _json.dump(doc, handle, indent=2)
            handle.write("\n")
        print(f"{len(doc['counterexamples'])} counterexample(s) "
              f"exported to {args.export}", file=out)
    if args.replay and report.counterexamples:
        from ..verify import replay_counterexample
        print("replaying counterexample(s) on a live kernel:", file=out)
        for cex in report.counterexamples:
            result = replay_counterexample(cex, policy_text)
            status = "CONFIRMED" if result.confirmed else "NOT confirmed"
            print(f"  {cex.property_id}: {status} — {result.detail}",
                  file=out)
    return 0 if report.ok else 1


def cmd_format(args) -> int:
    print(format_policy(_load(args.policy)), end="")
    return 0


def cmd_compile(args) -> int:
    policy = _load(args.policy)
    compiled = compile_policy(policy, ioctl_symbols=IOCTL_SYMBOLS)
    for state in sorted(compiled.rulesets):
        ruleset = compiled.rulesets[state]
        marker = " (initial)" if state == policy.initial else ""
        print(f"state {state}{marker}: {ruleset.rule_count} rules")
        for table, label in ((ruleset.deny_by_op, "deny"),
                             (ruleset.allow_by_op, "allow")):
            for op in sorted(table, key=lambda o: o.value):
                for rule in table[op]:
                    print(f"  {label} {op.value} {rule.source.path_glob}"
                          + (f" subject={rule.source.subject}"
                             if rule.source.subject else "")
                          + (f" cmds={sorted(rule.cmds)}"
                             if rule.cmds else ""))
    return 0


def cmd_simulate(args) -> int:
    policy = _load(args.policy)
    compile_policy(policy, ioctl_symbols=IOCTL_SYMBOLS)  # validate
    ssm = policy.build_ssm()
    print(f"initial: {ssm.current_name}")
    for name in args.event or []:
        transition = ssm.process_event(SituationEvent(name=name))
        if transition is None:
            print(f"  {name}: ignored (still {ssm.current_name})")
        else:
            print(f"  {name}: {transition.from_state} -> "
                  f"{transition.to_state}")
    stats = ssm.stats()
    print(f"final: {ssm.current_name} "
          f"({stats['transitions']} transitions, "
          f"{stats['events_ignored']} ignored)")
    return 0


def cmd_graph(args) -> int:
    policy = _load(args.policy)
    ssm = policy.build_ssm()
    print(ssm.to_dot(title=policy.name))
    return 0


def cmd_query(args) -> int:
    policy = _load(args.policy)
    compiled = compile_policy(policy, ioctl_symbols=IOCTL_SYMBOLS)
    state = args.state or policy.initial
    try:
        ruleset = compiled.ruleset_for(state)
    except KeyError as exc:
        print(exc)
        return 2
    op = RuleOp(args.op)
    cmd = None
    if args.cmd is not None:
        cmd = IOCTL_SYMBOLS.get(args.cmd)
        if cmd is None:
            if not args.cmd.isdigit():
                print(f"unknown ioctl command {args.cmd!r}")
                return 2
            cmd = int(args.cmd)
    allowed = ruleset.check(op, args.path, args.subject or "", cmd)
    print(f"state={state} op={op.value} path={args.path}"
          + (f" subject={args.subject}" if args.subject else "")
          + (f" cmd={args.cmd}" if args.cmd else "")
          + f" -> {'ALLOW' if allowed else 'DENY'}")
    return 0 if allowed else 1


def _boot_observed_world(policy_path: str):
    """Boot independent SACK + SACKfs + tracefs for the obs subcommands."""
    from ..kernel import user_credentials
    from ..lsm import boot_kernel
    from ..obs import mount_tracefs
    from ..sack import SackFs, SackLsm

    sack = SackLsm()
    kernel, _ = boot_kernel([sack])
    sackfs = SackFs(kernel, sack, authorized_event_uids={990},
                    ioctl_symbols=IOCTL_SYMBOLS)
    with open(policy_path, "r", encoding="utf-8") as handle:
        policy_text = handle.read()
    kernel.write_file(kernel.procs.init,
                      "/sys/kernel/security/SACK/policy",
                      policy_text.encode(), create=False)
    mount_tracefs(kernel)

    sds = kernel.sys_fork(kernel.procs.init)
    sds.comm = "sds"
    sds.cred = user_credentials(990)
    app = kernel.sys_fork(kernel.procs.init)
    app.comm = "app"
    app.cred = user_credentials(1000)
    return kernel, sack, sds, app


def _build_fleet(args, policy_text: Optional[str] = None, **overrides):
    """Assemble a Fleet from the shared fleet CLI knobs."""
    from ..fleet import Fleet, FleetConfig
    config = FleetConfig(
        n_vehicles=getattr(args, "vehicles", None)
        or getattr(args, "fleet_size", 10),
        seed=getattr(args, "fleet_seed", None)
        if getattr(args, "fleet_seed", None) is not None
        else getattr(args, "seed", 0),
        workers=getattr(args, "workers", 1),
        backend=getattr(args, "backend", None) or "serial",
        policy_text=policy_text,
        **overrides)
    return Fleet(config)


def _boot_observed_target(args):
    """The kernel the obs subcommands run against.

    Without ``--kernel``: one standalone booted kernel (as before).
    With ``--kernel <vehicle-id>``: boot a fleet of ``--fleet-size``
    vehicle kernels, run ``--fleet-epochs`` epochs of traffic, and
    return the selected vehicle's kernel with its own sds/app tasks.
    Returns ``(kernel, sds_task, app_task, fleet_or_none)``.
    """
    if getattr(args, "kernel", None) is None:
        kernel, _sack, sds, app = _boot_observed_world(args.policy)
        return kernel, sds, app, None
    from ..obs import mount_tracefs
    with open(args.policy, "r", encoding="utf-8") as handle:
        policy_text = handle.read()
    fleet = _build_fleet(args, policy_text=policy_text)
    vehicle = fleet.vehicles.get(args.kernel)
    if vehicle is None:
        raise ValueError(
            f"no vehicle {args.kernel!r} in this fleet; "
            f"ids: {', '.join(fleet.ids)}")
    kernel = vehicle.world.kernel
    if not kernel.vfs.exists("/sys/kernel/tracing/trace"):
        mount_tracefs(kernel)
    return kernel, vehicle.world.task("sds"), \
        vehicle.world.task("media_app"), fleet


def _warm_fleet(fleet, args) -> None:
    """Run the selected fleet briefly so cross-vehicle traffic exists."""
    if fleet is None:
        return
    epochs = getattr(args, "fleet_epochs", 3)
    if epochs > 0 and len(fleet.ids) > 1:
        # Crash the lead vehicle so V2X alerts actually cross kernels.
        from ..fleet.orchestrator import ScriptedDriver
        fleet.driver = ScriptedDriver([(1, fleet.ids[0], "crash")])
    fleet.run(max(0, epochs))


def _drive(kernel, sds, app, events, accesses) -> List[str]:
    """Feed events and accesses in order; returns outcome lines."""
    from ..kernel import KernelError, OpenFlags

    log: List[str] = []
    for name in events or []:
        kernel.clock.advance_ns(1_000_000)
        try:
            kernel.write_file(sds, "/sys/kernel/security/SACK/events",
                              f"{name}\n".encode(), create=False)
            log.append(f"event {name}: delivered")
        except KernelError as exc:
            log.append(f"event {name}: rejected ({exc})")
    for spec in accesses or []:
        parts = spec.split(":")
        if (len(parts) < 2 or parts[0] not in ("read", "write", "ioctl")
                or not parts[1].startswith("/")):
            raise ValueError(f"bad --access {spec!r}; "
                             f"use op:/abs/path[:ioctl_cmd]")
        op, path = parts[0], parts[1]
        if not kernel.vfs.exists(path):
            parent = path.rsplit("/", 1)[0]
            if parent:
                kernel.vfs.makedirs(parent)
            kernel.vfs.create_file(path, mode=0o666)
        kernel.clock.advance_ns(1_000_000)
        try:
            if op == "read":
                fd = kernel.sys_open(app, path, OpenFlags.O_RDONLY)
                kernel.sys_read(app, fd, 16)
            elif op == "write":
                fd = kernel.sys_open(app, path, OpenFlags.O_WRONLY)
                kernel.sys_write(app, fd, b"x")
            else:
                cmd_name = parts[2] if len(parts) > 2 else "0"
                cmd = IOCTL_SYMBOLS.get(cmd_name,
                                        int(cmd_name)
                                        if cmd_name.isdigit() else None)
                if cmd is None:
                    raise ValueError(f"unknown ioctl command {cmd_name!r}")
                fd = kernel.sys_open(app, path, OpenFlags.O_RDONLY)
                kernel.sys_ioctl(app, fd, cmd, 0)
            kernel.sys_close(app, fd)
            log.append(f"access {spec}: ALLOWED")
        except KernelError as exc:
            log.append(f"access {spec}: DENIED ({exc})")
    return log


def cmd_trace(args) -> int:
    kernel, sds, app, fleet = _boot_observed_target(args)
    kernel.obs.enable_all_recording()
    if args.syscalls:
        kernel.instrument_syscalls()
    _warm_fleet(fleet, args)
    for line in _drive(kernel, sds, app, args.event, args.access):
        print(line)
    print()
    # Dogfood the pseudo-file rather than reaching into the hub.
    print(kernel.read_file(kernel.procs.init,
                           "/sys/kernel/tracing/trace").decode(), end="")
    return 0


def cmd_audit(args) -> int:
    kernel, sds, app, fleet = _boot_observed_target(args)
    _warm_fleet(fleet, args)
    for line in _drive(kernel, sds, app, args.event, args.access):
        print(line)
    print()
    text = kernel.read_file(kernel.procs.init,
                            "/sys/kernel/security/SACK/audit").decode()
    print(text if text.strip() else "(no audit records)", end="" if
          text.strip() else "\n")
    return 0


def cmd_spans(args) -> int:
    kernel, sds, app, fleet = _boot_observed_target(args)
    # Dogfood the tracefs control file rather than reaching into the hub.
    kernel.write_file(kernel.procs.init,
                      "/sys/kernel/tracing/SACK/spans/enable", b"1",
                      create=False)
    _warm_fleet(fleet, args)
    log = _drive(kernel, sds, app, args.event, args.access)
    read = lambda p: kernel.read_file(kernel.procs.init, p).decode()
    if args.chrome:
        print(read("/sys/kernel/tracing/SACK/spans/chrome"), end="")
        return 0
    if args.folded:
        print(read("/sys/kernel/tracing/SACK/spans/folded"), end="")
        return 0
    for line in log:
        print(line)
    print()
    text = read("/sys/kernel/tracing/SACK/spans/trace")
    print(text if text.strip() else "(no spans recorded)",
          end="" if text.strip() else "\n")
    print()
    print(read("/sys/kernel/tracing/SACK/spans/breakdown"), end="")
    return 0


def cmd_avc(args) -> int:
    kernel, sds, app, fleet = _boot_observed_target(args)
    # Dogfood the tracefs control files rather than reaching into the
    # framework object.
    root = "/sys/kernel/tracing/SACK/avc"
    if args.disable:
        kernel.write_file(kernel.procs.init, f"{root}/enable", b"0",
                          create=False)
    _warm_fleet(fleet, args)
    for line in _drive(kernel, sds, app, args.event, args.access):
        print(line)
    if args.flush:
        kernel.write_file(kernel.procs.init, f"{root}/flush", b"1",
                          create=False)
    print()
    print(kernel.read_file(kernel.procs.init, f"{root}/stats").decode(),
          end="")
    return 0


def cmd_dtable(args) -> int:
    kernel, sds, app, fleet = _boot_observed_target(args)
    # Dogfood the tracefs control files rather than reaching into the
    # framework object.
    root = "/sys/kernel/tracing/SACK/dtable"
    kernel.write_file(kernel.procs.init, f"{root}/enable", b"1",
                      create=False)
    _warm_fleet(fleet, args)
    for line in _drive(kernel, sds, app, args.event, args.access):
        print(line)
    print()
    print(kernel.read_file(kernel.procs.init, f"{root}/stats").decode(),
          end="")
    if args.avc:
        print()
        print(kernel.read_file(
            kernel.procs.init,
            "/sys/kernel/tracing/SACK/avc/stats").decode(), end="")
    return 0


def _parse_seeds(spec: str) -> List[int]:
    """``"7"`` -> [7]; ``"1..5"`` -> [1, 2, 3, 4, 5]."""
    if ".." in spec:
        lo, _, hi = spec.partition("..")
        first, last = int(lo), int(hi)
        if last < first:
            raise ValueError(f"bad seed range {spec!r}")
        return list(range(first, last + 1))
    return [int(spec)]


def cmd_chaos(args) -> int:
    import json as _json

    from ..faults import chaos

    seeds = _parse_seeds(args.seed)
    reports = chaos.run_soak(seeds, ticks=args.ticks, mode=args.mode,
                             intensity=args.intensity,
                             dtable=getattr(args, "dtable", False))
    if args.json:
        print(_json.dumps([r.to_dict() for r in reports], indent=2))
    else:
        for report in reports:
            for line in report.summary_lines():
                print(line)
    # Status goes to stderr under --json so stdout stays parseable.
    out = sys.stderr if args.json else sys.stdout
    failed = [r for r in reports if not r.ok]
    if failed:
        print(f"chaos: {len(failed)}/{len(reports)} seed(s) violated "
              f"fail-closed invariants", file=out)
        return 1
    print(f"chaos: {len(reports)} seed(s), all fail-closed invariants held",
          file=out)
    return 0


def _fleet_policy_text(args) -> Optional[str]:
    if getattr(args, "policy", None):
        with open(args.policy, "r", encoding="utf-8") as handle:
            return handle.read()
    return None


def _fleet_bundle(fleet, version: int):
    """A fully signed bundle carrying the fleet's running policy."""
    from ..fleet.bundle import BundleSigner, make_bundle
    from ..vehicle.ivi import DEFAULT_SACK_POLICY
    policy_text = fleet.config.policy_text or DEFAULT_SACK_POLICY
    return make_bundle(version, policy_text,
                       signer=BundleSigner(fleet.config.fleet_key))


def _print_vehicle_rows(fleet, only: Optional[str] = None) -> None:
    sup = fleet.supervisor
    print(f"{'vehicle':<8} {'situation':<24} {'bundle':<7} "
          f"{'online':<7} {'state':<12} {'crashes':<8} "
          f"{'denials':<8} events")
    for vid in fleet.ids:
        if only is not None and vid != only:
            continue
        # Route through the host so the rows work no matter where the
        # vehicle lives (coordinator thread or a worker process).
        health = fleet.host.health_snapshot(vid)
        bundle = health["bundle_version"]
        status = sup.status[vid]
        print(f"{vid:<8} {health['situation']:<24} "
              f"{'v%s' % bundle if bundle is not None else 'boot':<7} "
              f"{'yes' if health['online'] else 'NO':<7} "
              f"{status.state:<12} {status.crashes:<8} "
              f"{health['denials']:<8} "
              f"{health['events_accepted']}+{health['events_rejected']}rej")


def _parsed_slos(args) -> Tuple:
    from ..fleet import parse_slo
    return tuple(parse_slo(spec) for spec in (args.slo or []))


def cmd_fleet_status(args) -> int:
    overrides = {}
    if getattr(args, "telemetry", False):
        overrides["telemetry"] = True
    with _build_fleet(args, policy_text=_fleet_policy_text(args),
                      **overrides) as fleet:
        if args.kernel is not None and args.kernel not in fleet.ids:
            raise ValueError(f"no vehicle {args.kernel!r}; "
                             f"ids: {', '.join(fleet.ids)}")
        result = fleet.run(args.epochs)
        if getattr(args, "format", None) == "json":
            # The uniform bench envelope (schema sack-bench/v1)
            # dashboards and CI already parse.
            import json as _json
            from ..bench.envelope import make_envelope
            print(_json.dumps(make_envelope("fleet-status",
                                            result.report.to_dict(),
                                            seed=fleet.config.seed),
                              indent=2))
            return 0 if result.ok else 1
        if args.json:
            import json as _json
            print(_json.dumps(result.report.to_dict(), indent=2))
            return 0 if result.ok else 1
        for line in result.report.summary_lines():
            print(line)
        print()
        _print_vehicle_rows(fleet, only=args.kernel)
        return 0 if result.ok else 1


def _render_fleet_top(fleet, top_n: int) -> List[str]:
    """One dashboard frame over a telemetry-enabled fleet."""
    tel = fleet.telemetry
    agg = tel.aggregator
    sup = fleet.supervisor
    epoch = fleet.epoch_index - 1
    report_vps = (fleet.config.n_vehicles * fleet.epoch_index
                  / (fleet.compute_makespan_ns / 1e9)
                  if fleet.compute_makespan_ns else 0.0)
    lines = [
        f"sack fleet top — epoch {fleet.epoch_index}, seed "
        f"{fleet.config.seed}, {fleet.config.n_vehicles} vehicle(s), "
        f"{fleet.config.workers} worker(s)",
        f"  throughput {report_vps:.0f} vehicle-epochs/s | telemetry "
        f"{agg.frames_total} frame(s), {agg.series_tracked} series"
        + (f", {sum(agg.series_dropped.values())} dropped"
           if agg.series_dropped else ""),
    ]
    health = {vid: fleet.host.health_snapshot(vid) for vid in fleet.ids}
    situations: dict = {}
    for vid in fleet.ids:
        name = health[vid]["situation"] or "?"
        situations[name] = situations.get(name, 0) + 1
    states: dict = {}
    for vid in fleet.ids:
        state = sup.status[vid].state
        states[state] = states.get(state, 0) + 1
    online = sum(1 for vid in fleet.ids if health[vid]["online"])
    lines.append("  situations: " + ", ".join(
        f"{k}={v}" for k, v in sorted(situations.items()))
        + f" | vehicles: " + ", ".join(
            f"{k}={v}" for k, v in sorted(states.items()))
        + f" | online {online}/{len(fleet.ids)}")
    lines.append("")
    lines.append(f"  {'SLO':<32} {'scope':<8} {'measured':>10} "
                 f"{'burn s/l':>15} state")
    live = tuple(vid for vid in fleet.ids if not sup.is_dead(vid))
    for row in tel.engine.status_rows(epoch, live):
        measured = row["measured_short"]
        lines.append(
            f"  {row['objective']:<32} {row['scope']:<8} "
            f"{'-' if measured is None else '%g' % measured:>10} "
            f"{'%g/%g' % (row['burn_short'], row['burn_long']):>15} "
            f"{row['state']}")
    top = agg.top_series("lsm_denials_total", epoch,
                         agg.long_window, n=top_n)
    lines.append("")
    if top:
        lines.append(f"  top denial series (last {agg.long_window} "
                     f"epoch(s)):")
        for key, total in top:
            lines.append(f"    {key:<56} {total:g}")
    else:
        lines.append("  no denials in the current window")
    return lines


def cmd_fleet_top(args) -> int:
    overrides = {"telemetry": True,
                 "telemetry_short_window_epochs": args.short_window,
                 "telemetry_long_window_epochs": args.long_window}
    slos = _parsed_slos(args)
    if slos:
        overrides["slos"] = slos
    fleet = _build_fleet(args, policy_text=_fleet_policy_text(args),
                         **overrides)
    refresh = max(1, args.refresh)
    clear = sys.stdout.isatty() and not args.once
    while fleet.epoch_index < args.epochs:
        fleet.run(min(refresh, args.epochs - fleet.epoch_index))
        if args.once and fleet.epoch_index < args.epochs:
            continue
        if clear:
            print("\x1b[2J\x1b[H", end="")
        for line in _render_fleet_top(fleet, args.top):
            print(line)
        print()
        _print_vehicle_rows(fleet)
        print()
    alerts = fleet.telemetry.engine.alerts_total
    if alerts:
        print(f"{alerts} SLO alert(s) fired")
    return 0


def cmd_fleet_metrics(args) -> int:
    overrides = {"telemetry": True}
    slos = _parsed_slos(args)
    if slos:
        overrides["slos"] = slos
    fleet = _build_fleet(args, policy_text=_fleet_policy_text(args),
                         **overrides)
    fleet.run(args.epochs)
    print(fleet.telemetry.aggregator.to_openmetrics(), end="")
    return 0


def cmd_fleet_rollout(args) -> int:
    from ..faults import points as fault_points
    overrides = {}
    if getattr(args, "slo_breach", False):
        # Arm an impossible objective over the telemetry pipeline: no
        # fleet sustains a million heartbeats/s, so the burn-rate alert
        # fires once the windows fill and the canary health gate trips.
        from ..fleet import parse_slo
        overrides.update(
            telemetry=True,
            slos=(parse_slo("heartbeat_rate>=1000000"),),
            telemetry_short_window_epochs=2,
            telemetry_long_window_epochs=3)
    fleet = _build_fleet(args, policy_text=_fleet_policy_text(args),
                         **overrides)
    bundle = _fleet_bundle(fleet, version=args.bundle_version)
    if args.fail_canary:
        # The canary's first apply fails once; the health gate trips and
        # the controller walks the whole fleet back automatically.
        fleet.arm_vehicle_fault(fleet.ids[0],
                                fault_points.FLEET_BUNDLE_APPLY_FAIL,
                                probability=1.0, times=1)
    from ..fleet.rollout import ProofRefusedError
    try:
        fleet.stage_rollout(bundle)
    except ProofRefusedError as exc:
        # The static proof gate refused the bundle before any vehicle —
        # canary included — was offered it.
        print(f"staging {bundle.describe()}")
        print(f"REFUSED before canary: {exc}")
        decision = exc.decision
        if decision is not None and decision.report is not None:
            for line in decision.report.summary_lines():
                print(f"  {line}")
        for line in fleet.controller.status_lines():
            print(line)
        return 1
    result = fleet.run(args.epochs)
    print(f"staged {bundle.describe()}")
    for epoch, message in fleet.controller.history:
        print(f"  epoch {epoch}: {message}")
    state = fleet.controller.state.value
    print(f"final: {state}")
    _print_vehicle_rows(fleet)
    telemetry = result.report.telemetry
    if telemetry:
        slo = telemetry.get("slo", {})
        print(f"telemetry: {slo.get('alerts_total', 0)} SLO alert(s)")
    if result.report.violations:
        for violation in result.report.violations:
            print(f"VIOLATION: {violation}")
        return 1
    expected = "rolled_back" \
        if (args.fail_canary or getattr(args, "slo_breach", False)) \
        else "complete"
    return 0 if state == expected else 1


def cmd_fleet_rollback(args) -> int:
    fleet = _build_fleet(args, policy_text=_fleet_policy_text(args))
    fleet.stage_rollout(_fleet_bundle(fleet, version=args.bundle_version))
    fleet.run(max(1, args.epochs // 2))
    print(f"aborting rollout at epoch {fleet.epoch_index} "
          f"(state {fleet.controller.state.value})")
    fleet.controller.abort()
    result = fleet.run(args.epochs - max(1, args.epochs // 2))
    for epoch, message in fleet.controller.history:
        print(f"  epoch {epoch}: {message}")
    print(f"final: {fleet.controller.state.value}")
    _print_vehicle_rows(fleet)
    return 0 if result.ok else 1


def cmd_fleet_bus(args) -> int:
    from ..fleet.orchestrator import ScriptedDriver
    fleet = _build_fleet(args, policy_text=_fleet_policy_text(args))
    crash_at = min(1, max(0, args.epochs - 1))
    driver = ScriptedDriver([(crash_at, fleet.ids[0], "crash")])
    if args.epochs > 4:
        driver.at(args.epochs - 2, fleet.ids[0], "clear")
    fleet.driver = driver
    result = fleet.run(args.epochs)
    for record in fleet.bus.tail(args.lines):
        print(record.to_line())
    print()
    stats = fleet.bus.stats_dict()
    print("bus: " + ", ".join(f"{k}={v}" for k, v in sorted(stats.items())))
    return 0 if result.ok else 1


def cmd_fleet_checkpoint(args) -> int:
    fleet = _build_fleet(
        args, policy_text=_fleet_policy_text(args),
        always_checkpoint=True,
        checkpoint_interval_epochs=args.interval)
    result = fleet.run(args.epochs)
    rows = fleet.host.checkpoint_rows()
    print(f"{len(rows)} vehicle checkpoint(s) after {args.epochs} "
          f"epoch(s), interval {args.interval} "
          f"(epoch -1 = boot baseline)")
    print(f"{'vehicle':<8} {'epoch':<6} digest")
    for row in rows:
        print(f"{row['vehicle']:<8} {row['epoch']:<6} "
              f"{str(row['digest'])[:16]}")
    return 0 if result.ok else 1


def _run_restore_once(args):
    """One seeded crash-and-recover run; returns (fleet, result, events)."""
    from ..obs import tracepoints as tp_names
    fleet = _build_fleet(
        args, policy_text=_fleet_policy_text(args),
        checkpoint_interval_epochs=args.interval,
        max_restarts=args.max_restarts)
    victim = args.vehicle or fleet.ids[0]
    if victim not in fleet.ids:
        raise ValueError(f"no vehicle {victim!r}; "
                         f"ids: {', '.join(fleet.ids)}")
    events: List[Tuple[str, dict]] = []
    reg = fleet.obs.tracepoints
    for name in (tp_names.FLEET_CRASH_TP, tp_names.FLEET_RESTORE_TP,
                 tp_names.FLEET_QUARANTINE_TP):
        reg.attach(name, lambda n, fields: events.append((n, dict(fields))))
    crash_epoch = max(0, min(args.crash_epoch, args.epochs - 1))
    fleet.force_crash(victim, epoch=crash_epoch)
    result = fleet.run(args.epochs)
    return fleet, result, events


def cmd_fleet_restore(args) -> int:
    fleet, result, events = _run_restore_once(args)
    print("recovery timeline:")
    for name, fields in events:
        rendered = ", ".join(f"{k}={fields[k]}" for k in sorted(fields))
        print(f"  {name}: {rendered}")
    if not events:
        print("  (no crash fired; epochs may be too few)")
    print()
    for line in result.report.summary_lines():
        print(line)
    print()
    _print_vehicle_rows(fleet)
    if args.double_run:
        first = result.report.fingerprint()
        _, second_result, _ = _run_restore_once(args)
        second = second_result.report.fingerprint()
        print()
        print(f"run 1 fingerprint {first}")
        print(f"run 2 fingerprint {second}")
        if first != second:
            print("FINGERPRINT MISMATCH: recovery is not deterministic")
            return 1
        print("fingerprints identical: recovery is deterministic")
    return 0 if result.ok else 1


def _add_kernel_selector(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kernel", metavar="VEHICLE_ID",
                        help="inspect this vehicle's kernel inside a "
                             "booted fleet instead of a standalone one")
    parser.add_argument("--fleet-size", type=int, default=3,
                        help="fleet size for --kernel (default: 3)")
    parser.add_argument("--fleet-seed", type=int, default=0,
                        help="fleet seed for --kernel (default: 0)")
    parser.add_argument("--fleet-epochs", type=int, default=3,
                        help="epochs of fleet traffic to run before "
                             "driving events/accesses (default: 3)")


def _add_fleet_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--vehicles", type=int, default=10,
                        help="fleet size (default: 10)")
    parser.add_argument("--seed", type=int, default=0,
                        help="fleet seed (default: 0)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker pool size (default: 1)")
    parser.add_argument("--backend",
                        choices=["serial", "process"],
                        default="serial",
                        help="epoch scheduler backend (default: serial; "
                             "both are bit-identical)")
    parser.add_argument("--epochs", type=int, default=12,
                        help="epochs to run (default: 12)")
    parser.add_argument("--policy", help="policy file for every vehicle "
                                         "(default: built-in IVI policy)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sackctl",
        description="SACK policy administration tool")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="validate a policy file")
    p_check.add_argument("policy")
    p_check.set_defaults(func=cmd_check)

    p_verify = sub.add_parser(
        "verify", help="statically model-check a policy against the "
                       "cross-state safety properties")
    p_verify.add_argument("policy", nargs="?",
                          help="policy file (default: built-in IVI "
                               "policy)")
    p_verify.add_argument("--property", action="append", metavar="ID",
                          help="check only this property (repeatable; "
                               "e.g. P2 or P2:koffee-unreachable)")
    p_verify.add_argument("--solver", default="exhaustive",
                          help="solver backend (default: exhaustive)")
    p_verify.add_argument("--json", action="store_true",
                          help="emit the full report as JSON")
    p_verify.add_argument("--export", metavar="FILE",
                          help="write counterexample traces to FILE as "
                               "JSON")
    p_verify.add_argument("--replay", action="store_true",
                          help="execute each counterexample against a "
                               "live kernel and report whether it "
                               "reproduces")
    p_verify.set_defaults(func=cmd_verify)

    p_format = sub.add_parser("format", help="print canonical form")
    p_format.add_argument("policy")
    p_format.set_defaults(func=cmd_format)

    p_compile = sub.add_parser("compile",
                               help="show per-state compiled rulesets")
    p_compile.add_argument("policy")
    p_compile.set_defaults(func=cmd_compile)

    p_sim = sub.add_parser("simulate",
                           help="drive the state machine through events")
    p_sim.add_argument("policy")
    p_sim.add_argument("-e", "--event", action="append",
                       help="event name (repeatable, in order)")
    p_sim.set_defaults(func=cmd_simulate)

    p_graph = sub.add_parser("graph",
                             help="emit the state machine as Graphviz DOT")
    p_graph.add_argument("policy")
    p_graph.set_defaults(func=cmd_graph)

    p_query = sub.add_parser("query", help="evaluate one access")
    p_query.add_argument("policy")
    p_query.add_argument("--state", help="situation state "
                                         "(default: initial)")
    p_query.add_argument("--op", required=True,
                         choices=[op.value for op in RuleOp])
    p_query.add_argument("--path", required=True)
    p_query.add_argument("--subject")
    p_query.add_argument("--cmd", help="ioctl command name or number")
    p_query.set_defaults(func=cmd_query)

    p_trace = sub.add_parser(
        "trace", help="run events/accesses in a booted kernel and dump "
                      "the tracefs ring buffer")
    p_trace.add_argument("policy")
    p_trace.add_argument("-e", "--event", action="append",
                         help="event name (repeatable, in order)")
    p_trace.add_argument("--access", action="append",
                         help="op:path[:ioctl_cmd] (repeatable, in order)")
    p_trace.add_argument("--syscalls", action="store_true",
                         help="also record syscall exits with latency "
                              "(entry events are always traced)")
    _add_kernel_selector(p_trace)
    p_trace.set_defaults(func=cmd_trace)

    p_audit = sub.add_parser(
        "audit", help="run events/accesses in a booted kernel and dump "
                      "the audit records")
    p_audit.add_argument("policy")
    p_audit.add_argument("-e", "--event", action="append",
                         help="event name (repeatable, in order)")
    p_audit.add_argument("--access", action="append",
                         help="op:path[:ioctl_cmd] (repeatable, in order)")
    _add_kernel_selector(p_audit)
    p_audit.set_defaults(func=cmd_audit)

    p_spans = sub.add_parser(
        "spans", help="run events/accesses with the causal span tracer on "
                      "and dump span trees + latency breakdown")
    p_spans.add_argument("policy")
    p_spans.add_argument("-e", "--event", action="append",
                         help="event name (repeatable, in order)")
    p_spans.add_argument("--access", action="append",
                         help="op:path[:ioctl_cmd] (repeatable, in order)")
    p_spans.add_argument("--chrome", action="store_true",
                         help="emit Chrome trace-event JSON instead")
    p_spans.add_argument("--folded", action="store_true",
                         help="emit folded flamegraph stacks instead")
    _add_kernel_selector(p_spans)
    p_spans.set_defaults(func=cmd_spans)

    p_avc = sub.add_parser(
        "avc", help="run events/accesses in a booted kernel and dump the "
                    "access-vector-cache counters")
    p_avc.add_argument("policy")
    p_avc.add_argument("-e", "--event", action="append",
                       help="event name (repeatable, in order)")
    p_avc.add_argument("--access", action="append",
                       help="op:path[:ioctl_cmd] (repeatable, in order)")
    p_avc.add_argument("--disable", action="store_true",
                       help="run with the cache off (baseline comparison)")
    p_avc.add_argument("--flush", action="store_true",
                       help="flush the cache after the workload, before "
                            "dumping stats")
    _add_kernel_selector(p_avc)
    p_avc.set_defaults(func=cmd_avc)

    p_dtable = sub.add_parser(
        "dtable", help="run events/accesses with the precompiled decision "
                       "table on and dump its counters")
    p_dtable.add_argument("policy")
    p_dtable.add_argument("-e", "--event", action="append",
                          help="event name (repeatable, in order)")
    p_dtable.add_argument("--access", action="append",
                          help="op:path[:ioctl_cmd] (repeatable, in order)")
    p_dtable.add_argument("--avc", action="store_true",
                          help="also dump the AVC counters (what the table "
                               "kept off the cache path)")
    _add_kernel_selector(p_dtable)
    p_dtable.set_defaults(func=cmd_dtable)

    p_chaos = sub.add_parser(
        "chaos", help="seeded fault-injection scenarios with fail-closed "
                      "invariant checks")
    p_chaos.add_argument("--seed", default="1",
                         help="seed or inclusive range 'A..B' "
                              "(default: 1)")
    p_chaos.add_argument("--ticks", type=int, default=200,
                         help="scenario length in ticks (default: 200)")
    p_chaos.add_argument("--mode", default="independent",
                         choices=["independent", "apparmor"],
                         help="enforcement backend (default: independent)")
    p_chaos.add_argument("--intensity", type=float, default=0.05,
                         help="max per-point fault probability "
                              "(default: 0.05)")
    p_chaos.add_argument("--json", action="store_true",
                         help="emit one JSON report per seed")
    p_chaos.add_argument("--dtable", action="store_true",
                         help="run with the precompiled decision table "
                              "enabled (exercises invariant I11)")
    p_chaos.set_defaults(func=cmd_chaos)

    p_fleet = sub.add_parser(
        "fleet", help="multi-vehicle fleet orchestration: status, staged "
                      "OTA rollout/rollback, V2X bus")
    fleet_sub = p_fleet.add_subparsers(dest="fleet_command", required=True)

    pf_status = fleet_sub.add_parser(
        "status", help="run a seeded fleet and print the roll-up")
    _add_fleet_common(pf_status)
    pf_status.add_argument("--kernel", metavar="VEHICLE_ID",
                           help="only show this vehicle's row")
    pf_status.add_argument("--json", action="store_true",
                           help="emit the report as JSON")
    pf_status.add_argument("--format", choices=["text", "json"],
                           default=None,
                           help="json = wrap the report in the uniform "
                                "sack-bench/v1 envelope")
    pf_status.add_argument("--telemetry", action="store_true",
                           help="run with the streaming telemetry "
                                "pipeline enabled")
    pf_status.set_defaults(func=cmd_fleet_status)

    pf_top = fleet_sub.add_parser(
        "top", help="live fleet dashboard: throughput, per-state "
                    "counts, SLO/burn status, top denial series")
    _add_fleet_common(pf_top)
    pf_top.add_argument("--refresh", type=int, default=4,
                        help="epochs per dashboard refresh (default: 4)")
    pf_top.add_argument("--top", type=int, default=5,
                        help="top-N denial series to show (default: 5)")
    pf_top.add_argument("--once", action="store_true",
                        help="render only the final frame (CI-friendly)")
    pf_top.add_argument("--slo", action="append", metavar="SPEC",
                        help="objective like 'denial_rate<=200' "
                             "(repeatable; default: built-in set)")
    pf_top.add_argument("--short-window", type=int, default=3,
                        help="short burn window in epochs (default: 3)")
    pf_top.add_argument("--long-window", type=int, default=12,
                        help="long burn window in epochs (default: 12)")
    pf_top.set_defaults(func=cmd_fleet_top)

    pf_metrics = fleet_sub.add_parser(
        "metrics", help="run a telemetry-enabled fleet and dump the "
                        "whole-fleet OpenMetrics exposition")
    _add_fleet_common(pf_metrics)
    pf_metrics.add_argument("--slo", action="append", metavar="SPEC",
                            help="objective like 'denial_rate<=200' "
                                 "(repeatable)")
    pf_metrics.set_defaults(func=cmd_fleet_metrics)

    pf_rollout = fleet_sub.add_parser(
        "rollout", help="staged OTA policy rollout (canary -> waves -> "
                        "full) with health gating")
    _add_fleet_common(pf_rollout)
    pf_rollout.add_argument("--bundle-version", type=int, default=1,
                            help="version to stage (default: 1)")
    pf_rollout.add_argument("--fail-canary", action="store_true",
                            help="inject a canary apply failure and show "
                                 "the automatic fleet-wide rollback")
    pf_rollout.add_argument("--slo-breach", action="store_true",
                            help="arm an impossible SLO so a burn-rate "
                                 "alert aborts the canary (telemetry "
                                 "path demo)")
    pf_rollout.set_defaults(func=cmd_fleet_rollout)

    pf_rollback = fleet_sub.add_parser(
        "rollback", help="operator abort mid-rollout; fleet reverts to "
                         "the committed bundle")
    _add_fleet_common(pf_rollback)
    pf_rollback.add_argument("--bundle-version", type=int, default=1,
                             help="version to stage then abort "
                                  "(default: 1)")
    pf_rollback.set_defaults(func=cmd_fleet_rollback)

    pf_bus = fleet_sub.add_parser(
        "bus", help="crash one vehicle and tail the V2X bus")
    _add_fleet_common(pf_bus)
    pf_bus.add_argument("--lines", type=int, default=50,
                        help="tail length (default: 50)")
    pf_bus.set_defaults(func=cmd_fleet_bus)

    pf_ckpt = fleet_sub.add_parser(
        "checkpoint", help="run a fleet with periodic vehicle "
                           "checkpoints on and print the store")
    _add_fleet_common(pf_ckpt)
    pf_ckpt.add_argument("--interval", type=int, default=4,
                         help="epochs between checkpoints (default: 4)")
    pf_ckpt.set_defaults(func=cmd_fleet_checkpoint)

    pf_restore = fleet_sub.add_parser(
        "restore", help="crash one vehicle, recover it from checkpoint "
                        "+ journal replay, print the timeline")
    _add_fleet_common(pf_restore)
    pf_restore.add_argument("--vehicle", metavar="VEHICLE_ID",
                            help="vehicle to crash (default: first)")
    pf_restore.add_argument("--crash-epoch", type=int, default=3,
                            help="epoch the crash fires (default: 3)")
    pf_restore.add_argument("--interval", type=int, default=2,
                            help="checkpoint interval (default: 2)")
    pf_restore.add_argument("--max-restarts", type=int, default=3,
                            help="restarts before quarantine "
                                 "(default: 3)")
    pf_restore.add_argument("--double-run", action="store_true",
                            help="run twice and require identical "
                                 "fingerprints (CI determinism check)")
    pf_restore.set_defaults(func=cmd_fleet_restore)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(exc)
        return 2
    except ValueError as exc:
        print(f"error: {exc}")
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
