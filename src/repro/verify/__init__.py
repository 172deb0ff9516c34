"""repro.verify — static policy model checking with cross-state proofs.

The chaos harness checks the fail-closed invariants *dynamically*, over
whatever states a seeded run happens to visit.  This package turns those
spot checks into static guarantees: it compiles the SSM transition graph,
the APE mapping, the failsafe degradation edges, and the AppArmor-bridge
translation semantics into an explicit finite-state model
(:mod:`~repro.verify.model`), and checks a declarative library of safety
properties (:mod:`~repro.verify.properties`) over every reachable
``(policy-revision, state)`` node with an exhaustive solver
(:mod:`~repro.verify.solver`; the interface is pluggable so an SMT
backend can be added later).

Violations come back as concrete **counterexample traces**
(:mod:`~repro.verify.counterexample`) — a transition sequence from the
initial state plus the access request that misbehaves — which the replay
driver (:mod:`~repro.verify.replay`) executes against a live kernel
instance to confirm the failure end to end.

The same property registry also carries the runtime invariant definitions
I1–I10 consumed by the chaos harness, so the static and dynamic layers can
never drift; and the OTA proof gate (:mod:`~repro.verify.gate`) refuses
any staged bundle whose policy violates a proof, before the canary wave.

See ``docs/verification.md``.
"""

from .checker import VerificationReport, verify_policies, verify_policy
from .counterexample import AccessRequest, Counterexample, TraceStep
from .gate import GateDecision, ProofGate
from .model import ModelNode, PolicyModel, build_model
from .properties import (RUNTIME_INVARIANTS, STATIC_PROPERTIES,
                         RuntimeInvariant, StaticProperty, runtime_checks,
                         runtime_invariant, static_properties,
                         static_property)
from .replay import ReplayResult, replay_counterexample
from .solver import (ExhaustiveSolver, PropertyResult, Solver,
                     SolverUnavailable, get_solver, register_solver,
                     solver_names)

__all__ = [
    "VerificationReport", "verify_policies", "verify_policy",
    "AccessRequest", "Counterexample", "TraceStep",
    "GateDecision", "ProofGate",
    "ModelNode", "PolicyModel", "build_model",
    "RUNTIME_INVARIANTS", "STATIC_PROPERTIES", "RuntimeInvariant",
    "StaticProperty", "runtime_checks", "runtime_invariant",
    "static_properties", "static_property",
    "ReplayResult", "replay_counterexample",
    "ExhaustiveSolver", "PropertyResult", "Solver", "SolverUnavailable",
    "get_solver", "register_solver", "solver_names",
]
