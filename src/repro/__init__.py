"""repro — reproduction of "The Privacy Quagmire" (HotNets '25).

A pipeline that converts natural-language privacy policies into first-order
logic while preserving ambiguity: LLM-based semantic-role extraction,
Chain-of-Layer hierarchy construction, embedding-based query translation,
and SMT-backed verification where vague legal terms remain uninterpreted
predicates requiring human judgment.

Quickstart::

    from repro import PolicyPipeline
    from repro.corpus import tiktak_policy

    pipeline = PolicyPipeline()
    model = pipeline.process(tiktak_policy().text)
    outcome = pipeline.query(model, "The user provides email to TikTak.")
    print(outcome.summary())

Every substrate the paper relies on is bundled and offline: a simulated LLM
backend (:mod:`repro.llm`), deterministic embeddings
(:mod:`repro.embeddings`), an SMT solver with SMT-LIB v2 round-tripping
(:mod:`repro.solver`, :mod:`repro.smtlib`), and synthetic TikTok-scale and
Meta-scale policy corpora (:mod:`repro.corpus`).
"""

from repro.core.metrics import LatencyReservoir, PipelineMetrics
from repro.core.pipeline import (
    ErrorOutcome,
    PipelineConfig,
    PolicyModel,
    PolicyPipeline,
    QueryOutcome,
    UpdateStats,
)
from repro.core.verify import Verdict, VerificationResult
from repro.errors import (
    CassetteMissError,
    IntegrityError,
    JobError,
    PermanentHTTPError,
    ProviderError,
    RateLimitError,
    RegistryError,
    ReproError,
    ServerError,
    SnapshotError,
    TransientHTTPError,
)
from repro.integrity import (
    BackgroundScrubber,
    Finding,
    IntegrityReport,
    RepairPlan,
    Severity,
    plan_repairs,
    run_fsck,
)
from repro.jobs import JobConfig, JobResult, JobRunner
from repro.providers import (
    HTTPProvider,
    ProfiledLLM,
    RecordingLLM,
    ReplayLLM,
    StressProfile,
    get_profile,
)
from repro.registry import FleetReport, MintSpec, PolicyRegistry
from repro.resilience import BudgetLadder, DegradationReport
from repro.server import PolicyServer, ServerConfig, ServingClient
from repro.solver.interface import SolverBudget
from repro.store import AuditReport, SnapshotStore

__version__ = "1.0.0"

__all__ = [
    "PolicyPipeline",
    "PolicyModel",
    "PipelineConfig",
    "QueryOutcome",
    "ErrorOutcome",
    "PipelineMetrics",
    "UpdateStats",
    "Verdict",
    "VerificationResult",
    "SolverBudget",
    "BudgetLadder",
    "DegradationReport",
    "JobConfig",
    "JobError",
    "JobResult",
    "JobRunner",
    "PolicyRegistry",
    "MintSpec",
    "FleetReport",
    "RegistryError",
    "PolicyServer",
    "ServerConfig",
    "ServerError",
    "ServingClient",
    "LatencyReservoir",
    "SnapshotStore",
    "AuditReport",
    "HTTPProvider",
    "RecordingLLM",
    "ReplayLLM",
    "ProfiledLLM",
    "StressProfile",
    "get_profile",
    "ProviderError",
    "TransientHTTPError",
    "RateLimitError",
    "PermanentHTTPError",
    "CassetteMissError",
    "ReproError",
    "SnapshotError",
    "IntegrityError",
    "IntegrityReport",
    "Finding",
    "Severity",
    "RepairPlan",
    "BackgroundScrubber",
    "run_fsck",
    "plan_repairs",
    "__version__",
]
