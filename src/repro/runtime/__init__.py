"""PaRSEC-like task runtime: DAG, PTG DSL, simulator, numeric executor."""

from .distributed import DistributedReport, execute_numeric_distributed, pick_mp_context
from .dsl import StreamOrderError, TaskClassSpec, TaskInstance, unroll, unroll_stream
from .dtd import AccessMode, DataAccess, DTDRuntime
from .executor import execute_numeric
from .gantt import ascii_gantt, engine_utilisation, to_chrome_trace
from .platform import Platform
from .policies import (
    POLICY_NAMES,
    CommAwareEftPolicy,
    CriticalPathPolicy,
    FifoPolicy,
    OocStaticPolicy,
    PanelFirstPolicy,
    SchedulePolicy,
    get_policy,
    policy_topological_order,
    register_policy,
)
from .schedule import StaticSchedule
from .simulator import SimReport, simulate, simulate_replay, simulate_stream
from .task import Task, TaskGraph, TaskInput, TileRef
from .tracing import RunStats, Trace, TraceEvent

__all__ = [
    "AccessMode",
    "CommAwareEftPolicy",
    "CriticalPathPolicy",
    "DTDRuntime",
    "DataAccess",
    "DistributedReport",
    "FifoPolicy",
    "OocStaticPolicy",
    "POLICY_NAMES",
    "PanelFirstPolicy",
    "Platform",
    "SchedulePolicy",
    "RunStats",
    "SimReport",
    "StaticSchedule",
    "StreamOrderError",
    "Task",
    "TaskClassSpec",
    "TaskGraph",
    "TaskInput",
    "TaskInstance",
    "TileRef",
    "Trace",
    "TraceEvent",
    "ascii_gantt",
    "engine_utilisation",
    "execute_numeric",
    "execute_numeric_distributed",
    "get_policy",
    "pick_mp_context",
    "policy_topological_order",
    "register_policy",
    "simulate",
    "simulate_replay",
    "simulate_stream",
    "to_chrome_trace",
    "unroll",
    "unroll_stream",
]
