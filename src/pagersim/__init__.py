"""Deterministic simulator of page-fault dispatch schemes.

The package models a single-CPU machine whose kernel routes page faults
to user-level pagers under four interchangeable schemes and records every
privilege crossing, context switch, and message in a replayable trace, so
the dispatch overhead of the schemes can be compared event by event.
"""

from .address_space import (
    AddressSpace,
    ContractState,
    KERNEL_RANGE,
    LayoutConfig,
    RegionTable,
    region_id_div,
    region_id_of,
    region_id_shift,
)
from .engine import (
    AccessType,
    DeterministicOrder,
    KERNEL_TID,
    Machine,
    SeededRoundRobin,
    ThreadRole,
    ThreadState,
)
from .errors import (
    BadRegionError,
    DeadlockError,
    IncompleteCycleError,
    MarkerOverflowError,
    NoDatabaseEntryError,
    NoOutstandingFaultError,
    NotMappedError,
    NotRegionManagerError,
    NotSchedulableError,
    OutOfFramesError,
    OverlappingRangeError,
    RevokedRegionError,
    SchemeMismatchError,
    SimulationError,
    UnknownReceiverError,
    UnknownThreadError,
    WrongPagerError,
)
from .fault_dispatch import (
    Classification,
    FaultCycle,
    FaultDispatcher,
    KernelMemory,
    VerdictCode,
    classify,
)
from .mmu import translate
from .pagers import (
    FrameAllocator,
    MappingDatabase,
    MarkerKind,
    MarkerRule,
    PagerBehavior,
    PagerPolicy,
)
from .scenario import (
    ParseError,
    ScenarioError,
    ScenarioFile,
    SemanticError,
    parse_scenario,
    serialize_scenario,
)
from .schemes import (
    ALL_SCHEMES,
    CycleMetrics,
    OverheadReport,
    Scheme,
    SimResult,
    Simulator,
    check_expectations,
    cycle_metrics,
    overhead_report,
    simulate,
    totals_of,
    verify_equivalence,
)
from .trace import (
    CountingTrace,
    EventKind,
    EventsNotKeptError,
    Trace,
    TraceEvent,
)

__version__ = "0.1.0"
