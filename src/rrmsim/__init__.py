"""rrmsim: a deterministic, slot-driven HetNet radio-resource simulator.

Layers, bottom up: resource grids and grants (core), the technology
abstraction and plugin registry (abstraction), per-cell coordinators with
class-specialized schedulers (mac), split-bearer flow control (pdcp), traffic
steering (uts), and the world that ties them together (engine). Hot loops
live in kernels.
"""

from .core import (
    AllocationMap,
    CarrierGrid,
    Cell,
    CellClass,
    DegenerateInputError,
    Event,
    Grant,
    OverlapError,
    OutOfRangeError,
    TrafficClass,
    UserEquipment,
    Violation,
    compute_fairness,
    validate_allocation_map,
)
from .abstraction import (
    CapabilityDescriptor,
    CommonMeasure,
    DuplicateIdError,
    FeatureRecord,
    MeasureKind,
    PluginLocation,
    PluginRegistry,
    capacity_score,
    describe_cell,
    link_rate,
)
from .mac import (
    InsufficientResourcesError,
    MacConfig,
    MacFlow,
    MacInstance,
    PartitionPlan,
    PortionSpec,
    dss_split,
    estimate_demands,
    partition_resources,
    schedule_dynamic,
    schedule_one_shot,
)
from .pdcp import (
    FlowState,
    Leg,
    Mode,
    ModeArityError,
    ReceiverState,
    configure_legs,
    reorder_deliver,
    reorder_tick,
    route_packet,
)
from .uts import (
    ActionKind,
    MnoStrategy,
    SteeringAction,
    UtsContext,
    UtsController,
    apply_actions,
    evaluate_features,
    register_builtins,
    resolve_conflicts,
)
from .scenario import (
    ScenarioConfig,
    ValidationError,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from .engine import MetricsReport, RunResult, World, run_scenario

__version__ = "0.1.0"
