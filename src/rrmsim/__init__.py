"""rrmsim: a deterministic, slot-driven HetNet radio-resource simulator.

Layers, bottom up: resource grids and grants (core), the technology
abstraction and plugin registry (abstraction), per-cell coordinators with
class-specialized schedulers (mac), split-bearer flow control (pdcp), traffic
steering (uts), and the world that ties them together (engine). Hot loops
live in kernels. The package root holds the documented entry points; every
other name is imported from its layer module.
"""

from .abstraction import FeatureRecord, PluginLocation
from .engine import World, run_scenario
from .scenario import load_scenario, scenario_from_dict
from .uts import ActionKind, SteeringAction

__version__ = "0.1.0"
