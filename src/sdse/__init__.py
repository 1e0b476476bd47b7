"""Scenario-based design space exploration toolkit.

A batch work pool evaluates application-to-architecture mappings under
workload scenarios in parallel: in forked children driven by the submitting
thread wherever ``os.fork`` exists, else in worker threads. A
genetic-algorithm explorer and a scenario-subset selector cooperate to find
good mappings, and a benchmark harness measures how the pool scales.
"""

from .evaluator import (
    Fitness,
    ScenarioMetrics,
    alloc_churn_job,
    calibrate_synthetic_cost,
    evaluate_mapping,
    scenario_metrics,
    synthetic_job,
)
from .explorer import (
    ExplorerResult,
    GaParams,
    Individual,
    brute_force_optimum,
    evaluate_population,
    init_population,
    next_generation,
    run_explorer,
)
from .model import (
    Application,
    Architecture,
    ConfigError,
    ConfigSemanticError,
    ConfigSyntaxError,
    Interconnect,
    Mapping,
    Processor,
    Scenario,
    SystemSpec,
    parse_config,
    parse_config_file,
    random_mapping,
    render_config,
)
from .selector import (
    SelectorService,
    StaticSubsetProvider,
    SubsetSnapshot,
    TrainingSet,
    kendall_tau,
    select_subset,
)
from .workpool import (
    BatchInFlightError,
    JobBatch,
    JobError,
    LockedWorkPool,
    PoolClosedError,
    PoolError,
    WorkPool,
    make_pool,
)

__version__ = "0.1.0"
