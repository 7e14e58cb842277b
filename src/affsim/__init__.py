"""Slotted-time scheduling and simulation for wireless layer dissemination
under an additive interference-weight model."""

from .core import (
    AffectanceMatrix,
    Characterization,
    ConstraintError,
    InstanceError,
    LayerTopology,
    SelectivityReport,
    UnknownLinkError,
    characterize,
    encode_radio_network,
    is_selected,
    max_avg_affectance_w,
    schedule_from_text,
    schedule_to_text,
    verify_selective,
)
from .engine import (
    RunRecord,
    SweepRow,
    replay_first_success,
    run_adaptive,
    run_schedule,
    summarize,
    sweep,
    write_csv,
)
from .protocols import (
    RandomizedParams,
    ScheduleError,
    decay_period,
    deterministic_schedule,
    randomized_schedule,
    receiver_partition,
)
from .scenario import (
    OfficeGridSpec,
    generate_office_layer,
    generate_random_instance,
    generate_rn_instance,
    load_instance,
    office_affectance,
    save_instance,
    sinr_defaults,
)

__all__ = [name for name in dir() if not name.startswith("_")]
