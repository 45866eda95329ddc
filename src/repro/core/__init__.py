"""The paper's primary contribution: the integrated compass system."""

from .anomaly import (
    AnomalyReport,
    DetectorSettings,
    FieldAnomalyDetector,
    FieldVerdict,
)
from .accuracy import ErrorStats, quantisation_floor_deg
from .calibration import (
    CalibrationModel,
    align_to_reference,
    collect_calibration_samples,
    fit_ellipse_calibration,
    identity_calibration,
)
from .compass import CompassConfig, IntegratedCompass
from .datasheet import Datasheet, SpecLine, generate_datasheet
from .device import CompassWatchDevice, SessionEvent
from .heading import (
    COMPASS_POINTS_16,
    HeadingMeasurement,
    compass_point,
    headings_evenly_spaced,
    mean_heading_deg,
)
from .tilt import (
    Attitude,
    apparent_heading_deg,
    body_field_components,
    max_tolerable_tilt_deg,
    small_angle_error_deg,
    tilt_error_deg,
    tilted_axis_fields,
)
from .tolerance import (
    PRODUCTION_1997,
    ToleranceBudget,
    YieldReport,
    measure_unit,
    perturbed_config,
    tolerance_yield,
)
from .power import (
    BlockPower,
    PowerModel,
    PowerReport,
    default_blocks,
    digital_dynamic_current,
    excitation_supply_current,
)

__all__ = [
    "AnomalyReport",
    "DetectorSettings",
    "FieldAnomalyDetector",
    "FieldVerdict",
    "Attitude",
    "PRODUCTION_1997",
    "ToleranceBudget",
    "YieldReport",
    "apparent_heading_deg",
    "body_field_components",
    "max_tolerable_tilt_deg",
    "measure_unit",
    "perturbed_config",
    "small_angle_error_deg",
    "tilt_error_deg",
    "tilted_axis_fields",
    "tolerance_yield",
    "BlockPower",
    "COMPASS_POINTS_16",
    "CalibrationModel",
    "align_to_reference",
    "CompassConfig",
    "CompassWatchDevice",
    "Datasheet",
    "SessionEvent",
    "SpecLine",
    "generate_datasheet",
    "ErrorStats",
    "HeadingMeasurement",
    "IntegratedCompass",
    "PowerModel",
    "PowerReport",
    "collect_calibration_samples",
    "compass_point",
    "default_blocks",
    "digital_dynamic_current",
    "excitation_supply_current",
    "fit_ellipse_calibration",
    "headings_evenly_spaced",
    "identity_calibration",
    "mean_heading_deg",
    "quantisation_floor_deg",
]
