"""Exact piecewise-linear non-expansive extensions in the plane."""

__version__ = "0.1.0"

from .exactreal import (
    EQ,
    GT,
    LT,
    DivisionByZero,
    ExactNumber,
    NegativeRadicand,
    add,
    approximate,
    compare,
    decimal_string,
    div,
    equals,
    kernel_backend,
    mul,
    rational,
    rational_backend,
    sign,
    sqrt,
    sub,
)
from .geometry import (
    EMPTY,
    ConvexPolygon,
    DegenerateHull,
    Line,
    Location,
    LowerDimensional,
    Point,
    Segment,
    Triangle,
    clip_polygon_halfplane,
    convex_hull,
    orientation,
    point_in_polygon,
    point_on_segment,
    segment_intersection,
    squared_distance,
)
from .motions import (
    Motion,
    compose,
    from_three_points,
    from_two_pairs,
    reflection_across_line,
)
from .plmap import OutsideDomain, PLMap, ValidationReport, assemble
from .extension import (
    ConstructionError,
    DegenerateHullError,
    ExtensionTrace,
    Instance,
    NonExpansivenessViolation,
    StepTrace,
    TargetAlreadyMatched,
    Violation,
    base_case,
    check_nonexpansive,
    extend_all,
    extend_all_traced,
    extend_step,
    extend_step_traced,
    refit_region,
)
from .verification import (
    AuditConfig,
    AuditReport,
    audit_interpolation,
    audit_lipschitz,
    audit_structure,
    brute_force_feasibility,
)
from .fileio import (
    ParseError,
    instance_hash,
    parse_instance,
    parse_map,
    serialize_instance,
    serialize_map,
)
from .svg import render_svg
