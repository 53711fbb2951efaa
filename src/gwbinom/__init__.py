"""Enriched binomial coefficients over finite fields of odd characteristic.

Grothendieck-Witt valued analogues of Pascal's triangle, their twisted
variant on balanced necklaces, and the necklace-orbit enumeration that
independently validates the closed forms.
"""

from .arith import (
    big_binomial,
    digit_dominates,
    digit_sum,
    kummer_valuation,
    lucas_binom_mod_p,
    mobius,
    valuation,
)
from .coefficients import (
    CellCheck,
    EnrichedCoefficient,
    VerifyReport,
    correction_parity,
    half_central_hyperbolic,
    triangle,
    triangle_from_json,
    triangle_to_json,
    twisted_closed,
    twisted_correction_parity,
    twisted_oracle,
    untwisted_closed,
    untwisted_oracle,
    verify,
)
from .gw import (
    NONSQUARE,
    NONSQUARE_UNIT,
    ONE,
    SQUARE,
    ZERO,
    GWElem,
    gw_display,
    gw_from_coeffs,
    gw_scale,
    gw_to_json,
    trace_form_class,
)
from .necklaces import (
    BLUE,
    RED,
    TYPE1,
    TYPE2,
    AxisIndex,
    EnumerationLimitError,
    FlipFixedCounts,
    Necklace,
    OrbitRecord,
    TwistedOrbitRecord,
    aperiodic_count,
    axis_distance,
    canonical_form,
    check_enumeration,
    classify_flip_fixed,
    color_swap,
    color_swap_fixed,
    count_even_orbits,
    count_even_twisted_orbits,
    count_even_twisted_swap_fixed,
    enumerate_orbits,
    enumerate_twisted_orbits,
    flip,
    insert_axis_beads,
    interleave_decompose,
    interleave_fiber_size,
    interleave_parts,
    odd_flip_fixed_closed_form,
    odd_flip_fixed_count,
    orbit_catalog,
    orbit_record_of,
    rotate,
    strip_axis_beads,
    swap_action,
    twisted_orbit_record_of,
    twisted_rotation,
)
from .partitions import (
    MarkedCyclicPartition,
    cyclic_composition_classes,
    efixed_untwisted_count,
    odd_period_composition_class_count,
    partition_period,
)

__version__ = "0.1.0"
