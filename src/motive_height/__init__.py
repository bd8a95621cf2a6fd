"""Heights of motives over Q from explicit realization data.

The height of a motive is the Arakelov degree of the one-dimensional space
L(M) = tensor_r (det gr^r M_dR)^{x r}: its metric comes from Hodge theory
on the Betti side, its integral structure from per-prime lattice data
(Fontaine-Laffaille modules in the crystalline range, explicit valuation
overrides elsewhere).  See README.md for the data conventions.
"""

from .balls import (
    ComplexBall,
    PrecisionExhausted,
    RealBall,
    ZeroVector,
    current_bits,
    working_precision,
)
from .rational import QMatrix, smith_normal_form
from .lines import (
    Lattice,
    MetrizedLine,
    intersect_adelic,
    line_tensor,
)
from .hodge import (
    HodgeStructure,
    hodge_decompose,
    line_metric,
    purity_check,
)
from .fl import (
    FilPhiModule,
    LocalLatticeSpec,
    WindowTooWide,
    check_strong_divisibility,
    h0,
    h1cf,
    local_valuations,
    standard_module,
    tate_twist,
)
from .motive import (
    DegeneratePeriods,
    HeightReport,
    InvalidMotive,
    MotiveData,
    MotiveType,
    WeightMismatch,
    WindowMismatch,
    assemble_height_line,
    direct_sum,
    elliptic_curve_h1,
    global_lattice,
    height,
    rebase_reference,
    tate_motive,
    validate,
)
from .experiments import (
    IncompatibleSpec,
    QuotientSpec,
    StrongDivisibilityLost,
    abc_report,
    check_s_equals_t,
    full_quotient_spec,
    invariance_experiment,
    n_of_m,
    s_invariant,
    sublattice_motive,
    t_invariant,
)

__version__ = "0.1.0"
