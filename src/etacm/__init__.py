"""Construction of elliptic curves with prescribed complex multiplication
over prime fields, via class polynomials of double eta-quotients and
modular polynomials, including the multiple-root criterion that lets the
CM algorithm skip point counting.
"""

from .apcomplex import ApComplex, UpperHalfPoint
from .atkin import Con1Solution, multiple_root_condition
from .classpoly import (
    ClassPolynomial,
    check_integrality_conditions,
    compute_class_polynomial,
    involution_transform,
)
from .errors import (
    ConditionsViolated,
    EtaCMError,
    InvalidB,
    InvalidDiscriminant,
    NoRationalJRoot,
    NoSolution,
    NoTrace,
    PreconditionError,
    PrecisionExhausted,
    ZeroConstantTerm,
)
from .etafunc import (
    double_eta_quotient,
    eta,
    eta_multiplier,
    j_invariant,
    s_exponent,
    w_pow_s,
)
from .ffield import FpElement, FpPolynomial, has_multiple_root, roots_mod_l
from .modpoly import (
    ModularPolynomial,
    compute_modular_polynomial,
    coset_representatives,
    deserialize,
    discriminant_in_j,
    evaluate_in_j_mod_l,
    load_embedded,
    serialize,
)
from .pipeline import (
    EllipticCurve,
    OrderCertificate,
    TraceSolution,
    construct_cm_curve,
    curve_from_j,
    find_trace,
    point_count,
)
from .qforms import (
    Discriminant,
    NSystem,
    QuadraticForm,
    b_candidates,
    build_nsystem,
    class_number,
)

__version__ = "0.1.0"
