"""Anchored extragradient methods for smooth convex-concave minimax problems.

Solvers with last-iterate O(1/k^2) squared-gradient-norm guarantees, runtime
numerical certificates for the underlying proofs, benchmark problems with
known saddle points, and the matching Chebyshev/Krylov complexity lower
bound, realized as verifiable worst-case instances.
"""

from .core import (
    CertificateError,
    ContractError,
    GradientCheckReport,
    MonotoneReport,
    NumericalDivergenceError,
    Point,
    SaddleProblem,
    check_gradient,
    check_monotone,
    estimate_lipschitz,
    eval_operator,
    grad_sq_norm,
)
from .algorithms import (
    AlgoConfig,
    AlgoKind,
    Trace,
    eag_v_alpha_limit,
    eag_v_alpha_next,
    run,
    store_plan,
    theoretical_bound,
)
from .certificates import (
    EagCCertificate,
    EagCReport,
    IntervalChain,
    LyapunovReport,
    check_eag_c_stepsize,
    check_lyapunov_monotone,
    eag_c_certificate,
    interval_quantities,
    lyapunov_sequence,
)
from .lowerbound import (
    HardInstance,
    LowerBoundReport,
    MinimaxPoly,
    build_hard_instance,
    chebyshev_nodes,
    chebyshev_solver,
    dual_weights,
    krylov_min_residual,
    minimax_poly,
    sandwich,
    verify_lower_bound,
)
from .problems import (
    FlowKind,
    FlowSpec,
    FlowTrajectory,
    HuberSaddleParams,
    flow_closed_form,
    integrate_flow,
    load_preset,
    make_bilinear,
    make_huber_saddle,
    make_ouyang_qp,
    make_random_monotone,
    preset_names,
)

__version__ = "0.1.0"
