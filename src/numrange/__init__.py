"""numrange: exact primal/dual geometry of the numerical range.

The numerical range W(A) of a complex matrix and the feasible set F(A) of the
associated two-dimensional LMI are dual convex sets; their boundaries live on
the pencil-determinant curve p(y)=0 and its dual curve q(x)=0.  This package
computes both sides exactly (big-rational elimination) and numerically
(eigenvalue ray-shooting and support functions), verifies the duality, and
checks the Craig determinant-factorization criterion.
"""

from .exactpoly import (
    BinaryForm,
    GaussianRational,
    TriPoly,
    det_poly_matrix,
    discriminant_binary,
    gcd_squarefree,
    parse_poly,
    resultant,
    tri_gcd,
)
from .hermitian import (
    GaussianRationalMatrix,
    HermitianPencil,
    is_normal,
    rank_one_value,
    split,
)
from .pencil import (
    PencilCurve,
    RayExit,
    boundary_F,
    hyperbolicity_check,
    lmi_member,
    pencil_det,
    ray_exit,
)
from .dualcurve import (
    DualCurve,
    dual_curve_exact,
    dual_of_linear,
    dual_point,
    dual_sample,
    dual_union,
)
from .rangegeom import (
    RangeHulls,
    SupportSample,
    duality_check,
    member_W,
    polytope_detect,
    range_hulls,
    support,
    translate_scale_law,
)
from .craig import (
    CraigVerdict,
    craig_identity,
    craig_verdict,
    product_zero,
)

__version__ = "0.1.0"
