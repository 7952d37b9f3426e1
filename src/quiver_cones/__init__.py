"""Exact computation of semi-invariant weight cones of acyclic quivers."""

from .quiver import (
    DimVector,
    Involution,
    OrbitBasis,
    Quiver,
    Weight,
    antisym_basis,
    euler_form,
    euler_col,
    tau_dim,
    validate_quiver,
    weight_eval,
)
from .schofield import ExtTable
from .cones import (
    InequalitySystem,
    MembershipResult,
    counts,
    enumerate_I0,
    inequalities,
    member_antiinv,
    member_dw,
    member_inductive,
)
from .redundancy import irredundant_core, is_redundant, redundant_row, solve_max
from .zoo import make_d5hat, make_kronecker, make_line, make_sun
from .quiverfile import (
    format_vector,
    parse_dim_vector,
    parse_quiver_file,
    parse_weight,
    serialize_quiver,
)
from . import errors

__all__ = [
    "Quiver", "DimVector", "Weight", "Involution", "OrbitBasis",
    "validate_quiver", "euler_form", "weight_eval",
    "euler_col", "tau_dim", "antisym_basis",
    "ExtTable",
    "InequalitySystem", "MembershipResult",
    "member_dw", "member_inductive", "member_antiinv",
    "enumerate_I0", "inequalities", "counts",
    "solve_max", "redundant_row", "is_redundant", "irredundant_core",
    "make_line", "make_kronecker", "make_sun", "make_d5hat",
    "parse_quiver_file", "serialize_quiver", "parse_dim_vector", "parse_weight",
    "format_vector",
    "errors",
]
