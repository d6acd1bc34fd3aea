"""Workbench for singular foliations generated by polynomial vector fields.

A foliation here is the module of vector fields generated by a finite
list of polynomial fields over Q[x_1..x_n].  The package decides
involutivity and module membership exactly (Groebner bases and
syzygies), computes the pointwise tangent / fiber / isotropy dimensions
and the singular locus, integrates the generated flows numerically,
builds the parametrized flow chart with its rank checks, and computes
first-jet holonomy at fixed points with exact oracles for linear
families.

Submodules
----------
- :mod:`foliations.vfparse`  - exact polynomials, vector fields, grammar, Lie bracket
- :mod:`foliations.modalg`   - membership, involutivity, pointwise invariants
- :mod:`foliations.flow`     - RK4 flows, words, charts, leaf sampling
- :mod:`foliations.holonomy` - first-jet holonomy and linear oracles
- :mod:`foliations.cli`      - the ``fol`` command line

Results and options (``Budget``, ``ModuleGB``, ``NumericOptions``,
``FlowChart``, ``CarriedDiffeo``, ``FoliationFile`` and the reports) are
``typing.NamedTuple`` records: immutable, compared field by field, and
changed with ``_replace``.  ``Poly``, ``VectorField``, ``FoliationSpec``
and ``FlowWord`` derive instead from one private base, ``vfparse._Frozen``,
with ``__slots__``: they validate their input and define arithmetic or
``len``, which a tuple base would clash with.  A value is its ``_init``
slots, the arguments of its constructor: it is compared, hashed and
pickled by them, and hashed on first use.  The base refuses setting and
deleting attributes and returns the object itself as its copy.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .vfparse import (
    FoliationSpec,
    Poly,
    VectorField,
    differentiate,
    format_poly,
    format_vector_field,
    lie_bracket,
    parse_vector_field,
)
from .modalg import (
    Budget,
    InvolutivityReport,
    MembershipResult,
    ModuleGB,
    SingularLocusReport,
    SyzygyBasis,
    contains,
    fiber_dim,
    is_involutive,
    isotropy_dim,
    minimal_local_generators,
    module_groebner,
    singular_locus,
    syzygy_basis,
    tangent_dim,
)
from .flow import (
    FlowChart,
    FlowWord,
    NumericOptions,
    Transversal,
    XorShift64Star,
    chart_at,
    chart_rank_check,
    flow,
    flow_box,
    leaf_sample,
    word_compose,
    word_inverse,
)
from .holonomy import (
    CarriedDiffeo,
    carried_diffeo,
    check_pushforward_linear,
    germ_equal_at_fixed_point,
    holonomy_jet,
    jet_exact_linear,
    matrix_exp,
)

__all__ = [
    "__version__",
    "FoliationSpec",
    "Poly",
    "VectorField",
    "differentiate",
    "format_poly",
    "format_vector_field",
    "lie_bracket",
    "parse_vector_field",
    "Budget",
    "InvolutivityReport",
    "MembershipResult",
    "ModuleGB",
    "SingularLocusReport",
    "SyzygyBasis",
    "contains",
    "fiber_dim",
    "is_involutive",
    "isotropy_dim",
    "minimal_local_generators",
    "module_groebner",
    "singular_locus",
    "syzygy_basis",
    "tangent_dim",
    "FlowChart",
    "FlowWord",
    "NumericOptions",
    "Transversal",
    "XorShift64Star",
    "chart_at",
    "chart_rank_check",
    "flow",
    "flow_box",
    "leaf_sample",
    "word_compose",
    "word_inverse",
    "CarriedDiffeo",
    "carried_diffeo",
    "check_pushforward_linear",
    "germ_equal_at_fixed_point",
    "holonomy_jet",
    "jet_exact_linear",
    "matrix_exp",
]
