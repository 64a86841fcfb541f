"""Exact classification of quadratic algebras by (discriminant, parity) and
the correspondence between twisted binary quadratic forms and Picard groups
of imaginary quadratic orders."""

from .algebras import (
    AlgebraHom,
    AlgebraType,
    FreeQuadraticAlgebra,
    Orientation,
    algebras_isomorphic,
    automorphisms_bruteforce,
    build_from_type,
    change_basis,
    find_parities,
    freeok_iso,
    identity_hom,
    is_valid_triple,
    isomorphic_bruteforce,
    oriented_automorphisms_bruteforce,
    oriented_isomorphic,
    oriented_type,
    type_of,
    types_isomorphic,
)
from .forms import (
    GL2Matrix,
    NaturalType,
    TwistedForm,
    act_gl2gl1,
    act_gl2tw,
    equivalent_gl2gl1,
    equivalent_gl2tw,
    is_primitive,
    is_reduced,
    natural_type,
    principal_form,
    reduce_posdef,
    reduce_posdef_with_witness,
)
from .glue import (
    GluedAlgebra,
    GluedTypeData,
    LineBundleCocycle,
    PrincipalCover,
    build_glued,
    check_cocycle_transitions,
    check_transition_hom,
    verification_report,
)
from .picard import (
    ClassGroup,
    OrderIdeal,
    QuadraticOrder,
    class_group,
    conjugate,
    form_to_ideal,
    ideal_mul,
    ideal_norm,
    ideal_to_form,
    is_invertible,
    is_principal,
    order_from_type,
    pic_mod_conjugation,
    reduced_forms,
    wood_local_algebra,
)
from .ring import (
    IntegerRing,
    LocalizationRing,
    Mod2Element,
    QuotientRing,
    Ring,
    RingElement,
    TableRing,
    construct_ring,
    quadratic_table_ring,
)

__version__ = "0.1.0"
