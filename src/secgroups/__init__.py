"""Computational algebra of low-level homotopy models.

Layers:

- `intlinalg`: exact integer linear algebra (Smith normal form, lattices).
- `abelian`: finitely generated abelian groups, maps, quadratic functors.
- `words`, `nil2`: free words and class-2 nilpotent groups with normal
  forms, homomorphisms, kernels, cokernels and quotients.
- `coset`: bounded coset enumeration for presented-group orders.
- `crossed`: level-n objects (pointed groupoids, crossed modules,
  quadratic modules) with their homotopy groups and morphisms.
- `models`: wedge models, k-invariants, stabilization comparison.
- `functors`: fibers, six-term sequences, the forgetful/adjoint ladder,
  adjunction checks by enumeration.
- `tracks`: homotopies between maps of free class-2 groups and
  2-morphisms of modules, with the whisker/pasting calculus.
- `serialization`, `cli`: the text format and the command line.
"""

from .abelian import AbElem, AbMap, FinAbGroup, gamma, gamma_map, \
    reduced_tensor_square, tensor_square, tensor_square_map, \
    tensor_square_relations, tensor_z2
from .coset import DEFAULT_CAP, EnumerationCapExceeded, \
    FinitelyPresentedGroup
from .crossed import (AbCoords, CrossedModule, CrossMorphism, FreeBaseHom,
                      FreeGroupBase, GroupAction, H0Undecidable, OmegaPairing,
                      PointedGroupoid, ReducedQuadraticModule,
                      StableQuadraticModule, WordHom, check_axioms,
                      quadratic_module)
from .functors import (Fiber, ad1, ad2, ad3, adjunction_check, fiber, phi1,
                       phi2, phi3, six_term)
from .models import (KInvariant, homotopy_groups, k_invariant,
                     suspension_comparison, wedge_model)
from .nil2 import (Class2Elem, Class2Group, Class2Hom, QuotientError,
                   Subgroup, abelian_as_class2, boundary_map,
                   exact_sequence_report, free_nil, hom_cokernel,
                   hom_from_words, hom_kernel, identity_hom, nilize,
                   trivial_hom)
from .serialization import Document, ParseError, ValidationError, \
    canonicalize, describe_ab, parse, print_document
from .tracks import (CLASSICAL_HOPF_SIGN, HopfTrack, TwoMorphism, hopf,
                     interchange_holds, nil_track, suspend_track,
                     tracks_between, vcomp, vcomp2, whisker_left,
                     whisker_left2, whisker_right, whisker_right2)
from .words import PointedSet, Word, commutator_word

__version__ = "1.0.0"
