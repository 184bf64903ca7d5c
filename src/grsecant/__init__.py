"""Exact secant-variety dimension probes for Grassmannians over finite fields."""

__version__ = "0.1.0"

from .extalg import Multivector, pairing_matrix, parse_tensor, wedge, wedge_vectors
from .fieldcore import DEFAULT_PRIME, SECOND_PRIME, rank_mod_p
from .gr26 import degree7_invariant
from .terracini import SecantProblem, SpanVerdict, Verdict, expected_affine_dim, probe

__all__ = [
    "DEFAULT_PRIME",
    "SECOND_PRIME",
    "Multivector",
    "SecantProblem",
    "SpanVerdict",
    "Verdict",
    "degree7_invariant",
    "expected_affine_dim",
    "pairing_matrix",
    "parse_tensor",
    "probe",
    "rank_mod_p",
    "wedge",
    "wedge_vectors",
    "__version__",
]
