"""Exact pointfree Lebesgue integration of simple functions at desk scale.

Finite distributive lattices stand in for sigma-frames, their congruence
frames carry measurable functions as exact rational step ladders, measures
live on the coframe of sublocales, and every integral is a finite sum of
rationals (extended with the infinities).  A classical finite measure
space serves as an independent oracle throughout.

Public names resolve on first access (PEP 562): ``import locint`` loads no
layer, and ``locint.<name>`` imports only the submodule that defines it.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "bridge": ("BridgeReport", "ClassicalSimpleFunction", "FiniteMeasurableSpace",
               "bridge_check", "classical_integral", "extend_measure", "to_localic"),
    "congruence": ("Congruence", "CongruenceFrame"),
    "cutfunction": ("CutFunction", "FunctionSequence", "add", "characteristic", "constant",
                    "join_meet", "leq", "limits", "mul_nonneg", "negate", "scale", "seq_inf",
                    "seq_sup"),
    "documents": ("build_lattice",),
    "integrate": ("SummabilityReport", "indefinite_integral", "integrate_general",
                  "integrate_simple", "nonnegativity_certificate", "restrict_vs_multiply",
                  "summability"),
    "lattice": ("FiniteLattice", "chain_lattice", "powerset_lattice"),
    "measure": ("Measure", "measure_from_weights", "validate_measure"),
    "rationals": ("NEG_INF", "POS_INF", "ExtValue", "Infinite"),
    "simple": ("SimpleFunction", "canonicalize", "characteristic_simple", "constant_simple",
               "cut_to_simple", "decompose_trace", "sf_add", "sf_mul", "sf_neg", "sf_scale",
               "to_cut_function", "zero"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
