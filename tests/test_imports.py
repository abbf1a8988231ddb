"""What a cold command line loads: ``import locint.cli`` in a fresh
interpreter must not pull in ``verify`` and its corpus (they load only for
``locint verify``) nor ``dataclasses`` and the ``inspect`` machinery behind
it, and the package keeps its public names."""

import json
import re
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys, types
before = set(sys.modules)
import locint.cli
import locint
print(json.dumps({
    "loaded": sorted(set(sys.modules) - before),
    "public": sorted(n for n, v in vars(locint).items()
                     if not n.startswith("_") and not isinstance(v, types.ModuleType)),
}))
"""

PUBLIC = [
    "BridgeReport", "ClassicalSimpleFunction", "Congruence", "CongruenceFrame", "CutFunction",
    "ExtValue", "FiniteLattice", "FiniteMeasurableSpace", "FunctionSequence", "Infinite",
    "Measure", "NEG_INF", "POS_INF", "SigmaScale", "SimpleFunction", "SublocaleView",
    "SummabilityReport", "add", "bridge_check", "build_lattice", "canonicalize",
    "chain_lattice", "characteristic", "characteristic_simple", "classical_integral",
    "congruence_join", "congruence_meet", "constant", "constant_simple", "cut_to_simple",
    "decompose", "decompose_trace", "delta", "enumerate_congruences", "extend_measure",
    "from_localic", "from_sigma_scale", "indefinite_integral", "integrate_general",
    "integrate_simple", "join_meet", "leq", "limits", "measure_from_weights", "mul_nonneg",
    "nabla", "negate", "nonnegativity_certificate", "open_closed", "pos_neg_abs",
    "powerset_lattice", "principal_congruence", "quotient", "restrict_vs_multiply", "scale",
    "seq_inf", "seq_sup", "sf_add", "sf_mul", "sf_neg", "sf_scale", "summability",
    "to_cut_function", "to_localic", "validate_measure", "zero",
]


def probe():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", PROBE], check=True, capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=path)).stdout
    return json.loads(out)


def test_cold_cli_import_loads_only_what_commands_run():
    result = probe()
    assert "locint.cli" in result["loaded"]
    unwanted = {"dataclasses", "inspect", "locint.verify", "locint.corpus"}
    assert unwanted.isdisjoint(result["loaded"])
    assert result["public"] == PUBLIC


def test_no_private_fraction_internals():
    """``Fraction._numerator``, ``_denominator`` and the ``_normalize``
    keyword are private (the keyword is gone in Python 3.12), so the
    package reads only ``numerator``, ``denominator`` and
    ``as_integer_ratio()``."""
    private = re.compile(r"(?<![A-Za-z0-9_])_(numerator|denominator|normalize)\b")
    for path in sorted((SRC / "locint").glob("*.py")):
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            assert not private.search(line), f"{path.name}:{number}: {line.strip()}"
