"""What a cold command line loads.  ``import locint`` loads no layer: the
package resolves its public names on first access.  Each command, run as
``python -m locint ...`` in a fresh interpreter, loads exactly the locint
modules of its own closure (``verify`` and its corpus only for ``locint
verify``, ``bridge`` only for ``bridge`` and ``validate --space``), never
``dataclasses`` and the ``inspect`` machinery behind it, and prints what
its golden file holds."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli_golden import CASES, GOLDEN, ROOT, VERIFY_ARGV, VERIFY_CASE

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys
before = set(sys.modules)
import locint
package_only = sorted(set(sys.modules) - before)
import locint.cli
cli_loaded = sorted(set(sys.modules) - before)
names = {}
exec("from locint import *", names)
resolved = {}
for name in locint.__all__:
    module = __import__("locint." + locint._MODULE_OF[name], fromlist=["_"])
    resolved[name] = getattr(locint, name) is getattr(module, name)
try:
    locint.no_such_name
    missing = "resolved"
except AttributeError:
    missing = "AttributeError"
print(json.dumps({
    "package_only": package_only,
    "cli_loaded": cli_loaded,
    "all": locint.__all__,
    "dir": [n for n in dir(locint) if not n.startswith("_")],
    "star": sorted(n for n in names if n != "__builtins__"),
    "resolved": resolved,
    "missing": missing,
}))
"""

PUBLIC = [
    "BridgeReport", "ClassicalSimpleFunction", "Congruence", "CongruenceFrame", "CutFunction",
    "ExtValue", "FiniteLattice", "FiniteMeasurableSpace", "FunctionSequence", "Infinite",
    "Measure", "NEG_INF", "POS_INF", "SimpleFunction", "SummabilityReport",
    "add", "bridge_check", "build_lattice", "canonicalize", "chain_lattice", "characteristic",
    "characteristic_simple", "classical_integral", "constant", "constant_simple",
    "cut_to_simple", "decompose_trace", "extend_measure", "indefinite_integral",
    "integrate_general", "integrate_simple",
    "join_meet", "leq", "limits", "measure_from_weights", "mul_nonneg", "negate",
    "nonnegativity_certificate", "powerset_lattice", "restrict_vs_multiply", "scale",
    "seq_inf", "seq_sup", "sf_add", "sf_mul", "sf_neg", "sf_scale", "summability",
    "to_cut_function", "to_localic", "validate_measure", "zero",
]

# Public names that no module and no benchmark op reaches, kept on purpose:
# the classical side of the bridge is the independent oracle for the
# pointfree integral (ROADMAP aim 2), and a planned verify criterion calls
# classical_integral (ROADMAP item 7).  Drop a name here once code uses it.
ORACLE_ONLY = {"classical_integral"}

# Every command loads these; the closures below add the layers it runs.
FRONT = {"locint", "locint.cli", "locint.documents", "locint.errors", "locint.lattice"}
SIMPLE = {"locint.rationals", "locint.simple"}
MEASURED = {"locint.congruence", "locint.measure", "locint.integrate", *SIMPLE}

# golden case -> the locint modules a cold run of it loads
CLOSURES = {
    "congruences_b4.text": FRONT | {"locint.congruence"},
    "canonicalize_b4.text": FRONT | {"locint.congruence"} | SIMPLE,
    "eval_b4_lattice.text": FRONT | SIMPLE | {"locint.cutfunction"},
    "integrate_b4.text": FRONT | MEASURED,
    "indefinite_b4.json": FRONT | MEASURED,
    "decompose_one.text": FRONT | SIMPLE | {"locint.cutfunction"},
    "bridge_samples.text": FRONT | MEASURED | {"locint.bridge"},
    "validate_samples.text": FRONT | MEASURED | {"locint.bridge"},
    VERIFY_CASE: FRONT | MEASURED | {"locint.bridge", "locint.cutfunction",
                                     "locint.corpus", "locint.verify"},
}

NEVER = {"dataclasses", "inspect"}


def env():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def probe():
    out = subprocess.run([sys.executable, "-c", PROBE], check=True, capture_output=True,
                         text=True, env=env()).stdout
    return json.loads(out)


def test_cold_cli_import_loads_only_what_commands_run():
    result = probe()
    assert result["package_only"] == ["locint"]
    assert "locint.cli" in result["cli_loaded"]
    assert {"locint.verify", "locint.corpus", "locint.bridge", *NEVER}.isdisjoint(
        result["cli_loaded"])


def test_public_names_resolve_to_their_defining_module():
    result = probe()
    assert result["all"] == PUBLIC
    assert result["star"] == PUBLIC
    assert set(PUBLIC) <= set(result["dir"])
    assert result["resolved"] == {name: True for name in PUBLIC}
    assert result["missing"] == "AttributeError"


def cold_run(argv):
    """Exit code, stdout, stderr without the import lines, and the set of
    modules a fresh ``python -X importtime -m locint`` imported."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "locint", *argv],
                          capture_output=True, text=True, cwd=ROOT, env=env(), timeout=300)
    loaded, err = set(), []
    for line in proc.stderr.splitlines(keepends=True):
        if line.startswith("import time:"):
            loaded.add(line.rsplit("|", 1)[1].strip())
        else:
            err.append(line)
    return proc.returncode, proc.stdout, "".join(err), loaded


@pytest.mark.parametrize("case", sorted(CLOSURES))
def test_cold_command_loads_its_closure_and_matches_golden(case):
    argv = VERIFY_ARGV if case == VERIFY_CASE else CASES[case]
    code, out, err, loaded = cold_run(argv)
    golden = (GOLDEN / f"{case}.out").read_text(encoding="utf-8")
    head, rest = golden.split("\n--- stdout\n", 1)
    expected_out, _, expected_err = rest.partition("--- stderr\n")
    assert (f"exit: {code}", out) == (head, expected_out)
    if case != VERIFY_CASE:  # verify's stderr holds its timings
        assert err == expected_err
    assert {m for m in loaded if m.split(".")[0] == "locint"} == CLOSURES[case]
    assert NEVER.isdisjoint(loaded)
    if case.startswith("congruences"):
        assert "fractions" not in loaded


def identifier_uses(tree):
    """Per top-level statement, the name it defines (a def or a class, else
    None) and the identifiers it reads as a name, an attribute or an
    import, leaving out the name it defines."""
    out = []
    for top in tree.body:
        defining = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        used = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
        out.append((defining, used - {defining}))
    return out


def test_every_public_name_is_used():
    """Each name in ``locint.__all__`` is read by a library module other
    than ``__init__.py`` or by a benchmark op, outside its own definition
    and outside the definitions of public names that are unused in turn:
    a public name nothing runs is dead code."""
    import locint

    paths = [p for p in sorted((SRC / "locint").glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "perfbench").glob("*.py"))
    uses = [use for path in paths
            for use in identifier_uses(ast.parse(path.read_text(encoding="utf-8")))]
    dead = set()
    while True:
        used = set().union(*(ids for defining, ids in uses if defining not in dead))
        unused = set(locint.__all__) - used - ORACLE_ONLY
        if unused == dead:
            break
        dead = unused
    assert sorted(dead) == []
    assert ORACLE_ONLY <= set(locint.__all__) - used


# The structural guards that scan lines: name -> (a regex, the modules of
# src/locint that may match it, why no other module may).
OWNERSHIP = {
    "meet-join-tables": (r"(?<![A-Za-z0-9_])_(meet|join)\b", (),
                         "a lattice is its J-masks: meet and join are bit operations"),
    "frame-numbering": (r"(?<![A-Za-z0-9_])(_pos|index_of|_nabla|_delta)\b", (),
                        "S(L) is 2^J(L): a sublocale is its keep-mask, not a table position"),
    "space-frame-write": (r"\._frame\s*=(?!=)", ("bridge.py",),
                          "a space's frame is built by the bridge alone"),
    "value-vector": (r"\._(vec|terms)\b", ("simple.py",),
                     "a simple function is its value vector on the centre atoms"),
    "point-values": (r"\._point_values\(", ("integrate.py",),
                     "the layout is one value per point of J(L) only for the integrals"),
    "ladder-ints": (r"\._(den|grid|up|lo|fill)\b", ("cutfunction.py",),
                    "a cut function is its int grid and its upper J-mask ladder"),
    "ladder-builder": (r"(?<![A-Za-z0-9_])_from_grid\b", ("cutfunction.py", "simple.py"),
                       "the unchecked ladder builder takes a grid only simple.py derives"),
    "fraction-internals": (r"(?<![A-Za-z0-9_])_(numerator|denominator|normalize)\b", (),
                           "Fraction's private names (_normalize is gone in Python 3.12)"),
    "measure-ints": (r"\._(weights|inf|denom)\b", ("measure.py", "integrate.py"),
                     "a measure is its atom weights over one denominator and its +inf mask"),
    "frame-state": (r"\._(sublocale|point_bits|carrier|element_collapsing)\b",
                    ("congruence.py",), "the frame's caches and keep-mask builder"),
    "space-state": (r"\._(below|measure|names|atoms)\b", ("bridge.py",),
                    "a measurable space's tables and cached measure"),
}


def unowned_uses(pattern, owners, paths):
    """"file:line: text" for each line of `paths` outside `owners` that
    matches `pattern`."""
    return [f"{path.name}:{number}: {line.strip()}" for path in paths if path.name not in owners
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if re.search(pattern, line)]


@pytest.mark.parametrize("row", OWNERSHIP)
def test_private_state_is_used_only_by_its_owner(row):
    pattern, owners, reason = OWNERSHIP[row]
    assert unowned_uses(pattern, owners, sorted((SRC / "locint").glob("*.py"))) == [], reason


def test_a_sublocale_is_read_through_its_keep_mask():
    """Inside ``congruence.py`` every ``CongruenceFrame`` method takes a
    sublocale argument's mask through the one gate ``keep_of``, which
    rejects a sublocale of another lattice: no other method reads
    ``.keep`` off an argument."""
    assert ungated_keep_readers(CONGRUENCE_SOURCE) == set()


CONGRUENCE_SOURCE = (SRC / "locint" / "congruence.py").read_text(encoding="utf-8")


def ungated_keep_readers(source):
    """The ``CongruenceFrame`` methods other than ``keep_of`` that read
    ``.keep`` off one of their arguments."""
    frame = next(c for c in ast.parse(source).body
                 if isinstance(c, ast.ClassDef) and c.name == "CongruenceFrame")
    found = set()
    for fn in frame.body:
        if isinstance(fn, ast.FunctionDef) and fn.name != "keep_of":
            args = {a.arg for a in fn.args.args[1:] + fn.args.kwonlyargs}
            if any(isinstance(n, ast.Attribute) and n.attr == "keep"
                   and isinstance(n.value, ast.Name) and n.value.id in args
                   for n in ast.walk(fn)):
                found.add(fn.name)
    return found


def test_the_keep_mask_guard_sees_an_ungated_reader():
    """The guard above fails on a frame ``meet`` that reads its operands'
    masks directly, and on an ``element_of`` that skips the gate."""
    gated = "        return self._sublocale(self.keep_of(s) & self.keep_of(t))\n"
    assert CONGRUENCE_SOURCE.count(gated) == 1
    direct = CONGRUENCE_SOURCE.replace(gated, "        return self._sublocale(s.keep & t.keep)\n")
    assert ungated_keep_readers(direct) == {"meet"}
    gated = "        collapsed = self.lattice._full ^ self.keep_of(theta)\n"
    assert CONGRUENCE_SOURCE.count(gated) == 1
    direct = CONGRUENCE_SOURCE.replace(gated, "        collapsed = self.lattice._full ^ theta.keep\n")
    assert ungated_keep_readers(direct) == {"element_of"}


def test_only_simple_reads_the_value_vector():
    """The vector is a simple function's one state, filled at construction
    (``OWNERSHIP`` keeps every other module off it): ``simple.py`` never
    tests ``_vec is None``, and tests ``_terms is None`` only in the
    ``terms`` view."""
    source = (SRC / "locint" / "simple.py").read_text(encoding="utf-8")
    assert not re.search(r"_vec\s+is\s+None", source)
    view = re.search(r"\n    def terms\(self\).*?(?=\n    \S)", source, re.S)
    assert view and len(re.findall(r"_terms\s+is\s+None", source)) == \
        len(re.findall(r"_terms\s+is\s+None", view.group())) == 1


def test_a_cut_function_holds_one_ladder():
    """The lower ladder is the complement of the upper one: no slot stores
    it, and the builder takes the upper ladder alone."""
    from locint.cutfunction import CutFunction, _from_grid

    ladders = [s for s in CutFunction.__slots__ if s in ("_up", "_lo")]
    assert ladders == ["_up"]
    code = _from_grid.__code__
    assert code.co_varnames[:code.co_argcount] == ("carrier", "den", "grid", "up")


def test_the_integrals_read_no_names():
    """Every integral is one signed sum over the points of J(L), reading
    the value vector and the atom weights: ``integrate.py`` reads no
    ``.terms`` or ``.breakpoints``, imports no ladder operation, and maps
    an element name to a congruence only in ``_term_measure``, the route
    of ``integral_of_representation``, which takes named terms."""
    source = (SRC / "locint" / "integrate.py").read_text(encoding="utf-8")
    assert not re.findall(r"\.(?:terms|breakpoints)\b", source)
    imported = re.findall(r"^\s*from\s+\S+\s+import\s+(\([^)]*\)|.*)$", source, re.M)
    names = set(re.findall(r"\w+", " ".join(imported)))
    assert names.isdisjoint({"join_meet", "negate", "constant", "to_cut_function"})
    for chunk in re.split(r"\n(?=\S)", source):  # top-level statements
        if "congruence_of_element" in chunk:
            assert chunk.startswith("def _term_measure("), chunk.split("\n", 1)[0]


def test_no_public_callable_takes_a_private_parameter():
    """No public function, and no constructor, public method or classmethod
    of a public class, takes a parameter whose name starts with "_": a
    flag that skips checks or reaches into internals has no place on the
    public surface.  Runs in-process, so ``inspect`` is loaded here only."""
    import inspect

    import locint

    offenders = []
    for name in locint.__all__:
        obj = getattr(locint, name)
        if inspect.isclass(obj):
            members = [("__init__", obj.__init__)]
            members += [(m, getattr(obj, m)) for m in dir(obj) if not m.startswith("_")]
        elif inspect.isroutine(obj):
            members = [(None, obj)]
        else:
            continue
        for member, fn in members:
            if not callable(fn) or inspect.isclass(fn):
                continue
            try:
                params = inspect.signature(fn).parameters
            except (TypeError, ValueError):  # a builtin without a signature
                continue
            where = name if member is None else f"{name}.{member}"
            offenders += [f"{where}({p}=...)" for p in params if p.startswith("_")]
    assert offenders == []
