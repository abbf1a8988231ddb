"""Golden-file tests for the command line: every command, in text and JSON,
on the sample documents and on the documents in ``tests/golden/docs``.

Each case runs ``cli.main`` in-process from the repository root and
compares the exit code, stdout and stderr with ``tests/golden/<case>.out``.
``locint verify --seed 0 --format json`` is recorded too, by its stdout
alone (its stderr holds per-criterion timings), in ``verify_seed0.json.out``,
and so is the stdout of ``scripts/demo_running_example.py``, run as a
script, in ``demo_running_example.out``.
To record the files again after an intended change of output, run
``PYTHONPATH=src python tests/test_cli_golden.py`` and review the diff."""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from locint.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
D = "tests/golden/docs/"
B4 = "sample_docs/b4.json"
DIV12 = D + "div12.json"
CHAIN4 = D + "chain4.json"

COMMANDS = {
    # the sample documents
    "validate_samples": ["validate", "--lattice", B4, "--measure", "sample_docs/mu.json",
                         "--function", "sample_docs/f.json", "--carrier", "congruence",
                         "--space", "sample_docs/space.json"],
    "congruences_b4": ["congruences", "--lattice", B4],
    "canonicalize_b4": ["canonicalize", "--lattice", B4, "--function", "sample_docs/f.json",
                        "--carrier", "congruence"],
    "eval_b4_lattice": ["eval", "--lattice", B4, "--function", "sample_docs/one.json"],
    "eval_b4_congruence": ["eval", "--lattice", B4, "--function", "sample_docs/f.json",
                           "--carrier", "congruence"],
    "integrate_b4": ["integrate", "--lattice", B4, "--measure", "sample_docs/mu.json",
                     "--function", "sample_docs/f.json"],
    "integrate_b4_over_open": ["integrate", "--lattice", B4, "--measure", "sample_docs/mu.json",
                               "--function", "sample_docs/f.json", "--over", "open:x"],
    "integrate_b4_over_blocks": ["integrate", "--lattice", B4, "--measure", "sample_docs/mu.json",
                                 "--function", "sample_docs/f.json", "--over", "blocks:0,y|x,1"],
    "integrate_b4_extended": ["integrate", "--lattice", B4, "--measure", "sample_docs/mu.json",
                              "--function", D + "f_extended.json"],
    "indefinite_b4": ["indefinite", "--lattice", B4, "--measure", "sample_docs/mu.json",
                      "--function", "sample_docs/f.json"],
    "decompose_one": ["decompose", "--function", "sample_docs/one.json", "--k", "7"],
    "decompose_b4_congruence": ["decompose", "--lattice", B4, "--function", "sample_docs/f.json",
                                "--carrier", "congruence", "--k", "3"],
    "bridge_samples": ["bridge", "--space", "sample_docs/space.json",
                       "--function", "sample_docs/fclassical.json"],
    "bridge_samples_over": ["bridge", "--space", "sample_docs/space.json",
                            "--function", "sample_docs/fclassical.json", "--over", "x"],
    # div12 and the 4-chain, with blocks refs
    "congruences_div12": ["congruences", "--lattice", DIV12],
    "congruences_chain4": ["congruences", "--lattice", CHAIN4],
    "validate_div12": ["validate", "--lattice", DIV12, "--measure", D + "mu_div12.json",
                       "--function", D + "f_div12.json", "--carrier", "congruence"],
    "canonicalize_div12": ["canonicalize", "--lattice", DIV12, "--function", D + "f_div12.json",
                           "--carrier", "congruence"],
    "eval_div12": ["eval", "--lattice", DIV12, "--function", D + "cut_div12.json",
                   "--carrier", "congruence"],
    "integrate_div12": ["integrate", "--lattice", DIV12, "--measure", D + "mu_div12.json",
                        "--function", D + "f_div12.json"],
    "integrate_div12_over_blocks": ["integrate", "--lattice", DIV12,
                                    "--measure", D + "mu_div12.json",
                                    "--function", D + "f_div12.json",
                                    "--over", "blocks:1,2|3,6|4|12"],
    "integrate_div12_cut": ["integrate", "--lattice", DIV12, "--measure", D + "mu_div12.json",
                            "--function", D + "cut_div12.json", "--over", "closed:2"],
    "indefinite_div12": ["indefinite", "--lattice", DIV12, "--measure", D + "mu_div12.json",
                         "--function", D + "cut_div12.json"],
    "decompose_div12_congruence": ["decompose", "--lattice", DIV12,
                                   "--function", D + "cut_div12.json",
                                   "--carrier", "congruence", "--k", "3"],
    "canonicalize_chain4_lattice": ["canonicalize", "--lattice", CHAIN4,
                                    "--function", D + "f_chain4_lattice.json"],
    "integrate_chain4_over_blocks": ["integrate", "--lattice", CHAIN4,
                                     "--measure", D + "mu_chain4.json",
                                     "--function", D + "f_chain4.json",
                                     "--over", "blocks:0|a,b|1"],
    "indefinite_chain4": ["indefinite", "--lattice", CHAIN4, "--measure", D + "mu_chain4.json",
                          "--function", D + "f_chain4_pos.json"],
    "bridge_algebra": ["bridge", "--space", D + "space_algebra.json",
                       "--function", D + "fclassical_algebra.json"],
    "bridge_algebra_over": ["bridge", "--space", D + "space_algebra.json",
                            "--function", D + "fclassical_algebra.json", "--over", "p"],
    # failures, exit 2 or 3
    "not_congruence_over": ["integrate", "--lattice", B4, "--measure", "sample_docs/mu.json",
                            "--function", "sample_docs/f.json", "--over", "blocks:0,x|y|1"],
    "not_congruence_measure": ["validate", "--lattice", B4,
                               "--measure", D + "mu_not_congruence.json"],
    "not_congruence_term": ["canonicalize", "--lattice", B4, "--carrier", "congruence",
                            "--function", D + "f_not_congruence.json"],
    "measure_m1": ["validate", "--lattice", B4, "--measure", D + "mu_m1.json"],
    "measure_m2": ["validate", "--lattice", B4, "--measure", D + "mu_m2.json"],
    "measure_m3": ["validate", "--lattice", B4, "--measure", D + "mu_m3.json"],
    "weights_not_boolean": ["validate", "--lattice", DIV12, "--measure", D + "weights_div12.json"],
    # both measure keys: the non-total "values" table is not skipped
    "measure_both_keys": ["validate", "--lattice", B4, "--measure", D + "mu_both.json"],
    # two refs that resolve to one sublocale: "L" and the blocks of equality
    "measure_same_sublocale": ["integrate", "--lattice", B4,
                               "--measure", D + "mu_same_sublocale.json",
                               "--function", "sample_docs/f.json"],
    "indefinite_signed": ["indefinite", "--lattice", CHAIN4, "--measure", D + "mu_chain4.json",
                          "--function", D + "f_chain4.json"],
    "not_integrable": ["integrate", "--lattice", B4, "--measure", D + "mu_inf.json",
                       "--function", D + "f_signed.json"],
    "decompose_k0": ["decompose", "--function", "sample_docs/one.json", "--k", "0"],
    "decompose_k_cap": ["decompose", "--function", "sample_docs/one.json", "--k", "100000000"],
    "space_powerset_extra": ["validate", "--space", D + "space_powerset_extra.json"],
    "space_algebra_extra": ["validate", "--space", D + "space_algebra_extra.json"],
    # an unclosed algebra is named whatever lambda holds
    "space_unclosed": ["validate", "--space", D + "space_unclosed.json"],
    "space_unclosed_no_atom": ["validate", "--space", D + "space_unclosed_no_atom.json"],
    "space_unclosed_extra": ["validate", "--space", D + "space_unclosed_extra.json"],
    # spaces beyond the 64-set cap
    "space_powerset7": ["validate", "--space", D + "space_powerset7.json"],
    "space_algebra65": ["validate", "--space", D + "space_algebra65.json"],
    "bridge_powerset7": ["bridge", "--space", D + "space_powerset7.json",
                         "--function", "sample_docs/fclassical.json"],
    # an order pair with a non-string member
    "leq_nonstring": ["congruences", "--lattice", D + "leq_nonstring.json"],
    # listed subsets whose members are not all strings
    "space_nonstring_member": ["validate", "--space", D + "space_nonstring_member.json"],
    "space_nested_subset": ["validate", "--space", D + "space_nested_subset.json"],
    # two members of the algebra with one name: a point named "{x,y}" or "0"
    "space_shared_name_braces": ["validate", "--space", D + "space_shared_name_braces.json"],
    "space_shared_name_zero": ["validate", "--space", D + "space_shared_name_zero.json"],
    "bridge_shared_name_braces": ["bridge", "--space", D + "space_shared_name_braces.json",
                                  "--function", D + "fclassical_shared_name_braces.json"],
    "bridge_shared_name_zero": ["bridge", "--space", D + "space_shared_name_zero.json",
                                "--function", D + "fclassical_shared_name_zero.json"],
    # a blocks ref with a member that is not a string, or blocks that are not lists
    "blocks_int_member": ["canonicalize", "--lattice", CHAIN4, "--carrier", "congruence",
                          "--function", D + "f_blocks_int.json"],
    "blocks_string_blocks": ["canonicalize", "--lattice", CHAIN4, "--carrier", "congruence",
                             "--function", D + "f_blocks_strings.json"],
    # a document saved as Latin-1, not UTF-8
    "lattice_latin1": ["congruences", "--lattice", D + "powerset_latin1.json"],
    # keys outside the document's kind, and a rational that is a JSON number
    "lattice_unknown_key": ["congruences", "--lattice", D + "lattice_unknown_key.json"],
    "constant_with_terms": ["canonicalize", "--lattice", B4,
                            "--function", D + "f_constant_terms.json"],
    "classical_extra_key": ["bridge", "--space", "sample_docs/space.json",
                            "--function", D + "fclassical_extra_key.json"],
    # a bridge over a set outside the algebra, and values that miss or add a point
    "bridge_over_unknown": ["bridge", "--space", "sample_docs/space.json",
                            "--function", "sample_docs/fclassical.json", "--over", "zzz"],
    "classical_missing_point": ["bridge", "--space", "sample_docs/space.json",
                                "--function", D + "fclassical_missing_point.json"],
    "classical_extra_point": ["bridge", "--space", "sample_docs/space.json",
                              "--function", D + "fclassical_extra_point.json"],
    "blocks_extra_key": ["canonicalize", "--lattice", CHAIN4, "--carrier", "congruence",
                         "--function", D + "f_blocks_extra_key.json"],
    "numeric_coefficient": ["integrate", "--lattice", B4, "--measure", "sample_docs/mu.json",
                            "--function", D + "f_numeric_coefficient.json"],
    # a rational and a ref padded with whitespace
    "padded_rational": ["integrate", "--lattice", B4, "--measure", "sample_docs/mu.json",
                        "--function", D + "f_padded_rational.json"],
    # an infinity with a sign other than "-"
    "plus_inf_constant": ["eval", "--lattice", B4, "--function", D + "f_plus_inf.json"],
    # a name holding a separator of a printed blocks ref
    "chain_comma_name": ["congruences", "--lattice", D + "chain_comma_name.json"],
    # exits that no other case reaches
    "weights_missing_atom": ["validate", "--lattice", B4,
                             "--measure", D + "weights_missing_atom.json"],
    "blocks_element_twice": ["canonicalize", "--lattice", CHAIN4, "--carrier", "congruence",
                             "--function", D + "f_blocks_twice.json"],
    "blocks_element_uncovered": ["canonicalize", "--lattice", CHAIN4, "--carrier", "congruence",
                                 "--function", D + "f_blocks_uncovered.json"],
    "canonicalize_inf_constant": ["canonicalize", "--lattice", B4, "--function", D + "f_inf.json"],
    "indefinite_inf_constant": ["indefinite", "--lattice", B4, "--measure", "sample_docs/mu.json",
                                "--function", D + "f_inf.json"],
    "eval_inf_constant": ["eval", "--lattice", B4, "--function", D + "f_inf.json"],
    "powerset7": ["congruences", "--lattice", D + "powerset7.json"],
    "space_unknown_point": ["validate", "--space", D + "space_unknown_point.json"],
    "missing_document": ["congruences", "--lattice", D + "missing.json"],
}

CASES = {f"{name}.{fmt}": argv + ["--format", fmt]
         for name, argv in COMMANDS.items() for fmt in ("text", "json")}

VERIFY_CASE = "verify_seed0.json"
VERIFY_ARGV = ["verify", "--seed", "0", "--format", "json"]
DEMO_CASE = "demo_running_example"
DEMO = ROOT / "scripts" / "demo_running_example.py"


def run_streams(argv):
    """Exit code, stdout and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def run(argv) -> str:
    """Exit code, stdout and stderr of one in-process run, as one text."""
    code, out, err = run_streams(argv)
    return f"exit: {code}\n--- stdout\n{out}--- stderr\n{err}"


def run_verify() -> str:
    """Exit code and stdout of ``locint verify --seed 0 --format json``."""
    code, out, _ = run_streams(VERIFY_ARGV)
    return f"exit: {code}\n--- stdout\n{out}"


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden_file(case):
    expected = (GOLDEN / f"{case}.out").read_text(encoding="utf-8")
    assert run(CASES[case]) == expected


def test_verify_stdout_matches_golden_file():
    expected = (GOLDEN / f"{VERIFY_CASE}.out").read_text(encoding="utf-8")
    assert run_verify() == expected


def run_demo() -> str:
    """Stdout of the demo script, run in a fresh interpreter."""
    return subprocess.run([sys.executable, str(DEMO)], check=True, capture_output=True,
                          text=True, encoding="utf-8").stdout


def test_demo_script_matches_golden_file():
    expected = (GOLDEN / f"{DEMO_CASE}.out").read_text(encoding="utf-8")
    assert run_demo() == expected


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.out")) == \
        sorted([*CASES, VERIFY_CASE, DEMO_CASE])


def record() -> None:
    for case, argv in CASES.items():
        (GOLDEN / f"{case}.out").write_text(run(argv), encoding="utf-8")
    (GOLDEN / f"{VERIFY_CASE}.out").write_text(run_verify(), encoding="utf-8")
    (GOLDEN / f"{DEMO_CASE}.out").write_text(run_demo(), encoding="utf-8")


if __name__ == "__main__":
    record()
