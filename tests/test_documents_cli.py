import json
from fractions import Fraction as F

import pytest

import locint.cutfunction as cf
from locint.cli import main
from locint.documents import (
    load_function,
    load_lattice,
    load_measure,
    load_space,
)
from locint.errors import MalformedDocument


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def docs(tmp_path):
    return {
        "lattice": write(tmp_path, "b4.json", {"kind": "powerset", "atoms": ["x", "y"]}),
        "measure": write(tmp_path, "mu.json", {"on_open_weights": {"x": "2", "y": "3"}}),
        "function": write(tmp_path, "f.json",
                          {"kind": "simple", "terms": [["2", "open:x"], ["3", "open:y"]]}),
        "one": write(tmp_path, "one.json", {"kind": "constant", "value": "1"}),
        "space": write(tmp_path, "space.json",
                       {"points": ["x", "y"], "algebra": "powerset",
                        "lambda": {"x": "2", "y": "3"}}),
        "classical": write(tmp_path, "fc.json",
                           {"kind": "classical", "values": {"x": "2", "y": "3"}}),
    }


def test_load_lattice_and_poset_closure():
    lat = load_lattice({"kind": "poset", "elements": ["0", "m", "1"],
                        "leq": [["0", "m"], ["m", "1"]]})
    assert lat.leq("0", "1")  # closure applied


def test_load_function_kinds(b4):
    view = b4.congruence_frame().view()
    fn = load_function({"kind": "constant", "value": "3/2"}, b4)
    assert fn.as_cut() == cf.constant(F(3, 2), b4)
    fn = load_function({"kind": "constant", "value": "inf"}, b4)
    assert not fn.as_cut().is_finite()
    fn = load_function({"kind": "simple", "terms": [["1", "x"], ["1", "1"]]}, b4)
    assert fn.as_simple().terms == ((F(1), "y"), (F(2), "x"))
    fn = load_function({"kind": "cut", "breakpoints": ["0", "1"],
                        "upper": ["1", "x", "0"], "lower": ["0", "y", "1"]}, b4)
    assert fn.as_cut() == cf.characteristic("x", b4)
    fn = load_function({"kind": "simple", "terms": [["2", "open:x"]]}, b4, view)
    assert fn.as_simple().carrier == b4.congruence_frame().as_lattice()


def test_load_function_errors(b4):
    with pytest.raises(MalformedDocument):
        load_function({"kind": "simple", "terms": [["2", "nope"]]}, b4)
    with pytest.raises(MalformedDocument):
        load_function({"kind": "wat"}, b4)
    with pytest.raises(MalformedDocument):
        load_function({"kind": "constant", "value": "1.x"}, b4)


def test_load_measure_both_forms(b4):
    view = b4.congruence_frame().view()
    mu1 = load_measure({"on_open_weights": {"x": "2", "y": "3"}}, view)
    mu2 = load_measure({"values": {"L": "5", "void": "0", "open:x": "2", "open:y": "3"}}, view)
    for s in view.sublocales:
        assert mu1.value(s) == mu2.value(s)
    with pytest.raises(MalformedDocument):
        load_measure({"values": {"L": "5"}}, view)


def test_load_space_with_explicit_algebra():
    sp = load_space({"points": ["x", "y", "z"],
                     "algebra": [["x", "y"], ["z"]],
                     "lambda": {"{x,y}": "5", "z": "7"}})
    assert len(sp.algebra) == 4
    assert sp.lam[frozenset(["x", "y", "z"])] == 12


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_integrate_matches_expected(docs, capsys):
    code, out, _ = run_cli(capsys, "integrate", "--lattice", docs["lattice"],
                           "--measure", docs["measure"], "--function", docs["function"])
    assert code == 0
    assert out == "13\nsummable\n"
    code, out, _ = run_cli(capsys, "integrate", "--lattice", docs["lattice"],
                           "--measure", docs["measure"], "--function", docs["function"],
                           "--over", "open:x")
    assert code == 0
    assert out.splitlines()[0] == "4"


def test_cli_decompose_trace_milestone(docs, capsys):
    code, out, _ = run_cli(capsys, "decompose", "--function", docs["one"], "--k", "7")
    assert code == 0
    assert out.rstrip().endswith("f_7 = 41/42")


def test_cli_congruences(docs, capsys):
    code, out, _ = run_cli(capsys, "congruences", "--lattice", docs["lattice"])
    assert code == 0
    assert out.splitlines()[0] == "4 congruences"
    assert any("nabla:x" in line for line in out.splitlines())


def test_cli_eval_and_canonicalize(docs, capsys):
    code, out, _ = run_cli(capsys, "eval", "--lattice", docs["lattice"],
                           "--function", docs["one"])
    assert code == 0 and "breakpoints: 1" in out
    code, out, _ = run_cli(capsys, "canonicalize", "--lattice", docs["lattice"],
                           "--function", docs["function"], "--carrier", "congruence")
    assert code == 0 and "canonical form:" in out


def test_cli_indefinite(docs, capsys):
    code, out, _ = run_cli(capsys, "indefinite", "--lattice", docs["lattice"],
                           "--measure", docs["measure"], "--function", docs["function"])
    assert code == 0
    assert "L -> 13" in out and "void -> 0" in out
    assert "M4 by finiteness" in out


def test_cli_bridge(docs, capsys):
    code, out, _ = run_cli(capsys, "bridge", "--space", docs["space"],
                           "--function", docs["classical"])
    assert code == 0 and "exact agreement" in out
    code, out, _ = run_cli(capsys, "bridge", "--space", docs["space"],
                           "--function", docs["classical"], "--over", "x")
    assert code == 0 and out.splitlines()[0].startswith("classical integral: 4")


def test_cli_validate(docs, capsys):
    code, out, _ = run_cli(capsys, "validate", "--lattice", docs["lattice"],
                           "--measure", docs["measure"], "--function", docs["function"],
                           "--carrier", "congruence", "--space", docs["space"])
    assert code == 0 and out.rstrip().endswith("valid")


def test_cli_exit_code_2_on_bad_documents(tmp_path, capsys):
    bad_lattice = write(tmp_path, "bad.json",
                        {"kind": "poset", "elements": ["0", "a", "b", "c", "1"],
                         "leq": [["0", "a"], ["0", "b"], ["0", "c"],
                                 ["a", "1"], ["b", "1"], ["c", "1"]]})
    code, _, err = run_cli(capsys, "congruences", "--lattice", bad_lattice)
    assert code == 2 and "distributivity" in err
    bad_measure = write(tmp_path, "badmu.json",
                        {"values": {"L": "5", "void": "0", "open:x": "4", "open:y": "3"}})
    lattice = write(tmp_path, "b4.json", {"kind": "powerset", "atoms": ["x", "y"]})
    fun = write(tmp_path, "f.json", {"kind": "constant", "value": "1"})
    code, _, err = run_cli(capsys, "integrate", "--lattice", lattice,
                           "--measure", bad_measure, "--function", fun)
    assert code == 2 and "(M3)" in err


def test_cli_decompose_horizon_zero_exits_2(docs, capsys):
    code, out, err = run_cli(capsys, "decompose", "--function", docs["one"], "--k", "0")
    assert code == 2 and out == ""
    assert err == "error: horizon must be at least 1\n"


def test_cli_rejects_rationals_outside_the_grammar(docs, tmp_path, capsys):
    for text in ["1e5", "0.5", "1_0"]:
        fun = write(tmp_path, "f.json", {"kind": "simple", "terms": [[text, "open:x"]]})
        code, out, err = run_cli(capsys, "integrate", "--lattice", docs["lattice"],
                                 "--measure", docs["measure"], "--function", fun)
        assert code == 2 and out == ""
        assert err == f"error: bad rational in term: {text!r}\n"


def test_cli_exit_code_3_on_undefined_operations(tmp_path, capsys):
    lattice = write(tmp_path, "c3.json",
                    {"kind": "poset", "elements": ["0", "m", "1"],
                     "leq": [["0", "m"], ["m", "1"]]})
    fun = write(tmp_path, "chi_m.json", {"kind": "simple", "terms": [["1", "m"]]})
    code, _, err = run_cli(capsys, "canonicalize", "--lattice", lattice, "--function", fun)
    assert code == 3 and "not complemented" in err
    # not integrable: infinite weights on both signs
    lattice = write(tmp_path, "b4.json", {"kind": "powerset", "atoms": ["x", "y"]})
    mu = write(tmp_path, "muinf.json", {"on_open_weights": {"x": "inf", "y": "inf"}})
    f = write(tmp_path, "fpm.json",
              {"kind": "simple", "terms": [["-1", "open:x"], ["1", "open:y"]]})
    code, _, err = run_cli(capsys, "integrate", "--lattice", lattice,
                           "--measure", mu, "--function", f)
    assert code == 3 and "infinite" in err


def test_cli_output_is_deterministic(docs, capsys):
    outs = set()
    for _ in range(2):
        _, out, _ = run_cli(capsys, "integrate", "--lattice", docs["lattice"],
                            "--measure", docs["measure"], "--function", docs["function"],
                            "--format", "json")
        outs.add(out)
    assert len(outs) == 1
    for _ in range(2):
        _, out, _ = run_cli(capsys, "congruences", "--lattice", docs["lattice"])
        outs.add(out)
    assert len(outs) == 2


def test_cli_json_format(docs, capsys):
    code, out, _ = run_cli(capsys, "integrate", "--lattice", docs["lattice"],
                           "--measure", docs["measure"], "--function", docs["function"],
                           "--format", "json")
    payload = json.loads(out)
    assert payload["integral"] == "13"
    assert payload["classification"] == "summable"
