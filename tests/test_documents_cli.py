import json
import re
from fractions import Fraction as F
from pathlib import Path

import pytest

import locint.bridge as bridge
import locint.cutfunction as cf
from locint.cli import main
from locint.documents import (
    GRAMMAR,
    build_lattice,
    load_classical_function,
    load_function,
    load_lattice,
    load_measure,
    load_space,
)
from locint.errors import MalformedDocument

README = Path(__file__).resolve().parent.parent / "README.md"


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


def test_load_lattice_is_build_lattice():
    assert load_lattice is build_lattice


def document_formats() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("\n## Document formats\n", 1)[1].split("\n## ", 1)[0]


def test_readme_names_exactly_the_grammar_keys():
    """README "Document formats" names every key of ``GRAMMAR`` and no
    other, apart from the key of a dict sublocale reference, which the
    carrier reads."""
    named = set(re.findall(r'"([a-z_]{2,})":', document_formats()))
    keys = {key for grammar in GRAMMAR.values()
            for rules in grammar["kinds"].values() for key in rules}
    assert named - {"blocks"} == keys
    assert "blocks" in named and "blocks" not in keys


def test_readme_states_what_lies_outside_the_grammar():
    section = " ".join(document_formats().split())
    for claim in ["exits 2 on the first rule it breaks", "has a key outside its kind",
                  "one of another kind", "given as a JSON number", "is malformed and exits 2"]:
        assert claim in section


@pytest.mark.parametrize("load, doc, message", [
    (build_lattice, {"kind": "powerset", "atoms": ["x"], "zzz": 1},
     "unknown key 'zzz' in a powerset lattice document"),
    (build_lattice, {"kind": ["powerset"], "atoms": ["x"]},
     "unknown lattice kind ['powerset'] (expected \"powerset\" or \"poset\")"),
    (build_lattice, {"kind": {"poset": 1}},
     "unknown lattice kind {'poset': 1} (expected \"powerset\" or \"poset\")"),
    (build_lattice, {"kind": "poset", "elements": ["a"], "leq": [("a", "a")]},
     "bad order pair: ('a', 'a')"),
    (load_space, {"kind": "space", "points": [], "lambda": {}},
     "unknown key 'kind' in a space document"),
    (load_space, {"points": [], "algebra": None, "lambda": {}},
     '"algebra" must be "powerset" or a list of subsets'),
    (load_space, {"points": ["p"], "lambda": {"p": 1}},
     "bad extended rational in lambda['p']: 1"),
])
def test_documents_outside_the_grammar(load, doc, message):
    with pytest.raises(MalformedDocument, match="^" + re.escape(message) + "$"):
        load(doc)


def test_function_and_measure_documents_outside_the_grammar(b4):
    frame = b4.congruence_frame()
    cases = [
        (lambda: load_function({"kind": "constant", "value": 2}, b4),
         "bad extended rational in constant: 2"),
        (lambda: load_function({"kind": "cut", "breakpoints": [0], "upper": ["1", "0"],
                                "lower": ["0", "1"]}, b4),
         "bad rational in breakpoints: 0"),
        (lambda: load_function({"kind": "simple", "terms": [["1", "x"]], "value": "1"}, b4),
         "unknown key 'value' in a simple function document"),
        (lambda: load_measure({"values": {"L": "1"}, "kind": "values"}, frame),
         "unknown key 'kind' in a measure document"),
        (lambda: load_measure({"on_open_weights": {"x": 1, "y": "1"}}, frame),
         "bad extended rational in weight of 'x': 1"),
        (lambda: load_classical_function({"kind": "classical", "values": {"x": 2}}, None),
         "bad rational in value at 'x': 2"),
        # refs are left to the carrier: over L a ref that is not a string names no element
        (lambda: load_function({"kind": "simple", "terms": [["1", 5]]}, b4),
         "unknown lattice element 5"),
        (lambda: load_function({"kind": "cut", "breakpoints": [], "upper": [{"blocks": []}],
                                "lower": ["0"]}, b4),
         "unknown lattice element {'blocks': []}"),
    ]
    for load, message in cases:
        with pytest.raises(MalformedDocument, match="^" + re.escape(message) + "$"):
            load()


def test_load_function_kinds(b4):
    frame = b4.congruence_frame()
    fn = load_function({"kind": "constant", "value": "3/2"}, b4)
    assert fn.cut == cf.constant(F(3, 2), b4)
    fn = load_function({"kind": "constant", "value": "inf"}, b4)
    assert not fn.cut.is_finite()
    fn = load_function({"kind": "simple", "terms": [["1", "x"], ["1", "1"]]}, b4)
    assert fn.as_simple().terms == ((F(1), "y"), (F(2), "x"))
    fn = load_function({"kind": "cut", "breakpoints": ["0", "1"],
                        "upper": ["1", "x", "0"], "lower": ["0", "y", "1"]}, b4)
    assert fn.cut == cf.characteristic("x", b4)
    fn = load_function({"kind": "simple", "terms": [["2", "open:x"]]}, b4, frame)
    assert fn.as_simple().carrier == b4.congruence_frame().as_lattice()


def test_load_function_errors(b4):
    with pytest.raises(MalformedDocument):
        load_function({"kind": "simple", "terms": [["2", "nope"]]}, b4)
    with pytest.raises(MalformedDocument):
        load_function({"kind": "wat"}, b4)
    with pytest.raises(MalformedDocument):
        load_function({"kind": "constant", "value": "1.x"}, b4)


def test_load_measure_both_forms(b4):
    frame = b4.congruence_frame()
    mu1 = load_measure({"on_open_weights": {"x": "2", "y": "3"}}, frame)
    mu2 = load_measure({"values": {"L": "5", "void": "0", "open:x": "2", "open:y": "3"}}, frame)
    for s in frame.congruences:
        assert mu1.value(s) == mu2.value(s)
    with pytest.raises(MalformedDocument):
        load_measure({"values": {"L": "5"}}, frame)


def test_load_space_with_explicit_algebra():
    sp = load_space({"points": ["x", "y", "z"],
                     "algebra": [["x", "y"], ["z"]],
                     "lambda": {"{x,y}": "5", "z": "7"}})
    assert len(sp.algebra) == 4
    assert sp.lam[frozenset(["x", "y", "z"])] == 12


@pytest.mark.parametrize("algebra", ["powerset", [["x"], ["y"]], [["x", "y"]]])
def test_load_space_rejects_lambda_keys_naming_no_atom(algebra):
    atoms = ["x", "y"] if algebra != [["x", "y"]] else ["1"]
    lam = {a: "1" for a in atoms}
    load_space({"points": ["x", "y"], "algebra": algebra, "lambda": lam})
    for extra in ("zzz", "{x,y}", "0"):
        if extra in atoms:
            continue
        message = f"weights given for non-atoms [{extra!r}]"
        with pytest.raises(MalformedDocument, match="^" + re.escape(message) + "$"):
            load_space({"points": ["x", "y"], "algebra": algebra,
                        "lambda": {**lam, extra: "5"}})


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


def test_cli_rejects_a_65_element_poset(tmp_path, capsys):
    names = [f"e{i}" for i in range(65)]
    chain = write(tmp_path, "chain65.json", {"kind": "poset", "elements": names,
                                             "leq": [list(p) for p in zip(names, names[1:])]})
    code, out, err = run_cli(capsys, "validate", "--lattice", chain)
    assert (code, out, err) == (2, "", "error: 65 elements exceeds the 64-element limit\n")


def test_cli_rejects_a_deeply_nested_document(tmp_path, capsys):
    # the JSON decoder recurses once per level, so this exceeds any recursion limit
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli(capsys, "congruences", "--lattice", str(path))
    assert (code, out, err) == (2, "", f"error: {path} nests too deeply to read\n")


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


def test_cli_rejects_minus_inf_atom_weight(docs, tmp_path, capsys):
    mu = write(tmp_path, "mu.json", {"on_open_weights": {"x": "inf", "y": "-inf"}})
    code, out, err = run_cli(capsys, "integrate", "--lattice", docs["lattice"],
                             "--measure", mu, "--function", docs["function"])
    assert code == 2 and out == ""
    assert err == "error: measure values must lie in [0, inf]; got -inf\n"


def test_cli_rejects_minus_inf_point_weight(tmp_path, capsys):
    space = write(tmp_path, "space.json", {"points": ["p", "q"], "algebra": "powerset",
                                           "lambda": {"p": "inf", "q": "-inf"}})
    fun = write(tmp_path, "f.json", {"kind": "classical", "values": {"p": "1", "q": "2"}})
    code, out, err = run_cli(capsys, "bridge", "--space", space, "--function", fun)
    assert code == 2 and out == ""
    assert err == "error: measure values must lie in [0, inf]; got -inf\n"


def test_cli_validate_rejects_negative_lambda(tmp_path, capsys):
    # bridge on this space always exited 2; validate must agree
    space = write(tmp_path, "space.json", {"points": ["p", "q"], "algebra": "powerset",
                                           "lambda": {"p": "-1", "q": "2"}})
    explicit = write(tmp_path, "alg.json", {"points": ["x", "y", "z"],
                                            "algebra": [["x"], ["y", "z"]],
                                            "lambda": {"x": "-1", "{y,z}": "4"}})
    for doc in (space, explicit):
        code, out, err = run_cli(capsys, "validate", "--space", doc)
        assert code == 2 and out == ""
        assert err == "error: measure values must lie in [0, inf]; got -1\n"


def test_cli_unclosed_algebra_exits_2_before_summing(tmp_path, capsys, monkeypatch):
    # 25 singletons are 25 "atoms": the algebra must be rejected before a
    # table of 2**25 sums is built
    real_sums = bridge.subset_sums

    def small_sums(weights):
        assert len(weights) <= 16, "subset sums built for an unchecked algebra"
        return real_sums(weights)

    monkeypatch.setattr(bridge, "subset_sums", small_sums)
    points = [f"p{i}" for i in range(25)]
    space = write(tmp_path, "space.json", {"points": points,
                                           "algebra": [[p] for p in points],
                                           "lambda": {p: "1" for p in points}})
    code, out, err = run_cli(capsys, "validate", "--space", space)
    assert code == 2 and out == ""
    assert err.startswith("error: the algebra is not closed under complement at [")


@pytest.mark.parametrize("points, algebra, message", [
    (40, "powerset", "a powerset over 40 points exceeds the 64-set limit"),
    (7, "powerset", "a powerset over 7 points exceeds the 64-set limit"),
    (63, "singletons", "an algebra of 65 sets exceeds the 64-set limit"),
])
def test_cli_space_cap_exits_2_before_building_any_table(tmp_path, capsys, monkeypatch,
                                                          points, algebra, message):
    # the weights are checked just before the powerset's subsets are
    # built, so without the cap this fails before 2**40 sets are built
    def beyond_the_cap(*args):
        raise AssertionError("weights checked or summed for a space beyond the cap")

    monkeypatch.setattr(bridge, "check_measure_value", beyond_the_cap)
    monkeypatch.setattr(bridge, "subset_sums", beyond_the_cap)
    names = [f"p{i}" for i in range(points)]
    doc = {"points": names, "lambda": {p: "1" for p in names},
           "algebra": "powerset" if algebra == "powerset" else [[p] for p in names]}
    space = write(tmp_path, "space.json", doc)
    fun = write(tmp_path, "f.json", {"kind": "classical", "values": {p: "1" for p in names}})
    for argv in (["validate", "--space", space], ["bridge", "--space", space, "--function", fun]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"
