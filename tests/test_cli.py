import hashlib
import json
import os
import pathlib
import random
import resource
import subprocess
import sys

import pytest

import callan
from callan.cli import main
from callan.combinat import BLUE, RED, Bar, CallanPair

GOLDEN = pathlib.Path(__file__).parent / "golden"

CTABLE_CSV = """\
n\\k,0,1,2,3,4,5
0,1,1,1,1,1,1
1,1,3,7,15,31,63
2,1,7,31,115,391,1267
3,1,15,115,675,3451,16275
4,1,31,391,3451,25231,164731
5,1,63,1267,16275,164731,1441923
"""


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_genocchi_listing(capsys):
    code, out, _ = run(capsys, "genocchi", "--max", "6")
    assert code == 0
    assert out.splitlines() == ["0 0", "1 1", "2 -1", "3 0", "4 1", "5 0", "6 -3"]


def test_genocchi_negative_max(capsys):
    code, _, err = run(capsys, "genocchi", "--max", "-1")
    assert code == 2 and "nonnegative" in err


def test_ctable_csv(capsys):
    code, out, _ = run(capsys, "number", "--family", "ctable", "--n", "5", "--k", "5")
    assert code == 0
    assert out == CTABLE_CSV


def test_ctable_defaults_to_five(capsys):
    code, out, _ = run(capsys, "number", "--family", "ctable")
    assert code == 0 and out == CTABLE_CSV


def test_number_values(capsys):
    code, out, _ = run(capsys, "number", "--family", "b", "--n", "2", "--k", "-2")
    assert code == 0 and out.strip() == "14"
    code, out, _ = run(capsys, "number", "--family", "c", "--n", "4", "--k", "1")
    assert code == 0 and out.strip() == "-1/30"


@pytest.mark.parametrize("argv,digest", [
    (("genocchi", "--max", "2000"),
     "5cad719c09c3b44209881e6aeaab140db799873362068a225cc29db12ad4bc3a"),
    (("number", "--family", "b", "--n", "5", "--k", "-100000"),
     "3d61e08fc2bf0dd2cfd62a75ee115e752f38f8ce9bf3bbd5b70f3fe9a9a5b551"),
    (("number", "--family", "c", "--n", "100000", "--k", "-4"),
     "f770f001149916a02fdeda8874a31cb014b71d671a4f3c4bb171acfa41099a13"),
    (("number", "--family", "c", "--n", "3", "--k", "-100001"),
     "f770f001149916a02fdeda8874a31cb014b71d671a4f3c4bb171acfa41099a13"),
], ids=["genocchi-2000", "b-5-100000", "c-100000-4", "c-3-100001"])
def test_number_commands_print_integers_past_the_text_limit(capsys, argv, digest):
    # G_1842 has 4,301 digits and the B value 77,816; the digests are of
    # the values genocchi_list(2000) and the series columns give
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_number_requires_indices(capsys):
    code, _, err = run(capsys, "number", "--family", "b")
    assert code == 2 and "--n" in err


@pytest.mark.parametrize("argv", [
    ("number", "--family", "b", "--n", "-1", "--k", "2"),
    ("number", "--family", "c", "--n", "-1", "--k", "2"),
    ("number", "--family", "ctable", "--n", "-2", "--k", "3"),
    ("number", "--family", "ctable", "--n", "3", "--k", "-1"),
    ("verify", "--claim", "phi", "--max-weight", "-3"),
    ("verify", "--max-weight", "-3"),
])
def test_negative_sizes_exit_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"{argv[0]}: ") and "nonnegative" in err
    assert len(err.splitlines()) == 1


def test_enumerate_count_only(capsys):
    code, out, _ = run(capsys, "enumerate", "--kind", "mbarred",
                       "--k", "1", "--n", "1", "--m", "1", "--count-only")
    assert code == 0 and out.strip() == "5"


def test_enumerate_callan_count(capsys):
    code, out, _ = run(capsys, "enumerate", "--kind", "callan",
                       "--k", "2", "--n", "2", "--count-only")
    assert code == 0 and out.strip() == "14"


def test_enumerate_mbarred_json_lines(capsys):
    code, out, _ = run(capsys, "enumerate", "--kind", "mbarred",
                       "--k", "2", "--n", "1", "--json")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 7
    for line in lines:
        obj = json.loads(line)
        assert (obj["m"], obj["k"], obj["n"]) == (0, 2, 1)


# sha256 of `enumerate --kind mbarred --json` per (k, n, m): the four
# bar-heavy cells of the benchmark's stream workload and one small cell,
# recorded while canonical_json still went through json.dumps and the bar
# search still scanned the whole pool.
PINNED_ENUMERATIONS = {
    (1, 1, 4): "8a3877133b2c3521ac712c1873eb80c38c9da4ff409cda036f8afae9827c52a3",
    (2, 2, 3): "47613f22c929144efc14beb4cc3890a32393c32cc40b53d4e997718247f32588",
    (3, 2, 3): "b0b88b09de9efa1640ce375b499a078953ce6d0d26f1a53df6a1e9909ad94cc8",
    (0, 0, 5): "1fd540ccab75259107e025d913b3c665917ddd9e41758741063c9507002fc985",
    (2, 2, 1): "446c5d2d7e824123822ca0874d77c485c77c928cd8838fe4c6fba00ddba24e2f",
}


@pytest.mark.parametrize("k,n,m", sorted(PINNED_ENUMERATIONS))
def test_enumerate_mbarred_json_reproduces_pinned_digest(capsys, k, n, m):
    code, out, _ = run(capsys, "enumerate", "--kind", "mbarred",
                       "--k", str(k), "--n", str(n), "--m", str(m), "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_ENUMERATIONS[(k, n, m)]


def test_enumerate_dumont(capsys):
    code, out, _ = run(capsys, "enumerate", "--kind", "dumont", "--n", "4")
    assert code == 0
    assert sorted(out.splitlines()) == ["2 1 4 3", "3 4 2 1", "4 2 1 3"]


def test_enumerate_dumont_odd_rejected(capsys):
    code, _, err = run(capsys, "enumerate", "--kind", "dumont", "--n", "5")
    assert code == 2 and "even" in err


# The --json bytes of the two enumerations that bypass the m-barred text
# writer, recorded while the wire format still had a dict writer besides
# the text one: the Callan pairs, and the Dumont permutations (17 of them,
# lexicographic).
PINNED_CALLAN_JSON = """\
{"k":2,"n":1,"shift":0,"pairs":[{"blue":[1,2],"red":[1],"extra":true}]}
{"k":2,"n":1,"shift":0,"pairs":[{"blue":[1],"red":[1],"extra":false},{"blue":[2],"red":[],"extra":true}]}
{"k":2,"n":1,"shift":0,"pairs":[{"blue":[1,2],"red":[1],"extra":false},{"blue":[],"red":[],"extra":true}]}
{"k":2,"n":1,"shift":0,"pairs":[{"blue":[2],"red":[1],"extra":false},{"blue":[1],"red":[],"extra":true}]}
"""
PINNED_DUMONT_6_JSON = "dc4532955ed6fd0746386e59d1f82af47c383eab588882d8cc10c193152480dc"


def test_enumerate_callan_json_reproduces_pinned_bytes(capsys):
    code, out, _ = run(capsys, "enumerate", "--kind", "callan", "--k", "2", "--n", "1", "--json")
    assert code == 0 and out == PINNED_CALLAN_JSON


def test_enumerate_dumont_json_reproduces_pinned_digest(capsys):
    code, out, _ = run(capsys, "enumerate", "--kind", "dumont", "--n", "6", "--json")
    assert code == 0 and len(out.splitlines()) == 17 and out.startswith("[2, 1, 4, 3, 6, 5]\n")
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_DUMONT_6_JSON


def test_enumerate_dumont_count_only(capsys):
    code, out, _ = run(capsys, "enumerate", "--kind", "dumont", "--n", "6", "--count-only")
    assert (code, out) == (0, "17\n")


def test_enumerate_callan_text_lines(capsys):
    code, out, _ = run(capsys, "enumerate", "--kind", "callan", "--k", "2", "--n", "1")
    assert code == 0
    assert out == (
        "({1,2,*},{1,*})\n({1},{1})({2,*},{*})\n({1,2},{1})({*},{*})\n({2},{1})({1,*},{*})\n"
    )


@pytest.mark.parametrize("argv,reason", [
    (("--k", "1"), "mbarred needs --k and --n"),
    (("--k", "1", "--n", "1", "--m", "-1"), "sizes must be nonnegative"),
])
def test_enumerate_mbarred_refuses_missing_or_negative_sizes(capsys, argv, reason):
    code, out, err = run(capsys, "enumerate", "--kind", "mbarred", *argv)
    assert (code, out, err) == (2, "", f"enumerate: {reason}\n")


@pytest.mark.parametrize("argv", [
    ("--kind", "mbarred", "--k", "0", "--n", "0", "--m", "600"),
    ("--kind", "mbarred", "--k", "0", "--n", "0", "--m", "600", "--count-only"),
    ("--kind", "dumont", "--n", "1200"),
])
def test_enumerate_refuses_a_bar_search_deeper_than_the_recursion_limit(capsys, argv):
    # the bar search nests once per bar: 1201 bars fail before any output
    code, out, err = run(capsys, "enumerate", *argv)
    reason = "the bar search nests once per bar, and 1201 bars pass Python's recursion limit"
    assert (code, out, err) == (2, "", f"enumerate: m = 600: {reason}\n")


def test_readme_map_example_prints_its_case(tmp_path, capsys):
    # the README's `map --which phi` example, run on the first line of the
    # enumeration that it pipes into seq.json; "[...]" elides the elements
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    shown = readme.split("$ callan map --which phi --input seq.json\n", 1)[1].split("\n", 1)[0]
    code, out, _ = run(capsys, "enumerate", "--kind", "mbarred", "--k", "1", "--n", "2", "--json")
    src = tmp_path / "seq.json"
    src.write_text(out.splitlines()[0] + "\n")
    code, out, _ = run(capsys, "map", "--which", "phi", "--input", str(src))
    head, tail = shown.split("[...]")
    assert code == 0 and out.startswith(head) and out.endswith(tail + "\n")


def test_map_phi_golden(tmp_path, capsys):
    doc = json.loads((GOLDEN / "phi_a1.json").read_text())
    src = tmp_path / "in.json"
    src.write_text(json.dumps(doc["input"]))
    code, out, _ = run(capsys, "map", "--which", "phi", "--input", str(src))
    assert code == 0
    result = json.loads(out)
    assert result["case"] == "A1"
    assert result["result"] == doc["output"]


def test_map_pipeline_psi_stages(tmp_path, capsys):
    doc = json.loads((GOLDEN / "psi_b.json").read_text())
    src = tmp_path / "in.json"
    src.write_text(json.dumps(doc["input"]))
    code, out, _ = run(capsys, "map", "--which", "psi-b", "--input", str(src))
    assert code == 0
    stage_one = json.loads(out)["result"]
    assert stage_one == doc["output"]
    mid = tmp_path / "mid.json"
    mid.write_text(json.dumps(stage_one))
    code, out, _ = run(capsys, "map", "--which", "psi-r", "--input", str(mid))
    assert code == 0
    code2, out2, _ = run(capsys, "map", "--which", "psi", "--input", str(src))
    assert code2 == 0
    assert json.loads(out)["result"] == json.loads(out2)["result"]


def test_map_domain_error_exits_one(tmp_path, capsys):
    doc = json.loads((GOLDEN / "phi_a1.json").read_text())
    src = tmp_path / "out.json"
    src.write_text(json.dumps(doc["output"]))  # star-only: not in phi's domain
    code, _, err = run(capsys, "map", "--which", "phi", "--input", str(src))
    assert code == 1 and "extra red block" in err


def test_map_missing_file(capsys):
    code, _, err = run(capsys, "map", "--which", "phi", "--input", "/no/such.json")
    assert code == 2 and "cannot read" in err


def test_map_exits_two_on_a_file_that_is_not_utf8(tmp_path, capsys):
    src = tmp_path / "utf16.json"
    src.write_bytes(b"\xff\xfe{}")
    code, out, err = run(capsys, "map", "--which", "phi", "--input", str(src))
    assert (code, out) == (2, "")
    assert err.startswith(f"map: cannot read {src}: ") and len(err.splitlines()) == 1


def test_verify_human_output(capsys):
    code, out, _ = run(capsys, "verify", "--claim", "thm1")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "17 reports, 17 passed, 0 failed"
    assert all(line.startswith("pass") for line in lines[:-1])


def test_verify_json_lines(capsys):
    code, out, _ = run(capsys, "verify", "--claim", "prop-rec",
                       "--max-weight", "4", "--json")
    assert code == 0
    for line in out.splitlines():
        report = json.loads(line)
        assert report["status"] == "pass"
        assert report["claim_id"] == "prop-rec"


def test_verify_human_output_of_a_failing_report(capsys, monkeypatch):
    from callan import harness

    monkeypatch.setattr(harness, "phi_inverse", lambda t: t)
    code, out, _ = run(capsys, "verify", "--claim", "phi", "--max-weight", "2")
    lines = out.splitlines()
    assert code == 1 and lines[-1] == "3 reports, 0 passed, 3 failed"
    assert [line.split()[0] for line in lines[:-1]] == ["fail", "counterexample:"] * 3
    for line in lines[1:-1:2]:
        prefix, payload = line.split(": ", 1)
        assert prefix == "      counterexample"
        assert list(json.loads(payload)) == ["roundtrip"]


def test_verify_pb_zero_claim(capsys):
    code, out, _ = run(capsys, "verify", "--claim", "pb-zero", "--json")
    assert code == 0
    assert len(out.splitlines()) == 20


def test_verify_unknown_claim_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--claim", "bogus"])
    assert exc.value.code == 2


# |r0 ({1},{1}) ({*},{*}): in the domain of relabel, which maps it to itself.
WELLFORMED = {
    "m": 0, "k": 1, "n": 1,
    "elements": [
        {"bar": {"color": "red", "label": 0}},
        {"pair": {"blue": [1], "red": [1], "extra": False}},
        {"pair": {"blue": [], "red": [], "extra": True}},
    ],
}


def _set(*path_and_value):
    """A mutation of WELLFORMED: set the value at a key path."""
    *path, value = path_and_value

    def mutate(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return doc
    return mutate


# Each mutation makes WELLFORMED malformed; `map` must refuse it with exit 1
# and a one-line reason, never with a traceback and never with exit 0.
MALFORMED = {
    "top-level-array": lambda doc: [],
    "top-level-string": lambda doc: "seq",
    "bar-not-object": _set("elements", 0, {"bar": 5}),
    "bar-label-bool": _set("elements", 0, "bar", "label", False),
    "bar-label-float": _set("elements", 0, "bar", "label", 0.0),
    "bar-unknown-key": _set("elements", 0, "bar", "note", 1),
    "bar-color-unknown": _set("elements", 0, "bar", "color", "green"),
    "bar-key-renamed": _set("elements", 0, "bar", {"color": "red", "lbl": 0}),
    "pair-not-object": _set("elements", 1, {"pair": []}),
    "pair-member-bool": _set("elements", 1, "pair", "blue", [True]),
    "pair-member-string": _set("elements", 1, "pair", "red", ["1"]),
    "pair-block-not-array": _set("elements", 1, "pair", "red", 1),
    "pair-duplicate-member": _set("elements", 1, "pair", "red", [1, 1]),
    "pair-extra-int": _set("elements", 2, "pair", "extra", 1),
    "pair-extra-string": _set("elements", 1, "pair", "extra", ""),
    "pair-extra-missing": _set("elements", 1, "pair", {"blue": [1], "red": [1]}),
    "pair-key-renamed": _set("elements", 1, "pair", {"blue": [1], "red": [1], "x": 0}),
    "pair-unknown-key": _set("elements", 1, "pair", "star", True),
    "element-two-keys": _set("elements", 1, "bar", {"color": "red", "label": 0}),
    "size-float": _set("k", 1.7),
    "size-string": _set("k", "1"),
    "size-bool": _set("n", True),
    "elements-not-array": _set("elements", {}),
    "missing-key": lambda doc: {key: doc[key] for key in ("m", "k", "elements")},
    "unknown-key": _set("note", "x"),
    "intermediate-false": _set("intermediate", False),
}


def _map(tmp_path, capsys, which, doc):
    src = tmp_path / "in.json"
    src.write_text(json.dumps(doc))
    return run(capsys, "map", "--which", which, "--input", str(src))


def test_map_accepts_wellformed(tmp_path, capsys):
    code, out, _ = _map(tmp_path, capsys, "relabel", WELLFORMED)
    assert code == 0 and json.loads(out)["result"] == WELLFORMED


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_map_rejects_malformed_input(tmp_path, capsys, name):
    doc = MALFORMED[name](json.loads(json.dumps(WELLFORMED)))
    code, out, err = _map(tmp_path, capsys, "relabel", doc)
    assert (code, out) == (1, "")
    assert err.startswith("map: ") and len(err.splitlines()) == 1


def test_map_psi_r_rejects_empty_intermediate(tmp_path, capsys):
    doc = {"m": 0, "k": 1, "n": 1, "intermediate": True, "elements": []}
    code, _, err = _map(tmp_path, capsys, "psi-r", doc)
    assert code == 1 and "extra pair" in err


# psi-r validates its image: an intermediate whose blue members are wrong
# is no psi_b image, and map refuses it with exit 1 instead of printing an
# invalid sequence.
PSI_R_BAD_BLUE = {
    "blue-member-unknown": _set("elements", 0, "pair", "blue", [999]),
    "blue-member-reused": _set("elements", 0, "pair", "blue", [5]),
}


@pytest.mark.parametrize("name", sorted(PSI_R_BAD_BLUE))
def test_map_psi_r_rejects_bad_blue_members(tmp_path, capsys, name):
    doc = PSI_R_BAD_BLUE[name](json.loads((GOLDEN / "psi_b.json").read_text())["output"])
    code, out, err = _map(tmp_path, capsys, "psi-r", doc)
    assert (code, out) == (1, "")
    assert err.startswith("map: psi_r: not a psi-b image (blue-partition")
    assert len(err.splitlines()) == 1


# The packed form cannot hold these intermediates, so psi-r refuses them
# before it maps: an extra pair before the end would lose its flag, a
# negative size or block member has no bit, and a huge one would make a
# huge bitmask or shift.
PSI_R_UNPACKABLE = {
    "extra-pair-before-end": (
        _set("elements", 0, "pair", "extra", True),
        "intermediate has an extra pair before its end",
    ),
    "negative-member": (
        _set("elements", 0, "pair", "red", [-1, 9]), "block member -1 is negative",
    ),
    "negative-size": (_set("m", -5), "sizes m, k, n must lie in 0..1048575"),
    "huge-size": (_set("m", 10**15), "sizes m, k, n must lie in 0..1048575"),
    "huge-member": (
        _set("elements", 0, "pair", "blue", [10**15]), f"block member {10**15} is out of range",
    ),
}


@pytest.mark.parametrize("name", sorted(PSI_R_UNPACKABLE))
def test_map_psi_r_refuses_what_the_packed_form_cannot_hold(tmp_path, capsys, name):
    mutate, reason = PSI_R_UNPACKABLE[name]
    doc = mutate(json.loads((GOLDEN / "psi_b.json").read_text())["output"])
    code, out, err = _map(tmp_path, capsys, "psi-r", doc)
    assert (code, out, err) == (1, "", f"map: psi_r: {reason}\n")


def _pair(blue, red, extra):
    return CallanPair(frozenset(blue), frozenset(red), extra)


# Shape-valid input that the packed slots cannot hold, each one fault
# away from WELLFORMED, and a huge bar label, which they hold though no
# map takes it.  Per input: the mutation, the elements that the reader
# gives, the reason of validate_mbarred and psi-r's reason for the same
# elements as an intermediate.  These were recorded while the reader still
# built every input from its elements.
_ORDINARY = _pair([1], [1], False)
_EXTRA = _pair([], [], True)
UNHELD = {
    "member-negative": (
        _set("elements", 1, "pair", "blue", [-1]),
        (Bar(RED, 0), _pair([-1], [1], False), _EXTRA),
        "partition: block member -1 is negative", "block member -1 is negative",
    ),
    "member-2**20": (
        _set("elements", 1, "pair", "red", [1 << 20]),
        (Bar(RED, 0), _pair([1], [1 << 20], False), _EXTRA),
        "partition: block member 1048576 is out of range", "block member 1048576 is out of range",
    ),
    "extra-pair-not-last": (
        _set("elements", 1, "pair", "extra", True),
        (Bar(RED, 0), _pair([1], [1], True), _EXTRA),
        "extra-pair: exactly one extra pair required",
        "intermediate has an extra pair before its end",
    ),
    "ordinary-pair-last": (
        _set("elements", 2, "pair", "extra", False),
        (Bar(RED, 0), _ORDINARY, _pair([], [], False)),
        "last-element: final pair is not the extra pair",
        "intermediate must end with the extra pair",
    ),
    "bar-after-extra-pair": (
        lambda doc: doc["elements"].append({"bar": {"color": "blue", "label": 1}}) or doc,
        (Bar(RED, 0), _ORDINARY, _EXTRA, Bar(BLUE, 1)),
        "bar-multiset: blue label 1 is stray, labels 1..0",
        "intermediate must end with the extra pair",
    ),
    "no-elements": (
        _set("elements", []), (), "last-element: sequence is empty",
        "intermediate must end with the extra pair",
    ),
    "huge-label": (
        _set("elements", 0, "bar", "label", 10**30),
        (Bar(RED, 10**30), _ORDINARY, _EXTRA),
        "bar-multiset: red label 0 is missing, labels 0..0",
        "intermediate extra red block may not be empty here",
    ),
}
MAP_NAMES = {
    "phi": "phi", "phi-inv": "phi_inverse", "psi": "psi", "psi-b": "psi_b",
    "psi-r": "psi_r", "relabel": "relabel_max_min",
}


@pytest.mark.parametrize("name", sorted(UNHELD))
def test_input_the_packed_form_cannot_hold_reads_and_fails_as_before(tmp_path, capsys, name):
    from callan.bijections import intermediate_from_json_dict
    from callan.combinat import from_json_dict, validate_mbarred

    mutate, elements, reason, psi_r_reason = UNHELD[name]
    doc = mutate(json.loads(json.dumps(WELLFORMED)))
    inter = dict(doc, intermediate=True)
    for obj in (from_json_dict(doc), intermediate_from_json_dict(inter)):
        # only the huge label is held by the slots, and read from them
        assert ("elements" in vars(obj)) == (name != "huge-label")
        assert obj.elements == elements
        assert validate_mbarred(obj) == (False, reason)
    for which, what in MAP_NAMES.items():
        code, out, err = _map(tmp_path, capsys, which, inter if which == "psi-r" else doc)
        if reason.startswith("partition: "):  # a member without a bit: refused by pack
            expected = f"map: {what}: {reason.removeprefix('partition: ')}\n"
        elif which == "psi-r":
            expected = f"map: psi_r: {psi_r_reason}\n"
        else:
            expected = f"map: {SIZE_REFUSALS[which]} ({reason})\n"
        assert (code, out, err) == (1, "", expected), which


# Every other map validates its input, and the validator's first rule is
# the packed form's size limit: it refuses a size before any range is
# built from it.  The input holds the single red bar |r0 and the extra
# pair, whatever sizes it claims.
SIZE_REFUSALS = {
    "phi": "phi: input outside phi's domain",
    "phi-inv": "phi_inverse: input outside phi's image",
    "psi": "psi_b: input outside psi's domain",
    "psi-b": "psi_b: input outside psi's domain",
    "relabel": "relabel_max_min: input outside its domain",
}
BAR_AND_EXTRA_PAIR = [
    {"bar": {"color": "red", "label": 0}},
    {"pair": {"blue": [], "red": [], "extra": True}},
]


def _child_env():
    """The environment of a child `python -m callan.cli`: this callan first."""
    package = str(pathlib.Path(callan.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (package, os.environ.get("PYTHONPATH")))
    ))


def _map_capped(tmp_path, which, doc):
    """`callan map` in a child process with 1 GB of address space and a
    timeout, because a size taken at its word builds a range that large."""
    src = tmp_path / "in.json"
    src.write_text(json.dumps(doc))
    env = _child_env()

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    argv = [sys.executable, "-m", "callan.cli", "map", "--which", which, "--input", str(src)]
    done = subprocess.run(argv, env=env, preexec_fn=cap, capture_output=True, text=True,
                          timeout=60)
    return done.returncode, done.stdout, done.stderr


def test_a_reader_that_closes_early_ends_the_writer_with_status_141():
    # README's pipeline `enumerate ... --json | head -1`: the 140 KB of
    # output are more than a pipe and the reader's buffer hold, so the
    # child is still writing when the reader goes.  It stops without a
    # traceback, with 128 + SIGPIPE, what a shell reports for a killed tool.
    argv = [sys.executable, "-m", "callan.cli", "enumerate", "--kind", "mbarred",
            "--k", "2", "--n", "2", "--m", "2", "--json"]
    with subprocess.Popen(argv, env=_child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as child:
        first = child.stdout.readline()
        child.stdout.close()
        err = child.stderr.read()
        status = child.wait(timeout=60)
    assert first.startswith(b'{"m":2,"k":2,"n":2,"elements":[')
    assert (status, err) == (141, b"")


@pytest.mark.parametrize("size", ["m", "k", "n"])
@pytest.mark.parametrize("which", sorted(SIZE_REFUSALS))
def test_map_refuses_a_size_the_packed_form_cannot_hold(tmp_path, which, size):
    doc = {"m": 0, "k": 0, "n": 0, "elements": BAR_AND_EXTRA_PAIR}
    doc[size] = 10**15
    reason = "sizes: m, k, n must lie in 0..1048575"
    assert _map_capped(tmp_path, which, doc) == (
        1, "", f"map: {SIZE_REFUSALS[which]} ({reason})\n"
    )


def test_map_refuses_a_negative_size_by_the_same_rule(tmp_path, capsys):
    doc = {"m": -1, "k": 0, "n": 0, "elements": BAR_AND_EXTRA_PAIR}
    assert _map(tmp_path, capsys, "relabel", doc) == (
        1, "", "map: relabel_max_min: input outside its domain "
        "(sizes: m, k, n must lie in 0..1048575)\n"
    )


def test_map_refuses_a_largest_block_member_the_packed_form_cannot_hold(tmp_path, capsys):
    doc = {"m": 1, "k": 2**20 - 1, "n": 0, "elements": BAR_AND_EXTRA_PAIR}
    assert _map(tmp_path, capsys, "relabel", doc) == (
        1, "", "map: relabel_max_min: input outside its domain "
        "(sizes: m + max(k, n) must lie in 0..1048575)\n"
    )


# At the packed limit a valid input can map past it: phi raises k by one
# and m + max(k, n) with it, phi_inverse raises n.  The map refuses such an
# input with exit 1, naming the size rule its image breaks.  The limit is
# lowered to 8 so that the cells stay small; (k, n, m) are the input cells.
LIMIT_CELLS = [
    ("phi", (7, 1, 0), "sizes: m, k, n must lie in 0..7"),
    ("phi", (5, 1, 2), "sizes: m + max(k, n) must lie in 0..7"),
    ("phi-inv", (1, 7, 0), "sizes: m, k, n must lie in 0..7"),
    ("phi-inv", (1, 5, 2), "sizes: m + max(k, n) must lie in 0..7"),
]


@pytest.mark.parametrize("which,cell,rule", LIMIT_CELLS)
def test_map_refuses_an_input_whose_image_passes_the_packed_limit(
    tmp_path, capsys, monkeypatch, which, cell, rule
):
    from callan import bijections, combinat

    monkeypatch.setattr(combinat, "_PACKED_LIMIT", 8)
    inside = {"phi": bijections.phi_domain, "phi-inv": bijections.phi_image}[which]
    seq = next(s for s in combinat.enumerate_mbarred(*cell) if inside(*combinat.marks(s)) is None)
    code, out, err = _map(tmp_path, capsys, which, combinat.to_json_dict(seq))
    name = {"phi": "phi", "phi-inv": "phi_inverse"}[which]
    assert (code, out) == (1, "")
    assert err == f"map: {name}: the image of this input breaks the size limit ({rule})\n"


def test_psi_inverse_keeps_the_packed_limit(tmp_path, capsys, monkeypatch):
    # psi_inverse keeps m + max(k, n) and raises k and n only up to it, so
    # at the limit it still maps, and psi carries the image back (exit 0)
    from callan import bijections, combinat

    monkeypatch.setattr(combinat, "_PACKED_LIMIT", 8)
    for cell in [(6, 0, 1), (0, 6, 1), (3, 2, 2), (0, 0, 3)]:  # m + max(k, n) = 7
        for seq in combinat.enumerate_mbarred(*cell):
            image = bijections.psi_inverse(seq)
            assert (image.m, image.k, image.n) == (cell[2] - 1, cell[0] + 1, cell[1] + 1)
        code, out, _ = _map(tmp_path, capsys, "psi", combinat.to_json_dict(image))
        assert code == 0 and json.loads(out)["result"] == combinat.to_json_dict(seq)


DEEP = 50_000  # far past the recursion limit of the JSON decoder


@pytest.mark.parametrize("text", [
    "[" * (2 * DEEP),
    '{"m": 0, "k": 0, "n": 0, "elements": [' + "[" * DEEP + "]" * DEEP + "]}",
], ids=["open-brackets", "deep-elements"])
def test_map_exits_two_on_json_nested_too_deep(tmp_path, capsys, text):
    src = tmp_path / "deep.json"
    src.write_text(text)
    code, out, err = run(capsys, "map", "--which", "relabel", "--input", str(src))
    assert (code, out) == (2, "")
    assert err.startswith(f"map: cannot read {src}: ") and len(err.splitlines()) == 1


def test_map_internal_error_exits_three(tmp_path, capsys, monkeypatch):
    from callan import cli
    from callan.errors import ConsistencyError

    def broken(seq):
        raise ConsistencyError("relabel broke an invariant")

    monkeypatch.setitem(cli._MAPS, "relabel", (broken, None))
    code, out, err = _map(tmp_path, capsys, "relabel", WELLFORMED)
    assert (code, out) == (3, "")
    assert err == "map: internal error: relabel broke an invariant\n"


def test_verify_internal_error_exits_three(capsys, monkeypatch):
    from callan import harness
    from callan.errors import ConsistencyError

    def broken(claim, max_weight):
        raise ConsistencyError("a count came out fractional")

    monkeypatch.setattr(harness, "run_claim", broken)
    code, out, err = run(capsys, "verify", "--claim", "thm1")
    assert (code, out) == (3, "")
    assert err == "verify: internal error: a count came out fractional\n"


@pytest.mark.parametrize("which,golden,part", [
    ("phi", "phi_a1", "input"),
    ("phi-inv", "phi_a1", "output"),
    ("psi", "psi_b", "input"),
])
def test_map_validates_input_and_image_once_each(
    tmp_path, capsys, monkeypatch, which, golden, part
):
    from callan import combinat

    calls = []
    validate = combinat.validate_packed

    def counting(seq):
        calls.append(seq)
        return validate(seq)

    monkeypatch.setattr(combinat, "validate_packed", counting)
    doc = json.loads((GOLDEN / f"{golden}.json").read_text())[part]
    code, _, _ = _map(tmp_path, capsys, which, doc)
    assert code == 0 and len(calls) == 2


@pytest.mark.parametrize("golden", ["phi_a1", "phi_a2", "phi_b1", "phi_b2", "psi_b"])
def test_map_golden_images_byte_for_byte(tmp_path, capsys, golden):
    doc = json.loads((GOLDEN / f"{golden}.json").read_text())
    code, out, err = _map(tmp_path, capsys, doc["map"], doc["input"])
    result = json.dumps(doc["output"], separators=(",", ":"))
    assert (code, out, err) == (0, f'{{"case":{json.dumps(doc["case"])},"result":{result}}}\n', "")


@pytest.mark.parametrize("which,golden,part,status", [
    ("phi", "phi_b2", "input", 0),
    ("phi-inv", "phi_b2", "output", 0),
    ("psi", "psi_b", "input", 0),
    ("psi-b", "psi_b", "input", 0),
    ("psi-r", "psi_b", "output", 0),
    ("psi-r", "psi_r_extra", "input", 1),  # no psi-b image: refused after the map
])
def test_map_packs_its_input_once(tmp_path, capsys, monkeypatch, which, golden, part, status):
    # the map, the phi case and psi-r's check of its image all read the
    # one packed form of the input
    from callan import combinat

    packed = []
    pack = combinat.pack
    monkeypatch.setattr(combinat, "pack", lambda obj, what: packed.append(what) or pack(obj, what))
    doc = json.loads((GOLDEN / f"{golden}.json").read_text())[part]
    code, _, _ = _map(tmp_path, capsys, which, doc)
    assert code == status and len(packed) == 1


def _domain_inputs(which):
    """Wire forms of every object of weight k + n + 2m <= 5 in the domain
    of the map `which`."""
    from callan import bijections
    from callan.combinat import enumerate_mbarred, marks, to_json_dict

    inside = {
        "phi": bijections.phi_domain, "phi-inv": bijections.phi_image,
        "psi": bijections.psi_domain, "psi-b": bijections.psi_domain,
        "psi-r": bijections.psi_domain, "relabel": bijections.relabel_domain,
    }[which]
    seqs = [
        s
        for k in range(6) for n in range(6 - k) for m in range((5 - k - n) // 2 + 1)
        for s in enumerate_mbarred(k, n, m)
        if inside(*marks(s)) is None
    ]
    if which == "psi-r":
        return [bijections.intermediate_to_json_dict(bijections.psi_b(s)) for s in seqs]
    return [to_json_dict(s) for s in seqs]


def _mutate(doc, rng):
    """Swap two elements, delete one, change a block member or change a bar
    label, in place."""
    elements = doc["elements"]
    while True:
        kind = rng.randrange(4)
        if kind == 0 and len(elements) >= 2:
            i, j = rng.sample(range(len(elements)), 2)
            elements[i], elements[j] = elements[j], elements[i]
            return
        if kind == 1:
            del elements[rng.randrange(len(elements))]
            return
        if kind == 2:
            pairs = [e["pair"] for e in elements if "pair" in e]
            block = rng.choice(pairs)[rng.choice(("blue", "red"))]
            x = rng.randrange(doc["m"] + max(doc["k"], doc["n"]) + 2)
            if x not in block:
                if block and rng.random() < 0.7:
                    block[rng.randrange(len(block))] = x
                else:
                    block.append(x)
                block.sort()
                return
        bars = [e["bar"] for e in elements if "bar" in e]
        if kind == 3 and bars:
            rng.choice(bars)["label"] = rng.randrange(-1, doc["m"] + 2)
            return


# sha256 over one "exit code<TAB>stdout<TAB>stderr" line per mutant, in
# the order the test draws them, recorded before the validator moved onto
# the packed form: they pin which reason each refusal gives, not only that
# it exits 1.
PINNED_MUTANTS = {
    "phi": "367b7889c31d0d773bef02380c426c2dfc3abaefd02899347e5b17a5ef2fb0d6",
    "phi-inv": "00625d7aca381172f35cbebdc68136279b4cae763ef358216ff8ccc060264e73",
    "psi": "d219b440f4615c18085428400bfe4851b25621f770cb66a99a21143b3dc7c9b3",
    "psi-b": "e56fc747cd87ad46478bd92583843a2859ffb81b5b2d6728a870c3c599c36be1",
    "psi-r": "af2db5726968e2d6120835134e7df03666b1927aa17d98dd18379f584a80da35",
    "relabel": "3c3e1f425224f3927c8689645f2ab6b389f995275d5abb0ca5e5c951b678407d",
}


@pytest.mark.parametrize("which", sorted(PINNED_MUTANTS))
def test_map_mutated_inputs_exit_one_or_round_trip(tmp_path, capsys, which):
    # every mutant is refused with exit 1 and a one-line reason, or mapped
    # to a valid image that the inverse map carries back to the mutant
    from callan import bijections
    from callan.combinat import from_json_dict, validate_mbarred

    parse, parse_image, inverse = {
        "phi": (from_json_dict, from_json_dict, bijections.phi_inverse),
        "phi-inv": (from_json_dict, from_json_dict, bijections.phi),
        "psi": (from_json_dict, from_json_dict, bijections.psi_inverse),
        "psi-b": (
            from_json_dict, bijections.intermediate_from_json_dict,
            bijections.psi_b_inverse,
        ),
        "psi-r": (
            bijections.intermediate_from_json_dict, from_json_dict,
            bijections.psi_r_inverse,
        ),
        "relabel": (from_json_dict, from_json_dict, bijections.relabel_max_min),
    }[which]
    rng = random.Random(which)
    inputs = _domain_inputs(which)
    exits = {0: 0, 1: 0}
    digest = hashlib.sha256()
    for _ in range(200):
        doc = json.loads(json.dumps(rng.choice(inputs)))
        _mutate(doc, rng)
        code, out, err = _map(tmp_path, capsys, which, doc)
        assert code in exits, (doc, err)
        exits[code] += 1
        digest.update(f"{code}\t{out}\t{err}\n".encode())
        if code == 1:
            assert out == "" and err.startswith("map: ") and len(err.splitlines()) == 1
            continue
        image = parse_image(json.loads(out)["result"])
        if which != "psi-b":  # an intermediate has no validator of its own
            assert validate_mbarred(image) == (True, "ok")
        assert inverse(image) == parse(doc)
    assert exits[0] and exits[1]
    assert digest.hexdigest() == PINNED_MUTANTS[which]
