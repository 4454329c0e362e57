import json
import pathlib
import random

import pytest

from callan.cli import main

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


def test_enumerate_dumont(capsys):
    code, out, _ = run(capsys, "enumerate", "--kind", "dumont", "--n", "4")
    assert code == 0
    assert sorted(out.splitlines()) == ["2 1 4 3", "3 4 2 1", "4 2 1 3"]


def test_enumerate_dumont_odd_rejected(capsys):
    code, _, err = run(capsys, "enumerate", "--kind", "dumont", "--n", "5")
    assert code == 2 and "even" in err


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
    validate = combinat.validate_mbarred

    def counting(seq):
        calls.append(seq)
        return validate(seq)

    monkeypatch.setattr(combinat, "validate_mbarred", counting)
    doc = json.loads((GOLDEN / f"{golden}.json").read_text())[part]
    code, _, _ = _map(tmp_path, capsys, which, doc)
    assert code == 0 and len(calls) == 2


def _domain_inputs(which):
    """Wire forms of every object of weight k + n + 2m <= 5 in the domain
    of the map `which`."""
    from callan import bijections
    from callan.combinat import enumerate_mbarred, to_json_dict

    inside = {
        "phi": bijections.phi_domain, "phi-inv": bijections.phi_image,
        "psi": bijections.psi_domain, "psi-b": bijections.psi_domain,
        "psi-r": bijections.psi_domain, "relabel": bijections.relabel_domain,
    }[which]
    seqs = [
        s
        for k in range(6) for n in range(6 - k) for m in range((5 - k - n) // 2 + 1)
        for s in enumerate_mbarred(k, n, m)
        if inside(s) is None
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


@pytest.mark.parametrize("which", ["phi", "phi-inv", "psi", "psi-b", "psi-r", "relabel"])
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
    for _ in range(200):
        doc = json.loads(json.dumps(rng.choice(inputs)))
        _mutate(doc, rng)
        code, out, err = _map(tmp_path, capsys, which, doc)
        assert code in exits, (doc, err)
        exits[code] += 1
        if code == 1:
            assert out == "" and err.startswith("map: ") and len(err.splitlines()) == 1
            continue
        image = parse_image(json.loads(out)["result"])
        if which != "psi-b":  # an intermediate has no validator of its own
            assert validate_mbarred(image) == (True, "ok")
        assert inverse(image) == parse(doc)
    assert exits[0] and exits[1]
