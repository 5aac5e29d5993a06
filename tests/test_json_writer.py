"""export._dump writes the bytes of the json module's indented encoder."""

import json

import pytest

from cellres import cli, export
from cellres.betti import multigraded_betti
from cellres.chain import ht_resolution
from cellres.cointerval import build_hom_complex, dgraph_of_ideal
from cellres.corpus import gen_corpus
from cellres.ekcells import build_ek_cw
from cellres.ideals import check_regularity


def _reference(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


@pytest.fixture(scope="module")
def payloads(tmp_path_factory):
    """Every object handed to export._dump by the exporters and by
    `enumerate-rules` on a corpus sample."""
    seen = []
    real = export._dump

    def spy(obj):
        seen.append(obj)
        return real(obj)

    out = tmp_path_factory.mktemp("rules") / "rules.json"
    export._dump = spy
    try:
        for item in gen_corpus()[::211]:
            ideal = item.ideal
            if ideal.k > 12 or not check_regularity(ideal).regular:
                continue
            export.betti_to_json(multigraded_betti(ideal))
            export.ek_complex_to_json(build_ek_cw(ideal))
            export.complex_to_json(ht_resolution(ideal))
            if item.kind == "cointerval":
                export.hom_complex_to_json(build_hom_complex(dgraph_of_ideal(ideal)), ideal)
            text = json.dumps({"n": ideal.n, "gens": [list(g.e) for g in ideal.gens]})
            cli.main(["enumerate-rules", text, "--out", str(out)])
    finally:
        export._dump = real
    return seen


def test_dump_matches_json_on_export_payloads(payloads):
    assert len(payloads) >= 40
    assert any("distinct_types" in obj for obj in payloads)
    for obj in payloads:
        assert export._dump(obj) == _reference(obj)


@pytest.mark.parametrize(
    "obj",
    [
        {},
        [],
        {"a": [], "b": {}, "c": [[], {}, [[]]], "d": {"e": {}}},
        (1, (2, 3), ()),
        {"t": (True, False, None), "f": 1.5},
        [-1, 0, -(10**30), 10**30],
        {"z": 1, "a": 2, "é": 3, "A": 4, "": 5},
        ["é✓ü", "\x00\x01\n\t\x1f\x7f", '"\\/', " \U0001f600"],
        True,
        None,
        7,
        "plain",
    ],
)
def test_dump_matches_json_on_edge_cases(obj):
    assert export._dump(obj) == _reference(obj)


@pytest.mark.parametrize("obj", [{1: 2}, {"a": {None: 1}}, [{(1,): 0}]])
def test_dump_refuses_non_string_keys(obj):
    with pytest.raises(TypeError):
        export._dump(obj)
