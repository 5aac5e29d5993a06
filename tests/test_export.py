import json

from cellres.betti import multigraded_betti
from cellres.chain import ht_resolution
from cellres.cointerval import build_hom_complex, dgraph_of_ideal
from cellres.ekcells import build_ek_cw
from cellres.export import (
    betti_to_csv,
    betti_to_json,
    complex_to_json,
    corpus_to_jsonl,
    ek_complex_to_json,
    ek_complex_to_off,
    hom_complex_to_json,
    hom_complex_to_off,
)

def test_complex_json_roundtrip_fields(running):
    data = json.loads(complex_to_json(ht_resolution(running)))
    assert data["ranks"] == [1, 7, 11, 6, 1]
    assert data["basis"][0] == [{"alpha": [], "gen": 0}]
    deg1 = data["diff"][0]
    assert deg1["deg"] == 1
    assert all(len(entry) == 4 for entry in deg1["entries"])


def test_ek_json_fields(running):
    data = json.loads(ek_complex_to_json(build_ek_cw(running)))
    assert data["f_vector"] == [7, 11, 6, 1]
    top = [c for c in data["cells"] if c["dim"] == 3]
    assert len(top) == 1
    assert len(top[0]["boundary"]) == 6


def test_hom_json_fields(running):
    X = build_hom_complex(dgraph_of_ideal(running), running.n)
    data = json.loads(hom_complex_to_json(X, running))
    top = [c for c in data["cells"] if c["dim"] == 3]
    assert len(top) == 1
    assert len(top[0]["boundary"]) == 4  # a single tetrahedron


def test_json_boundary_coefficient_times_face_label_is_cell_label(running):
    H = build_hom_complex(dgraph_of_ideal(running), running.n)
    X = build_ek_cw(running)
    for payload in (ek_complex_to_json(X), hom_complex_to_json(H, running)):
        cells = json.loads(payload)["cells"]
        entries = 0
        for cell in cells:
            for face, _, coeff in cell["boundary"]:
                label = [a + b for a, b in zip(coeff, cells[face]["label"])]
                assert label == cell["label"] and any(coeff)
                entries += 1
        assert entries > len(cells)


def test_ek_off_tetrahedron(maximal4):
    off = ek_complex_to_off(build_ek_cw(maximal4))
    lines = off.splitlines()
    assert lines[0] == "OFF"
    assert lines[1].startswith("# projection")
    nv, nf, _ = map(int, lines[2].split())
    assert nv == 4 and nf == 4


def test_hom_off_runs(running):
    X = build_hom_complex(dgraph_of_ideal(running), running.n)
    off = hom_complex_to_off(X)
    assert off.startswith("OFF\n")


def test_betti_exports(running):
    table = multigraded_betti(running)
    csv = betti_to_csv(table)
    assert csv.splitlines()[0] == "i,e1,e2,e3,e4,e5,value"
    data = json.loads(betti_to_json(table))
    assert data["totals"] == [1, 7, 11, 6, 1]


def test_corpus_jsonl():
    from cellres.corpus import example_corpus

    text = corpus_to_jsonl(example_corpus())
    rows = [json.loads(ln) for ln in text.splitlines()]
    assert rows[0]["kind"] == "example"
    assert rows[1]["tags"]["cointerval"] is True
