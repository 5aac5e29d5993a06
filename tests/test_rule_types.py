"""Rule types: the integer-id fingerprint against the dict-based search it
replaced, kept here as the reference; and `enumerate-rules`, which
fingerprints no rule of a single-rule ideal, against a reference that
fingerprints every rule."""

import json
import random
from pathlib import Path

import pytest

from cellres import rules
from cellres.cli import main
from cellres.cointerval import build_hom_complex, dgraph_of_ideal
from cellres.corpus import gen_corpus
from cellres.errors import CellresError
from cellres.ideals import parse_ideal
from cellres.poset import complex_fingerprint, poset_fingerprint
from cellres.rules import complex_for_rule, enumerate_regular_rules, rule_family

OUTPUTS = Path(__file__).resolve().parent / "cli_outputs"
RUNNING = "x1*x2, x1*x3, x1*x5, x2*x3, x2*x5, x3*x5, x4*x5"
# ideal stable/n3/x2^2*x3: rules 2 and 3 have equal (height, faces,
# cofaces) counts but are not isomorphic, so only the fingerprint splits them
STABLE = "x1^3, x1^2*x2, x1^2*x3, x1*x2^2, x1*x2*x3, x2^3, x2^2*x3"


def _ref_refine(colors, down, up):
    while True:
        sig = {}
        for v, c in colors.items():
            sig[v] = (
                c,
                tuple(sorted(colors[u] for u in down[v])),
                tuple(sorted(colors[u] for u in up[v])),
            )
        palette = {s: i for i, s in enumerate(sorted(set(sig.values())))}
        new = {v: palette[sig[v]] for v in colors}
        if new == colors:
            return colors
        colors = new


def _ref_canonical_form(colors, down, up, nodes):
    classes = {}
    for v, c in colors.items():
        classes.setdefault(c, []).append(v)
    split = sorted(c for c, vs in classes.items() if len(vs) > 1)
    if not split:
        order = sorted(nodes, key=lambda v: colors[v])
        pos = {v: i for i, v in enumerate(order)}
        return tuple(
            (colors[v], tuple(sorted(pos[u] for u in down[v]))) for v in order
        )
    target = split[0]
    best = None
    fresh = max(colors.values()) + 1
    for v in sorted(classes[target], key=lambda u: str(u)):
        trial = dict(colors)
        trial[v] = fresh
        trial = _ref_refine(trial, down, up)
        form = _ref_canonical_form(trial, down, up, nodes)
        if best is None or form < best:
            best = form
    return best


def _ref_poset_fingerprint(cover_down):
    nodes = set(cover_down)
    for vs in cover_down.values():
        nodes.update(vs)
    down = {v: sorted(cover_down.get(v, ()), key=str) for v in nodes}
    up = {v: [] for v in nodes}
    for v, vs in down.items():
        for u in vs:
            up[u].append(v)
    height = {}

    def h(v):
        if v not in height:
            height[v] = 1 + max((h(u) for u in down[v]), default=-1)
        return height[v]

    colors = {v: (h(v), len(down[v]), len(up[v])) for v in nodes}
    palette = {c: i for i, c in enumerate(sorted(set(colors.values())))}
    colors = _ref_refine({v: palette[colors[v]] for v in nodes}, down, up)
    return _ref_canonical_form(colors, down, up, sorted(nodes, key=str))


def _cover(X):
    cover = {}
    for key, _, _ in X.cells_with_labels():
        cover[key] = [face for face, _ in X.topo_boundary(key)]
    return cover


def _rule_complexes(ideal, rules=None):
    """The complexes of the ideal's rules, skipping rules that raise."""
    out = []
    for rule in enumerate_regular_rules(ideal) if rules is None else rules:
        try:
            out.append(complex_for_rule(ideal, rule))
        except CellresError:
            pass
    return out


@pytest.fixture(scope="module")
def corpus_families():
    """(ideal, rule count, rule complexes) of a corpus sample, for ideals
    with at least two admitted rules (at most 12, to keep it quick)."""
    families = []
    for item in gen_corpus()[::37]:
        if item.ideal.k > 10:
            continue
        rules = enumerate_regular_rules(item.ideal)
        if 2 <= len(rules) <= 12:
            families.append((item.ideal, len(rules), _rule_complexes(item.ideal, rules)))
    assert len(families) >= 10
    return families


def test_fingerprint_matches_reference_on_running_rules(running):
    complexes = _rule_complexes(running)
    assert len(complexes) == 6
    for X in complexes:
        assert complex_fingerprint(X) == _ref_poset_fingerprint(_cover(X))


def test_fingerprint_matches_reference_on_corpus_rules(corpus_families):
    checked = 0
    for _, _, complexes in corpus_families:
        for X in complexes:
            assert complex_fingerprint(X) == _ref_poset_fingerprint(_cover(X))
            checked += 1
    assert checked >= 30


def test_fingerprint_matches_reference_on_hom_complexes():
    items = [it for it in gen_corpus() if it.kind == "cointerval"][::80]
    assert items
    for item in items:
        H = build_hom_complex(dgraph_of_ideal(item.ideal), item.ideal.n)
        assert complex_fingerprint(H) == _ref_poset_fingerprint(_cover(H))


def test_fingerprint_matches_reference_on_small_posets():
    posets = [
        {},
        {"a": []},
        {"T": ["a", "b", "c"], "a": ["u", "v"], "b": ["v", "w"], "c": ["u", "w"]},
        {"e1": ["a", "b"], "e2": ["b", "c"], "e3": ["a", "c"], "e4": ["c", "d"]},
        {1: [10, 2], 2: [], 10: []},
    ]
    for cover in posets:
        assert poset_fingerprint(cover) == _ref_poset_fingerprint(cover)


def _relabel(cover, rng):
    nodes = set(cover)
    for vs in cover.values():
        nodes.update(vs)
    names = rng.sample(range(10 * len(nodes) + 10), len(nodes))
    new = dict(zip(sorted(nodes, key=str), names))
    items = list(cover.items())
    rng.shuffle(items)
    out = {}
    for v, vs in items:
        faces = [new[u] for u in vs]
        rng.shuffle(faces)
        out[new[v]] = faces
    return out


def test_fingerprint_survives_relabelling(running, corpus_families):
    rng = random.Random(6)
    complexes = _rule_complexes(running)
    complexes += [X for _, _, family in corpus_families[:8] for X in family[:2]]
    for X in complexes:
        cover = _cover(X)
        for _ in range(3):
            assert poset_fingerprint(_relabel(cover, rng)) == poset_fingerprint(cover)


def _enumerate(capsys, text):
    code = main(["enumerate-rules", text])
    out = capsys.readouterr()
    assert code == 0, out.err
    return out.out


def _reference_type_ids(ideal):
    """First-seen type ids from a fingerprint of every rule complex."""
    types = {}
    return [
        types.setdefault(complex_fingerprint(complex_for_rule(ideal, rule)), len(types))
        for rule in enumerate_regular_rules(ideal)
    ]


def test_enumerate_type_ids_match_fingerprinting_every_rule(capsys, running, corpus_families):
    ideals = [running, parse_ideal(STABLE)]
    # an ideal with a rule that raises makes the command fail
    ideals += [ideal for ideal, count, family in corpus_families if len(family) == count]
    for ideal in ideals:
        text = json.dumps({"n": ideal.n, "gens": [list(g.e) for g in ideal.gens]})
        data = json.loads(_enumerate(capsys, text))
        want = _reference_type_ids(ideal)
        assert [r["type"] for r in data["rules"]] == want
        assert data["distinct_types"] == len(set(want))


def _count_fingerprints(monkeypatch):
    calls = []
    real = rules.complex_fingerprint

    def counted(X):
        calls.append(X)
        return real(X)

    monkeypatch.setattr(rules, "complex_fingerprint", counted)
    return calls


def test_single_rule_is_never_fingerprinted(capsys, monkeypatch):
    calls = _count_fingerprints(monkeypatch)
    data = json.loads(_enumerate(capsys, "x1, x2, x3, x4"))
    assert len(data["rules"]) == 1
    assert calls == []


def test_rule_family_leaves_a_lone_rule_unfingerprinted(monkeypatch):
    calls = _count_fingerprints(monkeypatch)
    enriched, types = rule_family(parse_ideal("x1, x2, x3, x4"))
    assert [fp for _, _, fp in enriched] == [None]
    assert types == {None: [0]}
    assert calls == []


def test_several_rules_are_each_fingerprinted_once(capsys, monkeypatch):
    calls = _count_fingerprints(monkeypatch)
    data = json.loads(_enumerate(capsys, RUNNING))
    assert len(data["rules"]) == 6
    assert data["distinct_types"] == 4
    assert len(calls) == 6


@pytest.mark.parametrize(
    "text, recording",
    [
        (RUNNING, "enumerate_rules_running.json"),
        (STABLE, "enumerate_rules_stable_n3_x2sq_x3.json"),
    ],
)
def test_enumerate_output_is_unchanged(capsys, text, recording):
    assert _enumerate(capsys, text) == (OUTPUTS / recording).read_text()
