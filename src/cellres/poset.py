"""Canonical fingerprints of face posets.

Two complexes get the same fingerprint exactly when their face posets are
isomorphic.  The poset is handed over as covering relations (cell ->
cells one dimension down); the fingerprint is the minimal canonical form
over a color-refinement search with individualization, which is exact at
the desk scale this package works at.

Nodes are numbered once, in the order of their string forms, and the
search runs on those integer ids.  The canonical form is built from
colors and positions only, and the minimum over individualized branches
does not depend on the order they are tried in, so the numbering never
shows in a fingerprint.
"""


def _structure(cover_down):
    """(down, up, triples) of the poset on integer node ids.

    down[i] and up[i] list the ids covered by and covering node i;
    triples[i] is its (height, faces, cofaces), the initial color of the
    refinement.
    """
    nodes = set(cover_down)
    for vs in cover_down.values():
        nodes.update(vs)
    order = sorted(nodes, key=str)
    ids = {v: i for i, v in enumerate(order)}
    down = [[ids[u] for u in cover_down.get(v, ())] for v in order]
    up = [[] for _ in order]
    for i, vs in enumerate(down):
        for u in vs:
            up[u].append(i)
    height = [None] * len(order)

    def h(i):
        if height[i] is None:
            height[i] = 1 + max((h(u) for u in down[i]), default=-1)
        return height[i]

    triples = [(h(i), len(down[i]), len(up[i])) for i in range(len(order))]
    return down, up, triples


def _refine(colors, down, up):
    while True:
        sig = [
            (
                c,
                tuple(sorted([colors[u] for u in dv])),
                tuple(sorted([colors[u] for u in uv])),
            )
            for c, dv, uv in zip(colors, down, up)
        ]
        palette = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [palette[s] for s in sig]
        if new == colors:
            return colors
        colors = new


def _canonical_form(colors, down, up):
    # refined colors are always 0..m-1, so once they are discrete a
    # node's color is its position in the canonical order
    classes = {}
    for v, c in enumerate(colors):
        classes.setdefault(c, []).append(v)
    if len(classes) == len(colors):
        form = [None] * len(colors)
        for v, c in enumerate(colors):
            form[c] = (c, tuple(sorted([colors[u] for u in down[v]])))
        return tuple(form)
    target = min(c for c, vs in classes.items() if len(vs) > 1)
    best = None
    fresh = len(classes)
    for v in classes[target]:
        trial = list(colors)
        trial[v] = fresh
        form = _canonical_form(_refine(trial, down, up), down, up)
        if best is None or form < best:
            best = form
    return best


def poset_fingerprint(cover_down):
    """Canonical form of the poset given by covering relations.

    cover_down: {node: iterable of nodes covered by it}.  Nodes missing
    from any value list but present as keys or covered nodes are included.
    """
    down, up, triples = _structure(cover_down)
    palette = {c: i for i, c in enumerate(sorted(set(triples)))}
    colors = _refine([palette[c] for c in triples], down, up)
    return _canonical_form(colors, down, up)


def complex_fingerprint(X):
    """Fingerprint of a cell complex's face poset (signs and labels are
    combinatorially irrelevant and ignored)."""
    cover = {}
    for key, _, _ in X.cells_with_labels():
        cover[key] = [face for face, _ in X.topo_boundary(key)]
    return poset_fingerprint(cover)
