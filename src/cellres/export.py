"""Deterministic serializers: JSON for complexes and cell complexes,
CSV for Betti tables, OFF for low-dimensional geometry.

All output is byte-stable across runs: dictionaries are emitted with
sorted keys and every list is explicitly ordered.
"""

import json
from itertools import product
from json.encoder import encode_basestring_ascii

from .chain import Symbol


def _dump(obj):
    """The bytes of json.dumps(obj, sort_keys=True, separators=(",", ": "),
    indent=1) plus a newline, without the json module's pure-Python
    encoder, which indent forces it to use.  Dict keys must be strings."""
    out = []
    _write_json(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _write_json(obj, nl, out):
    """Append obj's indented JSON to out; nl is the newline plus the
    indentation of obj's own line."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, int) and not isinstance(obj, bool):
        out.append(int.__repr__(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = nl + " "
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        for key in obj:
            if not isinstance(key, str):
                raise TypeError("JSON object keys must be str, not %r" % (key,))
        inner = nl + " "
        sep = "{" + inner
        for key in sorted(obj):
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write_json(obj[key], inner, out)
            sep = "," + inner
        out.append(nl + "}")
    else:
        out.append(json.dumps(obj))


def _basis_entry(label):
    if isinstance(label, Symbol):
        return {"gen": label.gen, "alpha": list(label.alpha)}
    if isinstance(label, tuple):
        return {"face": list(label)}
    return {"label": str(label)}


def complex_to_json(cx):
    """Schema: ranks, per-degree basis, per-degree sparse entries
    [row, col, sign, exponents]."""
    diff = []
    for i in range(1, len(cx.basis)):
        entries = [
            [r, c, sign, list(coeff.e)]
            for (r, c), (sign, coeff) in cx.entries(i)
        ]
        diff.append({"deg": i, "entries": entries})
    return _dump(
        {
            "n": cx.n,
            "ranks": list(cx.ranks()),
            "basis": [[_basis_entry(b) for b in level] for level in cx.basis],
            "diff": diff,
        }
    )


def _cells_json(X, fields):
    """Cell records numbered in the complex's cell order: fields(cell)
    plus id, dim, label and boundary as [face id, sign, exponents of the
    incidence coefficient X.coefficients gives]."""
    ids = {}
    cells = []
    for cell, dim, label in X.cells_with_labels():
        record = fields(cell)
        record["id"] = ids[cell] = len(ids)
        record["dim"] = dim
        record["label"] = list(label.e)
        record["boundary"] = [
            [ids[face], sign, list(coeff.e)]
            for (face, sign), coeff in zip(X.topo_boundary(cell), X.coefficients(cell))
        ]
        cells.append(record)
    return cells


def ek_complex_to_json(X):
    def fields(key):
        cell = X.cells[key]
        return {
            "gen": cell.source,
            "alpha": list(cell.alpha),
            "simplices": [list(s.vertices) for s in cell.simplices],
            "orientations": list(cell.eps),
        }

    return _dump(
        {
            "n": X.ideal.n,
            "f_vector": list(X.f_vector()),
            "vertices": {
                str(j): list(e) for j, e in X.vertex_coordinates().items()
            },
            "cells": _cells_json(X, fields),
        }
    )


def hom_complex_to_json(X, ideal):
    cells = _cells_json(X, lambda cell: {"blocks": [list(b) for b in cell]})
    return _dump({"n": ideal.n, "f_vector": list(X.f_vector()), "cells": cells})


def betti_to_csv(table):
    head = "i," + ",".join("e%d" % (i + 1) for i in range(table.n)) + ",value"
    lines = [head]
    for i, exps, value in table.rows():
        lines.append("%d,%s,%d" % (i, ",".join(map(str, exps)), value))
    return "\n".join(lines) + "\n"


def betti_to_json(table):
    return _dump(
        {
            "n": table.n,
            "totals": list(table.totals()),
            "entries": [
                {"i": i, "multidegree": list(exps), "value": v}
                for i, exps, v in table.rows()
            ],
        }
    )


def _project_coords(coords):
    """Drop coordinates constant across all points, then keep the first
    three (padding with zeros).  With more than three varying
    coordinates, distinct points can project onto one."""
    if not coords:
        return [], []
    n = len(next(iter(coords.values())))
    varying = [
        i
        for i in range(n)
        if len({e[i] for e in coords.values()}) > 1
    ]
    kept = varying[:3]
    out = {}
    for key, e in coords.items():
        p = [e[i] for i in kept]
        out[key] = p + [0] * (3 - len(p))
    return kept, out


def _polygon_cycle(edges):
    """Order the vertices of a polygon given its boundary edges as pairs."""
    adj = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    start = sorted(adj)[0]
    cycle = [start]
    prev = None
    while True:
        nxts = [v for v in adj[cycle[-1]] if v != prev]
        if not nxts:
            break
        prev = cycle[-1]
        cycle.append(nxts[0])
        if cycle[-1] == start:
            return cycle[:-1]
    return cycle


def _off(kept, projected, faces):
    """OFF text of the projected vertices, in sorted key order, and the
    faces, each a cycle of vertex keys."""
    order = sorted(projected)
    pos = {key: i for i, key in enumerate(order)}
    lines = [
        "OFF",
        "# projection kept 1-based coordinates: %s"
        % (",".join(str(i + 1) for i in kept) or "none"),
        "%d %d 0" % (len(projected), len(faces)),
    ]
    for key in order:
        lines.append(" ".join(str(c) for c in projected[key]))
    for f in faces:
        lines.append("%d " % len(f) + " ".join(str(pos[v]) for v in f))
    return "\n".join(lines) + "\n"


def ek_complex_to_off(X):
    """OFF export of the vertex set and the 2-cell triangles."""
    kept, projected = _project_coords(X.vertex_coordinates())
    faces = [
        s.vertices for key in X.by_dim.get(2, ()) for s in X.cells[key].simplices
    ]
    return _off(kept, projected, faces)


def hom_complex_to_off(X):
    """OFF export of the vertex cells, placed at their labels' exponents,
    and polygonal 2-cells."""
    kept, projected = _project_coords(
        {cell: X.label(cell).e for cell in X.by_dim.get(0, ())}
    )
    faces = [
        _polygon_cycle(_endpoints(edge) for edge, _ in X.topo_boundary(cell))
        for cell in X.by_dim.get(2, ())
    ]
    return _off(kept, projected, faces)


def _endpoints(cell):
    """The vertex cells (tuples of singleton blocks) of a cell."""
    return [tuple((v,) for v in choice) for choice in product(*cell)]


def corpus_to_jsonl(items):
    lines = []
    for it in items:
        lines.append(
            json.dumps(
                {
                    "name": it.name,
                    "kind": it.kind,
                    "n": it.ideal.n,
                    "gens": [list(g.e) for g in it.ideal.gens],
                    "tags": {
                        k: (list(v) if isinstance(v, (list, tuple)) else v)
                        for k, v in sorted(it.tags.items())
                        if k != "edges"
                    },
                },
                sort_keys=True,
                separators=(",", ":"),
            )
        )
    return "\n".join(lines) + "\n"
