"""Helpers that only tests call, kept out of the package: the single-swap
closedness of an edge set, and the decomposition function b as a monomial."""


def is_squarefree_strongly_stable(graph):
    """Single-swap downward closedness of the edge set."""
    for e in graph.edges:
        for v in e:
            for u in range(1, v):
                if u in e:
                    continue
                if tuple(sorted(set(e) - {v} | {u})) not in graph.edges:
                    return False
    return True


def b_of(ideal, m):
    """b(m): the first generator in order dividing m."""
    return ideal.gen(ideal.decomp_b(m))
