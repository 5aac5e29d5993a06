"""Helpers that only tests call, kept out of the package: the single-swap
closedness of an edge set, the decomposition function b as a monomial,
and the earlier face_of_symbol that the one-pass version replaced."""

from cellres.errors import SymbolNotInComplex


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


def face_of_symbol(ideal, j, alpha):
    """cointerval.face_of_symbol as it was before its one-pass rewrite:
    one scan of alpha per support element of m_j."""
    m = ideal.gen(j)
    supp = m.support()
    alpha = tuple(sorted(alpha))
    members = set(alpha)
    if len(members) != len(alpha):
        raise SymbolNotInComplex("alpha %s repeats an element" % (alpha,))
    if not members <= set(ideal.set_of(j)):
        raise SymbolNotInComplex("alpha %s escapes set(m_%d)" % (alpha, j))
    prev = 0
    blocks = []
    used = set()
    for i_ell in supp:
        block = tuple(a for a in alpha if prev < a < i_ell) + (i_ell,)
        used.update(block[:-1])
        blocks.append(block)
        prev = i_ell
    if used != members:
        raise SymbolNotInComplex(
            "alpha %s does not fit the gaps of %s" % (alpha, str(m))
        )
    return tuple(blocks)
