"""Helpers that only tests call, kept out of the package: the single-swap
closedness of an edge set, the decomposition function b as a monomial,
the earlier face_of_symbol that the one-pass version replaced, the
earlier mapping cone (G[1] first) with the re-sort the iterated cone
needed after it, and the earlier orientation_sign on a rank table."""

from cellres.chain import LabeledChainComplex
from cellres.errors import NonCommutingChainMap, SymbolNotInComplex


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


def mapping_cone(psi, relabel_shifted=None):
    """chain.mapping_cone as it was before F's block came first: each
    degree lists G[1]'s basis, then F's, and every entry of F is shifted
    by the G[1] block sizes."""
    if not psi.commutes():
        raise NonCommutingChainMap("chain map does not commute with differentials")
    G, F = psi.source, psi.target
    if relabel_shifted is None:
        relabel_shifted = lambda lbl: ("cone", lbl)
    top = max(len(F.basis), len(G.basis) + 1)
    basis, mdeg, diff = [], [], []
    g_off = []  # number of G[1] elements in each cone degree
    for i in range(top):
        g_part = G.basis[i - 1] if 1 <= i <= len(G.basis) else []
        f_part = F.basis[i] if i < len(F.basis) else []
        g_off.append(len(g_part))
        basis.append([relabel_shifted(l) for l in g_part] + list(f_part))
        mdeg.append(
            (G.mdeg[i - 1] if 1 <= i <= len(G.basis) else [])
            + (F.mdeg[i] if i < len(F.basis) else [])
        )
        diff.append({})
    for i in range(1, top):
        d = diff[i]
        if i - 1 < len(G.diff) and i >= 2:
            for (r, c), (s, m) in G.diff[i - 1].items():
                d[(r, c)] = (-s, m)
        if i - 1 < len(psi.maps):
            for (tr, sc), (s, m) in psi.maps[i - 1].items():
                d[(g_off[i - 1] + tr, sc)] = (s, m)
        if i < len(F.diff):
            for (r, c), (s, m) in F.diff[i].items():
                d[(g_off[i - 1] + r, g_off[i] + c)] = (s, m)
    return LabeledChainComplex(F.n, basis, mdeg, diff)


def sorted_symbol_complex(cx):
    """Reorder each degree's basis into canonical Symbol order."""
    perms = []
    for i, level in enumerate(cx.basis):
        order = sorted(range(len(level)), key=lambda p: level[p])
        perms.append(order)
    basis = [[cx.basis[i][p] for p in perm] for i, perm in enumerate(perms)]
    mdeg = [[cx.mdeg[i][p] for p in perm] for i, perm in enumerate(perms)]
    inv = [
        {old: new for new, old in enumerate(perm)} for perm in perms
    ]
    diff = [dict() for _ in basis]
    for i in range(1, len(basis)):
        for (r, c), e in cx.diff[i].items():
            diff[i][(inv[i - 1][r], inv[i][c])] = e
    return LabeledChainComplex(cx.n, basis, mdeg, diff)


def orientation_sign(sigma):
    """ekcells.orientation_sign as it was before it counted ascents (and
    later inversions): the inversions of sigma's rank pattern, plus
    p(p-1)/2."""
    seq = list(sigma)
    p = len(seq)
    ranks = {v: i + 1 for i, v in enumerate(sorted(seq))}
    pattern = [ranks[v] for v in seq]
    inv = sum(
        1
        for i in range(p)
        for j in range(i + 1, p)
        if pattern[i] > pattern[j]
    )
    return -1 if (inv + p * (p - 1) // 2) % 2 else 1
