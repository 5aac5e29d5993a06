"""The three benchmark workloads.

Each workload has a ``setup`` that turns a seed into a list of encoded
items (plain tuples and strings, no cellres objects) and a ``run`` that
processes one item.  ``run`` returns ``(seconds, check)``: the seconds
spent in cellres calls for that item, read from ``now`` (run.py points it
at a scaled clock in untraced runs), and a thunk that checks the item's
outputs after the timer has stopped and returns ``(ok, digest)``.
``digest`` is a bytes fingerprint of the item's output, or None.

``pass_ok(seed, digests)`` checks a whole pass against the digest
recorded for the seed, where the workload has one.

Every cellres call goes through the ``api`` object built by run.py, so a
re-import or a traced run sees the current module attributes.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import time
import traceback
from itertools import combinations
from math import comb

HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)

now = time.perf_counter


def stratified_sample(items, count, rng, key):
    """One item from each of `count` equal slices of `items` sorted by
    `key`, so every seed draws the same spread of sizes."""
    ranked = sorted(items, key=key)
    if count >= len(ranked):
        return ranked
    bounds = [len(ranked) * i // count for i in range(count + 1)]
    return [ranked[rng.randrange(bounds[i], bounds[i + 1])] for i in range(count)]


def resolution_size(gens):
    """Cells of the minimal resolution of an ideal with linear quotients,
    sum_j 2^|set(m_j)|, from its exponent vectors: set(m_j) holds the
    variables x_i equal to lcm(m_l, m_j)/m_j for some l < j.  Computed
    here, not by cellres, so that sampling costs the same whatever the
    package does."""
    total = 0
    for j, b in enumerate(gens):
        found = set()
        for a in gens[:j]:
            extra = [i for i, (x, y) in enumerate(zip(a, b)) if x > y]
            if len(extra) == 1 and a[extra[0]] - b[extra[0]] == 1:
                found.add(extra[0])
        total += 1 << len(found)
    return total


def encode(ideal):
    return ideal.n, tuple(g.e for g in ideal.gens)


def decode(api, n, gens):
    return api.ideals.OrderedIdeal(n, [api.monomial.Monomial(e) for e in gens])


def symbol_totals(set_sizes):
    """Criterion 9: beta_0 = 1 and beta_i = sum_j C(|set(m_j)|, i-1)."""
    top = max(set_sizes, default=0) + 1
    return tuple(
        [1] + [sum(comb(s, i - 1) for s in set_sizes) for i in range(1, top + 1)]
    )


def run_cli(api, argv):
    """cellres.cli.main in-process, stdout and stderr captured in memory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = now()
        rc = api.cli.main(argv)
        dt = now() - t0
    return dt, rc, out.getvalue()


def _report(name, exc):
    print(
        "bench: item %s raised %s: %s" % (name, type(exc).__name__, exc),
        file=sys.stderr,
    )
    traceback.print_exc(file=sys.stderr)


class Workload:
    name = None
    items = None  # items per pass at the default size

    def pass_ok(self, seed, digests):
        """Whole-pass check; most workloads check only item by item."""
        return True


# -- corpus_sweep --------------------------------------------------------


def _sweep_checks(api, ideal, cointerval):
    """Acceptance criteria 3-6 for one ideal; True when every predicate
    holds."""
    ek, cx, cw, betti = api.ekcells, api.chain, api.cointerval, api.betti
    if not ideal.has_linear_quotients():
        return False
    ok = True
    X = None
    if api.ideals.check_regularity(ideal).regular:
        X = ek.build_ek_cw(ideal)
        cellular = ek.cellular_chain_complex(X)
        algebraic = cx.ht_resolution(ideal)
        ok = ok and cx.compare_up_to_degree_signs(cellular, algebraic)[0]
        ok = ok and cx.check_dd_zero(algebraic)[0] and cx.check_minimal(algebraic)
        for cell in X.cells.values():
            if cell.dim <= 3 and not ek.cell_is_ball(cell):
                ok = False
            members = [set(s.vertices) for s in cell.simplices]
            for chain in cell.simplices:
                pts = [ideal.gen(v).e for v in chain.vertices]
                if not ek.affinely_independent(pts):
                    ok = False
                for drop in range(len(chain.vertices)):
                    facet = set(chain.vertices[:drop] + chain.vertices[drop + 1 :])
                    count = sum(1 for m in members if facet <= m)
                    kind = ek.classify_facet(ideal, chain, drop).kind
                    if count != (2 if kind == "interior" else 1):
                        ok = False
    else:
        try:
            cx.ht_resolution(ideal)
            ok = False
        except api.errors.NotRegular:
            pass
    H = None
    if cointerval:
        H = cw.build_hom_complex(cw.dgraph_of_ideal(ideal), ideal.n)
        hom_cell = cw.hom_chain_complex(H, ideal)
        hom_alg = cw.homcone_resolution(ideal)
        ok = ok and cx.compare_up_to_degree_signs(hom_cell, hom_alg)[0]
        ok = ok and cx.check_dd_zero(hom_alg)[0] and cx.check_minimal(hom_alg)
        for cell, _, _ in H.cells_with_labels():
            sym = cw.symbol_of_face(ideal, cell)
            if cw.face_of_symbol(ideal, sym.gen, sym.alpha) != cell:
                ok = False
    for complex_ in (X, H):
        if complex_ is not None:
            ok = betti.check_cellular_resolution(complex_, ideal)[0] and ok
    if ideal.k <= betti.TAYLOR_BOUND:
        ok = betti.check_cellular_resolution(betti.TaylorSupport(ideal), ideal)[0] and ok
    return ok


class CorpusSweep(Workload):
    name = "corpus_sweep"
    items = 500

    def setup(self, api, seed, items):
        rng = random.Random(seed)
        corpus = [
            (it.name,) + encode(it.ideal) + (bool(it.tags.get("cointerval")),)
            for it in api.corpus.gen_corpus()
        ]
        # the cost of an item grows with the size of its resolution, so
        # slices by size give every seed the same spread of costs
        return stratified_sample(
            corpus,
            items,
            rng,
            key=lambda it: (resolution_size(it[2]), it[3], len(it[2]), it[1], it[0]),
        )

    def run(self, api, item):
        name, n, gens, cointerval = item
        t0 = now()
        try:
            ok = _sweep_checks(api, decode(api, n, gens), cointerval)
        except Exception as exc:  # a refusal is a failed item, not a crash
            _report(name, exc)
            ok = False
        return now() - t0, lambda: (ok, None)


# -- ladder_verify -------------------------------------------------------


def _dgraph_text(d, n):
    edges = combinations(range(1, n + 1), d)
    return "%d %d\n" % (d, n) + "".join(" ".join(map(str, e)) + "\n" for e in edges)


def _maximal_json(k):
    gens = [[1 if i == j else 0 for i in range(k)] for j in range(k)]
    return json.dumps({"n": k, "gens": gens})


LADDER = (
    ("K2_7", _dgraph_text(2, 7)),
    ("K2_8", _dgraph_text(2, 8)),
    ("K3_7", _dgraph_text(3, 7)),
    ("max7", _maximal_json(7)),
    ("max8", _maximal_json(8)),
)


class LadderVerify(Workload):
    name = "ladder_verify"
    items = len(LADDER)

    def setup(self, api, seed, items):
        ladder = list(LADDER[:items])
        random.Random(seed).shuffle(ladder)
        return ladder

    def run(self, api, item):
        name, text = item
        dt, rc, out = run_cli(api, ["verify", text])

        def check():
            digest = hashlib.sha256(out.encode()).hexdigest()
            lines = [ln for ln in out.splitlines() if ln.endswith((" ok", " FAIL"))]
            ok = (
                rc == 0
                and lines
                and all(ln.endswith(" ok") for ln in lines)
                and digest == GOLDEN["ladder_verify"].get(name)
            )
            return bool(ok), None

        return dt, check


# -- cli_mix -------------------------------------------------------------


def _parse_csv_totals(text):
    rows = [ln.split(",") for ln in text.strip().splitlines()[1:]]
    totals = {}
    for row in rows:
        i, value = int(row[0]), int(row[-1])
        totals[i] = totals.get(i, 0) + value
    return tuple(totals.get(i, 0) for i in range(max(totals, default=-1) + 1))


def _check_cli(command, rc, out, expected, k):
    """Per-command checks of a CLI invocation's exit code and output."""
    if rc != 0:
        return False
    if command == "check":
        lines = out.splitlines()
        return "linear quotients: yes" in lines and "regular: yes" in lines
    if command == "resolve":
        cx, end = json.JSONDecoder().raw_decode(out)
        return tuple(cx["ranks"]) == expected and _parse_csv_totals(out[end:]) == expected
    if command == "complex":
        lines = out.splitlines()
        return lines[0] == "OFF" and int(lines[2].split()[0]) == k
    if command == "enumerate-rules":
        data = json.loads(out)
        cells = sum(expected[1:])
        return (
            data["distinct_types"] >= 1
            and len(data["rules"]) >= 1
            and all(sum(r["f_vector"]) == cells for r in data["rules"])
        )
    if command == "betti":
        return tuple(json.loads(out)["totals"]) == expected
    return False


CLI_COMMANDS = (
    ("check",),
    ("resolve", "--betti-csv", "-"),
    ("complex", "--method", "ek", "--format", "off"),
    ("enumerate-rules",),
    ("betti", "--format", "json"),
)


class CliMix(Workload):
    name = "cli_mix"
    items = 400 * len(CLI_COMMANDS)

    def setup(self, api, seed, items):
        count = max(1, items // len(CLI_COMMANDS))
        ideals = api.corpus.random_linear_quotient_ideals(count, seed=seed)
        out = []
        for ideal in ideals:
            text = json.dumps({"n": ideal.n, "gens": [list(g.e) for g in ideal.gens]})
            expected = symbol_totals([len(s) for s in ideal.set_table()])
            for command in CLI_COMMANDS:
                out.append((command[0], text, command[1:], expected, ideal.k))
        return out[:items]

    def run(self, api, item):
        command, text, flags, expected, k = item
        dt, rc, out = run_cli(api, [command, text, *flags])

        def check():
            digest = hashlib.sha256(
                ("%s\0%s\0%d\0" % (command, text, rc) + out).encode()
            ).digest()
            try:
                ok = _check_cli(command, rc, out, expected, k)
            except (ValueError, KeyError, IndexError) as exc:
                _report(command, exc)
                ok = False
            return ok, digest

        return dt, check

    def pass_ok(self, seed, digests):
        """The pass's output digest must equal the one recorded for this
        seed at the default size, where one is recorded."""
        recorded = GOLDEN["cli_mix"].get(str(seed))
        if recorded is None or len(digests) != self.items:
            return True
        return pass_digest(digests) == recorded


def pass_digest(digests):
    h = hashlib.sha256()
    for d in digests:
        h.update(d)
    return h.hexdigest()


WORKLOADS = {w.name: w for w in (CorpusSweep(), LadderVerify(), CliMix())}
