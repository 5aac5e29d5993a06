"""Command-line surface.

Subcommands: check, resolve, complex, betti, enumerate-rules, verify,
gen-corpus.  Exit codes: 0 success, 1 a verified property failed, 2 bad
input.  Every acyclicity check is decided over Q with exact integer
arithmetic.
"""

import argparse
import functools
import json
import os
import sys

from . import betti as betti_mod
from . import export
from .chain import check_dd_zero, check_minimal, ht_resolution
from .cointerval import (
    build_hom_complex,
    cointerval_discrepancy,
    dgraph_of_ideal,
    edge_ideal,
    homcone_resolution,
    parse_dgraph,
    symbol_of_face,
)
from .corpus import MAX_COINTERVAL_D, gen_corpus
from .ekcells import build_ek_cw
from .errors import CellresError, InputError, NotCointerval, VerificationError
from .ideals import OrderedIdeal, check_regularity, parse_ideal
from .monomial import Monomial, _check_variables
from .rules import rule_family

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_INPUT = 2


def _read_input(raw):
    """The text of stdin (raw == "-") or of the file raw names."""
    try:
        if raw == "-":
            return sys.stdin.read()
        with open(raw, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        source = "stdin" if raw == "-" else raw
        raise InputError("cannot read %s: %s" % (source, e)) from None


def _looks_like_dgraph(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        return False
    head = lines[0].split()
    return len(head) == 2 and all(p.isdigit() for p in head)


def _json_int(x):
    """x itself if it is a JSON integer; true, 1.0 and "1" are refused."""
    if type(x) is not int:
        raise InputError("bad JSON ideal: %s is not an integer" % json.dumps(x))
    return x


def load_ideal(raw):
    """The ideal raw spells inline, else the one in the file raw names, or
    on stdin for "-".  Inline text wins: raw is read as a file only when it
    does not parse and names an existing path.  Either way the text is
    monomials, JSON {"n":..,"gens":[[..]]}, or a d-graph with a "d n"
    header."""
    if raw != "-":
        try:
            return _parse_input(raw)
        except InputError:
            if not os.path.exists(raw):
                raise
    return _parse_input(_read_input(raw))


def _parse_input(text):
    stripped = text.strip()
    if stripped.startswith("{"):
        try:
            data = json.loads(stripped)
            n = _json_int(data["n"])
            _check_variables(n)
            return OrderedIdeal(
                n, [Monomial([_json_int(a) for a in e]) for e in data["gens"]]
            )
        except (KeyError, TypeError, ValueError, RecursionError) as e:
            raise InputError("bad JSON ideal: %s" % e) from None
    if _looks_like_dgraph(stripped):
        return edge_ideal(parse_dgraph(stripped))
    return parse_ideal(stripped)


def _write(out, text):
    if out in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise InputError("cannot write %s: %s" % (out, e)) from None


def _cointerval_state(ideal):
    """(verdict or None, discrepancy dict or None); None when the ideal is
    not a uniform squarefree edge ideal."""
    try:
        graph = dgraph_of_ideal(ideal)
    except InputError:
        return None, None
    disc = cointerval_discrepancy(graph)
    return disc["recursive"], disc


def cmd_check(args):
    ideal = load_ideal(args.input)
    lines = []
    failure = ideal.linear_quotient_failure()
    lq = failure is None
    if lq:
        lines.append("linear quotients: yes")
        for j in range(1, ideal.k + 1):
            colon = sorted(ideal.colon_by_generator(j), key=lambda m: m.support())
            lines.append(
                "colon j=%d: %s" % (j, ", ".join(map(str, colon)) if colon else "-")
            )
        report = check_regularity(ideal)
        lines.append("regular: %s" % ("yes" if report.regular else "no"))
        if not report.regular:
            lines.append(
                "regularity witnesses: %s"
                % "; ".join("j=%d t=%d" % w for w in report.witnesses)
            )
    else:
        j, witness = failure
        lines.append("linear quotients: no (witness j=%d, %s)" % (j, witness))
        report = None
    verdict, disc = _cointerval_state(ideal)
    if verdict is None:
        lines.append("cointerval: n/a (not a uniform squarefree edge ideal)")
    else:
        lines.append("cointerval: %s" % ("yes" if verdict else "no"))
        if not disc["agree"]:
            lines.append(
                "cointerval exchange reading: %s (disagrees with the recursive "
                "definition; recursive verdict is authoritative)"
                % ("yes" if disc["exchange"] else "no")
            )
    print("\n".join(lines))
    required = {"lq", "regular"} if not args.require else set(args.require)
    ok = True
    if "lq" in required:
        ok = ok and lq
    if "regular" in required:
        ok = ok and bool(report and report.regular)
    if "cointerval" in required:
        ok = ok and bool(verdict)
    return EXIT_OK if ok else EXIT_PROPERTY


def _resolution(ideal, method):
    if method == "ht":
        return ht_resolution(ideal)
    if method == "hom":
        return homcone_resolution(ideal)
    return betti_mod.taylor_complex(ideal)


def cmd_resolve(args):
    ideal = load_ideal(args.input)
    cx = _resolution(ideal, args.method)
    ok, witness = check_dd_zero(cx)
    if not ok:
        print("dd=0 failed at %s" % (witness,), file=sys.stderr)
        return EXIT_PROPERTY
    cx.validate()
    _write(args.out, export.complex_to_json(cx))
    if args.betti_csv:
        table = betti_mod.multigraded_betti(ideal)
        _write(args.betti_csv, export.betti_to_csv(table))
    return EXIT_OK


def _note_irregular_b(ideal):
    """After a failed gluing: say on stderr when b is irregular, which
    the cells' construction assumes but the command does not require."""
    report = check_regularity(ideal)
    if not report.regular:
        print(
            "note: b is irregular, first regularity witness j=%d t=%d "
            "(set(b(x_t m_j)) is not inside set(m_j)); its chains need not "
            "glue into cells" % report.witnesses[0],
            file=sys.stderr,
        )


def cmd_complex(args):
    ideal = load_ideal(args.input)
    if args.method == "ek":
        try:
            X = build_ek_cw(ideal)
        except VerificationError:
            _note_irregular_b(ideal)
            raise
        payload = (
            export.ek_complex_to_json(X)
            if args.format == "json"
            else export.ek_complex_to_off(X)
        )
    else:
        graph = dgraph_of_ideal(ideal)
        X = build_hom_complex(graph, ideal.n)
        payload = (
            export.hom_complex_to_json(X, ideal)
            if args.format == "json"
            else export.hom_complex_to_off(X)
        )
    ok, failing = betti_mod.check_cellular_resolution(X, ideal)
    if not ok:
        print("acyclicity failed at multidegree %s" % failing, file=sys.stderr)
        return EXIT_PROPERTY
    _write(args.out, payload)
    return EXIT_OK


def cmd_betti(args):
    ideal = load_ideal(args.input)
    table = betti_mod.multigraded_betti(ideal)
    payload = (
        export.betti_to_csv(table)
        if args.format == "csv"
        else export.betti_to_json(table)
    )
    _write(args.out, payload)
    return EXIT_OK


def cmd_enumerate(args):
    ideal = load_ideal(args.input)
    rules, types = rule_family(ideal, bound=args.bound)
    type_id = {fp: i for i, fp in enumerate(types)}
    entries = [
        {
            "table": [
                {"gen": j, "var": t, "target": g}
                for (j, t), g in sorted(rule.table.items())
            ],
            "f_vector": list(X.f_vector()),
            "type": type_id[fp],
        }
        for rule, X, fp in rules
    ]
    payload = export._dump({"rules": entries, "distinct_types": len(types)})
    _write(args.out, payload)
    return EXIT_OK


def _numbered_resolution(cx):
    """(cx as a NumberedComplex, or None if an entry of cx is not +-1
    times the quotient of its labels; whether dd = 0 on it)."""
    try:
        table = betti_mod.NumberedComplex.of_resolution(cx)
    except VerificationError:
        return None, False
    try:
        table.require_dd_zero()
    except VerificationError:
        return table, False
    return table, True


def _record_cellular(record, ideal, X, table, name_of, lines):
    """Record whether the cell complex X, numbered in symbol order, is the
    numbered resolution `table`, and whether X's strands are acyclic.
    Equal, the strands are checked on `table`, whose dd = 0 is checked
    once; else on X's own numbering, whose dd = 0 is checked there."""
    cells = betti_mod.NumberedComplex.of_cells(X, ideal, name_of)
    same = table is not None and cells.difference(table) is None
    record(lines[0], same)
    ok, _ = betti_mod.check_cellular_resolution(table if same else cells, ideal)
    record(lines[1], ok)


def cmd_verify(args):
    """Print one line per check and exit 1 if any fails.

    Each resolution is numbered once, as a NumberedComplex, and each line
    reads one table:
    - "dd = 0": the resolution's table.  Every entry must be +-1 times
      the quotient of its labels, and then the signs of its paths sum to
      zero;
    - "minimal": the resolution itself;
    - "cellular = algebraic": the cell complex, numbered in symbol order
      (EK cells by their keys, hom cells by symbol_of_face), against the
      resolution's table, names, labels and signs;
    - "strands acyclic": the resolution's table when the two are equal,
      else the cell complex's.  dd = 0 thus runs once per distinct table.
    """
    ideal = load_ideal(args.input)
    checks = []

    def record(name, ok):
        checks.append((name, bool(ok)))
        print("%-34s %s" % (name, "ok" if ok else "FAIL"))

    lq = ideal.has_linear_quotients()
    record("linear quotients", lq)
    if not lq:
        return EXIT_PROPERTY
    report = check_regularity(ideal)
    print("regular decomposition function: %s" % ("yes" if report.regular else "no"))
    if not report.regular:
        try:
            ht_resolution(ideal)
            record("irregular b refused by the builder", False)
        except CellresError:
            record("irregular b refused by the builder", True)
    else:
        record("commutation follows containment", report.star_commutes)
    if report.regular:
        alg = ht_resolution(ideal)
        table, dd_zero = _numbered_resolution(alg)
        record("dd = 0 (mapping cone)", dd_zero)
        record("minimal", check_minimal(alg))
        _record_cellular(
            record,
            ideal,
            build_ek_cw(ideal),
            table,
            None,
            ("cellular = algebraic", "cell complex strands acyclic"),
        )
        if ideal.k <= betti_mod.TAYLOR_BOUND:
            oracle = betti_mod.multigraded_betti(ideal)
            record(
                "Betti table matches Taylor oracle",
                oracle == betti_mod.betti_from_resolution(alg),
            )
    verdict, disc = _cointerval_state(ideal)
    if verdict is not None:
        print("cointerval (recursive): %s" % ("yes" if verdict else "no"))
        if not disc["agree"]:
            print(
                "note: exchange reading disagrees (says %s); recursive "
                "definition is authoritative" % ("yes" if disc["exchange"] else "no")
            )
    hom = None
    if verdict:
        try:
            hom = homcone_resolution(ideal)
        except NotCointerval:  # the graph is cointerval: its edges are out of order
            print("note: hom checks need the generators in lexicographic order")
    if hom is not None:
        table, dd_zero = _numbered_resolution(hom)
        record("dd = 0 (hom complex cone)", dd_zero)
        _record_cellular(
            record,
            ideal,
            build_hom_complex(dgraph_of_ideal(ideal), ideal.n),
            table,
            functools.partial(symbol_of_face, ideal),
            ("hom cellular = algebraic", "hom strands acyclic"),
        )
    if ideal.k <= betti_mod.TAYLOR_BOUND:
        ok, _ = betti_mod.check_cellular_resolution(
            betti_mod.TaylorSupport(ideal), ideal
        )
        record("Taylor strands acyclic", ok)
    return EXIT_OK if all(ok for _, ok in checks) else EXIT_PROPERTY


def cmd_gen_corpus(args):
    if args.cointerval_d > MAX_COINTERVAL_D:
        print("note: --cointerval-d capped at %d" % MAX_COINTERVAL_D, file=sys.stderr)
    items = gen_corpus(
        max_n=args.stable_n,
        max_deg=args.stable_deg,
        max_d=args.cointerval_d,
        cointerval_n=args.cointerval_n,
    )
    _write(args.out, export.corpus_to_jsonl(items))
    print("%d ideals" % len(items), file=sys.stderr)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse's parser, except that a failed write of help or usage to
    stdout raises OSError, which argparse would drop; main reports it."""

    def _print_message(self, message, file=None):
        if message and file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


def build_parser():
    p = _Parser(
        prog="cellres",
        description="Cellular mapping-cone resolutions of monomial ideals, "
        "verified with exact arithmetic.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="linear quotients / regularity / cointervality")
    c.add_argument("input")
    c.add_argument(
        "--require",
        action="append",
        choices=["lq", "regular", "cointerval"],
        help="properties the exit code should reflect (default: lq, regular)",
    )
    c.set_defaults(func=cmd_check)

    r = sub.add_parser("resolve", help="build a resolution and export it")
    r.add_argument("input")
    r.add_argument("--method", choices=["ht", "hom", "taylor"], default="ht")
    r.add_argument("--out", default="-")
    r.add_argument("--betti-csv")
    r.set_defaults(func=cmd_resolve)

    x = sub.add_parser("complex", help="build the supporting cell complex")
    x.add_argument("input")
    x.add_argument("--method", choices=["ek", "hom"], default="ek")
    x.add_argument("--format", choices=["json", "off"], default="json")
    x.add_argument("--out", default="-")
    x.set_defaults(func=cmd_complex)

    b = sub.add_parser("betti", help="multigraded Betti numbers (Taylor strands)")
    b.add_argument("input")
    b.add_argument("--format", choices=["csv", "json"], default="csv")
    b.add_argument("--out", default="-")
    b.set_defaults(func=cmd_betti)

    e = sub.add_parser("enumerate-rules", help="the family of decomposition rules")
    e.add_argument("input")
    e.add_argument("--bound", type=int, default=100000)
    e.add_argument("--out", default="-")
    e.set_defaults(func=cmd_enumerate)

    v = sub.add_parser("verify", help="run every applicable verification")
    v.add_argument("input")
    v.set_defaults(func=cmd_verify)

    g = sub.add_parser("gen-corpus", help="emit the deterministic test corpus")
    g.add_argument("--out", default="-")
    g.add_argument("--stable-n", type=int, default=4)
    g.add_argument("--stable-deg", type=int, default=3)
    g.add_argument("--cointerval-d", type=int, default=MAX_COINTERVAL_D)
    g.add_argument("--cointerval-n", type=int, default=6)
    g.set_defaults(func=cmd_gen_corpus)
    return p


@functools.lru_cache(maxsize=None)
def _parser():
    """The one parser of this process; parse_args leaves it unchanged."""
    return build_parser()


def _drop_stdout():
    """Point the process's stdout at os.devnull, so that the interpreter's
    exit flush of what a full or closed stdout still holds stays quiet."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError):  # an in-memory stdout has no fd
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None):
    try:
        try:
            args = _parser().parse_args(argv)
        except SystemExit:
            # after help or usage: a full or closed stdout fails here
            sys.stdout.flush()
            raise
        try:
            code = args.func(args)
        except InputError as e:
            print("input error: %s" % e, file=sys.stderr)
            code = EXIT_INPUT
        except CellresError as e:
            print("property failure: %s: %s" % (type(e).__name__, e), file=sys.stderr)
            code = EXIT_PROPERTY
        sys.stdout.flush()  # a full or closed stdout fails here, not at exit
    except OSError as e:
        # reading input and writing --out files raise InputError instead
        _drop_stdout()
        print("input error: cannot write stdout: %s" % e, file=sys.stderr)
        code = EXIT_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
