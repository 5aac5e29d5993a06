"""One sha256 over the CLI's answers, to show that a change keeps every
byte of them.

Runs `cellres.cli.main` in-process on every 40th `gen_corpus()` ideal and
on `random_linear_quotient_ideals(60, 2026)`: `check`, `resolve` with each
`--method`, `complex` with each `--method` and `--format`, `betti` with
each `--format`, `enumerate-rules` and `verify`, plus one `gen-corpus`.
The digest covers each call's argv, exit code, stdout and stderr, in
order.  pytest does not collect this file.

EXPECTED is the digest of the current CLI output.  The script exits 1
when the digest or the call count differs from it, so CI catches any
change of output; a change that means to alter output updates EXPECTED
and says so in CHANGES.md.

Run:  PYTHONPATH=src python3 tests/cli_digest.py [--verbose]
"""

import contextlib
import hashlib
import io
import json
import sys

from cellres import cli
from cellres.corpus import gen_corpus, random_linear_quotient_ideals

EXPECTED = ("1e4251f8f00bc0a31844aa3fa83a87d1a9783b84c93e9fc0e1065bc3a9b9cf71", 1921)

COMMANDS = (
    ["check"],
    ["resolve", "--method", "ht"],
    ["resolve", "--method", "hom"],
    ["resolve", "--method", "taylor"],
    ["complex", "--method", "ek", "--format", "json"],
    ["complex", "--method", "ek", "--format", "off"],
    ["complex", "--method", "hom", "--format", "json"],
    ["complex", "--method", "hom", "--format", "off"],
    ["betti", "--format", "csv"],
    ["betti", "--format", "json"],
    ["enumerate-rules"],
    ["verify"],
)


def ideals():
    """The inputs, as inline JSON ideals, in a fixed order."""
    corpus = [item.ideal for item in gen_corpus()[::40]]
    for ideal in corpus + random_linear_quotient_ideals(60, 2026):
        yield json.dumps({"n": ideal.n, "gens": [list(g.e) for g in ideal.gens]})


def run(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def digest(verbose=False):
    h = hashlib.sha256()
    calls = [["gen-corpus"]]
    calls += [command[:1] + [text] + command[1:] for text in ideals() for command in COMMANDS]
    for argv in calls:
        code, out, err = run(argv)
        record = json.dumps([argv, code, out, err])
        h.update(record.encode())
        h.update(b"\n")
        if verbose:
            print(code, hashlib.sha256(record.encode()).hexdigest()[:12], " ".join(argv)[:100])
    return h.hexdigest(), len(calls)


if __name__ == "__main__":
    value, count = digest(verbose="--verbose" in sys.argv[1:])
    print("%s  (%d calls)" % (value, count))
    if (value, count) != EXPECTED:
        print("expected %s  (%d calls)" % EXPECTED, file=sys.stderr)
        sys.exit(1)
