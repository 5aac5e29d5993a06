import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cellres import betti, cli
from cellres.betti import check_cellular_resolution
from cellres.cli import main
from cellres.ekcells import build_ek_cw
from cellres.ideals import check_regularity, parse_ideal

RUNNING = "x1*x2, x1*x3, x1*x5, x2*x3, x2*x5, x3*x5, x4*x5"
EXAMPLE1 = "x1*x3*x4, x1*x3*x5, x1*x2*x4, x1*x4*x5, x2*x3*x4, x2*x3*x5"
OUTPUTS = Path(__file__).resolve().parent / "cli_outputs"
# cointerval corpus ideals: a 2-graph whose hom complex is a cone over
# triangles and squares, and a 3-graph with two square faces
D2_CONE = "x1*x3, x1*x4, x1*x5, x1*x6, x2*x3, x2*x4"
D3_PRISM = "x2*x3*x4, x2*x3*x5, x2*x3*x6, x2*x4*x5, x2*x4*x6, x3*x4*x5, x3*x4*x6"


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_example1(capsys):
    code, out, _ = run_cli(["check", EXAMPLE1], capsys)
    assert code == 0
    assert "linear quotients: yes" in out
    assert "colon j=6: x1, x4" in out
    assert "regular: yes" in out
    assert "cointerval: no" in out


def test_check_running(capsys):
    code, out, _ = run_cli(["check", RUNNING], capsys)
    assert code == 0
    assert "cointerval: yes" in out
    assert "exchange reading" in out  # the discrepancy is surfaced


def test_check_not_lq(capsys):
    code, out, _ = run_cli(["check", "x1*x2, x3*x4"], capsys)
    assert code == 1
    assert "linear quotients: no (witness j=2" in out


def test_check_malformed(capsys):
    code, _, err = run_cli(["check", "x1*blah"], capsys)
    assert code == 2
    assert "input error" in err


def test_check_require_cointerval(capsys):
    code, _, _ = run_cli(["check", "--require", "cointerval", EXAMPLE1], capsys)
    assert code == 1


def test_resolve_ht_json(capsys, tmp_path):
    out_path = tmp_path / "cx.json"
    betti_path = tmp_path / "b.csv"
    code, _, _ = run_cli(
        ["resolve", RUNNING, "--out", str(out_path), "--betti-csv", str(betti_path)],
        capsys,
    )
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["ranks"] == [1, 7, 11, 6, 1]
    lines = betti_path.read_text().splitlines()
    assert lines[0] == "i,e1,e2,e3,e4,e5,value"
    assert len(lines) > 5


def test_resolve_taylor(capsys, tmp_path):
    out_path = tmp_path / "t.json"
    code, _, _ = run_cli(
        ["resolve", RUNNING, "--method", "taylor", "--out", str(out_path)], capsys
    )
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["ranks"] == [1, 7, 21, 35, 35, 21, 7, 1]


def test_resolve_hom_rejects_noncointerval(capsys):
    code, _, err = run_cli(["resolve", EXAMPLE1, "--method", "hom"], capsys)
    assert code == 1
    assert "NotCointerval" in err


def test_complex_ek_json(capsys, tmp_path):
    out_path = tmp_path / "ek.json"
    code, _, _ = run_cli(["complex", RUNNING, "--out", str(out_path)], capsys)
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["f_vector"] == [7, 11, 6, 1]


def test_complex_hom_json(capsys, tmp_path):
    out_path = tmp_path / "hom.json"
    code, _, _ = run_cli(
        ["complex", RUNNING, "--method", "hom", "--out", str(out_path)], capsys
    )
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["f_vector"] == [7, 11, 6, 1]
    dims = [c["dim"] for c in data["cells"]]
    assert dims.count(3) == 1


def test_complex_off_export(capsys):
    code, out, _ = run_cli(
        ["complex", "x1, x2, x3", "--method", "ek", "--format", "off"], capsys
    )
    assert code == 0
    assert out.startswith("OFF\n")
    header = out.splitlines()[2].split()
    assert header[0] == "3"  # three vertices


@pytest.mark.parametrize("fmt", ["off", "json"])
@pytest.mark.parametrize(
    "text, name",
    [(RUNNING, "running"), (D2_CONE, "d2_cone"), (D3_PRISM, "d3_prism")],
)
def test_complex_hom_output_is_unchanged(capsys, text, name, fmt):
    argv = ["complex", "--method", "hom", "--format", fmt, text]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out == (OUTPUTS / ("complex_hom_%s.%s" % (name, fmt))).read_text()



@pytest.mark.parametrize(
    "argv, name",
    [
        (["complex", "--method", "ek", RUNNING], "complex_ek_running.json"),
        (["complex", "--method", "ek", EXAMPLE1], "complex_ek_example1.json"),
        (["resolve", "--method", "taylor", RUNNING], "resolve_taylor_running.json"),
    ],
)
def test_json_output_is_unchanged(capsys, argv, name):
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out == (OUTPUTS / name).read_text()

def test_betti_csv(capsys):
    code, out, _ = run_cli(["betti", "x1, x2"], capsys)
    assert code == 0
    assert "i,e1,e2,value" in out


def test_complex_ek_glues_an_irregular_b(capsys):
    # set(b(x_1 m_3)) = set(m_2) = {3} escapes set(m_3) = {1}, so b is
    # irregular; its cells glue anyway, into a complex with acyclic
    # strands, so the command must not refuse the ideal before gluing
    text = "x1*x3, x1*x4, x2*x4"
    ideal = parse_ideal(text)
    assert check_regularity(ideal).witnesses == [(3, 1)]
    code, out, err = run_cli(["complex", "--method", "ek", text], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["f_vector"] == [3, 2]
    assert check_cellular_resolution(build_ek_cw(ideal), ideal) == (True, None)


def test_complex_ek_names_the_irregular_b_it_failed_to_glue(capsys):
    # the corpus ideal cointerval/d2/(1, 3),(1, 4),(2, 4),(3, 4): one
    # generator more than the ideal above, and now the gluing fails
    text = "x1*x3, x1*x4, x2*x4, x3*x4"
    assert check_regularity(parse_ideal(text)).witnesses[0] == (3, 1)
    code, out, err = run_cli(["complex", "--method", "ek", text], capsys)
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        "note: b is irregular, first regularity witness j=3 t=1 "
        "(set(b(x_t m_j)) is not inside set(m_j)); its chains need not "
        "glue into cells",
        "property failure: VerificationError: facet (4, 2) is not a chain "
        "of (m_4, (1,))",
    ]


def test_enumerate_rules(capsys):
    code, out, _ = run_cli(["enumerate-rules", RUNNING], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["distinct_types"] >= 2


def test_enumerate_rules_maximal(capsys):
    code, out, _ = run_cli(["enumerate-rules", "x1, x2, x3, x4"], capsys)
    assert code == 0
    data = json.loads(out)
    assert len(data["rules"]) == 1 and data["distinct_types"] == 1


def test_enumerate_rules_orientation_clash_is_a_property_failure(capsys, tmp_path):
    # an admitted rule of this d-graph cannot be glued; the command
    # reports it and prints no rules
    path = tmp_path / "graph.txt"
    edges = "123 125 126 135 136 156 236 256 356 456".split()
    path.write_text("3 6\n" + "".join(" ".join(e) + "\n" for e in edges))
    code, out, err = run_cli(["enumerate-rules", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("property failure: OrientationClash")
    assert "Traceback" not in err


def test_enumerate_rules_glues_every_rule_read_by_the_absorb_law(capsys, tmp_path):
    # read "commute wins", rule 2 of this d-graph's 5 rules did not glue
    path = tmp_path / "graph.txt"
    path.write_text("3 6\n1 2 3\n1 2 6\n1 3 6\n1 5 6\n2 5 6\n3 5 6\n4 5 6\n")
    code, out, err = run_cli(["enumerate-rules", str(path)], capsys)
    assert (code, err) == (0, "")
    assert len(json.loads(out)["rules"]) == 5


def test_verify_running(capsys):
    code, out, _ = run_cli(["verify", RUNNING], capsys)
    assert code == 0
    assert "FAIL" not in out
    assert "exchange reading disagrees" in out


def test_verify_reports_a_non_minimal_builder(capsys, monkeypatch):
    # the Taylor complex resolves R/I but is not minimal on the running
    # example, so the "minimal" line must fail whatever else passes
    monkeypatch.setattr(cli, "ht_resolution", betti.taylor_complex)
    code, out, _ = run_cli(["verify", RUNNING], capsys)
    assert code == 1
    assert ["minimal", "FAIL"] in [line.split() for line in out.splitlines()]


def test_verify_skips_hom_checks_of_edges_out_of_lex_order(capsys):
    # a cointerval graph whose edges are listed out of lex order: every
    # check that runs passes, the hom checks are skipped with a note, and
    # the Taylor line still follows
    code, out, err = run_cli(["verify", "x1*x3, x1*x2"], capsys)
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[-3:] == [
        "cointerval (recursive): yes",
        "note: hom checks need the generators in lexicographic order",
        "Taylor strands acyclic             ok",
    ]
    assert "FAIL" not in out


def test_verify_no_prefilter(capsys):
    # exact Q is the only arithmetic: verify needs no flag for it, and the
    # old --no-prefilter flag is an unknown argument of verify and complex
    code, out, _ = run_cli(["verify", EXAMPLE1], capsys)
    assert code == 0
    assert "FAIL" not in out
    for command in ("verify", "complex"):
        proc = subprocess.run(
            [sys.executable, "-m", "cellres.cli", command, "--no-prefilter", "x1, x2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "unrecognized arguments: --no-prefilter" in proc.stderr
        assert "Traceback" not in proc.stderr


# Without the variable bound each input would build a 10^8-entry tuple or
# range; the child caps its own address space, so that fails fast instead.
CAPPED_CLI = (
    "import resource, sys\n"
    "resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))\n"
    "from cellres.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


@pytest.mark.parametrize("text", ["x1*x1*x99999999", "2 100000000\n1 2"])
def test_too_many_variables_exit_2(text):
    proc = subprocess.run(
        [sys.executable, "-c", CAPPED_CLI, "check", text],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("input error: ")
    assert "variables exceed the bound 1000" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "text", ["x1*x" + "1" * 5000, "x1*x2^" + "1" * 5000]
)
def test_overlong_index_or_exponent_exit_2(text):
    # more digits than int() converts by default
    proc = subprocess.run(
        [sys.executable, "-m", "cellres.cli", "check", text],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("input error: number too long")
    assert "Traceback" not in proc.stderr


def test_json_ideal_variable_bound_exit_2(capsys):
    gens = [[1] + [0] * 1999]
    code, out, err = run_cli(["check", json.dumps({"n": 2000, "gens": gens})], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("input error: 2000 variables exceed the bound 1000")
    gens = [[1] + [0] * 999]
    code, _, _ = run_cli(["check", json.dumps({"n": 1000, "gens": gens})], capsys)
    assert code == 0


def test_gen_corpus_output(capsys, tmp_path):
    out_path = tmp_path / "corpus.jsonl"
    code, _, _ = run_cli(
        [
            "gen-corpus",
            "--out",
            str(out_path),
            "--stable-n",
            "3",
            "--stable-deg",
            "2",
            "--cointerval-d",
            "2",
            "--cointerval-n",
            "4",
        ],
        capsys,
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert all(json.loads(ln)["kind"] in {"stable", "cointerval", "example"} for ln in lines)



# sha256 of the gen-corpus stdout; the corpus is sampled by stride in the
# tests, so its order is part of the contract
@pytest.mark.parametrize(
    "flags, digest",
    [
        ([], "06ab91bc52718101ed85993dd6cd9df53567cd7ee219b484780d9e3ee2444839"),
        (
            "--stable-n 2 --stable-deg 2 --cointerval-d 1 --cointerval-n 1".split(),
            "8addabe020fbc668a4fe5de3ad984da4eca06fab73fbbbf394f1716bac688b6e",
        ),
        (
            "--cointerval-d 2 --cointerval-n 5".split(),
            "48358e6005ea1a7c2676607bc5e1bbb95db133b9037fad63175bf530baac9367",
        ),
        (
            "--cointerval-d 3 --cointerval-n 5".split(),
            "fe96b1b133ba953a7edf5a8cd4d4b79d028553c5f7e77922e9e6dbad5a46ad20",
        ),
        # d is capped at 3, so this is the default corpus again
        (
            "--cointerval-d 4 --cointerval-n 6".split(),
            "06ab91bc52718101ed85993dd6cd9df53567cd7ee219b484780d9e3ee2444839",
        ),
    ],
)
def test_gen_corpus_bytes_are_pinned(capsys, flags, digest):
    code, out, _ = run_cli(["gen-corpus"] + flags, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_gen_corpus_says_when_d_is_capped(capsys):
    small = "--stable-n 2 --stable-deg 2 --cointerval-n 4".split()
    code, out3, err3 = run_cli(["gen-corpus", "--cointerval-d", "3"] + small, capsys)
    assert code == 0
    assert "capped" not in err3
    code, out4, err4 = run_cli(["gen-corpus", "--cointerval-d", "4"] + small, capsys)
    assert code == 0
    assert err4 == "note: --cointerval-d capped at 3\n" + err3
    assert out4 == out3


def test_dgraph_file_input(capsys, tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("2 5\n1 2\n1 3\n1 5\n2 3\n2 5\n3 5\n4 5\n")
    code, out, _ = run_cli(["check", str(path)], capsys)
    assert code == 0
    assert "cointerval: yes" in out


def test_json_ideal_input(capsys):
    blob = json.dumps({"n": 3, "gens": [[1, 1, 0], [1, 0, 1]]})
    code, out, _ = run_cli(["check", blob], capsys)
    assert code == 0
    assert "linear quotients: yes" in out


@pytest.mark.parametrize(
    "blob",
    [
        '{"n": 2, "gens": [[1.9, 0], [0, 1]]}',
        '{"n": 2.7, "gens": [[1, 0], [0, 1]]}',
        '{"n": "2", "gens": [[1, 0], [0, 1]]}',
        '{"n": 2, "gens": [[true, 0], [0, 1]]}',
        '{"n": 2, "gens": [[1, 0], [0, "1"]]}',
    ],
)
def test_json_ideal_takes_only_integers_exit_2(capsys, blob):
    code, out, err = run_cli(["check", blob], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("input error: bad JSON ideal: ")
    assert err.endswith(" is not an integer\n")


def test_deeply_nested_json_exit_2(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text('{"n": ' + "[" * 100000 + "]" * 100000 + ', "gens": []}')
    code, out, err = run_cli(["check", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("input error: bad JSON ideal: maximum recursion depth")


def assert_one_input_error_line(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("input error: ")
    assert err.count("\n") == 1


def test_directory_input_exit_2(capsys, tmp_path):
    code, out, err = run_cli(["check", str(tmp_path)], capsys)
    assert_one_input_error_line(code, out, err)
    assert "Is a directory" in err


def test_non_utf8_file_exit_2(capsys, tmp_path):
    path = tmp_path / "ideal.txt"
    path.write_bytes(b"x1*x2, \xff*x3\n")
    code, out, err = run_cli(["check", str(path)], capsys)
    assert_one_input_error_line(code, out, err)
    assert "can't decode byte 0xff" in err


def test_non_utf8_stdin_exit_2():
    # strict decoding, as under a UTF-8 locale outside Python's UTF-8 mode
    proc = subprocess.run(
        [sys.executable, "-m", "cellres.cli", "check", "-"],
        input=b"x1*x2, \xff*x3\n",
        capture_output=True,
        env=dict(os.environ, PYTHONIOENCODING="utf-8:strict"),
    )
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"input error: cannot read stdin: ")
    assert b"Traceback" not in proc.stderr


def test_unwritable_out_exit_2(capsys, tmp_path):
    out_path = tmp_path / "missing" / "cx.json"
    code, out, err = run_cli(["resolve", "x1, x2", "--out", str(out_path)], capsys)
    assert_one_input_error_line(code, out, err)
    assert err.startswith("input error: cannot write %s: " % out_path)


def test_inline_text_wins_over_a_same_named_file(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x1").write_text("x2*x3")
    inline = run_cli(["betti", "x1"], capsys)
    from_file = run_cli(["betti", "./x1"], capsys)
    (tmp_path / "x1").unlink()
    assert inline == run_cli(["betti", "x1"], capsys)
    assert from_file == run_cli(["betti", "x2*x3"], capsys)
    code, out, err = run_cli(["check", "."], capsys)
    assert_one_input_error_line(code, out, err)
    assert err.startswith("input error: cannot read .: ")


def _cli_into(stdout_fd, *args, env=None):
    """Run the CLI in a child whose stdout is stdout_fd; (code, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-m", "cellres.cli", *args],
        stdout=stdout_fd,
        stderr=subprocess.PIPE,
        text=True,
        timeout=60,
        env=env,
    )
    return proc.returncode, proc.stderr


def test_full_stdout_exit_2():
    with open("/dev/full", "w") as full:
        code, err = _cli_into(full, "check", "x1")
    assert code == 2
    assert err.startswith("input error: cannot write stdout: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_closed_stdout_pipe_exit_2():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the child writes
    try:
        code, err = _cli_into(write_end, "check", RUNNING)
    finally:
        os.close(write_end)
    assert code == 2
    assert err.startswith("input error: cannot write stdout: ")
    assert "Broken pipe" in err
    assert err.count("\n") == 1 and "Traceback" not in err


# argparse writes help itself and drops a failed write; with a buffered
# stdout the bytes wait for a flush, unbuffered the write fails at once
@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("args", [["--help"], ["resolve", "--help"]])
def test_help_into_closed_stdout_pipe_exit_2(args, unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
        code, err = _cli_into(write_end, *args, env=env)
    finally:
        os.close(write_end)
    assert code == 2
    assert err.startswith("input error: cannot write stdout: ")
    assert "Broken pipe" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_help_into_full_stdout_exit_2():
    with open("/dev/full", "w") as full:
        code, err = _cli_into(full, "--help")
    assert code == 2
    assert err.startswith("input error: cannot write stdout: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_help_and_usage_errors_keep_argparse_output_and_exit(capsys):
    with pytest.raises(SystemExit) as help_exit:
        main(["resolve", "--help"])
    out = capsys.readouterr()
    assert help_exit.value.code == 0
    assert out.out.startswith("usage: cellres resolve [-h]") and out.err == ""
    assert "--betti-csv BETTI_CSV" in out.out
    with pytest.raises(SystemExit) as usage_exit:
        main(["resolve"])
    out = capsys.readouterr()
    assert usage_exit.value.code == 2 and out.out == ""
    assert out.err.startswith("usage: cellres resolve")
    assert out.err.endswith("error: the following arguments are required: input\n")


def test_determinism_byte_identical(tmp_path):
    cmd = [
        sys.executable,
        "-m",
        "cellres.cli",
        "resolve",
        RUNNING,
    ]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    assert first.returncode == 0
    assert first.stdout == second.stdout


def test_parser_is_built_once_and_keeps_no_state(capsys, monkeypatch):
    built = []
    build = cli.build_parser

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    for _ in range(2):
        argv = ["check", "--require", "cointerval", EXAMPLE1]
        code, _, _ = run_cli(argv, capsys)
        assert code == 1
        code, out, _ = run_cli(["check", EXAMPLE1], capsys)
        assert code == 0  # the default requirements, not cointerval
        assert "regular: yes" in out
    code, _, err = run_cli(["check", "x1*blah"], capsys)
    assert code == 2 and "input error" in err
    assert len(built) == 1
