"""Command-line surface: formats, exit codes, config handling."""

import io
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import fanfree
import fanfree.cli
from fanfree.cli import main
from fanfree.enumeration import EnumerationTask, enumerate_graphs
from fanfree.graphs import (complete_graph, disjoint_union, empty_graph,
                            graph6_encode, make_split)
from fanfree.matching import ForbiddenPattern
from fanfree.search import certify_max_q1, emit_certificate, turan_bruteforce
from fanfree.spectral import q1_split_lower_bound

SPLIT_10_2 = graph6_encode(make_split(10, 2))


def run_cli(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        assert monkeypatch is not None
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_q1_rows(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, ["q1"], stdin="Bw\n", monkeypatch=monkeypatch)
    assert code == 0
    assert out == "Bw\t3\t3\t4\n"


def test_q1_json_and_tsv_agree(capsys, monkeypatch, tmp_path):
    lines = SPLIT_10_2 + "\nDhc\n"
    path = tmp_path / "in.g6"
    path.write_text(lines)
    code, tsv, _ = run_cli(capsys, ["q1", "--input", str(path)])
    assert code == 0
    code, js, _ = run_cli(capsys, ["q1", "--input", str(path), "--format", "json"])
    assert code == 0
    parsed = json.loads(js)
    for row, line in zip(parsed, tsv.splitlines()):
        cells = line.split("\t")
        assert row["graph6"] == cells[0]
        assert row["n"] == int(cells[1])
        assert row["e"] == int(cells[2])
        assert f"{row['q1']:.15g}" == cells[3]
    assert abs(parsed[0]["q1"] - 11.6568542494924) < 1e-10


def test_q1_empty_input(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, ["q1"], stdin="", monkeypatch=monkeypatch)
    assert code == 0 and out == ""


def test_q1_malformed_input(capsys, monkeypatch, tmp_path):
    path = tmp_path / "bad.g6"
    path.write_text("Bw\n!!!!\n")
    code, _, err = run_cli(capsys, ["q1", "--input", str(path)])
    assert code == 1
    assert "line 2" in err
    code, out, _ = run_cli(capsys, ["q1", "--input", str(path), "--no-fail-fast"])
    assert code == 0
    assert out.startswith("Bw\t")


def test_fan_free_rows(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, ["fan-free", "--k", "1"],
                           stdin="Bw\nA_\n", monkeypatch=monkeypatch)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "Bw\tfalse\t0"
    assert lines[1] == "A_\ttrue\t"


def test_enumerate_counts(capsys):
    code, out, _ = run_cli(capsys, ["enumerate", "--n", "5"])
    assert code == 0
    assert len(out.splitlines()) == 34
    code, out, _ = run_cli(capsys, ["enumerate", "--n", "5", "--connected-only",
                                    "--format", "json"])
    data = json.loads(out)
    assert data["count"] == 21 and len(data["graphs"]) == 21


def test_enumerate_shard_flags(capsys):
    total = []
    for i in range(3):
        code, out, _ = run_cli(capsys, ["enumerate", "--n", "6", "--shards", "3",
                                        "--shard-index", str(i)])
        assert code == 0
        total.extend(out.splitlines())
    assert len(total) == 156 and len(set(total)) == 156
    code, _, err = run_cli(capsys, ["enumerate", "--n", "6", "--shard-index", "1"])
    assert code == 1 and "--shards" in err
    code, out, err = run_cli(capsys, ["enumerate", "--n", "6", "--shards", "3"])
    assert code == 1 and "--shard-index" in err and out == ""


def test_certify_exit_codes_and_output(capsys):
    code, out, _ = run_cli(capsys, ["certify", "--n", "7", "--k", "2"])
    assert code == 0  # below regime: exploratory, no counterexample claim
    cert = json.loads(out)
    assert cert["in_theorem_regime"] is False
    assert cert["winner_is_split"] is True
    assert cert["total"] == 1044


def test_certify_counterexample_protocol(capsys, tmp_path):
    # feeding a stream that omits the split graph forces a different winner
    # inside the regime, which must be reported via exit code 2
    split = graph6_encode(make_split(8, 2))
    path = tmp_path / "all_but_split.g6"
    with path.open("w") as fh:
        for g in enumerate_graphs(EnumerationTask(8)):
            text = graph6_encode(g)
            if text != split:
                fh.write(text + "\n")
    code, out, _ = run_cli(capsys, ["certify", "--n", "8", "--k", "2",
                                    "--input", str(path)])
    assert code == 2
    cert = json.loads(out)
    assert cert["winner"] != split
    assert cert["in_theorem_regime"] is True
    assert cert["winner_is_split"] is False


def test_certify_jobs_and_shards_flags(capsys, monkeypatch, tmp_path):
    base = ["certify", "--n", "5", "--k", "2"]
    path = tmp_path / "in.g6"
    path.write_text("D??\n")
    # jobs is checked by the library, whose ValueError exits 1
    for flags in (["--jobs", "0"], ["--jobs", "-3"]):
        code, _, err = run_cli(capsys, base + flags)
        assert code == 1 and "at least 1" in err
    code, _, err = run_cli(capsys, base + ["--input", str(path), "--jobs", "2"])
    assert code == 1 and "source" in err and "jobs" in err
    # the stream is refused before any line of it is read
    bad = tmp_path / "bad.g6"
    bad.write_text("!!!\n")
    code, _, err = run_cli(capsys, base + ["--input", str(bad), "--jobs", "2"])
    assert code == 1 and "jobs" in err and "line 1" not in err
    # --jobs alone sets the split: certify takes no --shards
    for flags in (["--shards", "1"], ["--shards", "2"], ["--jobs", "2", "--shards", "4"]):
        code, out, err = run_cli(capsys, base + flags)
        assert code == 1 and "--shards" in err and out == "", flags

    cert = fanfree.cli.certify_max_q1(5, 2)
    seen = []

    def fake(n, k, source, *, jobs):
        seen.append(jobs)
        return cert

    monkeypatch.setattr(fanfree.cli, "certify_max_q1", fake)
    for flags, want in [([], 1), (["--jobs", "2"], 2)]:
        code, _, _ = run_cli(capsys, base + flags)
        assert code == 0
        assert seen.pop() == want, flags
    code, _, _ = run_cli(capsys, base + ["--input", str(path), "--jobs", "1"])
    assert code == 0 and seen.pop() == 1
    assert not seen


def test_certify_empty_survivor_messages(capsys, tmp_path):
    # K5 contains a 2-fan, so the source yields a graph but no survivor
    path = tmp_path / "k5.g6"
    path.write_text("D~{\n")
    code, out, err = run_cli(capsys, ["certify", "--n", "5", "--k", "2",
                                      "--input", str(path)])
    assert code == 1 and out == ""
    assert "none of the 1 graphs read is F2-free" in err
    path.write_text("")
    code, out, err = run_cli(capsys, ["certify", "--n", "5", "--k", "2",
                                      "--input", str(path)])
    assert code == 1 and out == ""
    assert "yielded no graphs" in err and "free" not in err
    # turan tells the same two cases apart; K5 holds a triangle, a 1-fan
    path.write_text("D~{\n")
    code, out, err = run_cli(capsys, ["turan", "--n", "5", "--pattern", "fan",
                                      "--k", "1", "--input", str(path)])
    assert code == 1 and out == ""
    assert "none of the 1 graphs read is F1-free" in err
    path.write_text("")
    code, out, err = run_cli(capsys, ["turan", "--n", "5", "--pattern", "fan",
                                      "--k", "1", "--input", str(path)])
    assert code == 1 and out == ""
    assert "yielded no graphs" in err and "free" not in err


@pytest.mark.parametrize("command", [
    ["certify", "--n", "5", "--k", "2"],
    ["turan", "--n", "5", "--pattern", "fan", "--k", "2"],
], ids=["certify", "turan"])
@pytest.mark.parametrize("text,message", [
    ("C~\n", "source produced a graph of order 4, expected 5"),
    ("", "the source yielded no graphs"),
    ("D~{\n", "none of the 1 graphs read is F2-free"),
], ids=["wrong-order", "empty", "none-free"])
def test_stream_errors_in_one_wording(capsys, tmp_path, command, text, message):
    path = tmp_path / "in.g6"
    path.write_text(text)
    code, out, err = run_cli(capsys, command + ["--input", str(path)])
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_certify_json_is_the_library_emitter(capsys):
    code, out, _ = run_cli(capsys, ["certify", "--n", "6", "--k", "2"])
    assert code == 0
    buf = io.StringIO()
    emit_certificate(certify_max_q1(6, 2), buf)

    def timeless(text):
        return [line for line in text.splitlines(True) if '"elapsed":' not in line]

    assert timeless(out) == timeless(buf.getvalue())
    assert len(timeless(out)) == len(out.splitlines()) - 1


@pytest.mark.parametrize("kind,k", [("kk2", 1), ("kk2", 2), ("kk2", 3),
                                    ("fan", 1), ("fan", 2)])
def test_turan_json_is_the_library_emitter(capsys, kind, k):
    # from n = 1, so kK2 also runs below turan_kk2's range n >= 2k-1
    for n in range(1, 7):
        code, out, _ = run_cli(capsys, ["turan", "--n", str(n), "--pattern", kind,
                                        "--k", str(k)])
        assert code == 0
        buf = io.StringIO()
        emit_certificate(turan_bruteforce(n, ForbiddenPattern(kind, k)), buf)
        assert out == buf.getvalue(), n


# line 2 holds the byte 0xe9, which no graph6 line can hold
NON_ASCII = b"C~\nC\xe9\nCr\n"


@pytest.mark.parametrize("command", [
    ["q1"], ["fan-free", "--k", "2"], ["bounds"],
    ["certify", "--n", "4", "--k", "2", "--format", "tsv"],
    ["turan", "--n", "4", "--pattern", "fan", "--k", "2"],
], ids=["q1", "fan-free", "bounds", "certify", "turan"])
@pytest.mark.parametrize("via", ["file", "stdin"])
def test_non_ascii_byte_is_a_malformed_line(capsys, caplog, monkeypatch, tmp_path,
                                            command, via):
    def run(data, *flags):
        if via == "file":
            path = tmp_path / "in.g6"
            path.write_bytes(data)
            return run_cli(capsys, command + ["-i", str(path), *flags])
        # the interpreter's stdin in a C locale: UTF-8 with surrogate escapes
        stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8",
                                 errors="surrogateescape")
        monkeypatch.setattr(sys, "stdin", stdin)
        result = run_cli(capsys, command + ["-i", "-", *flags])
        assert not stdin.closed
        return result

    def timeless(text):
        return [line for line in text.splitlines() if "elapsed" not in line]

    code, out, err = run(NON_ASCII, "--fail-fast")
    assert (code, out) == (1, "")
    assert err == "error: line 2: byte 233 outside the graph6 range 63..126\n"
    code, clean, _ = run(NON_ASCII.replace(b"C\xe9\n", b""))
    assert code == 0
    caplog.clear()
    code, out, _ = run(NON_ASCII, "--no-fail-fast")
    assert code == 0 and timeless(out) == timeless(clean)
    assert "skipping malformed graph6 line 2: byte 233 outside" in caplog.text


def test_certify_tsv_matches_json(capsys):
    code, js, _ = run_cli(capsys, ["certify", "--n", "6", "--k", "2"])
    code2, tsv, _ = run_cli(capsys, ["certify", "--n", "6", "--k", "2",
                                     "--format", "tsv"])
    assert code == code2 == 0
    data = json.loads(js)
    rows = dict(line.split("\t", 1) for line in tsv.splitlines())
    assert rows["winner"] == data["winner"]
    assert float(rows["winner_q1"]) == data["winner_q1"]
    assert rows["scanned"] == str(data["scanned"])
    assert rows["winner_is_split"] == "true"


def test_turan_subcommand(capsys):
    code, out, _ = run_cli(capsys, ["turan", "--n", "7", "--pattern", "kk2",
                                    "--k", "2"])
    assert code == 0
    data = json.loads(out)
    assert data["max_edges"] == 6 == data["formula_value"]
    code, out, _ = run_cli(capsys, ["turan", "--n", "6", "--pattern", "fan",
                                    "--k", "1"])
    data = json.loads(out)
    assert data["max_edges"] == 9 == data["formula_value"]
    assert data["formula_guaranteed"] is False
    # outside the kK2 formula's range (k >= 2, n >= 2k-1) the brute force
    # still answers, with no regime and no formula value
    for n, k, edges in (("5", "1", 0), ("4", "3", 6)):
        code, out, _ = run_cli(capsys, ["turan", "--n", n, "--pattern", "kk2",
                                        "--k", k])
        assert code == 0
        data = json.loads(out)
        assert data["max_edges"] == edges
        assert data["regime"] is None and data["formula_value"] is None


def test_bounds_subcommand(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, ["bounds"], stdin="Dhc\n",
                           monkeypatch=monkeypatch)
    assert code == 0
    cells = out.splitlines()[0].split("\t")
    assert cells[0] == "Dhc"
    assert cells[3] == "4" and cells[4] == "4"  # regular: q1 equals the bound
    assert cells[6] == ""  # not a complete split graph
    code, out, _ = run_cli(capsys, ["bounds"], stdin=SPLIT_10_2 + "\n",
                           monkeypatch=monkeypatch)
    cells = out.splitlines()[0].split("\t")
    assert cells[6] == "2"  # recognised as S_{10,2}
    assert abs(float(cells[7]) - 11.6568542494924) < 1e-10
    assert float(cells[8]) <= float(cells[7])
    # an isolated vertex leaves the degree bound undefined, not the run
    code, out, _ = run_cli(capsys, ["bounds"], stdin="C?\nDhc\n",
                           monkeypatch=monkeypatch)
    assert code == 0
    assert out.splitlines() == ["C?\t4\t0\t0\t\t\t\t\t", "Dhc\t5\t5\t4\t4\t0\t\t\t"]
    code, out, _ = run_cli(capsys, ["bounds", "--format", "json"],
                           stdin="C?\nDhc\n", monkeypatch=monkeypatch)
    rows = json.loads(out)
    assert rows[0]["q1"] == 0 and rows[0]["merris"] is None
    assert rows[0]["merris_vertex"] is None
    assert rows[1]["merris"] == 4 and rows[1]["merris_vertex"] == 0


def test_bounds_cells_empty_where_the_library_is_undefined(capsys, monkeypatch):
    # S(n,k) just below and at q1_split_lower_bound's n = 2k^2-4k+3; for
    # k = 2 the order below is 2, which no S(n,2) has
    splits = [make_split(n, k) for k in range(2, 6)
              for n in (2 * k * k - 4 * k + 2, 2 * k * k - 4 * k + 3) if n > k]
    # merris_bound is undefined at an isolated vertex
    isolated = disjoint_union(complete_graph(3), empty_graph(1))
    stdin = "".join(graph6_encode(g) + "\n" for g in splits + [isolated])
    code, out, _ = run_cli(capsys, ["bounds", "--format", "json"], stdin=stdin,
                           monkeypatch=monkeypatch)
    assert code == 0
    *rows, last = json.loads(out)
    lower = {(row["n"], row["split_k"]): row["split_lower_bound"] for row in rows}
    for k in range(2, 6):
        n = 2 * k * k - 4 * k + 3
        if k > 2:
            assert lower[(n - 1, k)] is None
        assert lower[(n, k)] == float(f"{q1_split_lower_bound(n, k):.15g}")
    assert all(row["merris"] is not None for row in rows)
    assert (last["q1"], last["merris"], last["merris_vertex"]) == (4, None, None)
    code, out, _ = run_cli(capsys, ["bounds"], stdin=graph6_encode(isolated) + "\n",
                           monkeypatch=monkeypatch)
    assert out.split("\t")[3:6] == ["4", "", ""]


def test_construct_subcommand(capsys):
    code, out, _ = run_cli(capsys, ["construct", "--n", "11", "--k", "3"])
    assert code == 0
    data = json.loads(out)
    assert data["edges"] == 36
    assert data["parity"] == "odd"
    code, _, err = run_cli(capsys, ["construct", "--n", "4", "--k", "3"])
    assert code == 1 and "error" in err


def test_config_file_defaults_and_flag_priority(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "json", "n": 4}))
    code, out, _ = run_cli(capsys, ["--config", str(cfg), "enumerate"])
    assert code == 0
    assert json.loads(out)["count"] == 11
    # explicit flag beats the config value
    code, out, _ = run_cli(capsys, ["--config", str(cfg), "enumerate",
                                    "--n", "3", "--format", "tsv"])
    assert code == 0
    assert len(out.splitlines()) == 4
    # values pass through their flag's type; a switch takes a boolean
    cfg.write_text(json.dumps({"n": "4", "connected-only": True,
                               "format": "json"}))
    code, out, _ = run_cli(capsys, ["--config", str(cfg), "enumerate"])
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 4 and data["connected_only"] and data["count"] == 6
    # a key the chosen command does not take is an error that names it
    cfg.write_text(json.dumps({"tol_eigen": 0.5, "shardz": 3}))
    code, out, err = run_cli(capsys, ["--config", str(cfg), "q1"])
    assert code == 1 and out == ""
    assert "shardz" in err and "tol_eigen" in err
    # --help is no default: parsing it would print help instead of running
    for value in (True, False):
        cfg.write_text(json.dumps({"help": value}))
        code, out, err = run_cli(capsys, ["--config", str(cfg), "q1"])
        assert code == 1 and out == "" and "help" in err


@pytest.mark.parametrize("argv,config,key", [
    (["enumerate"], {"n": 3.5}, "n"),
    (["q1"], {"format": "xml"}, "format"),
    (["certify", "--n", "6"], {"k": 2.5}, "k"),
    (["certify", "--n", "6", "--k", "2"], {"jobs": 1.5}, "jobs"),
    (["certify", "--n", "6", "--k", "2"], {"jobs": True}, "jobs"),
    (["enumerate", "--n", "4"], {"connected-only": 1}, "connected-only"),
    (["q1"], {"fail_fast": "no"}, "fail_fast"),
    (["q1"], {"output": None}, "output"),
])
def test_config_value_checked_as_its_flag(capsys, tmp_path, argv, config, key):
    # a config value passes its flag's type and choices, or exits 1
    # naming the key
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, ["--config", str(cfg)] + argv)
    assert code == 1 and out == ""
    assert f"config key {key!r}" in err


def test_bad_flag_is_operational_error(capsys):
    code, _, err = run_cli(capsys, ["q1", "--no-such-flag"])
    assert code == 1
    # the tolerances are fixed constants: no command takes a flag for them
    for argv in (["q1", "--tol-eigen", "1"], ["bounds", "--tol-eigen", "1"],
                 ["certify", "--n", "5", "--k", "2", "--tol-eigen", "1"],
                 ["certify", "--n", "5", "--k", "2", "--tol-margin", "1"]):
        code, out, err = run_cli(capsys, argv)
        assert code == 1 and argv[-2] in err and out == "", argv
    code, _, err = run_cli(capsys, ["certify", "--n", "5"])  # missing --k
    assert code == 1


def test_version_matches_pyproject():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), encoding="utf-8") as fh:
        declared = re.search(r'^version = "([^"]+)"$', fh.read(), re.M).group(1)
    assert fanfree.__version__ == declared


def test_readme_command_lines_parse():
    # every documented command line is accepted as written, with the flags
    # its subcommand requires, so the README cannot drift from the parser
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].split() for line in block.splitlines()
             if line.startswith("fanfree ")]
    assert lines
    parser = fanfree.cli.build_parser()
    for argv in lines:
        args = parser.parse_args(argv[1:])
        for name in getattr(args, "required_flags", ()):
            assert getattr(args, name) is not None, argv


def _child_env() -> dict:
    """Environment that points a child interpreter at the package this
    suite imported, wherever it runs."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fanfree.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_module_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "fanfree", "q1"], input="Bw\n",
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    assert proc.stdout == "Bw\t3\t3\t4\n"


def test_integer_commands_run_without_numpy(tmp_path):
    # A fresh interpreter, so no earlier import in this suite loads numpy.
    graphs = tmp_path / "in.g6"
    graphs.write_text("Bw\n")
    out = str(tmp_path / "out")
    script = f"""
import sys
import fanfree
import fanfree.cli
runs = [["enumerate", "--n", "5"],
        ["fan-free", "--k", "2", "-i", {str(graphs)!r}],
        ["turan", "--n", "6", "--pattern", "fan", "--k", "2"],
        ["construct", "--n", "9", "--k", "2"]]
for argv in runs:
    assert fanfree.cli.main(argv + ["-o", {out!r}]) == 0, argv
    assert "numpy" not in sys.modules, argv
assert fanfree.cli.main(["q1", "-i", {str(graphs)!r}, "-o", {out!r}]) == 0
assert "numpy" in sys.modules
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out").read_text() == "Bw\t3\t3\t4\n"


def test_cli_binds_the_names_the_benchmark_reads():
    # The benchmark's stream pass reads these from fanfree.cli, so they
    # must stay module-level imports, not imports inside command bodies.
    from fanfree import enumeration, fans, graphs, spectral
    for module, name in [(spectral, "q1"), (spectral, "merris_bound"),
                         (fans, "contains_fan"), (enumeration, "canonical_form"),
                         (graphs, "graph6_encode")]:
        assert getattr(fanfree.cli, name) is getattr(module, name)


@pytest.mark.skipif(shutil.which("fanfree") is None,
                    reason="the fanfree console script is not installed")
def test_console_script_runs():
    proc = subprocess.run(["fanfree", "q1"], input="Bw\n",
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "Bw\t3\t3\t4\n"


def test_construct_names_order_above_cap(capsys):
    code, out, err = run_cli(capsys, ["construct", "--n", "70", "--k", "2"])
    assert code == 1 and out == ""
    assert "70" in err


@pytest.mark.parametrize("config,skips", [
    ({"no_fail_fast": True}, True),
    ({"no-fail-fast": True}, True),
    ({"fail_fast": False}, True),
    ({"no_fail_fast": False}, False),
    ({"fail_fast": True}, False),
])
def test_config_switch_spellings(capsys, tmp_path, config, skips):
    # each spelling of a switch sets what its flag sets, and false the
    # opposite, so a malformed line is skipped exactly as --no-fail-fast does
    path = tmp_path / "bad.g6"
    path.write_text("Bw\n!!!!\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, ["--config", str(cfg), "q1", "--input", str(path)])
    if skips:
        assert code == 0 and out.startswith("Bw\t")
    else:
        assert code == 1 and "line 2" in err


def test_stream_copies_of_one_class_count_once(capsys, tmp_path):
    # S(8,2) and its vertex reversal are one class: certify finds the
    # split graph unique, and turan lists its class once
    path = tmp_path / "two.g6"
    path.write_text("G}rEE?\nG??F~{\n")
    code, out, _ = run_cli(capsys, ["certify", "--n", "8", "--k", "2",
                                    "--input", str(path)])
    cert = json.loads(out)
    assert code == 0
    assert cert["unique"] and cert["winner_is_split"] and cert["scanned"] == 2
    assert [e["graph6"] for e in cert["near_maximal"]] == ["G}rEE?"]
    code, out, _ = run_cli(capsys, ["turan", "--n", "8", "--pattern", "fan",
                                    "--k", "2", "--input", str(path)])
    assert code == 0 and json.loads(out)["extremal"] == ["G}rEE?"]
