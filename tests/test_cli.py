"""Command-line interface: parsing, subcommands, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conekit import cli, experiments
from conekit.cones import SimplicialCone
from conekit.errors import ParseError

CONE_12 = {"generators": [[1, 0], [1, 2]]}
CONE_DET5 = {"generators": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 2, 3, 5]]}


def _write(tmp_path, doc, name="cone.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_load_cone(tmp_path):
    path = _write(tmp_path, CONE_DET5)
    cone = cli.load_cone(path)
    assert cone.generators == (
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (1, 2, 3, 5),
    )


def test_load_cone_accepts_string_integers(tmp_path):
    big = 2**70
    doc = {"generators": [[str(big), 0], [0, 1]]}
    cone = cli.load_cone(_write(tmp_path, doc))
    assert cone.generators[0][0] == big
    dumped = cli.dump_cone(cone)
    assert dumped["generators"][0][0] == str(big)
    assert dumped["generators"][1][1] == 1


def test_load_cone_rejects_bad_input(tmp_path):
    with pytest.raises(ParseError):
        cli.load_cone(str(tmp_path / "missing.json"))
    with pytest.raises(ParseError):
        cli.load_cone(_write(tmp_path, {"generators": [[1.5, 0], [0, 1]]}))
    with pytest.raises(ParseError):
        cli.load_cone(_write(tmp_path, {"generators": []}))
    with pytest.raises(ParseError):
        cli.load_cone(_write(tmp_path, [1, 2, 3]))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        cli.load_cone(str(bad))


def test_analyze(tmp_path, capsys):
    path = _write(tmp_path, CONE_DET5)
    assert cli.main(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert "multiplicity: 5" in out
    assert "nontrivial coset classes: 4" in out
    assert "hilbert basis size: 8" in out
    assert "icr upper bound: 4" in out


def test_decompose_command(tmp_path, capsys):
    path = _write(tmp_path, CONE_DET5)
    code = cli.main(["decompose", path, "--point", "2,4,6,8", "--certify-oracle"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["target"] == [2, 4, 6, 8]
    assert doc["terms"] == [[2, [1, 2, 3, 4]]]
    assert doc["term_count"] == 1
    assert doc["all_hilbert"] is True
    assert doc["oracle"]["status"] == "exact"
    assert doc["oracle"]["min_terms"] == 1


def test_decompose_into_closed_pipe_exits_quietly(tmp_path):
    # Like `conekit decompose ... | head -c 20`, with the reader gone before
    # anything is written, so every write fails with EPIPE.
    path = _write(tmp_path, CONE_DET5)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "conekit", "decompose", path,
             "--point", "2,4,6,8", "--certify-oracle"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == ""
    assert proc.returncode == 1


def test_decompose_hilbert_only(tmp_path, capsys):
    path = _write(tmp_path, CONE_12)
    code = cli.main(["decompose", path, "--point", "3,2", "--hilbert-only"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_hilbert"] is True
    assert doc["term_count"] == 2


def test_decompose_outside_point_exit_code(tmp_path, capsys):
    path = _write(tmp_path, CONE_12)
    assert cli.main(["decompose", path, "--point", "0,1"]) == 3
    assert "error:" in capsys.readouterr().err


def test_bad_point_exit_code(tmp_path, capsys):
    path = _write(tmp_path, CONE_12)
    assert cli.main(["decompose", path, "--point", "1,x"]) == 2
    capsys.readouterr()


CONE_2_3_7 = {"generators": [[1, 0, 0], [0, 1, 0], [2, 3, 7]]}


def test_budget_exhaustion_exit_code(tmp_path, capsys):
    path = _write(tmp_path, CONE_2_3_7)
    args = ["--node-budget", "1", "decompose", path, "--point", "5,9,14"]
    assert cli.main(args) == 6
    assert "budget" in capsys.readouterr().err
    assert cli.main(args[2:]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("point", ["5,9", "5,9,14,0"])
def test_decompose_wrong_length_point_exit_code(tmp_path, capsys, point):
    path = _write(tmp_path, CONE_2_3_7)
    assert cli.main(["decompose", path, "--point", point]) == 3
    err = capsys.readouterr().err
    length = len(point.split(","))
    assert f"point has {length} coordinates" in err
    assert "dimension 3" in err


def test_missing_file_exit_code(tmp_path, capsys):
    assert cli.main(["analyze", str(tmp_path / "nope.json")]) == 2
    capsys.readouterr()


def test_non_utf8_cone_file_exit_code(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"generators": [[1, 0], [0, 1]], "note": "\u00e9"}'.encode("latin-1"))
    assert cli.main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "UTF-8" in err
    assert err.count("\n") == 1


def test_experiment_unwritable_out_exit_code(tmp_path, capsys):
    out = str(tmp_path / "missing" / "x.csv")
    args = ["experiment", "--dims", "2..2", "--max-det", "1", "--count", "1"]
    assert cli.main(args + ["--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and err.count("\n") == 1
    assert not os.path.exists(out)


def test_cover5_command(tmp_path, capsys):
    path = _write(tmp_path, CONE_DET5)
    assert cli.main(["cover5", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["subcones"]) == 18
    assert doc["census"] == [4, 10, 4]
    assert doc["volume"] == "10/3"
    assert doc["verified"] is True
    assert doc["disjoint_pairs"] == 153


def test_cover5_precondition_exit_code(tmp_path, capsys):
    path = _write(tmp_path, CONE_12)
    assert cli.main(["cover5", path]) == 4
    capsys.readouterr()


def test_experiment_deterministic(tmp_path, capsys):
    args = [
        "experiment",
        "--dims", "2..3",
        "--min-det", "1",
        "--max-det", "3",
        "--count", "2",
        "--seed", "9",
    ]
    out_a = str(tmp_path / "a.csv")
    out_b = str(tmp_path / "b.csv")
    assert cli.main(args + ["--out", out_a]) == 0
    assert cli.main(args + ["--out", out_b]) == 0
    text_a = open(out_a, "rb").read()
    assert text_a == open(out_b, "rb").read()
    lines = text_a.decode().splitlines()
    assert lines[0] == "dim,det,cosets,engine_max,oracle_max,bound,method,seed,elapsed_ms"
    assert len(lines) == 1 + 2 * 3 * 2
    assert all(line.endswith(",0") for line in lines[1:])  # timing off


def test_experiment_ignores_environment(tmp_path):
    # No environment variable reaches the sweep: neither a timing switch
    # nor a node budget may change the CSV of a fresh process.
    src = str(Path(__file__).resolve().parents[1] / "src")
    clean = {
        k: v for k, v in os.environ.items() if not k.startswith("CONEKIT_")
    }
    clean["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, clean.get("PYTHONPATH")) if p
    )
    knobs = dict(clean, CONEKIT_TIMING="1", CONEKIT_NODE_BUDGET="1")
    outputs = []
    for name, env in (("clean.csv", clean), ("knobs.csv", knobs)):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "conekit", "experiment", "--dims", "3..4",
             "--count", "2", "--seed", "0", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_experiment_bad_dims(capsys):
    assert cli.main(["experiment", "--dims", "3"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "args, option",
    [
        (["experiment", "--dims", "3..3", "--dilation", "0"], "--dilation"),
        (["experiment", "--dims", "3..3", "--dilation", "-1"], "--dilation"),
        (["experiment", "--dims", "3..3", "--count", "-1"], "--count"),
        (["--node-budget", "-5", "experiment", "--dims", "3..3"], "--node-budget"),
        (["--node-budget", "0", "experiment", "--dims", "3..3"], "--node-budget"),
        (["experiment", "--dims", "5..3"], "--dims upper end"),
        (["experiment", "--dims", "0..1"], "--dims lower end"),
        (["experiment", "--dims", "3..3", "--min-det", "3", "--max-det", "2"],
         "--max-det"),
        (["experiment", "--dims", "3..3", "--min-det", "0"], "--min-det"),
    ],
)
def test_experiment_rejects_out_of_range_options(capsys, args, option):
    assert cli.main(args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {option} must be at least ") and err.count("\n") == 1


def test_experiment_zero_count_is_header_only(capsys):
    assert cli.main(["experiment", "--dims", "3..3", "--count", "0"]) == 0
    assert capsys.readouterr().out == experiments.CSV_HEADER + "\n"


def test_special_skew(capsys):
    assert cli.main(["special", "skew", "--n", "4", "--r", "0,1,2,4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["hypothesis_holds"] is True
    assert doc["nontrivial_classes"] == 3
    assert doc["cross_checks_ok"] is True


def test_special_gorenstein(tmp_path, capsys):
    path = _write(tmp_path, CONE_12)
    assert cli.main(["special", "gorenstein", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["premise_holds"] is True
    assert doc["lambda"] == ["1/2", "1/2"]
    assert doc["y"] == ["1", "1"]


def test_special_pq(capsys):
    assert cli.main(["special", "pq", "--p", "2", "--q", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["multiplicity"] == 6
    assert doc["premise_holds"] is True
    assert doc["divisor_count"] == 4
    assert doc["not_skew"] is True


def test_dump_load_round_trip(tmp_path):
    cone = SimplicialCone(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 2, 3, 5)))
    path = _write(tmp_path, cli.dump_cone(cone), "round.json")
    assert cli.load_cone(path) == cone
