import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import steinerkit
from steinerkit import cli
from steinerkit.cli import _config_from_args, build_parser, main
from steinerkit.generators import generate, parse_generator_spec
from steinerkit.graph import StpInstance, WeightedGraph
from steinerkit.qnet import init_params, load_checkpoint, save_checkpoint
from steinerkit.rl import DdqnConfig, train
from steinerkit.steinlib import parse_steinlib_file, write_steinlib_file

# diamond fixture: optimum is 0-1-2-3 at cost 4, classic also finds it
DIAMOND = StpInstance(
    graph=WeightedGraph(4, [(0, 1, 1.0), (0, 2, 4.0), (1, 2, 2.0),
                            (1, 3, 5.0), (2, 3, 1.0)]),
    terminals=frozenset({0, 3}),
    known_opt=4.0,
    name="diamond",
)

GEN_SPEC = "er:n=8,m=0.4,w=1:4"


@pytest.fixture
def diamond_file(tmp_path):
    path = tmp_path / "diamond.stp"
    write_steinlib_file(DIAMOND, path)
    return path


@pytest.fixture
def stp_dir(tmp_path):
    path = tmp_path / "stps"
    path.mkdir()
    write_steinlib_file(DIAMOND, path / "a-diamond.stp")
    write_steinlib_file(generate(parse_generator_spec(GEN_SPEC, seed=9)), path / "b-er.stp")
    return path


@pytest.fixture
def tiny_checkpoint(tmp_path):
    path = tmp_path / "tiny.ckpt.json"
    save_checkpoint(init_params(2, 2, seed=0), path)
    return path


class TestSolve:
    def test_exact_on_file(self, diamond_file, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["solve", str(diamond_file), "--method", "exact",
                   "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["cost"] == 4.0
        assert report["ratio_vs_opt"] == 1.0
        assert sorted(report["vertices"]) == [0, 1, 2, 3]

    def test_classic_to_stdout(self, diamond_file, capsys):
        rc = main(["solve", str(diamond_file)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["method"] == "classic"
        assert report["cost"] == 4.0

    def test_tree_out_edge_list(self, diamond_file, tmp_path):
        tree_out = tmp_path / "tree.txt"
        out = tmp_path / "r.json"
        main(["solve", str(diamond_file), "--method", "exact",
              "--out", str(out), "--tree-out", str(tree_out)])
        lines = tree_out.read_text().splitlines()
        assert lines == ["1 2 1", "2 3 2", "3 4 1"]

    def test_generator_spec_source(self, tmp_path):
        out = tmp_path / "r.json"
        rc = main(["solve", GEN_SPEC, "--method", "exact", "--seed", "5",
                   "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["cost"] > 0

    def test_agent_requires_checkpoint(self, diamond_file, capsys):
        rc = main(["solve", str(diamond_file), "--method", "agent"])
        assert rc == 2
        assert "checkpoint" in capsys.readouterr().err

    def test_agent_with_checkpoint(self, diamond_file, tiny_checkpoint, tmp_path):
        out = tmp_path / "r.json"
        rc = main(["solve", str(diamond_file), "--method", "agent",
                   "--checkpoint", str(tiny_checkpoint), "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["cost"] >= 4.0

    def test_missing_file_is_reported(self, tmp_path, capsys):
        rc = main(["solve", str(tmp_path / "absent.stp")])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    def test_repeated_spec_key_is_a_named_error(self, capsys):
        rc = main(["solve", "rr:n=5,n=6"])
        assert rc == 2
        assert capsys.readouterr().err == \
            "error: generator key 'n' is repeated in 'rr:n=5,n=6'\n"

    def test_spec_below_connectivity_threshold_is_a_named_error(self, capsys):
        rc = main(["solve", "er:n=10,p=0.01", "--method", "classic"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: no connected er graph found in 1000 draws; "
            "parameters are likely below the connectivity threshold\n")

    def test_terminal_ratio_that_draws_no_pair_is_a_named_error(self, capsys):
        rc = main(["solve", "rr:n=30,m=0.000001", "--method", "classic"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: terminal ratio 1e-06 drew fewer than two of 30 vertices in "
            "1000 draws; raise the ratio or n\n")

    @pytest.mark.parametrize("edit, message", [
        (lambda payload: [], "not a qnet-checkpoint file"),
        (lambda payload: {**payload, "params": []}, "params must be an object"),
        (lambda payload: {**payload, "p_dim": True}, "positive integers p_dim and k"),
        (lambda payload: {**payload, "params": {**payload["params"], "b1": "x"}},
         "tensor b1 is not an array of numbers"),
    ], ids=["top-level-list", "params-list", "p_dim-true", "tensor-string"])
    def test_malformed_checkpoint_is_a_named_error(self, tiny_checkpoint, capsys,
                                                   edit, message):
        payload = json.loads(tiny_checkpoint.read_text())
        tiny_checkpoint.write_text(json.dumps(edit(payload)))
        rc = main(["solve", "rr:n=12", "--method", "agent",
                   "--checkpoint", str(tiny_checkpoint)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_unknown_method_rejected_by_parser(self, diamond_file):
        with pytest.raises(SystemExit):
            main(["solve", str(diamond_file), "--method", "psychic"])

    def test_zero_optimum_is_a_named_error(self, tmp_path, capsys):
        path = tmp_path / "zero.stp"
        write_steinlib_file(replace(DIAMOND, known_opt=0.0), path)
        rc = main(["solve", str(path), "--out", str(tmp_path / "r.json")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: reference cost 0 is not positive")
        assert not (tmp_path / "r.json").exists()


TRAIN_FLAGS = ["--rounds", "6", "--p-dim", "2", "--batch", "4",
               "--validation", "2", "--seed", "3"]


class TestTrain:
    def test_default_flags_are_the_config_defaults(self):
        args = build_parser().parse_args(["train", GEN_SPEC])
        assert _config_from_args(args) == DdqnConfig(seed=0)

    def test_writes_checkpoint_and_curve(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["train", GEN_SPEC, *TRAIN_FLAGS, "--out", str(out)])
        assert rc == 0
        params, meta = load_checkpoint(f"{out}.ckpt.json")
        assert params.p_dim == 2
        assert meta["config"]["rounds"] == 6
        assert meta["config"]["seed"] == 3
        curve = (tmp_path / "run.curve.csv").read_text().splitlines()
        assert len(curve) == 1 + 6
        assert curve[0].startswith("round,episode_cost")

    def test_repeat_runs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["train", GEN_SPEC, *TRAIN_FLAGS, "--out", str(a)])
        main(["train", GEN_SPEC, *TRAIN_FLAGS, "--out", str(b)])
        assert (tmp_path / "a.ckpt.json").read_bytes() == \
               (tmp_path / "b.ckpt.json").read_bytes()
        assert (tmp_path / "a.curve.csv").read_bytes() == \
               (tmp_path / "b.curve.csv").read_bytes()

    def test_sweep_emits_curve_per_value(self, tmp_path):
        out = tmp_path / "sw"
        rc = main(["train", GEN_SPEC, *TRAIN_FLAGS, "--rounds", "2",
                   "--sweep", "gamma", "--out", str(out)])
        assert rc == 0
        files = sorted(p.name for p in tmp_path.glob("sw.sweep-gamma-*.curve.csv"))
        assert files == ["sw.sweep-gamma-0.2.curve.csv",
                         "sw.sweep-gamma-0.4.curve.csv",
                         "sw.sweep-gamma-0.8.curve.csv"]

    def test_zero_round_sweep_writes_every_curve(self, tmp_path, capsys):
        out = tmp_path / "sw"
        rc = main(["train", "rr:n=10", "--rounds", "0", "--sweep", "gamma",
                   "--validation", "0", "--out", str(out)])
        assert rc == 0
        for tag in ("0.2", "0.4", "0.8"):
            curve = (tmp_path / f"sw.sweep-gamma-{tag}.curve.csv").read_text()
            assert curve.splitlines() == ["round,episode_cost,mean_loss,epsilon,"
                                          "gain_on_validation"]
        assert "gamma=0.8: final episode cost none (0 rounds)" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--lr", "nan"], "lr must be positive and finite, got nan"),
        (["--lr", "inf"], "lr must be positive and finite, got inf"),
        (["--epsilon-start", "2.0"], "epsilon_start must lie in [0, 1], got 2.0"),
        (["--epsilon-end", "-1.0"], "epsilon_end must lie in [0, 1], got -1.0"),
        (["--epsilon-start", "nan"], "epsilon_start must lie in [0, 1], got nan"),
        (["--replay-cap", "100"], "replay_cap 100 is below the 160 transitions"),
    ])
    def test_config_that_cannot_train_is_a_named_error(self, tmp_path, capsys,
                                                       flags, message):
        out = tmp_path / "bad"
        rc = main(["train", "rr:n=30", "--rounds", "20", *flags, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_sweep_checks_every_config_before_training(self, tmp_path, capsys):
        # batch 8 warms within 100 transitions, batch 16 does not
        rc = main(["train", GEN_SPEC, "--rounds", "2", "--replay-cap", "100",
                   "--sweep", "batch", "--out", str(tmp_path / "sw")])
        assert rc == 2
        assert "replay_cap 100 is below the 160 transitions" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_directory_source(self, diamond_file, tmp_path):
        out = tmp_path / "dir-run"
        rc = main(["train", str(diamond_file.parent), *TRAIN_FLAGS,
                   "--out", str(out)])
        assert rc == 0
        assert (tmp_path / "dir-run.ckpt.json").is_file()


class TestBench:
    def test_writes_csv_and_json(self, tmp_path, capsys):
        out = tmp_path / "bench"
        rc = main(["bench", GEN_SPEC, "--methods", "classic,exact",
                   "--reference", "exact", "--trials", "3", "--out", str(out)])
        assert rc == 0
        payload = json.loads((tmp_path / "bench.json").read_text())
        assert payload["reference"] == "exact"
        assert len(payload["rows"]) == 6
        assert payload["aggregates"]["exact"] == pytest.approx(1.0)
        assert 1.0 <= payload["aggregates"]["classic"] <= 2.0
        stdout = capsys.readouterr().out
        assert "classic: mean ratio vs exact" in stdout
        csv_lines = (tmp_path / "bench.csv").read_text().splitlines()
        assert len(csv_lines) == 1 + 6

    def test_no_timing_reports_reproduce(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["bench", GEN_SPEC, "--methods", "classic,exact", "--trials",
                "2", "--no-timing"]
        main([*args, "--out", str(a)])
        main([*args, "--out", str(b)])
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_file_source(self, diamond_file, tmp_path):
        out = tmp_path / "one"
        rc = main(["bench", str(diamond_file), "--methods", "classic",
                   "--reference", "opt", "--out", str(out)])
        assert rc == 0
        payload = json.loads((tmp_path / "one.json").read_text())
        assert payload["rows"][0]["ratio"] == 1.0

    def test_directory_parses_no_file_past_trials(self, stp_dir, tmp_path):
        (stp_dir / "z-broken.stp").write_text("not a SteinLib file\n")
        rc = main(["bench", str(stp_dir), "--methods", "classic", "--trials", "2",
                   "--out", str(tmp_path / "b")])
        assert rc == 0

    def test_single_terminal_file_is_a_named_error(self, tmp_path, capsys):
        # every solver costs 0 there, so the ratio against classic is 0/0
        path = tmp_path / "one.stp"
        write_steinlib_file(StpInstance(graph=DIAMOND.graph, terminals=frozenset({2}),
                                        name="one"), path)
        rc = main(["bench", str(path), "--methods", "classic",
                   "--out", str(tmp_path / "one")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: instance one: reference cost 0 is not positive")
        assert not (tmp_path / "one.json").exists()

    def test_agent_requires_checkpoint(self, capsys):
        rc = main(["bench", GEN_SPEC, "--methods", "agent", "--trials", "1"])
        assert rc == 2
        assert "checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", [("bench", "--trials"),
                                               ("train", "--validation")])
    def test_negative_count_rejected(self, capsys, command, flag):
        rc = main([command, GEN_SPEC, flag, "-1"])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {flag} must be non-negative, got -1\n"

    @pytest.mark.parametrize("workers", ["0", "-4"])
    def test_workers_below_one_rejected(self, capsys, tmp_path, workers):
        rc = main(["bench", "rr:n=20", "--trials", "2", "--workers", workers,
                   "--out", str(tmp_path / "b")])
        assert rc == 2
        assert capsys.readouterr().err == \
            f"error: workers must be at least 1, got {workers}\n"
        assert not (tmp_path / "b.csv").exists()

    def test_empty_methods_rejected(self, capsys):
        rc = main(["bench", GEN_SPEC, "--methods", " , "])
        assert rc == 2
        assert "no methods" in capsys.readouterr().err


class TestReduce:
    def test_sat_with_check(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 2 2\n1 -2 0\n-1 2 0\n")
        out = tmp_path / "sat"
        rc = main(["reduce", "sat", str(cnf), "--check", "--out", str(out)])
        assert rc == 0
        witness = json.loads((tmp_path / "sat.witness.json").read_text())
        assert witness["source_kind"] == "sat"
        assert witness["bound"] == 16.0
        check = witness["check"]
        assert check["yes_instance"] is True
        assert check["optimal_cost"] == 16.0
        assert check["witness_ok"] is True
        assert check["witness"] in ([True, True], [False, False])
        assert "YES" in capsys.readouterr().out
        inst = parse_steinlib_file(tmp_path / "sat.stp")
        assert inst.graph.vertex_count == 3 + 4 + 2

    def test_unsatisfiable_reports_no(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 1 2\n1 0\n-1 0\n")
        rc = main(["reduce", "sat", str(cnf), "--check",
                   "--out", str(tmp_path / "no")])
        assert rc == 0
        check = json.loads((tmp_path / "no.witness.json").read_text())["check"]
        assert check["yes_instance"] is False
        assert check["witness_ok"] is None
        assert "NO" in capsys.readouterr().out

    def test_mvc_round_trip(self, tmp_path):
        src = tmp_path / "g.txt"
        src.write_text("3 2 1\n0 1\n1 2\n")
        rc = main(["reduce", "mvc", str(src), "--out", str(tmp_path / "m")])
        assert rc == 0
        inst = parse_steinlib_file(tmp_path / "m.stp")
        assert inst.bound == 3.0
        roles = json.loads((tmp_path / "m.witness.json").read_text())["roles"]
        assert roles["0"] == "root"

    def test_x3c_with_check(self, tmp_path):
        src = tmp_path / "x.txt"
        src.write_text("6 2\n0 1 2\n3 4 5\n")
        rc = main(["reduce", "x3c", str(src), "--check",
                   "--out", str(tmp_path / "x")])
        assert rc == 0
        check = json.loads((tmp_path / "x.witness.json").read_text())["check"]
        assert check["yes_instance"] is True
        assert check["witness"] == [0, 1]

    @pytest.mark.parametrize("kind, text, message", [
        ("mvc", "3 2 1\n0 x\n1 2\n", "line 2: 'x' is not an integer"),
        ("mvc", "3 2 1\n0 1 2\n1 2\n", "line 2: expected a 'u v' edge, got '0 1 2'"),
        ("mvc", "# graph\n3 2\n0 1\n", "line 2: expected an 'n m k' header, got '3 2'"),
        ("x3c", "6 x\n", "line 1: 'x' is not an integer"),
        ("x3c", "6 1\n\n0 1 y\n", "line 3: 'y' is not an integer"),
        ("x3c", "6 1\n0 1\n", "line 2: expected a triple of 3 elements, got '0 1'"),
    ])
    def test_source_errors_name_line_and_token(self, tmp_path, capsys, kind, text, message):
        src = tmp_path / "src.txt"
        src.write_text(text)
        rc = main(["reduce", kind, str(src), "--out", str(tmp_path / "r")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_check_over_cap_is_the_solver_error(self, tmp_path, capsys):
        src = tmp_path / "x.txt"
        src.write_text("15 5\n" + "".join(f"{i} {i + 1} {i + 2}\n" for i in range(0, 15, 3)))
        rc = main(["reduce", "x3c", str(src), "--check", "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: 16 terminals exceed the exact-solver cap of 14\n"
        assert not (tmp_path / "x.stp").exists()
        assert not (tmp_path / "x.witness.json").exists()

    def test_malformed_source_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.cnf"
        bad.write_text("not a cnf\n")
        rc = main(["reduce", "sat", str(bad)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["file", "directory", "spec"])
@pytest.mark.parametrize("command", ["solve", "train", "bench"])
def test_every_source_kind(command, kind, diamond_file, stp_dir, tmp_path, capsys):
    source = {"file": str(diamond_file), "directory": str(stp_dir), "spec": GEN_SPEC}[kind]
    out = str(tmp_path / "out")
    flags = {
        "solve": ["--method", "exact", "--out", out],
        "train": [*TRAIN_FLAGS, "--out", out],
        "bench": ["--methods", "classic,exact", "--trials", "2", "--out", out],
    }[command]
    rc = main([command, source, *flags])
    err = capsys.readouterr().err
    if (command, kind) == ("solve", "directory"):
        assert rc == 2
        assert err == f"error: solve takes one instance, not the directory {source}\n"
    else:
        assert rc == 0, err


@pytest.mark.parametrize("source", ["", "  "])
@pytest.mark.parametrize("command", ["solve", "train", "bench"])
def test_empty_source_is_a_named_error(command, source, diamond_file, capsys,
                                       monkeypatch):
    monkeypatch.chdir(diamond_file.parent)  # Path("") would name this directory
    rc = main([command, source, "--rounds", "1", "--out", "out"])
    assert rc == 2
    assert capsys.readouterr().err == "error: the instance source is empty\n"
    assert sorted(p.name for p in diamond_file.parent.iterdir()) == ["diamond.stp"]


NOT_FOUND = "instance source not found: {}"
SPEC_ERROR = "model must be one of ('rr', 'er', 'ws'), got 'foo'"


@pytest.mark.parametrize("argv, message", [
    (["bench", "absent-dir/", "--trials", "1"], NOT_FOUND),
    (["train", "missing.json", "--rounds", "1"], NOT_FOUND),
    (["solve", "absent-dir/"], NOT_FOUND),
    (["bench", "./absent:x", "--methods", ""], NOT_FOUND),
    (["solve", "foo:n=30"], SPEC_ERROR),
    (["train", "foo:n=30"], SPEC_ERROR),
    (["bench", "foo:n=30"], SPEC_ERROR),
], ids=["bench-dir", "train-json", "solve-dir", "bench-dotted-head",
        "solve-spec", "train-spec", "bench-spec"])
def test_missing_path_is_not_found_and_anything_else_a_spec(argv, message, tmp_path,
                                                            monkeypatch, capsys):
    """A source that looks like a path is never read as a generator spec,
    and every command reports its source before any other argument."""
    monkeypatch.chdir(tmp_path)
    rc = main(argv)
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message.format(argv[1])}\n"
    assert list(tmp_path.iterdir()) == []


def test_existing_file_is_read_as_stp_whatever_its_suffix(diamond_file, capsys):
    path = diamond_file.rename(diamond_file.with_suffix(".txt"))
    rc = main(["solve", str(path), "--method", "exact"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["cost"] == 4.0


@pytest.mark.parametrize("sweep", [[], ["--sweep", "k"]], ids=["plain", "sweep-k"])
def test_train_parses_a_directory_once_and_validates_on_its_instances(
        sweep, stp_dir, tmp_path, monkeypatch):
    """Every file is parsed once per command, however many runs train on
    it, and the validation instances are the objects that training plays."""
    write_steinlib_file(generate(parse_generator_spec("rr:n=10,m=0.3", seed=2)),
                        stp_dir / "c-rr.stp")
    parsed, runs = [], []

    def counting_parse(path):
        parsed.append(Path(path).name)
        return parse_steinlib_file(path)

    def spying_train(stream, config, validation_instances=None):
        head = list(itertools.islice(stream, 6))
        runs.append((head, validation_instances))
        return train(itertools.chain(head, stream), config,
                     validation_instances=validation_instances)

    monkeypatch.setattr(cli, "parse_steinlib_file", counting_parse)
    monkeypatch.setattr(cli, "train", spying_train)
    rc = main(["train", str(stp_dir), *TRAIN_FLAGS, *sweep, "--out", str(tmp_path / "t")])
    assert rc == 0
    assert parsed == ["a-diamond.stp", "b-er.stp", "c-rr.stp"]
    assert len(runs) == (4 if sweep else 1)
    first = runs[0][0][:3]
    assert len(set(map(id, first))) == 3
    for head, validation in runs:
        assert list(map(id, head)) == list(map(id, first * 2))  # the one list, cycled
        assert list(map(id, validation)) == list(map(id, first[:2]))


# The argv vocabulary of the fuzz below: paths name the files it writes into
# a fresh working directory per example.
PATHS = ("", " ", "absent.stp", "absent-dir/", ".", "one.stp", "ckpt.json",
         "not-ckpt.json")
MISSING_PATHS = ("absent.stp", "absent-dir/")  # look like paths, so never specs
SPEC_VALUES = {"n": ("-1", "3", "8", "40"), "m": ("0", "1e-06", "0.05", "0.2", "1", "1.5"),
               "w": ("1:5", "0:3", "2:1", "x"), "d": ("-1", "0", "1", "3", "4", "40"),
               "p": ("0", "1e-09", "0.3", "1", "2"), "k": ("-2", "0", "3", "4", "40")}
COUNTS = ("-1", "0", "1", "2")
COMMAND_FLAGS = {  # flag -> values; the first flags are always given
    "solve": {"--rounds": COUNTS, "--method": ("classic", "exact", "agent", "active"),
              "--checkpoint": PATHS, "--seed": ("-3", "0")},
    "train": {"--rounds": COUNTS, "--validation": COUNTS, "--batch": ("0", "1", "4"),
              "--p-dim": ("0", "2"), "--k": ("0", "1", "3"), "--sweep": ("batch", "k"),
              "--seed": ("-3", "0")},
    "bench": {"--trials": COUNTS, "--rounds": COUNTS,
              "--methods": ("", "classic", "classic,exact", "agent,active", "exact,x"),
              "--reference": ("classic", "exact", "opt", "bound"),
              "--checkpoint": PATHS, "--workers": ("0", "1"), "--no-timing": None},
}
ALWAYS = {"solve": 1, "train": 1, "bench": 2}


@st.composite
def specs(draw):
    model = draw(st.sampled_from(["rr", "er", "ws", "xx"]))
    keys = draw(st.lists(st.sampled_from(sorted(SPEC_VALUES)), unique=True, max_size=3))
    return model + ":" + ",".join(f"{k}={draw(st.sampled_from(SPEC_VALUES[k]))}"
                                  for k in keys)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["solve", "train", "bench", "reduce"]))
    if command == "reduce":
        argv = ["reduce", draw(st.sampled_from(["sat", "mvc", "x3c", "cnf"])),
                draw(st.sampled_from(PATHS + ("sat.cnf", "bad.txt")))]
        return argv + (["--check"] if draw(st.booleans()) else [])
    argv = [command, draw(st.sampled_from(PATHS) | specs())]
    for i, (flag, values) in enumerate(COMMAND_FLAGS[command].items()):
        if i < ALWAYS[command] or draw(st.booleans()):
            argv += [flag] if values is None else [flag, draw(st.sampled_from(values))]
    return argv


@settings(max_examples=200, deadline=None)
@given(argvs())
def test_argv_fuzz_exits_0_or_2_with_one_error_line(argv):
    """Any argv over the vocabulary exits 0, or 2 (argparse's ``SystemExit(2)``
    included) with exactly one ``error:`` line on stderr, and raises nothing
    else; an absent source that looks like a path is always reported as not
    found.  Specs keep n <= 40 because no input reader checks a size budget
    yet (the ROADMAP's size-budget item), so a large drawn n could exhaust
    memory; the counts stay small so each example runs in well under a second."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        write_steinlib_file(DIAMOND, "one.stp")
        save_checkpoint(init_params(2, 2, seed=0), "ckpt.json")
        Path("not-ckpt.json").write_text('{"params": {}}\n')
        Path("sat.cnf").write_text("p cnf 2 2\n1 -2 0\n2 0\n")
        Path("bad.txt").write_text("p cnf x\n1 0\n")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = exc.code
    assert rc in (0, 2), err.getvalue()
    error_lines = [line for line in err.getvalue().splitlines() if "error:" in line]
    assert len(error_lines) == (rc == 2), err.getvalue()
    if argv[0] != "reduce" and argv[1] in MISSING_PATHS:
        assert rc == 2 and "not found" in error_lines[0] and argv[1] in error_lines[0], \
            err.getvalue()


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "steinerkit", "--help"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        for sub in ("solve", "train", "bench", "reduce"):
            assert sub in proc.stdout


@pytest.mark.slow
def test_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    """``train``, then ``bench`` with its checkpoint, write the same bytes
    with one BLAS thread as with two (two keep it within a 2-core machine)."""
    src = str(Path(steinerkit.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    commands = [
        ["train", "rr:n=30,m=0.2,w=1:5", "--rounds", "150", "--seed", "7", "--out", "run"],
        # 8 terminals, under the exact solver's cap
        ["bench", "rr:n=100,m=0.08,w=1:5", "--methods", "classic,exact,agent",
         "--checkpoint", "run.ckpt.json", "--trials", "3", "--no-timing", "--out", "run"],
    ]
    outputs = []
    for threads in ("1", "2"):
        run_dir = tmp_path / threads
        run_dir.mkdir()
        env = {**os.environ, "PYTHONPATH": path,
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        for argv in commands:
            proc = subprocess.run([sys.executable, "-m", "steinerkit", *argv], cwd=run_dir,
                                  env=env, capture_output=True, text=True, timeout=600)
            assert proc.returncode == 0, proc.stderr
        outputs.append({p.name: p.read_bytes() for p in run_dir.iterdir()})
    assert sorted(outputs[0]) == ["run.ckpt.json", "run.csv", "run.curve.csv", "run.json"]
    assert outputs[0] == outputs[1]
