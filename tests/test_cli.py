import json
import subprocess
import sys

import pytest

from steinerkit.cli import main
from steinerkit.graph import StpInstance, WeightedGraph
from steinerkit.qnet import init_params, load_checkpoint, save_checkpoint
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

    def test_unknown_method_rejected_by_parser(self, diamond_file):
        with pytest.raises(SystemExit):
            main(["solve", str(diamond_file), "--method", "psychic"])


TRAIN_FLAGS = ["--rounds", "6", "--p-dim", "2", "--batch", "4",
               "--validation", "2", "--seed", "3"]


class TestTrain:
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

    def test_malformed_source_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.cnf"
        bad.write_text("not a cnf\n")
        rc = main(["reduce", "sat", str(bad)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "steinerkit", "--help"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        for sub in ("solve", "train", "bench", "reduce"):
            assert sub in proc.stdout
