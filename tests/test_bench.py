import json

import pytest

import steinerkit.solvers as solvers_module
from steinerkit import bench
from steinerkit.bench import (
    REFERENCES,
    BenchReport,
    BenchRow,
    cost_ratio,
    reference_cost,
    run_bench,
    solve_with_method,
)
from steinerkit.generators import GeneratorConfig, generate
from steinerkit.graph import StpInstance, WeightedGraph
from steinerkit.qnet import init_params
from steinerkit.reductions import reduce_x3c
from steinerkit.solvers import dreyfus_wagner, kmb, verify_tree


def instances(count=4, n=9, seed0=0):
    return [generate(GeneratorConfig(model="er", n=n, terminal_ratio=0.4,
                                     weight_range=(1.0, 4.0), seed=seed0 + s))
            for s in range(count)]


class TestMetrics:
    def test_gain_value(self):
        assert cost_ratio(86.0, 90.0) == pytest.approx(0.9556, abs=5e-5)

    def test_r_value(self):
        assert cost_ratio(90.0, 86.0) == pytest.approx(90 / 86)
        assert cost_ratio(86.0, 86.0) == 1.0

    def test_b_value(self):
        assert cost_ratio(8.0, 10.0) == pytest.approx(0.8)

    @pytest.mark.parametrize("cost", [1.0, 0.0])
    @pytest.mark.parametrize("reference", [0.0, -1.0])
    def test_nonpositive_reference_rejected(self, cost, reference):
        # 0/0 included: a single-terminal instance has no defined ratio
        with pytest.raises(ValueError, match="not positive"):
            cost_ratio(cost, reference)


class TestBenchReport:
    def make_report(self):
        rows = [
            BenchRow("a", "classic", 4.0, 2.0, 2.0, 0.1),
            BenchRow("a", "exact", 2.0, 2.0, 1.0, 0.2),
            BenchRow("b", "classic", 3.0, 2.0, 1.5, 0.3),
            BenchRow("b", "exact", 2.0, 2.0, 1.0, 0.4),
        ]
        return BenchReport(reference_kind="exact", rows=rows)

    def test_methods_preserve_first_seen_order(self):
        assert list(self.make_report().aggregates()) == ["classic", "exact"]

    def test_mean_ratio(self):
        agg = self.make_report().aggregates()
        assert agg["classic"] == pytest.approx(1.75)
        assert agg["exact"] == 1.0
        assert "agent" not in agg  # a method with no rows has no mean

    def test_aggregates(self):
        assert self.make_report().aggregates() == {
            "classic": pytest.approx(1.75), "exact": 1.0,
        }

    def test_json_timing_toggle(self, tmp_path):
        rep = self.make_report()
        p = tmp_path / "rep.json"
        rep.write_json(p, include_timing=False)
        payload = json.loads(p.read_text())
        assert all(r["wall_time"] == 0.0 for r in payload["rows"])
        assert payload["reference"] == "exact"
        rep.write_json(p, include_timing=True)
        payload = json.loads(p.read_text())
        assert payload["rows"][0]["wall_time"] == 0.1

    def test_csv_timing_toggle(self, tmp_path):
        rep = self.make_report()
        p = tmp_path / "rep.csv"
        rep.write_csv(p, include_timing=False)
        lines = p.read_text().splitlines()
        assert lines[0] == "instance,method,cost,reference,ratio,wall_time"
        assert lines[1] == "a,classic,4.0,2.0,2.0,0.0"


class TestSolveWithMethod:
    def test_classic_and_exact(self):
        inst = instances(1)[0]
        tree_c, wall_c = solve_with_method(inst, "classic")
        tree_e, wall_e = solve_with_method(inst, "exact")
        assert tree_e.cost <= tree_c.cost + 1e-9
        assert wall_c >= 0 and wall_e >= 0
        verify_tree(inst, tree_c.edges)
        verify_tree(inst, tree_e.edges)

    def test_agent_needs_params(self):
        with pytest.raises(ValueError, match="agent"):
            solve_with_method(instances(1)[0], "agent")

    def test_active_needs_params(self):
        with pytest.raises(ValueError, match="active"):
            solve_with_method(instances(1)[0], "active")

    def test_agent_runs_with_params(self):
        inst = instances(1)[0]
        tree, _ = solve_with_method(inst, "agent", params=init_params(2, 2, seed=0))
        assert tree.cost >= dreyfus_wagner(inst).cost - 1e-9

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            solve_with_method(instances(1)[0], "magic")


class TestReferenceCost:
    def test_classic_and_exact(self):
        # a solver reference is priced by that solver, also when it is not benched
        inst = instances(1)[0]
        for kind, other, solver in (("classic", "exact", kmb),
                                    ("exact", "classic", dreyfus_wagner)):
            rep = run_bench([inst], (other,), reference=kind)
            assert rep.rows[0].reference == solver(inst).cost

    def test_opt_requires_known_value(self):
        inst = instances(1)[0]
        with pytest.raises(ValueError, match="no known optimum"):
            reference_cost(inst, "opt")
        pinned = StpInstance(graph=inst.graph, terminals=inst.terminals,
                             known_opt=7.5, name="pinned")
        assert reference_cost(pinned, "opt") == 7.5

    def test_bound_from_reduction(self):
        red = reduce_x3c(6, [(0, 1, 2), (3, 4, 5)])
        assert reference_cost(red.instance, "bound") == red.bound

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown reference"):
            reference_cost(instances(1)[0], "fancy")


class TestRunBench:
    def test_ratios_against_exact(self):
        rep = run_bench(instances(4), ("classic", "exact"), reference="exact")
        assert len(rep.rows) == 8
        for row in rep.rows:
            if row.method == "exact":
                assert row.ratio == pytest.approx(1.0)
            else:
                assert 1.0 - 1e-9 <= row.ratio <= 2.0

    def test_row_order_instance_then_method(self):
        insts = instances(3)
        rep = run_bench(insts, ("classic", "exact"), reference="classic")
        expected = [(i.id, m) for i in insts for m in ("classic", "exact")]
        assert [(r.instance, r.method) for r in rep.rows] == expected

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            run_bench(instances(1), ("classic", "psychic"))

    @pytest.mark.parametrize("solver, method", [("kmb", "classic"),
                                                ("dreyfus_wagner", "exact")])
    def test_reference_method_solves_each_instance_once(self, monkeypatch,
                                                         solver, method):
        calls = []
        real = getattr(bench, solver)

        def counting(instance):
            calls.append(instance)
            return real(instance)

        monkeypatch.setattr(bench, solver, counting)
        insts = instances(3)
        rep = run_bench(insts, ("classic", "exact"), reference=method)
        assert len(calls) == len(insts)
        for row in rep.rows:
            if row.method == method:
                assert row.ratio == 1.0 and row.cost == row.reference

    def test_reference_error_comes_before_other_methods(self):
        # 18 terminals exceed the exact cap; the agent would fail without params
        inst = generate(GeneratorConfig(model="er", n=20, terminal_ratio=0.9,
                                        weight_range=(1.0, 4.0), seed=0))
        with pytest.raises(ValueError, match="exact-solver cap"):
            run_bench([inst], ("agent", "exact"), reference="exact")

    @pytest.mark.parametrize("methods, reference", [(("classic", "exact"), "classic"),
                                                    (("classic",), "exact")])
    def test_exact_cap_checked_before_any_solver_runs(self, monkeypatch,
                                                      methods, reference):
        calls = []
        for solver in ("kmb", "dreyfus_wagner"):
            monkeypatch.setattr(bench, solver,
                                lambda instance, _s=solver: calls.append(_s))
        big = [generate(GeneratorConfig(model="er", n=n, terminal_ratio=0.9,
                                        weight_range=(1.0, 4.0), seed=0))
               for n in (20, 18)]
        insts = [instances(1)[0], big[0], instances(1, seed0=5)[0], big[1]]
        with pytest.raises(ValueError, match="exact-solver cap of 14") as exc:
            run_bench(insts, methods, reference=reference)
        message = str(exc.value)
        for inst in big:
            assert f"{inst.id} ({len(inst.terminals)} terminals)" in message
        for inst in insts[::2]:
            assert inst.id not in message
        assert calls == []

    def path_instance(self, terminals):
        g = WeightedGraph(terminals, [(i, i + 1, 1.0) for i in range(terminals - 1)])
        return StpInstance(graph=g, terminals=frozenset(range(terminals)), name="path")

    def test_raised_cap_admits_what_the_solver_solves(self, monkeypatch):
        monkeypatch.setattr(solvers_module, "DW_TERMINAL_CAP", 16)
        rep = run_bench([self.path_instance(15)], ("exact",), reference="exact")
        assert [(r.cost, r.ratio) for r in rep.rows] == [(14.0, 1.0)]

    def test_lowered_cap_refuses_before_any_solver_runs(self, monkeypatch):
        monkeypatch.setattr(solvers_module, "DW_TERMINAL_CAP", 12)
        calls = []
        for solver in ("kmb", "dreyfus_wagner"):
            monkeypatch.setattr(bench, solver,
                                lambda instance, _s=solver: calls.append(_s))
        with pytest.raises(ValueError, match=r"^instances exceed the exact-solver cap of 12 "
                                             r"terminals: path \(13 terminals\)$"):
            run_bench([self.path_instance(13)], ("classic", "exact"))
        assert calls == []

    @pytest.mark.parametrize("reference", REFERENCES)
    def test_zero_reference_rejected_before_any_solver_runs(self, monkeypatch,
                                                            reference):
        calls = []
        for solver in ("kmb", "dreyfus_wagner"):
            monkeypatch.setattr(bench, solver,
                                lambda instance, _s=solver: calls.append(_s))

        def pinned(inst, name, terminals, value):
            return StpInstance(graph=inst.graph, terminals=terminals,
                               known_opt=value, bound=value, name=name)

        a, c = instances(2)
        insts = [pinned(a, "a", a.terminals, 1.0), pinned(a, "b", {1}, 0.0),
                 pinned(c, "c", c.terminals, 1.0), pinned(c, "d", {2}, 0.0)]
        with pytest.raises(ValueError, match="^instances b, d: reference cost 0 "
                                             "is not positive"):
            run_bench(insts, ("classic", "exact"), reference=reference)
        assert calls == []

    @pytest.mark.parametrize("workers", [0, -4])
    def test_rejects_workers_below_one(self, workers):
        with pytest.raises(ValueError, match=f"^workers must be at least 1, got {workers}$"):
            run_bench(instances(1, n=8), ("classic",), workers=workers)

    def test_parallel_matches_serial(self):
        insts = instances(3, n=8)
        params = init_params(2, 2, seed=1)
        serial = run_bench(insts, ("classic", "exact", "agent"),
                           reference="classic", params=params, workers=1)
        parallel = run_bench(insts, ("classic", "exact", "agent"),
                             reference="classic", params=params, workers=2)
        assert serial.to_dict(include_timing=False) == \
               parallel.to_dict(include_timing=False)

    def test_reports_reproducible_without_timing(self, tmp_path):
        insts = instances(2)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_bench(insts, ("classic",)).write_json(a, include_timing=False)
        run_bench(insts, ("classic",)).write_json(b, include_timing=False)
        assert a.read_bytes() == b.read_bytes()
