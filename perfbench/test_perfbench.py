"""Tests of the benchmark itself: the tracer wraps every target where it is
looked up, untraced studies run the original functions, exact counters repeat,
and the benchmark refuses to run outside a checkout.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import study  # puts src/ on sys.path
import tracer
from run import percentile_line
from workloads import WORKLOADS, Workload, _scaled_equivalence_config

import hqclab.cli  # noqa: F401  (imports every hqclab module)

ROOT = Path(__file__).resolve().parent.parent

#: bindings copied by `from ... import name` that a tracer must also patch
IMPORTED_BY_NAME = [
    "hqclab.hqc.compile_system", "hqclab.atomistic.compile_system", "hqclab.homog.compile_system",
    "hqclab.hqc.newton_zero_mean", "hqclab.atomistic.newton_zero_mean",
    "hqclab.homog.newton_zero_mean",
    "hqclab.dynamics.solve_equilibrium", "hqclab.dynamics.slowest_eigenmode",
    "hqclab.dynamics.total_energy", "hqclab.dynamics.reconstruct",
    "hqclab.fem.discrete_norms",
    "hqclab.reconstruct", "hqclab.solve_cell_problem", "hqclab.equivalence_report",
    "hqclab.solve_shift_vectors",
]

TINY = {
    "stochastic": ("stochastic-2d", "n = 16\nseed = 3\nh_list = 1/2,1/4\nn_rep_list = 4,16\nfit_range = 0:2\n",
                   4, "slope_hqc_full"),
    "dynamics": ("dynamics-1d", "n_atoms = 64\nh_list = 1/4,1/8\n", 2, "ref_energy_drift"),
    "equivalence": ("equivalence", "seed = 3\ntrials_spring = 3\ntrials_lj = 2\ntrials_simple = 1\n",
                    6, "all_within_tolerance"),
}


def _lookup(dotted: str):
    *mod, name = dotted.split(".")
    return getattr(sys.modules[".".join(mod)], name)


def _originals() -> list:
    out = []
    for key, module, path, _ in tracer.TARGETS:
        owner, attr = tracer._resolve(sys.modules[f"hqclab.{module}"], path)
        out.append(owner.__dict__[attr])
    return out


def _tiny_study(kind: str, tmp_path: Path, trace: bool) -> dict:
    experiment, config, rows, key = TINY[kind]
    workdir = tmp_path / f"{kind}-{int(trace)}-{len(list(tmp_path.iterdir()))}"
    workdir.mkdir()
    cfg = workdir / "tiny.cfg"
    cfg.write_text(config)
    csv = workdir / "out.csv"
    workload = Workload(kind, experiment, "", rows, lambda out, s: [] if key in s else [f"no {key}"])
    argv = [experiment, "--config", str(cfg), "--out", str(csv), "--threads", "1"]
    return study.run_study(workload, argv, csv, trace=trace)


def test_every_target_is_wrapped_where_it_is_looked_up():
    originals = _originals()
    spans = tracer.Tracer()
    spans.install()
    try:
        for key, module, path, _ in tracer.TARGETS:
            owner, attr = tracer._resolve(sys.modules[f"hqclab.{module}"], path)
            assert getattr(owner.__dict__[attr], tracer.MARK) == key, path
        for dotted in IMPORTED_BY_NAME:
            assert hasattr(_lookup(dotted), tracer.MARK), dotted
        for mod in tracer.hqclab_modules():
            for name, value in vars(mod).items():
                assert not any(value is o for o in originals), f"{mod.__name__}.{name} left unwrapped"
        assert len(tracer.wrapped_bindings()) >= len(tracer.TARGETS) + len(IMPORTED_BY_NAME)
    finally:
        spans.uninstall()
    assert tracer.wrapped_bindings() == []
    assert _originals() == originals
    assert all(not hasattr(_lookup(d), tracer.MARK) for d in IMPORTED_BY_NAME)


@pytest.mark.parametrize("kind", sorted(TINY))
def test_untraced_study_runs_the_original_functions(kind, tmp_path):
    plain = _tiny_study(kind, tmp_path, trace=False)
    traced = _tiny_study(kind, tmp_path, trace=True)
    assert plain["wrapped_bindings"] == 0 and "layers" not in plain
    assert traced["wrapped_bindings"] >= len(tracer.TARGETS) + len(IMPORTED_BY_NAME)
    assert tracer.wrapped_bindings() == []
    for rec in (plain, traced):
        assert rec["exit_code"] == 0 and rec["failed"] == 0 and rec["misses"] == []
    assert plain["csv_sha256"] == traced["csv_sha256"]  # tracing must not change results
    assert set(traced["layers"]) == set(tracer.METRICS) - {"experiments.cpu_util", "trace.overhead"}
    assert traced["layers"]["experiments.span_coverage"] > 0.5


@pytest.mark.parametrize("kind", sorted(TINY))
def test_exact_counters_repeat(kind, tmp_path):
    first = _tiny_study(kind, tmp_path, trace=True)["layers"]
    second = _tiny_study(kind, tmp_path, trace=True)["layers"]
    assert {k: first[k] for k in tracer.EXACT} == {k: second[k] for k in tracer.EXACT}
    assert first["network.compile.calls"] > 0


def test_layer_counters_see_their_workload(tmp_path):
    dyn = _tiny_study("dynamics", tmp_path, trace=True)["layers"]
    assert dyn["dynamics.force_calls_per_step"] == 2.0
    assert dyn["atomistic.energy.calls"] > 0 and dyn["hqc.micro_solve.calls"] > 0
    sto = _tiny_study("stochastic", tmp_path, trace=True)["layers"]
    assert sto["network.factor.dof_max"] > 0 and sto["hqc.place.domains"] > 0
    eqv = _tiny_study("equivalence", tmp_path, trace=True)["layers"]
    assert eqv["mqc.shift.calls"] > 0 and eqv["homog.phi0.calls"] > 0


def test_science_gate_fails_every_row_of_a_miss(tmp_path):
    workload = WORKLOADS["dynamics-1d"]
    csv = tmp_path / "out.csv"
    csv.write_text("h,status\n" + "0.25,ok\n" * 4)
    good = "  slope_linf_l2 = 1.94\n  slope_l2_h1 = 1.01\n  ref_energy_drift = 1.2e-08\n  status: PASS\n"
    assert study.check_outputs(workload, 0, good, csv)["failed"] == 0
    assert study.check_outputs(workload, 1, good, csv)["failed"] == 4
    slow = good.replace("1.94", "1.2").replace("status: PASS", "status: CHECK SLOPES")
    assert study.check_outputs(workload, 0, slow, csv)["misses"] == [
        "hqc-lab printed 'status: CHECK SLOPES', not 'status: PASS'"]
    drifting = good.replace("1.2e-08", "0.001")
    assert study.check_outputs(workload, 0, drifting, csv)["misses"] == [
        "ref_energy_drift = 0.001 above 0.0001"]
    csv.write_text("h,status\n" + "0.25,ok\n" * 3)
    assert study.check_outputs(workload, 0, good, csv)["failed"] == 4
    csv.unlink()
    assert study.check_outputs(workload, 0, good, csv)["failed"] == 4


def test_equivalence_x4_scales_the_trial_counts(tmp_path):
    cfg = _scaled_equivalence_config(ROOT / "configs" / "equivalence.cfg", tmp_path / "x4.cfg")
    parsed = hqclab.cli.parse_config_file(str(cfg))
    assert (parsed["trials_spring"], parsed["trials_lj"], parsed["trials_simple"]) == ("144", "60", "16")
    assert parsed["tol_lj"] == "1e-9"
    assert WORKLOADS["equivalence-x4"].rows == 144 + 60 + 16


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(tracer.METRICS)
    assert [m["unit"] for m in spec["per_layer"]] == list(tracer.METRICS.values())
    assert {m["name"] for m in spec["end_to_end"]} == {"run_s", "setup_s", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_percentile_line():
    assert "p50 10" in percentile_line([float(v) for v in range(1, 21)])
    assert "no percentile" in percentile_line([1.0, 2.0, 3.0])


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dynamics-1d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
