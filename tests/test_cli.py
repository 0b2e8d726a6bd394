"""Command-line driver: config parsing, CSV output, determinism, exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import hqclab
from hqclab import experiments
from hqclab.cli import EXPERIMENTS, main, parse_config_file, write_csv
from hqclab.experiments import ConfigError, read_config, run_converge_1d, run_equivalence

import pytest

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_parse_config_file(tmp_path):
    cfg = tmp_path / "a.cfg"
    cfg.write_text("# comment\nn = 16\nseed = 3   # trailing\n\nh_list = 1/4,1/8\n")
    parsed = parse_config_file(str(cfg))
    assert parsed == {"n": "16", "seed": "3", "h_list": "1/4,1/8"}


def test_parse_config_rejects_garbage(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just some words\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(cfg))


def test_unknown_key_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense_key = 1\n")
    code = main(["equivalence", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
    assert code == 2


def test_bad_value_exit_code(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("eps = banana\n")
    code = main(["converge-1d", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
    assert code == 2


def test_equivalence_cli_deterministic(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    cfg = tmp_path / "eq.cfg"
    cfg.write_text("trials_spring = 6\ntrials_lj = 2\ntrials_simple = 1\nseed = 5\n")
    assert main(["equivalence", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["equivalence", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_stochastic_cli_deterministic_through_pcg(tmp_path, monkeypatch):
    from hqclab.network import GaugeFixedOperator

    pcg_sizes = []
    pcg = GaugeFixedOperator._pcg

    def counted(self, B):
        pcg_sizes.append(self.n_dof)
        return pcg(self, B)

    monkeypatch.setattr(GaugeFixedOperator, "_pcg", counted)
    cfg = tmp_path / "s.cfg"
    cfg.write_text("n = 32\nh_list = 1/4,1/8\nn_rep_list = 8,32\nfit_range = 0:2\n")
    outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for out in outs:
        assert main(["stochastic-2d", "--config", str(cfg), "--out", str(out)]) == 0
    # every solve runs through PCG: the atomistic reference and the full-sample
    # sensitivity on the scalar Laplacian of the network (1024 DOF), the
    # n_rep = 8 sensitivity (64) and the macro stiffness at h = 1/4 (32) and
    # 1/8 (128)
    assert set(pcg_sizes) == {1024, 64, 32, 128}
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_seed_override_changes_output(tmp_path):
    cfg = tmp_path / "eq.cfg"
    cfg.write_text("trials_spring = 6\ntrials_lj = 0\ntrials_simple = 0\n")
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["equivalence", "--config", str(cfg), "--out", str(out1), "--seed", "1"]) == 0
    assert main(["equivalence", "--config", str(cfg), "--out", str(out2), "--seed", "2"]) == 0
    assert out1.read_bytes() != out2.read_bytes()


def test_converge_cli_small(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("eps = 1/256\nh_list = 1/4,1/8\nfit_range_h1 = 0:2\nfit_range_l2 = 0:2\n")
    out = tmp_path / "c.csv"
    assert main(["converge-1d", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "psi,eps,h,uhc_err_h1,uh_err_h1,uh_err_l2,status"
    assert len(lines) == 3
    captured = capsys.readouterr()
    assert "slope_uhc_h1" in captured.out


def test_converge_cli_passes_on_non_dyadic_meshes(tmp_path, capsys):
    # h = 1/6 ... 1/48 are not powers of two: a site on an element corner
    # can have a float position a rounding error below that corner
    cfg = tmp_path / "c.cfg"
    cfg.write_text("eps = 1/768\nh_list = 1/6,1/12,1/24,1/48\nfit_range_h1 = 0:4\nfit_range_l2 = 0:3\n")
    assert main(["converge-1d", "--config", str(cfg), "--out", str(tmp_path / "c.csv")]) == 0
    assert "status: PASS" in capsys.readouterr().out


def test_dynamics_cli_small(tmp_path):
    cfg = tmp_path / "d.cfg"
    cfg.write_text("n_atoms = 128\nh_list = 1/4,1/8\nt_final = 1/80\n")
    out = tmp_path / "d.csv"
    assert main(["dynamics-1d", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_text().startswith("n_atoms,h,tau,linf_l2,l2_h1,status")


def test_stochastic_cli_small(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("n = 16\nh_list = 1/4,1/8\nn_rep_list = 4,16\nfit_range = 0:2\n")
    out = tmp_path / "s.csv"
    assert main(["stochastic-2d", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,seed,n_rep,h,err_hqc,err_ad,status"
    assert len(lines) == 5


def test_csv_float_format(tmp_path):
    res = run_equivalence({"trials_spring": "3", "trials_lj": "0", "trials_simple": "0"})
    out = tmp_path / "fmt.csv"
    write_csv(str(out), res)
    row = out.read_text().splitlines()[1].split(",")
    # energies printed with 17 significant digits round-trip exactly
    val = float(row[3])
    assert f"{val:.17g}" == row[3]


def test_converge_rows_reproducible():
    r1 = run_converge_1d({"eps": "1/256", "h_list": "1/4,1/8", "fit_range_h1": "0:2", "fit_range_l2": "0:2"})
    r2 = run_converge_1d({"eps": "1/256", "h_list": "1/4,1/8", "fit_range_h1": "0:2", "fit_range_l2": "0:2"})
    assert r1.rows == r2.rows


def test_threads_flag_accepts_only_one(tmp_path):
    # rows run in one thread; --threads 1 is kept for old command lines
    cfg = tmp_path / "eq.cfg"
    cfg.write_text("trials_spring = 3\ntrials_lj = 1\ntrials_simple = 1\n")
    plain, one = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["equivalence", "--config", str(cfg), "--out", str(plain)]) == 0
    assert main(["equivalence", "--config", str(cfg), "--out", str(one), "--threads", "1"]) == 0
    assert plain.read_bytes() == one.read_bytes()
    with pytest.raises(SystemExit) as exc:
        main(["equivalence", "--config", str(cfg), "--out", str(tmp_path / "c.csv"), "--threads", "2"])
    assert exc.value.code == 2
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_threads_config_key_is_unknown(tmp_path, capsys, experiment):
    cfg = tmp_path / "t.cfg"
    cfg.write_text("threads = 1\n")
    assert main([experiment, "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
    assert "unknown config keys: ['threads']" in capsys.readouterr().err


def test_misaligned_mesh_is_config_error(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("eps = 1/256\nh_list = 1/3\n")
    assert main(["converge-1d", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2


def test_negative_tolerance_is_config_error(tmp_path):
    cfg = tmp_path / "e.cfg"
    cfg.write_text("tol_spring = -1e-9\n")
    assert main(["equivalence", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2


def test_failed_rows_name_their_cause(tmp_path, monkeypatch):
    from hqclab import hqc
    from hqclab.network import SolverError

    def boom(*args, **kwargs):
        raise SolverError("forced")

    monkeypatch.setattr(hqc, "solve_hqc", boom)
    cfg = tmp_path / "c.cfg"
    cfg.write_text("eps = 1/256\nh_list = 1/4,1/8\nfit_range_h1 = 0:2\nfit_range_l2 = 0:2\n")
    out = tmp_path / "c.csv"
    assert main(["converge-1d", "--config", str(cfg), "--out", str(out)]) == 1
    rows = out.read_text().strip().splitlines()[1:]
    assert len(rows) == 2
    assert all(row.endswith(",failed:SolverError") for row in rows)


def test_failed_dynamics_rows_keep_their_tau(tmp_path, monkeypatch):
    from hqclab.network import SolverError

    def blown(*args, **kwargs):
        raise SolverError("dynamics blew up at t = 1")

    monkeypatch.setattr(experiments.dynamics, "run_hqc_dynamics", blown)
    cfg = tmp_path / "d.cfg"
    cfg.write_text("n_atoms = 64\nh_list = 1/4,1/8\n")
    out = tmp_path / "d.csv"
    assert main(["dynamics-1d", "--config", str(cfg), "--out", str(out)]) == 1
    rows = [row.split(",") for row in out.read_text().strip().splitlines()[1:]]
    assert [(float(row[2]), row[-1]) for row in rows] == [(0.25 / 20, "failed:SolverError"),
                                                          (0.125 / 20, "failed:SolverError")]


def test_bug_in_equivalence_row_propagates(monkeypatch):
    # only solver-family errors become failed rows; a programming error surfaces
    from hqclab import mqc

    def broken(*args, **kwargs):
        raise TypeError("bug")

    monkeypatch.setattr(mqc, "equivalence_report", broken)
    cfg = {"trials_spring": "1", "trials_lj": "0", "trials_simple": "0"}
    with pytest.raises(TypeError, match="bug"):
        run_equivalence(cfg)


@pytest.mark.parametrize("experiment, text", [
    pytest.param("converge-1d", "h_list =\n", id="converge-empty-h_list"),
    pytest.param("dynamics-1d", "h_list =\n", id="dynamics-empty-h_list"),
    pytest.param("stochastic-2d", "n_rep_list =\n", id="stochastic-empty-n_rep_list"),
    pytest.param("converge-1d", "h_list = 0\n", id="converge-zero-h"),
    pytest.param("dynamics-1d", "h_list = -1/4\n", id="dynamics-negative-h"),
    pytest.param("equivalence", None, id="missing-config-file"),
    pytest.param("converge-1d", "eps = 0\n", id="converge-zero-eps"),
    pytest.param("converge-1d", "eps = -1/4\n", id="converge-negative-eps"),
    pytest.param("converge-1d", "psi = 1,0\n", id="converge-zero-psi"),
    pytest.param("dynamics-1d", "n_atoms = 0\n", id="dynamics-zero-atoms"),
    pytest.param("dynamics-1d", "n_atoms = 2\nh_list = 1\n", id="dynamics-one-cell"),
    pytest.param("dynamics-1d", "n_atoms = 4\nh_list = 1/2\n", id="dynamics-two-cells"),
    pytest.param("dynamics-1d", "n_atoms = 64\nh_list = 1/4,1/8\nt_final = 1/30\n",
                 id="dynamics-t_final-between-macro-steps"),
    pytest.param("dynamics-1d", "n_atoms = 64\nh_list = 1/4,1/8\nt_final = 1/1000\n",
                 id="dynamics-t_final-below-one-macro-step"),
    pytest.param("stochastic-2d", "n = 0\n", id="stochastic-zero-n"),
    pytest.param("equivalence", "mesh_n = 0\n", id="equivalence-zero-mesh_n"),
    pytest.param("equivalence", "mesh_n = 3\n", id="equivalence-misaligned-mesh_n"),
    pytest.param("equivalence", "eps = 0\n", id="equivalence-zero-eps"),
    pytest.param("dynamics-1d", "amplitude = nan\n", id="dynamics-nan-amplitude"),
    pytest.param("dynamics-1d", "amplitude = inf\n", id="dynamics-inf-amplitude"),
    pytest.param("converge-1d", "psi = 1,inf\n", id="converge-inf-psi"),
    pytest.param("converge-1d", "force_scale = nan\n", id="converge-nan-force_scale"),
    pytest.param("converge-1d", "force_scale = inf\n", id="converge-inf-force_scale"),
    pytest.param("equivalence", "tol_spring = nan\n", id="equivalence-nan-tol_spring"),
    pytest.param("equivalence", "tol_lj = inf\n", id="equivalence-inf-tol_lj"),
    pytest.param("equivalence", "tol_simple = 0\n", id="equivalence-zero-tol_simple"),
])
def test_config_errors_exit_before_any_solve(tmp_path, monkeypatch, capsys, experiment, text):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the config was checked")

    monkeypatch.setattr(experiments.atomistic, "solve_equilibrium", no_solve)
    monkeypatch.setattr(experiments.mqc, "equivalence_report", no_solve)
    cfg = tmp_path / "c.cfg"
    if text is not None:
        cfg.write_text(text)
    assert main([experiment, "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("out", ["missing/x.csv", "."], ids=["missing-directory", "a-directory"])
def test_unwritable_output_path_exits_before_any_solve(tmp_path, monkeypatch, capsys, out):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the output path was checked")

    monkeypatch.setattr(experiments.mqc, "equivalence_report", no_solve)
    assert main(["equivalence", "--out", str(tmp_path / out)]) == 2
    assert "config error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_a_study_loads_no_dense_scipy(tmp_path):
    # numpy is the one dense linear-algebra library; scipy serves sparse matrices only
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("n_atoms = 8\nh_list = 1/2,1/4\nt_final = 1/20\n")
    argv = ["dynamics-1d", "--config", str(cfg), "--out", str(tmp_path / "tiny.csv")]
    code = (f"import sys\nfrom hqclab import cli\nassert cli.main({argv!r}) == 0\n"
            "print('scipy.sparse' in sys.modules, 'scipy.linalg' in sys.modules)")
    src = str(Path(hqclab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.splitlines()[-1] == "True False"   # scipy.sparse loaded, scipy.linalg not


SCHEMAS = {
    "converge-1d": experiments.CONVERGE_1D_SCHEMA,
    "stochastic-2d": experiments.STOCHASTIC_2D_SCHEMA,
    "dynamics-1d": experiments.DYNAMICS_1D_SCHEMA,
    "equivalence": experiments.EQUIVALENCE_SCHEMA,
}


@pytest.mark.parametrize("experiment", sorted(SCHEMAS))
def test_shipped_configs_show_the_defaults(experiment):
    # each configs/<experiment>.cfg says "(defaults shown)": it must parse and
    # set every key it names to the schema default
    assert sorted(p.stem for p in CONFIGS.glob("*.cfg")) == sorted(EXPERIMENTS) == sorted(SCHEMAS)
    schema = SCHEMAS[experiment]
    path = CONFIGS / f"{experiment}.cfg"
    assert "(defaults shown)" in path.read_text()
    cfg = parse_config_file(str(path))
    assert cfg
    parsed = read_config(cfg, schema)
    for key in cfg:
        assert parsed[key] == schema[key][0], key


@pytest.mark.parametrize("experiment", sorted(SCHEMAS))
def test_every_config_value_refuses_nan_and_inf(experiment):
    # every key is numeric, and a non-finite number is a config error in the
    # schema, never a value that a solve or an acceptance band meets
    for key in SCHEMAS[experiment]:
        for text in ("nan", "inf", "-inf", "1,nan"):
            with pytest.raises(ConfigError, match=f"bad value for '{key}'"):
                read_config({key: text}, SCHEMAS[experiment])
