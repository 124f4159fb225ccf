import io
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from mupower.cli import cmd_primal_dual, cmd_solve, cmd_sweep_diversity, cmd_sweep_fairness, main
from mupower.scenario import build_scenario, load_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def write_scenario(tmp_path, text, name="sc.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


BASE = """\
n_users: 2
receive_antennas: 2
delta_db: [20.0, 20.0]
w: [0.5, 0.5]
p_max_individual_watts: 1.0
p_circuit_watts: 0.1
p_sum_max_watts: 1.5
"""


# ------------------------------------------------------------- scenario files

def test_load_bundled_scenarios():
    for name, n in (("fig2.yaml", 2), ("fig3.yaml", 2), ("fig4.yaml", 4)):
        loaded = load_scenario(SCENARIOS / name)
        assert loaded.scenario.n_users == n
    fig4 = load_scenario(SCENARIOS / "fig4.yaml")
    assert np.allclose(fig4.scenario.w, [0.0, 0.3, 0.7, 1.0])
    assert fig4.scenario.p_sum_max == 3.0
    assert np.allclose(np.asarray(fig4.pd.k), 1e-3)
    assert fig4.pd.g == 1e-3


def test_scalar_broadcast(tmp_path):
    path = write_scenario(
        tmp_path,
        "n_users: 3\ndelta_db: 10.0\nw: 0.4\np_max_individual_watts: 1.0\n"
        "p_circuit_watts: 0.1\np_sum_max_watts: 2.0\n",
    )
    sc = load_scenario(path).scenario
    assert sc.n_users == 3
    assert np.allclose(sc.delta, 10.0)
    assert np.allclose(sc.w, 0.4)


def test_invalid_weight_names_invariant(tmp_path):
    path = write_scenario(tmp_path, BASE.replace("w: [0.5, 0.5]", "w: [1.2, 0.5]"))
    with pytest.raises(ValueError, match=r"w must lie in \[0, 1\]"):
        load_scenario(path)


def test_both_channel_sources_rejected(tmp_path):
    path = write_scenario(tmp_path, BASE + "channel_csv: h.csv\nsigma2_watts: 1.0\n")
    with pytest.raises(ValueError, match="exactly one"):
        load_scenario(path)


def test_missing_channel_source_rejected():
    with pytest.raises(ValueError, match="exactly one"):
        build_scenario({"n_users": 2, "w": 0.5, "p_max_individual_watts": 1.0,
                        "p_circuit_watts": 0.1, "p_sum_max_watts": 1.0})


def test_unknown_key_rejected(tmp_path):
    for line in (
        "p_circuit: 0.2\n", "solver_gp_step: 0.001\n", "solver_tol_kkt: 1.0\n", "pd_tol_eq: 1e-10\n",
        "pd_record_every: 10\n",
    ):
        path = write_scenario(tmp_path, BASE + line)
        with pytest.raises(ValueError, match="unknown keys"):
            load_scenario(path)


def test_non_integral_counts_rejected(tmp_path):
    for line in ("pd_max_steps: 250.5\n", "pd_max_steps: true\n"):
        path = write_scenario(tmp_path, BASE + line)
        with pytest.raises(ValueError, match="must be an integer"):
            load_scenario(path)
    path = write_scenario(tmp_path, BASE.replace("n_users: 2", "n_users: 2.7"))
    with pytest.raises(ValueError, match="n_users must be an integer"):
        load_scenario(path)
    loaded = load_scenario(write_scenario(tmp_path, BASE + "pd_max_steps: 1.0e+3\n"))
    assert loaded.pd.max_steps == 1000


def test_length_mismatch_rejected(tmp_path):
    path = write_scenario(tmp_path, BASE.replace("w: [0.5, 0.5]", "w: [0.5, 0.5, 0.5]"))
    with pytest.raises(ValueError, match="entries"):
        load_scenario(path)


def test_channel_csv_scenario(tmp_path):
    (tmp_path / "h.csv").write_text("1+0j,0+0j\n0+0j,1+0j\n")
    path = write_scenario(
        tmp_path,
        "n_users: 2\nchannel_csv: h.csv\nsigma2_watts: 1.0\nw: 0.5\n"
        "p_max_individual_watts: 1.0\np_circuit_watts: 0.1\np_sum_max_watts: 1.5\n",
    )
    sc = load_scenario(path).scenario
    assert np.allclose(sc.delta, [1.0, 1.0])
    path.write_text(path.read_text() + "receive_antennas: 3\n")
    with pytest.raises(ValueError, match="receive_antennas"):
        load_scenario(path)


def test_solver_and_pd_overrides(tmp_path):
    path = write_scenario(
        tmp_path,
        BASE + "pd_gain_dual: 0.01\npd_max_steps: 123\n",
    )
    loaded = load_scenario(path)
    assert loaded.pd.g == 0.01
    assert loaded.pd.max_steps == 123


# -------------------------------------------------------------------- solve

def run_main(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_solve_fig4(tmp_path):
    out = tmp_path / "alloc.csv"
    code, text = run_main(
        ["solve", "--scenario", str(SCENARIOS / "fig4.yaml"), "--out", str(out)]
    )
    assert code == 0
    assert "case: SumTight" in text
    assert "jain:" in text and "max_kkt_residual:" in text
    lines = out.read_text().splitlines()
    assert lines[0] == "user,P_watts,P_u_watts,SE,EE,U"
    assert len(lines) == 5


def test_solve_huge_budget_returns_caps(tmp_path):
    path = write_scenario(
        tmp_path,
        BASE.replace("w: [0.5, 0.5]", "w: [1.0, 1.0]").replace(
            "p_sum_max_watts: 1.5", "p_sum_max_watts: 100.0"
        ),
    )
    code, text = run_main(["solve", "--scenario", str(path)])
    assert code == 0
    assert "case: SumSlack" in text
    for line in text.splitlines():
        if line.startswith(("1,", "2,")):
            assert float(line.split(",")[1]) == 1.0


def test_solve_invalid_scenario_exits_one(tmp_path, capsys):
    path = write_scenario(tmp_path, BASE.replace("w: [0.5, 0.5]", "w: [1.2, 0.5]"))
    code = main(["solve", "--scenario", str(path)])
    assert code == 1
    assert "w must lie in [0, 1]" in capsys.readouterr().err


def test_solve_missing_file_exits_one(capsys):
    assert main(["solve", "--scenario", "/nonexistent.yaml"]) == 1


# -------------------------------------------------------------------- sweeps

def test_sweep_diversity_small_grid(tmp_path):
    out = tmp_path / "div.csv"
    code, _ = run_main(
        ["sweep-diversity", "--scenario", str(SCENARIOS / "fig2.yaml"),
         "--out", str(out), "--grid", "5"]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "w1,w2,P1,P2,SE1,SE2,EE1,EE2"
    assert len(lines) == 1 + 25
    # symmetric point: equal powers for homogeneous users
    for line in lines[1:]:
        vals = [float(v) for v in line.split(",")]
        if vals[0] == vals[1]:
            assert vals[2] == pytest.approx(vals[3], abs=1e-9)


def test_sweep_diversity_rejects_other_sizes(capsys):
    code = main(["sweep-diversity", "--scenario", str(SCENARIOS / "fig4.yaml")])
    assert code == 1
    assert "2-user" in capsys.readouterr().err


def test_sweep_invalid_override_exits_one(monkeypatch, capsys):
    # a one-point axis at w = 1.5 makes a 1-row grid outside the weight rule
    monkeypatch.setattr(np, "linspace", lambda start, stop, num: np.array([1.5]))
    code = main(["sweep-diversity", "--scenario", str(SCENARIOS / "fig2.yaml"), "--grid", "1"])
    assert code == 1
    assert "w must lie in [0, 1], got 1.5" in capsys.readouterr().err


def test_sweep_fairness_anchors(tmp_path):
    out = tmp_path / "fair.csv"
    code, _ = run_main(
        ["sweep-fairness", "--scenario", str(SCENARIOS / "fig3.yaml"),
         "--out", str(out), "--grid", "5"]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "delta1_db,delta2_db,jain,U1,U2"
    rows = {}
    for line in lines[1:]:
        d1, d2, jain, u1, u2 = (float(v) for v in line.split(","))
        rows[(d1, d2)] = jain
    assert rows[(20.0, 20.0)] == pytest.approx(1.0, abs=1e-9)
    assert rows[(-20.0, 20.0)] == pytest.approx(0.5017, abs=1e-3)
    # user-swap symmetry of the index
    assert rows[(0.0, -20.0)] == pytest.approx(rows[(-20.0, 0.0)], abs=1e-9)
    # the diagonal is the per-row maximum
    for d1 in (-20.0, 0.0, 20.0):
        row = {d2: j for (a, d2), j in rows.items() if a == d1}
        assert row[d1] == pytest.approx(max(row.values()), abs=1e-12)


def test_sweep_output_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        code, _ = run_main(
            ["sweep-fairness", "--scenario", str(SCENARIOS / "fig3.yaml"),
             "--out", str(out), "--grid", "3"]
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


# --------------------------------------------------------------- primal-dual

def test_primal_dual_fig4(tmp_path):
    out = tmp_path / "traj.csv"
    code, text = run_main(
        ["primal-dual", "--scenario", str(SCENARIOS / "fig4.yaml"), "--out", str(out)]
    )
    assert code == 0
    assert "converged: True" in text
    gap = float(next(l for l in text.splitlines() if l.startswith("final_gap")).split(": ")[1])
    assert gap <= 1e-3
    header = out.read_text().splitlines()[0]
    assert header == "t,P_1,P_2,P_3,P_4,lambda,total_utility,V"


def test_primal_dual_strict_nonconvergence(tmp_path, capsys):
    path = write_scenario(
        tmp_path,
        (SCENARIOS / "fig4.yaml").read_text() + "pd_max_steps: 10\n",
    )
    code = main(["primal-dual", "--scenario", str(path), "--strict"])
    assert code == 2
    code = main(["primal-dual", "--scenario", str(path)])
    assert code == 0
