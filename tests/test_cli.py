import io
import re
import sys
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from mupower import SingularGramError, cli, jain_index, load_channel_csv, utility
from mupower.cli import cmd_primal_dual, cmd_solve, cmd_sweep_diversity, cmd_sweep_fairness, main
from mupower.scenario import _FIELDS, P_FLOOR, build_scenario, load_scenario

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


def test_rank_deficient_channel_csv_exits_one(tmp_path, capsys):
    # two equal columns: the Gram matrix is singular
    (tmp_path / "h.csv").write_text("1+0j,1+0j\n0.5+0j,0.5+0j\n0+1j,0+1j\n")
    path = write_scenario(tmp_path, BASE.replace("delta_db: [20.0, 20.0]\n", "channel_csv: h.csv\nsigma2_watts: 1.0\n")
                          .replace("receive_antennas: 2", "receive_antennas: 3"))
    assert main(["solve", "--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "condition estimate" in err
    assert len(err.splitlines()) == 1
    # the loader names the file and keeps the class
    with pytest.raises(SingularGramError, match=f"^{re.escape(str(path))}: "):
        load_scenario(path)


def test_solver_and_pd_overrides(tmp_path):
    path = write_scenario(
        tmp_path,
        BASE + "pd_gain_dual: 0.01\npd_max_steps: 123\n",
    )
    loaded = load_scenario(path)
    assert loaded.pd.g == 0.01
    assert loaded.pd.max_steps == 123
    # integers and numeric strings load as numbers
    path = write_scenario(tmp_path, BASE.replace("1.5", "'1.5'") + "pd_gain_dual: 1\npd_init_lambda: '0.25'\n")
    loaded = load_scenario(path)
    assert (loaded.scenario.p_sum_max, loaded.pd.g, loaded.pd.init_lambda) == (1.5, 1.0, 0.25)


@pytest.mark.parametrize("key, value", [
    ("p_sum_max_watts", "[1.5]"), ("p_sum_max_watts", "null"), ("p_sum_max_watts", "{a: 1}"),
    pytest.param("p_sum_max_watts", "1" + "0" * 400, id="p_sum_max_watts-int-1e400"),
    ("sigma2_watts", "[1.0]"), ("sigma2_watts", "null"),
    ("pd_gain_dual", "[0.01]"), ("pd_init_lambda", "null"), ("pd_init_lambda", "abc"),
    # YAML booleans are not numbers, as n_users: true is not a count
    ("p_sum_max_watts", "true"), ("pd_gain_dual", "true"),
])
def test_scalar_key_not_a_number_exits_one(tmp_path, capsys, key, value):
    (tmp_path / "h.csv").write_text("1+0j,0+0j\n0+0j,1+0j\n")
    text = BASE.replace("delta_db: [20.0, 20.0]\n", "channel_csv: h.csv\nsigma2_watts: 1.0\n")
    lines = [line for line in text.splitlines() if not line.startswith(f"{key}:")]
    path = write_scenario(tmp_path, "\n".join(lines + [f"{key}: {value}"]) + "\n")
    assert main(["solve", "--scenario", str(path)]) == 1
    assert f"{key} must be a number, got " in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("w", "{a: 1}"), ("p_circuit_watts", "[[0.1]]"), ("pd_gain_primal", "{a: 1}"),
    ("delta_db", "[[20.0, 20.0]]"), ("p_max_individual_watts", "[1.0, abc]"),
    pytest.param("pd_init_p_watts", "1" + "0" * 400, id="pd_init_p_watts-int-1e400"),
    ("w", "[true, false]"),
])
def test_vector_key_not_numbers_exits_one(tmp_path, capsys, key, value):
    lines = [line for line in BASE.splitlines() if not line.startswith(f"{key}:")]
    path = write_scenario(tmp_path, "\n".join(lines + [f"{key}: {value}"]) + "\n")
    assert main(["primal-dual", "--scenario", str(path)]) == 1
    assert f"{key} must be a number or a list of 2 numbers, got " in capsys.readouterr().err


# a bad value of each constructor key, and the start of its message
BAD_VALUES = {
    "w": ("[0.5, 1.2]", "w must lie in [0, 1], got 1.2"),
    "p_circuit_watts": ("-0.1", "p_circuit_watts must be > 0 and in [1e-30, 1e30], got -0.1"),
    "p_max_individual_watts": ("1.0e+31", "p_max_individual_watts must be > 0 and in [P_FLOOR = 1e-09 W, 1e30], got 1e+31"),
    "p_sum_max_watts": ("-1", "p_sum_max_watts must be > 0, got -1.0"),
    "pd_gain_primal": ("[0.001, 0]", "pd_gain_primal must be finite and > 0, got 0.0"),
    "pd_gain_dual": (".inf", "pd_gain_dual must be finite and > 0, got inf"),
    "pd_init_p_watts": ("-0.5", "pd_init_p_watts must lie in (0, p_u], got -0.5"),
    "pd_init_lambda": ("-1", "pd_init_lambda must be finite and >= 0, got -1.0"),
    "pd_max_steps": ("0", "pd_max_steps must be an integer >= 1, got 0"),
}


@pytest.mark.parametrize("key", sorted(BAD_VALUES))
def test_bad_value_error_names_the_file_and_key(tmp_path, capsys, key):
    # the constructors' messages start with the field; the loader names the key
    assert set(BAD_VALUES) == set(_FIELDS)
    value, message = BAD_VALUES[key]
    lines = [line for line in BASE.splitlines() if not line.startswith(f"{key}:")]
    path = write_scenario(tmp_path, "\n".join(lines + [f"{key}: {value}"]) + "\n")
    assert main(["primal-dual", "--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {message}")
    assert len(err.splitlines()) == 1


def test_init_p_above_its_cap_names_the_file_and_key(tmp_path, capsys):
    # the caps are known only once integrate runs; the error still names its source
    path = write_scenario(tmp_path, (SCENARIOS / "fig2.yaml").read_text() + "pd_init_p_watts: [5.0, 0.1]\n")
    assert main(["primal-dual", "--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: {re.escape(str(path))}: pd_init_p_watts must lie in \(0, p_u\], "
                        r"got 5\.0 > p_u 0\.18\d* at user 1\n", err)


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


def test_solve_out_failure_prints_no_report(tmp_path, capsys):
    # the --out file is written before the report, so a failing --out leaves stdout empty
    code = main(["solve", "--scenario", str(SCENARIOS / "fig2.yaml"), "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: [Errno ")
    assert str(tmp_path) in captured.err
    assert len(captured.err.splitlines()) == 1


def test_solve_reports_the_utilities_of_its_powers():
    # U, total_utility and jain are those of the P_watts column as printed
    sc = load_scenario(SCENARIOS / "fig4.yaml").scenario
    code, text = run_main(["solve", "--scenario", str(SCENARIOS / "fig4.yaml")])
    assert code == 0
    lines = text.splitlines()
    start = lines.index("user,P_watts,P_u_watts,SE,EE,U") + 1
    table = np.array([[float(v) for v in line.split(",")] for line in lines[start:start + sc.n_users]])
    report = dict(line.split(": ", 1) for line in lines if ": " in line)
    u = utility(table[:, 1], sc.w, sc.p_circuit, sc.delta)
    np.testing.assert_allclose(table[:, 5], u, rtol=1e-9, atol=0)
    assert float(report["total_utility"]) == pytest.approx(np.sum(u), rel=1e-9, abs=0)
    assert float(report["jain"]) == pytest.approx(jain_index(u), rel=1e-9, abs=0)


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
    (tmp_path / "h.csv").write_text("1+0j,0+0j\n0+0j,1+0j\n")
    # two equal columns, and a byte that is not UTF-8
    (tmp_path / "rank1.csv").write_text("1+0j,1+0j\n0.5+0j,0.5+0j\n0+1j,0+1j\n")
    (tmp_path / "ff.csv").write_bytes(b"1+0j,0+0j\n0+0j,1\xff+0j\n")
    tail = "p_sum_max_watts: 1.5"
    for old, new, message in (
        ("w: [0.5, 0.5]", "w: [1.2, 0.5]", "w must lie in [0, 1]"),
        ("p_max_individual_watts: 1.0", "p_max_individual_watts: 1.0e+31",
         "p_max_individual_watts must be > 0 and in [P_FLOOR = 1e-09 W, 1e30], got 1e+31"),
        ("delta_db: [20.0, 20.0]", "delta_db: 400", "delta must be > 0 and in [1e-30, 1e30], got 1e+40"),
        # 10^400 and 1 / 1e-320 overflow to inf gains, with no RuntimeWarning
        ("delta_db: [20.0, 20.0]", "delta_db: 4000", "delta must be > 0 and in [1e-30, 1e30], got inf"),
        ("delta_db: [20.0, 20.0]", "channel_csv: h.csv\nsigma2_watts: 1.0e-320",
         "delta must be > 0 and in [1e-30, 1e30], got inf"),
        # an unclosed flow sequence and a tab indent
        ("w: [0.5, 0.5]", "w: [0.5, 0.5", "sc.yaml: malformed YAML: "),
        ("w: [0.5, 0.5]", "\tw: [0.5, 0.5]", "sc.yaml: malformed YAML: "),
        (tail, tail + "\npd_gain_dual: -1", "pd_gain_dual must be finite and > 0, got -1.0"),
        (tail, tail + "\npd_max_steps: 250.5", "max_steps must be an integer >= 1, got 250.5"),
        ("n_users: 2", "n_users: 2.7", "n_users must be an integer >= 1, got 2.7"),
        ("receive_antennas: 2\ndelta_db: [20.0, 20.0]", "receive_antennas: 3\nchannel_csv: rank1.csv\nsigma2_watts: 1.0",
         "condition estimate"),
        # the row count is checked against the file, which the message names
        ("receive_antennas: 2\ndelta_db: [20.0, 20.0]", "receive_antennas: 3\nchannel_csv: h.csv\nsigma2_watts: 1.0",
         f"{tmp_path / 'h.csv'}: channel CSV has 2 rows, expected receive_antennas 3"),
        ("delta_db: [20.0, 20.0]", "channel_csv: ff.csv\nsigma2_watts: 1.0", "can't decode byte 0xff"),
        (tail, tail + "\nsigma2_watts: 1.0", "sigma2_watts applies only with channel_csv"),
        (BASE, "- 1\n- 2\n", "scenario document must be a mapping"),
        ("n_users: 2\n", "", "n_users is required"),
        ("delta_db: [20.0, 20.0]", "channel_csv: h.csv", "channel_csv requires sigma2_watts"),
        (tail, "", "p_sum_max_watts is required"),
    ):
        path = write_scenario(tmp_path, BASE.replace(old, new))
        code = main(["solve", "--scenario", str(path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and message in err
        assert len(err.splitlines()) == 1
    # a CSV error names the CSV once, loaded directly or through the scenario
    csv = str(tmp_path / "ff.csv")
    with pytest.raises(ValueError, match=f"^{re.escape(csv)}: 'utf-8' codec can't decode byte 0xff"):
        load_channel_csv(csv, 2)
    path = write_scenario(tmp_path, BASE.replace("delta_db: [20.0, 20.0]", "channel_csv: ff.csv\nsigma2_watts: 1.0"))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {re.escape(csv)}: 'utf-8' codec") as info:
        load_scenario(path)
    assert str(info.value).count(csv) == 1


def test_solve_p_max_below_the_floor_exits_one(tmp_path, capsys):
    path = write_scenario(tmp_path, BASE.replace("p_max_individual_watts: 1.0", "p_max_individual_watts: 1.0e-12"))
    code = main(["solve", "--scenario", str(path)])
    assert code == 1
    assert "p_max_individual_watts must be > 0 and in [P_FLOOR = 1e-09 W, 1e30], got 1e-12" in capsys.readouterr().err


def test_solve_missing_file_exits_one(capsys):
    assert main(["solve", "--scenario", "/nonexistent.yaml"]) == 1


def test_usage_error_exits_one(capsys):
    # argparse exits 2 on a usage error, the code the CLI keeps for non-convergence
    for argv in (["solve"], ["sweep-diversity", "--scenario", str(SCENARIOS / "fig2.yaml"), "--grid", "abc"]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: mupower {argv[0]} ") and f"mupower {argv[0]}: error: " in err
    assert main(["-h"]) == 0
    assert capsys.readouterr().out.startswith("usage: mupower ")


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


def test_sweep_rows_are_feasible_and_their_jain_in_range(tmp_path):
    # every row of the bundled scenarios' sweeps has its powers in the box and
    # under the budget, and a Jain index in [1/N, 1], as printed to 12 digits
    sc = load_scenario(SCENARIOS / "fig2.yaml").scenario
    cmd_sweep_diversity(load_scenario(SCENARIOS / "fig2.yaml"), out=tmp_path / "div.csv", grid=41)
    p = np.loadtxt(tmp_path / "div.csv", delimiter=",", skiprows=1)[:, 2:4]
    assert p.shape == (41 * 41, 2)
    assert np.all(p >= P_FLOOR) and np.all(p <= sc.p_max + 1e-12)
    assert np.all(p.sum(axis=1) <= sc.p_sum_max + 1e-9)
    cmd_sweep_fairness(load_scenario(SCENARIOS / "fig3.yaml"), out=tmp_path / "fair.csv", grid=41)
    jain = np.loadtxt(tmp_path / "fair.csv", delimiter=",", skiprows=1)[:, 2]
    assert jain.shape == (3 * 41,)
    assert np.all((0.5 - 1e-12 <= jain) & (jain <= 1.0 + 1e-12))


def test_sweep_diversity_rejects_other_sizes(tmp_path, capsys):
    code = main(["sweep-diversity", "--scenario", str(SCENARIOS / "fig4.yaml")])
    assert code == 1
    assert "2-user" in capsys.readouterr().err
    three = write_scenario(tmp_path, "n_users: 3\ndelta_db: 10.0\nw: 0.4\np_max_individual_watts: 1.0\n"
                                     "p_circuit_watts: 0.1\np_sum_max_watts: 2.0\n")
    assert main(["sweep-fairness", "--scenario", str(three)]) == 1
    assert capsys.readouterr().err == "error: sweep-fairness needs a 2-user scenario, got N=3\n"


def test_sweep_invalid_override_exits_one(monkeypatch, capsys):
    # a one-point axis at w = 1.5 makes a 1-row grid outside the weight rule
    monkeypatch.setattr(np, "linspace", lambda start, stop, num: np.array([1.5]))
    code = main(["sweep-diversity", "--scenario", str(SCENARIOS / "fig2.yaml"), "--grid", "1"])
    assert code == 1
    assert "w must lie in [0, 1], got 1.5" in capsys.readouterr().err


def test_sweep_grid_below_one_exits_one(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    for command in ("sweep-diversity", "sweep-fairness"):
        for grid in ("0", "-3"):
            code = main([command, "--scenario", str(SCENARIOS / "fig2.yaml"), "--out", str(out), "--grid", grid])
            assert code == 1
            assert f"--grid must be at least 1, got {grid}" in capsys.readouterr().err
            assert not out.exists()
        # one point per axis stays valid
        assert main([command, "--scenario", str(SCENARIOS / "fig2.yaml"), "--out", str(out), "--grid", "1"]) == 0
        assert len(out.read_text().splitlines()) == 1 + (1 if command == "sweep-diversity" else 3)
        out.unlink()


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
    kkt = float(next(l for l in text.splitlines() if l.startswith("max_kkt_residual")).split(": ")[1])
    assert kkt <= 1e-8
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


def test_kkt_failure_exits_two(tmp_path, capsys):
    # a row whose tight solve fails its certificate: both commands solve it
    path = write_scenario(
        tmp_path,
        "n_users: 2\nreceive_antennas: 2\ndelta_db: [0.0, 0.0]\nw: [0.0, 0.7]\n"
        "p_max_individual_watts: 1.0e-3\np_circuit_watts: 1.0e-6\np_sum_max_watts: 1.0e-8\n",
    )
    for command in ("solve", "primal-dual"):
        assert main([command, "--scenario", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: row 0: KKT residual ")
        assert len(captured.err.splitlines()) == 1


class _ClosingPipe(io.StringIO):
    """A stdout whose reader closes the pipe after the first write."""

    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        if self.writes > 1:
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)


def test_stdout_written_in_one_call(tmp_path, monkeypatch):
    short = write_scenario(tmp_path, (SCENARIOS / "fig4.yaml").read_text() + "pd_max_steps: 500\n")
    for argv in (["solve", "--scenario", str(SCENARIOS / "fig4.yaml")], ["primal-dual", "--scenario", str(short)]):
        stdout = _ClosingPipe()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(argv) == 0
        assert stdout.writes == 1


# ---------------------------------------------------------------- CSV format

def per_row_csv(header, rows) -> str:
    """The CSV formatter cli._csv replaced, copied verbatim: one "%.12g"
    format call per row, every cell formatted where it stands."""
    fmt = ",".join(["%.12g"] * len(header)) + "\n"
    return ",".join(header) + "\n" + "".join(fmt % tuple(row) for row in np.asarray(rows).tolist())


def special_table():
    """Nine rows of five columns: the awkward floats, an integer-valued
    column, values repeated down a column and across columns, and both
    zeros, which compare equal but print apart."""
    negative_nan = np.copysign(np.nan, -1.0)
    assert np.signbit(negative_nan)
    special = [0.0, -0.0, negative_nan, np.inf, -np.inf, 5e-324, 1e16, 123456789012.5, -1e-5]
    return np.column_stack([
        special,
        np.arange(9.0) * 3 - 7,
        special[::-1],
        np.full(9, 0.25),
        np.tile([0.0, -0.0, 0.25], 3),
    ])


def test_csv_matches_the_per_row_formatter_byte_for_byte():
    table = special_table()
    header = [f"c{j}" for j in range(5)]
    assert cli._csv(header, table).splitlines()[1:3] == ["0,-7,-1e-05,0.25,0", "-0,-4,123456789012,0.25,-0"]
    cases = [
        (header, table),
        (header, table.tolist()),
        (header, np.asfortranarray(table)),
        (header[::2], table[:, ::2]),  # column-sliced view
        (header[:3], np.ascontiguousarray(table[:, :3].T).T),  # transposed view
        (header[:2], table[::-2, 1:3]),
        (header[:3], np.array([[1, -2, 2**53 + 1], [0, 7, 7]])),  # integers, one past float precision
        (header, table[:1]),
        (header[:3], np.empty((0, 3))),
    ]
    for head, rows in cases:
        assert cli._csv(head, rows) == per_row_csv(head, rows)


def test_csv_of_a_sweep_sized_table_peaks_under_three_times_its_text():
    # 1,681 x 8 cells of 400 bit patterns, both zeros and both NaN signs among
    # them: the sort order and the sorted bits, 108 KB each, are freed before
    # the text is built
    rng = np.random.default_rng(34)
    pool = np.concatenate([[0.0, -0.0, np.nan, np.copysign(np.nan, -1.0)], rng.uniform(-1.0, 1.0, 396)])
    table = rng.choice(pool, (1681, 8))
    header = [f"c{j}" for j in range(8)]
    tracemalloc.start()
    try:
        text = cli._csv(header, table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * len(text), f"peak {peak / len(text):.2f} x the text"
    assert text == per_row_csv(header, table)


@pytest.mark.parametrize("command, scenario, options", [
    ("sweep-diversity", "fig2.yaml", ["--grid", "41"]),
    ("sweep-fairness", "fig3.yaml", []),
    ("solve", "fig4.yaml", []),
    ("primal-dual", "fig4.yaml", []),
], ids=["sweep-diversity", "sweep-fairness", "solve", "primal-dual"])
def test_cli_output_is_the_per_row_formatters(tmp_path, monkeypatch, command, scenario, options):
    # pd_max_steps only shortens primal-dual: 2,500 steps record 26 states
    path = write_scenario(tmp_path, (SCENARIOS / scenario).read_text() + "pd_max_steps: 2500\n")
    outputs = []
    for name in ("ours", "per-row"):
        if name == "per-row":
            monkeypatch.setattr(cli, "_csv", per_row_csv)
        out = tmp_path / f"{name}.csv"
        code, text = run_main([command, "--scenario", str(path), "--out", str(out), *options])
        assert code == 0
        outputs.append((text, out.read_bytes()))
    assert outputs[0] == outputs[1]
    assert len(outputs[0][1].splitlines()) > 1
