import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ngcost
from ngcost import (
    Game,
    chsh_optimal_strategy,
    evaluate_quantum_strategy,
    load_strategy,
    make_chsh_game,
    save_game,
    strategy_to_dict,
    validate_strategy,
)
from ngcost.cli import main

TSIRELSON_COST = (2.0 - math.sqrt(2.0)) / 4.0


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classical_chsh_text(capsys):
    code, out, err = run_cli(capsys, "classical", "--builtin", "chsh")
    assert code == 0
    assert "classical cost: 0.25" in out
    assert "alpha=[0, 0]" in out


def test_classical_chsh_json(capsys):
    code, out, _ = run_cli(capsys, "classical", "--builtin", "chsh", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["cost"] == 0.25
    assert doc["witness"] == {"alpha": [0, 0], "beta": [0, 0]}


def test_classical_hardy_penalty_flag(capsys):
    code, out, _ = run_cli(capsys, "classical", "--builtin", "hardy", "--T", "2", "--json")
    assert code == 0
    assert json.loads(out)["cost"] == 0.5


def test_classical_family_flags(capsys):
    code, out, _ = run_cli(capsys, "classical", "--builtin", "family",
                           "--phi", "0", "--w", "1", "--json")
    assert code == 0
    assert json.loads(out)["cost"] == 0.25


def test_classical_family_missing_params(capsys):
    code, _, err = run_cli(capsys, "classical", "--builtin", "family", "--phi", "0.4")
    assert code == 2
    assert "--w" in err


def test_classical_text_prints_inf_for_an_all_forbidden_game(capsys, tmp_path):
    path = tmp_path / "forbidden.json"
    save_game(Game(2, 2, 2, 2, np.full((2, 2), 0.25), np.full((2, 2, 2, 2), math.inf)), str(path))
    code, out, _ = run_cli(capsys, "classical", "--game", str(path))
    assert code == 0
    assert out.splitlines()[0] == "classical cost: inf"


def test_classical_game_file(capsys, tmp_path):
    path = tmp_path / "chsh.json"
    save_game(make_chsh_game(), str(path))
    code, out, _ = run_cli(capsys, "classical", "--game", str(path), "--json")
    assert code == 0
    assert json.loads(out)["cost"] == 0.25


def test_game_file_errors(capsys, tmp_path):
    missing = tmp_path / "nope.json"
    code, _, err = run_cli(capsys, "classical", "--game", str(missing))
    assert code == 2
    assert "error:" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "classical", "--game", str(bad))
    assert code == 2

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"n_s": 2}))
    code, _, err = run_cli(capsys, "classical", "--game", str(unknown))
    assert code == 2
    assert "missing fields" in err


def test_game_source_is_exclusive(capsys, tmp_path):
    path = tmp_path / "chsh.json"
    save_game(make_chsh_game(), str(path))
    code, _, err = run_cli(capsys, "classical", "--builtin", "chsh", "--game", str(path))
    assert code == 2
    code, _, err = run_cli(capsys, "classical")
    assert code == 2


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["classical", "--builtin", "nope"]) == 2
    assert main(["no-such-command"]) == 2


def test_quantum_chsh_optimal(capsys):
    code, out, _ = run_cli(capsys, "quantum", "--builtin", "chsh",
                           "--strategy", "chsh-optimal", "--json")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["cost"] - TSIRELSON_COST) <= 1e-9
    assert len(doc["behavior"]) == 2


def test_quantum_hardy_angle(capsys):
    code, out, _ = run_cli(capsys, "quantum", "--builtin", "hardy",
                           "--strategy", "hardy:0.5", "--json")
    assert code == 0
    assert json.loads(out)["cost"] >= 0.125  # never below the NS floor


def test_quantum_hardy_opt(capsys):
    code, out, _ = run_cli(capsys, "quantum", "--builtin", "hardy", "--T", "1",
                           "--strategy", "hardy:opt", "--json")
    assert code == 0
    p_max = (5.0 * math.sqrt(5.0) - 11.0) / 2.0
    assert abs(json.loads(out)["cost"] - (1.0 - p_max) / 4.0) <= 1e-12


def test_quantum_shape_mismatch_message(capsys, tmp_path):
    game = Game(3, 2, 2, 2, np.full((3, 2), 1.0 / 6.0), np.zeros((3, 2, 2, 2)))
    path = tmp_path / "three_inputs.json"
    save_game(game, str(path))
    message = "strategy shape (2,2,2,2) does not match game (3,2,2,2)"
    code, out, err = run_cli(capsys, "quantum", "--game", str(path),
                             "--strategy", "chsh-optimal")
    assert (code, out, err) == (2, "", f"error: {message}\n")
    with pytest.raises(ValueError) as exc:
        evaluate_quantum_strategy(game, chsh_optimal_strategy())
    assert str(exc.value) == message


def test_quantum_evaluates_the_behavior_once(capsys, monkeypatch):
    import ngcost.cli
    import ngcost.quantum
    original, calls = ngcost.quantum.behavior_of, []

    def counted(strategy):
        calls.append(strategy)
        return original(strategy)

    monkeypatch.setattr(ngcost.quantum, "behavior_of", counted)
    monkeypatch.setattr(ngcost.cli, "behavior_of", counted)
    for flag in ([], ["--json"]):
        calls.clear()
        code, _, _ = run_cli(capsys, "quantum", "--builtin", "hardy",
                             "--strategy", "hardy:0.5", *flag)
        assert code == 0
        assert len(calls) == 1


def test_quantum_strategy_parse_error(capsys):
    code, _, err = run_cli(capsys, "quantum", "--builtin", "chsh",
                           "--strategy", "hardy:xyz")
    assert code == 2
    code, _, err = run_cli(capsys, "quantum", "--builtin", "chsh",
                           "--strategy", "/does/not/exist.json")
    assert code == 2


def _corrupt_chsh_strategy(tmp_path, corrupt):
    doc = strategy_to_dict(chsh_optimal_strategy())
    corrupt(doc)
    path = tmp_path / "strategy.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("corrupt, message", [
    (lambda doc: doc["state"][1].__setitem__(0, math.nan), "state has non-finite entries"),
    (lambda doc: doc["bob_povms"][1][0][0].__setitem__(1, [0.0, math.inf]),
     "bob element (1,0) has non-finite entries"),
    (lambda doc: doc["alice_povms"][1].pop(), "alice_povms are ragged"),
    (lambda doc: doc["bob_povms"][0][1].append([[0.0, 0.0]] * 3), "bob_povms are ragged"),
])
def test_quantum_rejects_non_finite_and_ragged_strategy_files(capsys, tmp_path, corrupt, message):
    path = _corrupt_chsh_strategy(tmp_path, corrupt)
    for flag in ([], ["--json"]):
        code, out, err = run_cli(capsys, "quantum", "--builtin", "chsh", "--strategy", path, *flag)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err


def _huge_diagonal(doc):
    doc["bob_povms"][0][0][0][0] = [1e308, 0.0]


def _huge_diagonals_summing_to_inf(doc):
    for k in range(2):
        doc["bob_povms"][0][k][0][0] = [1e308, 0.0]


def _huge_antihermitian_pair(doc):
    doc["bob_povms"][0][0][0][1] = [1e308, 0.0]
    doc["bob_povms"][0][0][1][0] = [-1e308, 0.0]


def test_quantum_rejects_huge_povm_entries_with_one_error_line(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(ngcost.__file__).resolve().parent.parent))
    for corrupt, message in [
        (_huge_diagonal, "bob measurement 0 does not sum to identity (deviation 1e+308)"),
        (_huge_diagonals_summing_to_inf,
         "bob measurement 0 does not sum to identity (deviation inf)"),
        (_huge_antihermitian_pair, "bob element (0,0) is not Hermitian within 1e-10; "
         "bob measurement 0 does not sum to identity (deviation 1e+308)"),
    ]:
        path = _corrupt_chsh_strategy(tmp_path, corrupt)
        # a subprocess, so that numpy warnings reach stderr as they would for a user
        result = subprocess.run(
            [sys.executable, "-m", "ngcost", "quantum", "--builtin", "chsh", "--strategy", path],
            capture_output=True, env=env, timeout=60)
        assert (result.returncode, result.stdout) == (2, b""), corrupt.__name__
        assert result.stderr.decode() == f"error: {message}\n", corrupt.__name__


def test_seesaw_chsh(capsys):
    code, out, _ = run_cli(capsys, "seesaw", "--builtin", "chsh",
                           "--restarts", "8", "--seed", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert TSIRELSON_COST - 1e-9 <= doc["best_cost"] <= TSIRELSON_COST + 1e-4
    assert doc["restarts"] == 8
    assert len(doc["iterations"]) == 8


def test_seesaw_requires_cap_for_infinite_games(capsys):
    code, _, err = run_cli(capsys, "seesaw", "--builtin", "hardy")
    assert code == 2
    assert "--cap" in err


def test_seesaw_runs_when_only_zero_weight_inputs_are_forbidden(capsys, tmp_path):
    # input s = 1 never occurs, so its +inf entries cost nothing and need no cap
    cost = make_chsh_game().cost.copy()
    cost[1, 0, 1, 0] = cost[1, 1, 0, 0] = math.inf
    zeroed = np.where(np.isinf(cost), 0.0, cost)
    outputs = []
    for name, table in (("idle.json", cost), ("zeroed.json", zeroed)):
        path = tmp_path / name
        save_game(Game(2, 2, 2, 2, [[0.5, 0.5], [0.0, 0.0]], table), str(path))
        code, out, err = run_cli(capsys, "seesaw", "--game", str(path),
                                 "--restarts", "4", "--seed", "1", "--json")
        assert (code, err) == (0, "")
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_seesaw_cap_auto(capsys):
    code, out, _ = run_cli(capsys, "seesaw", "--builtin", "hardy",
                           "--cap", "auto", "--restarts", "4", "--seed", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["best_cost"] <= 0.25 + 1e-6  # no worse than classical


def test_seesaw_cap_too_small(capsys):
    code, _, err = run_cli(capsys, "seesaw", "--builtin", "hardy", "--cap", "0.5")
    assert code == 2
    assert "cap" in err


def test_seesaw_cap_parse_error(capsys):
    code, _, err = run_cli(capsys, "seesaw", "--builtin", "hardy", "--cap", "lots")
    assert code == 2


def test_seesaw_writes_strategy(capsys, tmp_path):
    out_path = tmp_path / "best.json"
    code, out, _ = run_cli(capsys, "seesaw", "--builtin", "chsh",
                           "--restarts", "4", "--seed", "1",
                           "--out", str(out_path), "--json")
    assert code == 0
    doc = json.loads(out)
    strategy = load_strategy(str(out_path))
    assert validate_strategy(strategy) == []
    from ngcost import evaluate_quantum_strategy
    replay = evaluate_quantum_strategy(make_chsh_game(), strategy)
    assert abs(replay - doc["best_cost"]) <= 1e-9


def test_ns_values(capsys):
    code, out, _ = run_cli(capsys, "ns", "--builtin", "chsh", "--json")
    assert code == 0
    assert abs(json.loads(out)["cost"]) <= 1e-9

    code, out, _ = run_cli(capsys, "ns", "--builtin", "hardy", "--json")
    assert code == 0
    assert abs(json.loads(out)["cost"] - 0.125) <= 1e-9

    code, out, _ = run_cli(capsys, "ns", "--builtin", "hardy", "--T", "2", "--json")
    assert code == 0
    assert abs(json.loads(out)["cost"] - 0.25) <= 1e-9


def test_ns_infeasible_exits_3(capsys, tmp_path):
    from ngcost import Game
    cost = np.zeros((2, 2, 2, 2))
    cost[0, 0] = math.inf
    game = Game(2, 2, 2, 2, np.full((2, 2), 0.25), cost)
    path = tmp_path / "blocked.json"
    save_game(game, str(path))
    code, _, err = run_cli(capsys, "ns", "--game", str(path))
    assert code == 3
    assert "infeasible" in err


def test_ns_ignores_forbidden_entries_of_a_zero_weight_input(capsys, tmp_path):
    # input (1, 1) never occurs, so its all-forbidden block pins nothing
    cost = [[[[0, 0], [0, 0]] for _ in range(2)] for _ in range(2)]
    cost[0][0] = [[0, 1], [1, 0]]
    cost[1][1] = [["inf", "inf"], ["inf", "inf"]]
    doc = {"n_s": 2, "n_t": 2, "n_a": 2, "n_b": 2,
           "input_dist": [[1 / 3, 1 / 3], [1 / 3, 0]], "cost": cost}
    path = tmp_path / "idle.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "ns", "--game", str(path), "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["cost"] <= 0.0


def test_hardy_theta(capsys):
    code, out, _ = run_cli(capsys, "hardy-theta", "--json")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["p00"] - (5.0 * math.sqrt(5.0) - 11.0) / 2.0) <= 1e-9
    assert abs(math.cos(doc["theta"]) ** 2 - (math.sqrt(5.0) - 1.0) / 2.0) <= 1e-6


def test_sweep_single_point(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(capsys, "sweep", "--phi-range", "0", "0", "1",
                         "--w-range", "1", "1", "1",
                         "--restarts", "4", "--seed", "1", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "phi,w,classical,seesaw,ns,quantum_classical_gap"
    cells = lines[1].split(",")
    assert cells[0] == "0.0"
    assert cells[1] == "1.0"
    assert cells[2] == "0.25"
    assert abs(float(cells[3]) - TSIRELSON_COST) <= 1e-4
    assert abs(float(cells[4])) <= 1e-9
    assert abs(float(cells[5]) - (0.25 - float(cells[3]))) <= 1e-15


def test_sweep_to_stdout(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--phi-range", "0", "0", "1",
                           "--w-range", "1", "1", "1",
                           "--solvers", "classical,ns")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "phi,w,classical,seesaw,ns,quantum_classical_gap"
    cells = lines[1].split(",")
    assert cells[3] == ""  # seesaw skipped
    assert cells[5] == ""  # no gap without the quantum column


def test_sweep_infinite_grid_needs_cap(capsys):
    code, _, err = run_cli(capsys, "sweep", "--phi-range", "0", "0.5", "2",
                           "--w-range", "0", "1", "2", "--restarts", "2")
    assert code == 2
    assert "--cap" in err


def test_sweep_with_cap_handles_w_zero(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(capsys, "sweep", "--phi-range", "0.78539816", "0.78539816", "1",
                         "--w-range", "0", "0", "1", "--cap", "auto",
                         "--restarts", "2", "--seed", "1", "--out", str(out_path))
    assert code == 0
    cells = out_path.read_text().splitlines()[1].split(",")
    assert "inf" not in cells
    assert float(cells[2]) > 0.0


def test_sweep_classical_and_ns_run_uncapped(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--phi-range", "0.7853981633974483",
                           "0.7853981633974483", "1",
                           "--w-range", "0", "0", "1", "--solvers", "classical,ns")
    assert code == 0
    cells = out.splitlines()[1].split(",")
    # hardy endpoint with T = sin(pi/4): classical T/4, ns T/8
    assert abs(float(cells[2]) - math.sin(math.pi / 4) / 4.0) <= 1e-12
    assert abs(float(cells[4]) - math.sin(math.pi / 4) / 8.0) <= 1e-9


@pytest.mark.parametrize("argv", [
    ["sweep", "--phi-range", "0", "2.0", "3", "--w-range", "1", "1", "1"],
    ["sweep", "--phi-range", "-0.1", "0.5", "3", "--w-range", "1", "1", "1"],
    ["sweep", "--phi-range", "0", "0.5", "0", "--w-range", "1", "1", "1"],
    ["sweep", "--phi-range", "0", "0.5", "2", "--w-range", "2", "1", "2"],
    ["sweep", "--phi-range", "0", "0.5", "2", "--w-range", "-1", "1", "2"],
    ["sweep", "--phi-range", "0", "0.5", "2", "--w-range", "1", "1", "1",
     "--solvers", "classical,quantum"],
])
def test_sweep_rejects_bad_ranges(capsys, argv):
    assert main(argv) == 2


@pytest.mark.parametrize("steps", ["inf", "nan"])
@pytest.mark.parametrize("axis", ["--phi-range", "--w-range"])
def test_sweep_rejects_non_finite_step_counts(capsys, axis, steps):
    ranges = {"--phi-range": ["0", "1", "2"], "--w-range": ["1", "1", "1"]}
    ranges[axis][2] = steps
    code, out, err = run_cli(capsys, "sweep", "--phi-range", *ranges["--phi-range"],
                             "--w-range", *ranges["--w-range"])
    assert (code, out) == (2, "")
    assert err == f"error: {axis} step count must be a positive integer, got {steps}\n"


def test_sweep_identical_bytes_across_runs_and_threads(capsys, tmp_path):
    args = ["sweep", "--phi-range", "0", "0.7", "2", "--w-range", "0.5", "1.5", "2",
            "--restarts", "3", "--seed", "4"]
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    assert main(args + ["--out", str(paths[0])]) == 0
    assert main(args + ["--out", str(paths[1])]) == 0
    assert main(args + ["--out", str(paths[2])]) == 0
    capsys.readouterr()
    first = paths[0].read_bytes()
    assert paths[1].read_bytes() == first
    assert paths[2].read_bytes() == first


def test_hardy_cap_sweep(capsys, tmp_path):
    out_path = tmp_path / "caps.csv"
    code, _, _ = run_cli(capsys, "hardy-cap-sweep", "--T", "1", "--caps", "1.5,10",
                         "--restarts", "3", "--seed", "1", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "T,cap,classical,seesaw,ns,quantum_classical_gap"
    assert len(lines) == 3
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[2] == "0.25"  # classical unchanged by the cap
        assert abs(float(cells[4]) - 0.125) <= 1e-9
        assert float(cells[3]) <= 0.25 + 1e-6


def test_hardy_cap_sweep_rejects_small_caps(capsys):
    code, _, err = run_cli(capsys, "hardy-cap-sweep", "--T", "1", "--caps", "0.9,10")
    assert code == 2
    assert "exceed" in err


@pytest.mark.parametrize("caps", ["2,x", ","])
def test_hardy_cap_sweep_rejects_bad_cap_lists(capsys, caps):
    code, out, err = run_cli(capsys, "hardy-cap-sweep", "--caps", caps)
    assert (code, out) == (2, "")
    assert "caps" in err


def test_console_script_is_installed(tmp_path):
    """The declared ``ngcost`` console script runs this source tree's CLI.

    Reads the entry point from ``pyproject.toml`` and runs it the way an
    installer's launcher does, against the imported ``ngcost`` package, so
    no install is needed; putting a script on ``PATH`` is left to the
    environment. ``python -m ngcost`` must print the same bytes.
    """
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        value = tomllib.load(fh)["project"]["scripts"]["ngcost"]
    module_name, attr = value.split(":")
    assert callable(getattr(importlib.import_module(module_name), attr))

    env = dict(os.environ, PYTHONPATH=str(Path(ngcost.__file__).resolve().parent.parent))
    launcher = (f"import sys\nfrom {module_name} import {attr}\n"
                f"sys.argv[0] = 'ngcost'\nsys.exit({attr}())\n")
    args = ["classical", "--builtin", "chsh"]

    def run(*argv):
        return subprocess.run([sys.executable, *argv, *args], capture_output=True,
                              env=env, cwd=tmp_path, timeout=60)

    script = run("-c", launcher)
    assert script.returncode == 0, script.stderr.decode()
    assert "classical cost: 0.25" in script.stdout.decode().splitlines()
    module = run("-m", "ngcost")
    assert module.returncode == 0, module.stderr.decode()
    assert module.stdout == script.stdout
