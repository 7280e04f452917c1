import json
import math

import numpy as np
import pytest

from ngcost import (
    FamilyParams,
    Game,
    auto_cap,
    cap_infinities,
    expected_cost,
    game_from_dict,
    game_to_dict,
    load_game,
    make_chsh_game,
    make_family_game,
    make_hardy_game,
    save_game,
    validate_game,
)

INF = math.inf


def test_chsh_table_matches_xor_rule():
    g = make_chsh_game()
    assert (g.n_s, g.n_t, g.n_a, g.n_b) == (2, 2, 2, 2)
    assert np.array_equal(g.input_dist, np.full((2, 2), 0.25))
    for s in range(2):
        for t in range(2):
            for a in range(2):
                for b in range(2):
                    want = 1.0 if (a ^ b) != s * t else 0.0
                    assert g.cost[s, t, a, b] == want


def test_chsh_spot_values():
    cost = make_chsh_game().cost
    # anti-correlated answers cost on the (1,1) block, correlated elsewhere
    assert cost[1, 1, 0, 0] == 1.0
    assert cost[1, 1, 1, 1] == 1.0
    assert cost[1, 1, 0, 1] == 0.0
    assert cost[0, 0, 0, 1] == 1.0
    assert cost[0, 0, 1, 0] == 1.0
    assert cost[0, 0, 0, 0] == 0.0
    assert np.array_equal(cost.sum(axis=(2, 3)), np.full((2, 2), 2.0))


def test_hardy_table_layout():
    g = make_hardy_game(1.0)
    assert np.array_equal(g.input_dist, np.full((2, 2), 0.25))
    assert np.array_equal(g.cost[0, 0], [[0.0, 1.0], [1.0, 1.0]])
    infs = {tuple(ix) for ix in np.argwhere(np.isinf(g.cost))}
    assert infs == {(0, 1, 0, 1), (1, 0, 1, 0), (1, 1, 0, 0)}
    finite = g.cost[np.isfinite(g.cost)]
    assert finite.max() == 1.0
    # outside block (0,0), every allowed answer is free
    assert g.cost[0, 1, 0, 0] == 0.0
    assert g.cost[1, 1, 1, 1] == 0.0


def test_hardy_penalty_scales():
    g = make_hardy_game(2.0)
    assert np.array_equal(g.cost[0, 0], [[0.0, 2.0], [2.0, 2.0]])
    assert g.cost[1, 1, 0, 0] == INF
    assert g.max_finite_cost() == 2.0


@pytest.mark.parametrize("bad", [0.0, -1.0, INF, math.nan])
def test_hardy_rejects_bad_penalty(bad):
    with pytest.raises(ValueError):
        make_hardy_game(bad)


def test_family_block_formulas():
    phi, w = 0.7, 1.7
    g = make_family_game(FamilyParams(phi, w))
    c, s = math.cos(phi), math.sin(phi)
    assert np.array_equal(g.cost[0, 0], [[0.0, c], [c, s]])
    assert np.array_equal(g.cost[0, 1], [[0.0, 1.0 / w], [w, 0.0]])
    assert np.array_equal(g.cost[1, 0], [[0.0, w], [1.0 / w, 0.0]])
    assert np.array_equal(g.cost[1, 1], [[1.0 / w, 0.0], [0.0, w]])
    assert np.array_equal(g.input_dist, np.full((2, 2), 0.25))


def test_family_w_zero_uses_inf():
    g = make_family_game(FamilyParams(0.3, 0.0))
    assert g.cost[0, 1, 0, 1] == INF
    assert g.cost[1, 0, 1, 0] == INF
    assert g.cost[1, 1, 0, 0] == INF
    assert g.cost[0, 1, 1, 0] == 0.0
    assert g.cost[1, 1, 1, 1] == 0.0


def test_family_chsh_endpoint_is_exact():
    assert np.array_equal(make_family_game(FamilyParams(0.0, 1.0)).cost,
                          make_chsh_game().cost)
    assert np.array_equal(make_family_game(FamilyParams(0.0, 1.0)).input_dist,
                          make_chsh_game().input_dist)


def test_family_hardy_endpoint():
    fam = make_family_game(FamilyParams(math.pi / 4, 0.0))
    hardy = make_hardy_game(math.sqrt(2.0) / 2.0)
    assert np.array_equal(np.isinf(fam.cost), np.isinf(hardy.cost))
    finite = np.isfinite(fam.cost)
    # sin(pi/4) and sqrt(2)/2 differ by one ulp, so bit equality is out of reach
    assert np.max(np.abs(fam.cost[finite] - hardy.cost[finite])) <= 1e-12


@pytest.mark.parametrize("phi,w", [
    (-0.1, 1.0), (math.pi / 2 + 0.1, 1.0), (math.nan, 1.0),
    (0.3, -0.5), (0.3, INF), (0.3, math.nan),
])
def test_family_params_rejected(phi, w):
    with pytest.raises(ValueError):
        FamilyParams(phi, w)


def test_family_params_boundaries_allowed():
    FamilyParams(0.0, 0.0)
    FamilyParams(math.pi / 2, 100.0)


def test_game_arrays_are_frozen():
    g = make_chsh_game()
    with pytest.raises(ValueError):
        g.cost[0, 0, 0, 0] = 5.0
    with pytest.raises(ValueError):
        g.input_dist[0, 0] = 1.0


def test_cap_infinities_hardy():
    g = make_hardy_game(1.0)
    capped = cap_infinities(g, 10.0)
    assert not capped.has_infinite_costs()
    assert capped.cost[0, 1, 0, 1] == 10.0
    assert capped.cost[1, 0, 1, 0] == 10.0
    assert capped.cost[1, 1, 0, 0] == 10.0
    mask = np.isfinite(g.cost)
    assert np.array_equal(capped.cost[mask], g.cost[mask])
    assert np.array_equal(capped.input_dist, g.input_dist)


def test_cap_infinities_noop_on_finite_game():
    g = make_chsh_game()
    assert np.array_equal(cap_infinities(g, 5.0).cost, g.cost)


@pytest.mark.parametrize("cap", [0.5, 1.0, 0.0, -3.0, INF, math.nan])
def test_cap_infinities_rejects_bad_cap(cap):
    # hardy(1) has max finite cost 1, so caps at or below 1 must be refused
    with pytest.raises(ValueError):
        cap_infinities(make_hardy_game(1.0), cap)


def test_auto_cap_values():
    assert auto_cap(make_hardy_game(1.0)) == 2.0
    assert auto_cap(make_chsh_game()) == 2.0
    zero = Game(2, 2, 2, 2, np.full((2, 2), 0.25), np.zeros((2, 2, 2, 2)))
    assert auto_cap(zero) == 1.0


def test_validate_game_accepts_builtins():
    assert validate_game(make_chsh_game()) == []
    assert validate_game(make_hardy_game(3.0)) == []
    assert validate_game(make_family_game(FamilyParams(1.0, 0.0))) == []


def test_validate_game_reports_bad_distribution():
    dist = np.full((2, 2), 0.2)
    g = Game(2, 2, 2, 2, dist, np.zeros((2, 2, 2, 2)))
    problems = validate_game(g)
    assert any("not normalized" in p for p in problems)

    g2 = Game(2, 2, 2, 2, [[0.5, 0.75], [-0.25, 0.0]], np.zeros((2, 2, 2, 2)))
    assert any("invalid input probability at (1,0)" in p for p in validate_game(g2))


def test_validate_game_reports_bad_cost_entries():
    cost = np.zeros((2, 2, 2, 2))
    cost[0, 1, 0, 1] = math.nan
    g = Game(2, 2, 2, 2, np.full((2, 2), 0.25), cost)
    assert any("invalid cost entry at (0,1,0,1)" in p for p in validate_game(g))

    cost2 = np.zeros((2, 2, 2, 2))
    cost2[1, 0, 1, 1] = -INF
    g2 = Game(2, 2, 2, 2, np.full((2, 2), 0.25), cost2)
    assert any("invalid cost entry at (1,0,1,1)" in p for p in validate_game(g2))

    # +inf is a legal sentinel, not an error
    assert validate_game(make_hardy_game(1.0)) == []


def test_validate_game_reports_shape_mismatches():
    g = Game(2, 2, 2, 2, np.full((2, 2), 0.25), np.zeros((2, 2, 2, 3)))
    assert any("cost table has shape" in p for p in validate_game(g))
    g2 = Game(2, 2, 2, 2, np.full((2, 3), 1.0 / 6.0), np.zeros((2, 2, 2, 2)))
    assert any("input distribution has shape" in p for p in validate_game(g2))


def test_validate_game_rejects_bad_sizes():
    g = Game(0, 2, 2, 2, np.full((2, 2), 0.25), np.zeros((2, 2, 2, 2)))
    assert any("alphabet size" in p for p in validate_game(g))


def test_expected_cost_zero_weight_skips_infinity():
    g = make_hardy_game(1.0)
    dist = np.zeros((2, 2))
    dist[0, 0] = 1.0
    lopsided = Game(2, 2, 2, 2, dist, g.cost)
    p = np.zeros((2, 2, 2, 2))
    p[:, :, 0, 0] = 1.0  # puts mass on the (1,1)-block inf, but that input has weight 0
    assert expected_cost(lopsided, p) == 0.0


def test_expected_cost_infinity_threshold():
    g = make_hardy_game(1.0)
    p = np.full((2, 2, 2, 2), 0.25)
    assert expected_cost(g, p) == INF
    # mass at most 1e-12 on a forbidden entry counts as zero
    q = np.zeros((2, 2, 2, 2))
    q[:, :, 1, 1] = 1.0
    q[1, 1, 0, 0] = 1e-13
    assert expected_cost(g, q) == 0.25  # block (0,0) answer (1,1) costs T
    q2 = q.copy()
    q2[1, 1, 0, 0] = 1e-9
    assert expected_cost(g, q2) == INF


def test_expected_cost_shape_check():
    with pytest.raises(ValueError):
        expected_cost(make_chsh_game(), np.zeros((2, 2, 2)))


def test_game_json_round_trip_exact(tmp_path):
    for g in (make_chsh_game(), make_hardy_game(2.0),
              make_family_game(FamilyParams(0.9, 0.0))):
        path = tmp_path / "game.json"
        save_game(g, str(path))
        back = load_game(str(path))
        assert np.array_equal(back.cost, g.cost)
        assert np.array_equal(back.input_dist, g.input_dist)
        assert (back.n_s, back.n_t, back.n_a, back.n_b) == (g.n_s, g.n_t, g.n_a, g.n_b)


def test_game_json_infinities_written_as_strings(tmp_path):
    path = tmp_path / "hardy.json"
    save_game(make_hardy_game(1.0), str(path))
    doc = json.loads(path.read_text())
    assert doc["cost"][0][1][0][1] == "inf"
    assert doc["cost"][0][0][0][1] == 1.0


def test_game_from_dict_rejects_unknown_and_missing_fields():
    doc = game_to_dict(make_chsh_game())
    doc["extra"] = 1
    with pytest.raises(ValueError, match="unknown fields"):
        game_from_dict(doc)
    doc2 = game_to_dict(make_chsh_game())
    del doc2["cost"]
    with pytest.raises(ValueError, match="missing fields"):
        game_from_dict(doc2)


def test_game_from_dict_rejects_a_non_object_document():
    with pytest.raises(ValueError, match="game document must be a JSON object"):
        game_from_dict([1])


def test_game_from_dict_rejects_shape_mismatch():
    doc = game_to_dict(make_chsh_game())
    doc["cost"][0][0][0] = [0.0, 1.0, 2.0]
    with pytest.raises(ValueError, match="cost"):
        game_from_dict(doc)
    doc2 = game_to_dict(make_chsh_game())
    doc2["input_dist"] = [[0.25, 0.25]]
    with pytest.raises(ValueError, match="input_dist"):
        game_from_dict(doc2)


def test_game_from_dict_rejects_bad_entries():
    doc = game_to_dict(make_chsh_game())
    doc["cost"][0][0][0][0] = "infinity"
    with pytest.raises(ValueError, match="cost entry"):
        game_from_dict(doc)
    doc2 = game_to_dict(make_chsh_game())
    doc2["cost"][0][0][0][0] = True
    with pytest.raises(ValueError, match="cost entry"):
        game_from_dict(doc2)
    doc3 = game_to_dict(make_chsh_game())
    doc3["n_a"] = 0
    with pytest.raises(ValueError, match="n_a"):
        game_from_dict(doc3)


def test_game_from_dict_runs_validation():
    doc = game_to_dict(make_chsh_game())
    doc["input_dist"] = [[0.5, 0.5], [0.5, 0.5]]
    with pytest.raises(ValueError, match="not normalized"):
        game_from_dict(doc)


def _nested_error_cases(field, depth, entry, bad_entries):
    """(path, replacement, message) for each list level of a CHSH field, then its entries.

    Every level has length 2; each is probed along (1, 0, 1, 0) with a
    non-list, an empty list and a list of 3.
    """
    cases = []
    for level in range(depth + 1):
        index = (1, 0, 1, 0)[:level]
        where = field + "".join(f"[{i}]" for i in index)
        if level == depth:
            cases += [((field, *index), v, f"{where} must be {entry}, got {v!r}")
                      for v in bad_entries]
        else:
            too_long = [0.0] * 3 if level == depth - 1 else [[0.0]] * 3
            cases += [((field, *index), v, f"{where} must be a list of 2 entries")
                      for v in ("x", [], too_long)]
    return cases


def _replace(doc, path, value):
    *parents, last = path
    for key in parents:
        doc = doc[key]
    doc[last] = value


@pytest.mark.parametrize("path, value, message", (
    _nested_error_cases("input_dist", 2, "an input probability (a finite number)",
                        ("x", True, None, [0.25], math.nan, 10 ** 400))
    + _nested_error_cases("cost", 4, 'a cost entry (a finite number or "inf")',
                          ("infinity", False, -math.inf, [1.0]))
))
def test_game_from_dict_names_field_and_position(path, value, message):
    doc = game_to_dict(make_chsh_game())
    _replace(doc, path, value)
    with pytest.raises(ValueError) as excinfo:
        game_from_dict(doc)
    assert str(excinfo.value) == message


def test_game_json_text_is_pinned():
    assert json.dumps(game_to_dict(make_hardy_game(1.0))) == (
        '{"n_s": 2, "n_t": 2, "n_a": 2, "n_b": 2, '
        '"input_dist": [[0.25, 0.25], [0.25, 0.25]], '
        '"cost": [[[[0.0, 1.0], [1.0, 1.0]], [[0.0, "inf"], [0.0, 0.0]]], '
        '[[[0.0, 0.0], ["inf", 0.0]], [["inf", 0.0], [0.0, 0.0]]]]}'
    )
