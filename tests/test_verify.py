"""Re-verification of solver artifacts: each rejection, on a tampered output."""

import pytest

from sinrsched import (
    GenConfig,
    Instance,
    Link,
    MetricSpace,
    Solution,
    StepUtility,
    gen_random,
    solve_flexible,
    solve_limited,
)
from sinrsched import model
from sinrsched.verify import verify_flexible_run, verify_schedule, verify_solution

STEP = {"family": "step", "steps": 3, "gamma_max": 32.0, "value_max": 2.0}


def _instance():
    return gen_random(GenConfig(
        n=12, seed=4, area=400.0, d_range=(1.0, 40.0), utility=STEP, p_max=1e4,
    ))


def _no_power(inst, data):
    lid = data["selected"][0]
    del data["powers"][str(lid)]
    return inst, f"link {lid}: no power assigned"


def _negative_power(inst, data):
    lid = data["selected"][0]
    data["powers"][str(lid)] = -1.0
    return inst, f"link {lid}: negative power"


def _power_over_cap(inst, data):
    lid = data["selected"][0]
    data["powers"][str(lid)] = 2e4
    return inst, f"link {lid}: power 20000.0 exceeds cap 10000.0"


def _miscounted_objective(inst, data):
    data["objective"] = 3.0
    return inst, "objective 3.0 does not equal the selected count 2"


def _threshold_above_sinr(inst, data):
    level = data["levels"][-1]
    lid = level["solution"]["selected"][0]
    level["thresholds"][str(lid)] = 1e6
    sinr = level["solution"]["sinr"][str(lid)]
    return inst, f"level {level['i']}: link {lid}: SINR {sinr:.9g} below threshold 1000000"


def _link_without_utility(inst, data):
    # a silent link with neither threshold nor utility passes every check of
    # its level's solution; only the objective cannot be scored
    lid = len(inst.links)
    silent = Link(lid, inst.links[0].sender, inst.links[1].receiver)
    inst = Instance(inst.metric, inst.alpha, inst.noise, inst.links + (silent,), inst.p_max)
    sol = data["levels"][0]["solution"]
    sol["selected"].append(lid)
    sol["powers"][str(lid)] = sol["sinr"][str(lid)] = 0.0
    sol["objective"] = float(len(sol["selected"]))
    return inst, "level 0: a selected link has no utility"


@pytest.mark.parametrize("solve, tamper", [
    (solve_limited, _no_power),
    (solve_limited, _negative_power),
    (solve_limited, _power_over_cap),
    (solve_limited, _miscounted_objective),
    (lambda inst: solve_flexible(inst, mode="limited"), _threshold_above_sinr),
    (lambda inst: solve_flexible(inst, mode="limited"), _link_without_utility),
], ids=["no-power", "negative-power", "power-over-cap", "miscounted-objective",
        "threshold-above-sinr", "link-without-utility"])
def test_tampered_artifact_is_rejected(solve, tamper):
    inst = _instance()
    data = solve(inst).to_dict()
    check = (verify_flexible_run if "levels" in data
             else lambda inst, data: verify_solution(inst, Solution.from_dict(data)))
    assert check(inst, data) == []
    inst, problem = tamper(inst, data)
    assert problem in check(inst, data)


def test_a_fault_in_the_solvers_pair_matrix_is_reported(monkeypatch):
    # the checkers measure their own pairs: with the solvers' cached matrix
    # transposed, every pair of selected links reads the wrong distances,
    # and the stored SINRs disagree with the re-evaluated ones
    inst = _instance()
    assert len(inst.links) <= model._DENSE
    measured = Instance._cross_alpha.func
    monkeypatch.setattr(Instance, "_cross_alpha", property(lambda self: measured(self).T))
    solution = solve_limited(inst)
    assert len(solution.selected) >= 2
    problems = verify_solution(inst, solution)
    assert any("but re-evaluation gives" in problem for problem in problems), problems


def _one_step_link(power, stored_sinr):
    # d^alpha = 1 and noise 1, so the SINR is the power
    link = Link(0, 0, 1, utility=StepUtility(((4.0, 1.0),)), demand=1.0)
    inst = Instance(MetricSpace.euclidean([[0.0], [1.0]]), 2.0, 1.0, (link,))
    slot = {"selected": [0], "powers": {"0": power}, "sinr": {"0": stored_sinr},
            "objective": 1.0, "algorithm": "unlimited"}
    return inst, {"scheme": 2, "fulfilled": True, "slots": [slot]}


def test_schedule_is_credited_at_re_evaluated_sinrs():
    assert verify_schedule(*_one_step_link(4.0, 4.0)) == []
    # the stored SINR 4.0 is within SINR_MATCH_RTOL of the re-evaluated
    # 3.9999999, which reaches no step
    assert verify_schedule(*_one_step_link(3.9999999, 4.0)) == [
        "link 0: delivered 0 of demand 1"
    ]
    # a slot that fails its own check delivers nothing
    assert verify_schedule(*_one_step_link(1.0, 4.0)) == [
        "slot 0: link 0: stored SINR 4 but re-evaluation gives 1",
        "link 0: delivered 0 of demand 1",
    ]
