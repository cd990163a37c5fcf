import numpy as np
import pytest

from lazyoco.problems import (
    SCENARIO_KINDS,
    ProblemBounds,
    affine_round,
    make_scenario,
)
from lazyoco.sets import ConfigurationError

from helpers import draw_rounds, sample


def test_alternating_round_values():
    sc = make_scenario("alternating_linear", horizon=10)
    odd, even, third = draw_rounds(sc, 3)
    f, _ = even.cost(np.array([1.0]))
    g, _ = even.constraint(np.array([1.0]))
    assert f == -4.0
    assert g[0] == pytest.approx(1.05)
    f, _ = odd.cost(np.array([0.0]))
    g, _ = odd.constraint(np.array([0.0]))
    assert f == 0.0
    assert g[0] == pytest.approx(-0.135)
    _, grad = third.cost(np.array([0.37]))
    assert np.array_equal(grad, [-1.0])


def test_alternating_declared_bounds():
    sc = make_scenario("alternating_linear", horizon=4)
    b = sc.bounds
    assert (b.L_f, b.L_g, b.G, b.F, b.D) == (4.0, 0.79, 1.05, 4.0, 1.0)


def test_stochastic_branch_rule_matches_rng_stream():
    """One uniform draw per round, active iff draw < 0.1/(t+1)^0.05."""
    sc = make_scenario("stochastic_constraint", horizon=300, seed=42)
    rng = np.random.default_rng(42)
    for t in range(1, 301):
        expect = rng.uniform() < 0.1 / (t + 1.0) ** 0.05
        oracle = sc.round(t)
        g, jac = oracle.constraint(np.array([0.5]))
        if expect:
            assert g[0] == 0.5 and jac[0, 0] == 1.0
        else:
            assert g[0] == -0.01 and jac[0, 0] == 0.0
        _, grad = oracle.cost(np.array([0.5]))
        assert np.array_equal(grad, [-2.0])


def test_stochastic_determinism():
    a = make_scenario("stochastic_constraint", horizon=200, seed=9)
    b = make_scenario("stochastic_constraint", horizon=200, seed=9)
    seq_a = [a.round(t).constraint(np.array([1.0]))[0][0] for t in range(1, 201)]
    seq_b = [b.round(t).constraint(np.array([1.0]))[0][0] for t in range(1, 201)]
    assert seq_a == seq_b


def play(sc, actions):
    """Drive an adaptive scenario: request round t, then record the action."""
    oracles = []
    for t, x in enumerate(actions, start=1):
        oracles.append(sc.round(t))
        sc.record_action(t, np.array([x]))
    return oracles


def test_adversary_all_ones_stays_in_q():
    sc = make_scenario("impossibility_adversary", horizon=50)
    play(sc, [1.0] * 50)
    assert sc.branch_log == ["q"] * 50
    assert sc.block_ends == []


def test_adversary_first_round_is_q():
    sc = make_scenario("impossibility_adversary", horizon=5)
    oracle = sc.round(1)
    g, jac = oracle.constraint(np.array([0.25]))
    # q = (-2x, 2x - 1)
    assert g[0] == pytest.approx(-0.5) and jac[0, 0] == 2.0
    f, grad = oracle.cost(np.array([0.25]))
    assert f == pytest.approx(-0.5) and grad[0] == -2.0


def test_adversary_switches_to_p_when_mean_drops():
    sc = make_scenario("impossibility_adversary", horizon=10)
    play(sc, [0.5, 1.0])
    # x_bar = 0.5 after round 1 ends I_1, so round 2 opens J_1 with p
    assert sc.branch_log == ["q", "p"]
    assert sc.block_ends == [2]
    oracle = sc.round(3)
    sc.record_action(3, np.array([1.0]))
    g, _ = oracle.constraint(np.array([0.9]))
    assert g[0] == -1.0 or sc.branch_log[2] == "q"
    assert sc.branch_log[2] == "q"  # I_2 opens after J_1 closes


def test_adversary_blocks_mirror_lengths():
    """Every completed J_n repeats p exactly |I_n| times."""
    rng = np.random.default_rng(5)
    sc = make_scenario("impossibility_adversary", horizon=400)
    play(sc, rng.uniform(0.0, 1.0, size=400))
    log = sc.branch_log
    runs = []
    for mark in log:
        if runs and runs[-1][0] == mark:
            runs[-1][1] += 1
        else:
            runs.append([mark, 1])
    assert runs[0][0] == "q"
    for i in range(1, len(runs) - 1, 2):
        assert runs[i][0] == "p"
        assert runs[i][1] == runs[i - 1][1]
    assert len(sc.block_ends) >= 1
    # block_ends mark the last round of each completed J_n
    ends = []
    pos = 0
    for mark, length in runs:
        pos += length
        if mark == "p":
            ends.append(pos)
    assert sc.block_ends == ends[:len(sc.block_ends)]


def test_adversary_requires_recorded_actions():
    sc = make_scenario("impossibility_adversary", horizon=10)
    sc.round(1)
    with pytest.raises(ConfigurationError):
        sc.round(2)  # round 1's action was never recorded


def test_perturbed_additive_shift_and_jacobian():
    sc = make_scenario("perturbed_linear", horizon=50, seed=1)
    rounds = draw_rounds(sc, 17)
    for t in (1, 2, 17):
        oracle = rounds[t - 1]
        b_t = oracle.constraint_affine[1][0]
        assert abs(b_t) <= sc.amplitude
        g, jac = oracle.constraint(np.array([0.0]))
        assert g[0] == pytest.approx(b_t)
        assert jac[0, 0] == 1.0  # perturbation-free Jacobian
        g1, _ = oracle.constraint(np.array([0.25]))
        assert g1[0] == pytest.approx(0.25 + b_t)


def test_perturbed_fixed_shift_example():
    oracle = affine_round([-2.0], 0.0, [[1.0]], [0.5])
    g, _ = oracle.constraint(np.array([0.0]))
    assert g[0] == 0.5


def test_perturbed_determinism():
    a = make_scenario("perturbed_linear", horizon=100, seed=12)
    b = make_scenario("perturbed_linear", horizon=100, seed=12)
    sa = [o.constraint_affine[1][0] for o in draw_rounds(a, 100)]
    sb = [o.constraint_affine[1][0] for o in draw_rounds(b, 100)]
    assert sa == sb


def scenario_instances():
    """(scenario, its rounds 1..40 drawn once in order) for every kind."""
    out = []
    for sc in (make_scenario("alternating_linear", horizon=40),
               make_scenario("stochastic_constraint", horizon=40, seed=3),
               make_scenario("perturbed_linear", horizon=40, seed=4),
               make_scenario("random_quadratic", horizon=40, dimension=2, constraints=2,
                             seed=5)):
        out.append(pytest.param(sc, draw_rounds(sc, 40), id=sc.kind))
    sc = make_scenario("impossibility_adversary", horizon=40)
    rng = np.random.default_rng(0)
    out.append(pytest.param(sc, play(sc, rng.uniform(0.0, 1.0, size=40)), id=sc.kind))
    return out


@pytest.mark.parametrize("sc, rounds", scenario_instances())
def test_convexity_spot_check(sc, rounds):
    rng = np.random.default_rng(77)
    n = sc.dimension
    lo, hi = sc.domain.bounding_box()
    for t in (1, 7, 24):
        oracle = rounds[t - 1]
        for _ in range(100):
            x = rng.uniform(lo, hi)
            y = rng.uniform(lo, hi)
            al = rng.uniform()
            m = al * x + (1.0 - al) * y
            fx = oracle.cost(x)[0]
            fy = oracle.cost(y)[0]
            fm = oracle.cost(m)[0]
            assert fm <= al * fx + (1.0 - al) * fy + 1e-10
            gm = oracle.constraint(m)[0]
            gmix = al * oracle.constraint(x)[0] + (1.0 - al) * oracle.constraint(y)[0]
            assert np.all(gm <= gmix + 1e-10)


@pytest.mark.parametrize("sc, rounds", scenario_instances())
def test_subgradient_inequality(sc, rounds):
    rng = np.random.default_rng(13)
    lo, hi = sc.domain.bounding_box()
    for t in (2, 9):
        oracle = rounds[t - 1]
        for _ in range(50):
            x = rng.uniform(lo, hi)
            y = rng.uniform(lo, hi)
            fx, cx = oracle.cost(x)
            fy, _ = oracle.cost(y)
            assert fy >= fx + float(np.asarray(cx) @ (y - x)) - 1e-10
            gx, jx = oracle.constraint(x)
            gy, _ = oracle.constraint(y)
            assert np.all(np.asarray(gy) >= np.asarray(gx)
                          + np.asarray(jx) @ (y - x) - 1e-10)


@pytest.mark.parametrize("sc, rounds", scenario_instances())
def test_bound_consistency(sc, rounds):
    """Sampled |f|, ||g||, ||grad f|| stay within the declared constants."""
    rng = np.random.default_rng(99)
    b = sc.bounds
    for _ in range(1000):
        t = int(rng.integers(1, 41))
        x = sample(sc.domain, rng)
        oracle = rounds[t - 1]
        f, c = oracle.cost(x)
        g, _ = oracle.constraint(x)
        assert abs(f) <= b.F + 1e-9
        assert np.linalg.norm(g) <= b.G + 1e-9
        assert np.linalg.norm(c) <= b.L_f + 1e-9


@pytest.mark.parametrize("kind", sorted(k for k, cls in SCENARIO_KINDS.items()
                                         if not cls.adaptive))
def test_rounds_are_drawn_in_order(kind):
    """round(t) gives the current round again or draws the next; nothing else."""
    sc = make_scenario(kind, horizon=10, seed=3)
    with pytest.raises(ConfigurationError, match="out of order"):
        sc.round(0)
    with pytest.raises(ConfigurationError, match="out of order"):
        sc.round(2)  # skips round 1
    first = sc.round(1)
    assert sc.round(1) is first
    second = sc.round(2)
    assert sc.round(2) is second
    for t in (1, 4, -1):  # an earlier round, a skip, nonsense
        with pytest.raises(ConfigurationError, match="out of order"):
            sc.round(t)
    # a refused request leaves the scenario where it was: round 3 comes next
    assert sc.round(2) is second
    assert sc.round(3) is sc.round(3)


def test_random_quadratic_origin_feasible_and_reproducible():
    a = make_scenario("random_quadratic", horizon=30, dimension=3, constraints=2, seed=8)
    b = make_scenario("random_quadratic", horizon=30, dimension=3, constraints=2, seed=8)
    x0 = np.zeros(3)
    for t in range(1, 31):
        ga = a.round(t).constraint(x0)[0]
        gb = b.round(t).constraint(x0)[0]
        assert np.array_equal(ga, gb)
        assert np.all(ga <= 1e-12)  # offsets keep the origin feasible


def test_problem_bounds_validation():
    with pytest.raises(ConfigurationError):
        ProblemBounds(L_f=0.0, L_g=1.0, G=1.0, D=1.0, F=1.0, E_m=1.0, Delta_m=1.0)
    with pytest.raises(ConfigurationError):
        ProblemBounds(L_f=1.0, L_g=1.0, G=1.0, D=1.0, F=1.0, E_m=-0.1, Delta_m=1.0)
    b = ProblemBounds(L_f=1.0, L_g=1.0, G=1.0, D=1.0, F=1.0, E_m=0.0, Delta_m=0.0)
    assert b.replace(G=2.0).G == 2.0


def test_make_scenario_validation():
    assert set(SCENARIO_KINDS) == {
        "alternating_linear", "stochastic_constraint", "impossibility_adversary",
        "perturbed_linear", "random_quadratic",
    }
    with pytest.raises(ConfigurationError):
        make_scenario("nonexistent", horizon=10)
    with pytest.raises(ConfigurationError):
        make_scenario("alternating_linear", horizon=10, dimension=2)
    with pytest.raises(ConfigurationError):
        make_scenario("perturbed_linear", horizon=10, params={"bogus": 1.0})
