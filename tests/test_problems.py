import dataclasses

import numpy as np
import pytest

from lazyoco.problems import (
    SCENARIO_KINDS,
    ProblemBounds,
    RandomQuadratic,
    RoundOracle,
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
    assert (b.L_f, b.L_g, b.G, b.D) == (4.0, 0.79, 1.05, 1.0)


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


def branches(oracles):
    """Each round's branch, read off its constraint: q has W = [[2]], p has W = [[0]]."""
    out = []
    for oracle in oracles:
        w = oracle.constraint_affine[0][0, 0]
        assert w in (0.0, 2.0)
        out.append("q" if w == 2.0 else "p")
    return out


def test_adversary_all_ones_stays_in_q():
    sc = make_scenario("impossibility_adversary", horizon=50)
    assert branches(play(sc, [1.0] * 50)) == ["q"] * 50
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
    oracles = play(sc, [0.5, 1.0])
    # x_bar = 0.5 after round 1 ends I_1, so round 2 opens J_1 with p
    assert branches(oracles) == ["q", "p"]
    assert sc.block_ends == [2]
    oracle = sc.round(3)
    sc.record_action(3, np.array([1.0]))
    g, _ = oracle.constraint(np.array([0.9]))
    assert g[0] == -1.0 or branches([oracle]) == ["q"]
    assert branches([oracle]) == ["q"]  # I_2 opens after J_1 closes


def test_adversary_blocks_mirror_lengths():
    """Every completed J_n repeats p exactly |I_n| times."""
    rng = np.random.default_rng(5)
    sc = make_scenario("impossibility_adversary", horizon=400)
    log = branches(play(sc, rng.uniform(0.0, 1.0, size=400)))
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
    lo, hi = sc.domain.lower, sc.domain.upper
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
    lo, hi = sc.domain.lower, sc.domain.upper
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
    """Sampled ||g|| and ||grad f|| stay within the declared constants.

    Every round also carries the closed forms that the forecasts and the
    comparator read: an affine constraint, and an affine or a quadratic cost.
    """
    for oracle in rounds:
        assert oracle.constraint_affine is not None
        assert (oracle.cost_affine is None) != (oracle.cost_quadratic is None)
    rng = np.random.default_rng(99)
    b = sc.bounds
    for _ in range(1000):
        t = int(rng.integers(1, 41))
        x = sample(sc.domain, rng)
        oracle = rounds[t - 1]
        _, c = oracle.cost(x)
        g, _ = oracle.constraint(x)
        assert np.linalg.norm(g) <= b.G + 1e-9
        assert np.linalg.norm(c) <= b.L_f + 1e-9


@pytest.mark.parametrize("kind", sorted(SCENARIO_KINDS))
def test_rounds_are_drawn_in_order(kind):
    """round(t) draws the next round and refuses every other t, the current one's included."""
    sc, twin = (make_scenario(kind, horizon=10, seed=3) for _ in range(2))

    def draw(scenario, t):
        oracle = scenario.round(t)
        # the adversary reads round t's action before it draws round t+1
        scenario.record_action(t, np.array([0.5]))
        return oracle

    with pytest.raises(ConfigurationError, match="out of order"):
        sc.round(0)
    with pytest.raises(ConfigurationError, match="out of order"):
        sc.round(2)  # skips round 1
    draw(sc, 1)
    with pytest.raises(ConfigurationError, match="out of order"):
        sc.round(1)  # the current round
    draw(sc, 2)
    for t in (2, 1, 4, -1):  # the current round, an earlier one, a skip, nonsense
        with pytest.raises(ConfigurationError, match="out of order"):
            sc.round(t)
    # a refused request leaves the scenario where it was: round 3 comes next,
    # the round a twin that was refused nothing draws
    third = draw(sc, 3)
    for t in (1, 2):
        draw(twin, t)
    expected = draw(twin, 3)

    def parts(oracle):
        return [np.asarray(v).tobytes() for part in (oracle.constraint_affine,
                                                     oracle.cost_affine, oracle.cost_quadratic)
                if part is not None for v in part]

    assert parts(third) == parts(expected)


def test_random_quadratic_origin_feasible_and_reproducible():
    a = make_scenario("random_quadratic", horizon=30, dimension=3, constraints=2, seed=8)
    b = make_scenario("random_quadratic", horizon=30, dimension=3, constraints=2, seed=8)
    x0 = np.zeros(3)
    for t in range(1, 31):
        ga = a.round(t).constraint(x0)[0]
        gb = b.round(t).constraint(x0)[0]
        assert np.array_equal(ga, gb)
        assert np.all(ga <= 1e-12)  # offsets keep the origin feasible


def random_quadratic_reference(n, d, seed, params):
    """random_quadratic's rounds drawn one at a time: three `uniform` calls and a row norm."""
    rng = np.random.default_rng(seed)
    cs, ms, os_ = params["center_scale"], params["matrix_scale"], params["offset_scale"]
    while True:
        u = rng.uniform(-cs, cs, size=n)
        A = rng.uniform(-1.0, 1.0, size=(d, n))
        norms = np.linalg.norm(A, axis=1, keepdims=True)
        A = A * (ms / np.maximum(norms, 1.0))
        b = rng.uniform(0.0, os_, size=d)
        yield u, A, -b


def same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("params", [
    None,
    {"center_scale": 1.7, "matrix_scale": 0.35, "offset_scale": 2.5},
    {"center_scale": 0.0, "offset_scale": 0.0},
])
@pytest.mark.parametrize("n, d", [(1, 2), (3, 2), (5, 3), (16, 16)])
def test_random_quadratic_blocks_equal_one_round_draws(n, d, params):
    """Rounds drawn in blocks are bit-equal to drawing each round alone, across
    block ends (n = d = 16 caps a block below 256 rounds), and a kept oracle
    still reads its own round after later blocks are drawn."""
    sc = make_scenario("random_quadratic", horizon=600, dimension=n, constraints=d,
                       seed=5, params=params)
    reference = random_quadratic_reference(n, d, 5, sc.params)
    horizon = 2 * RandomQuadratic._BLOCK + 3
    kept = None
    for t in range(1, horizon + 1):
        oracle = sc.round(t)
        u, A, neg_b = next(reference)
        W, v = oracle.constraint_affine
        w, c, b = oracle.cost_quadratic
        assert (w, b) == (1.0, 0.0)
        assert same_bits(c, u) and same_bits(W, A) and same_bits(v, neg_b), t
        if t == 1:
            kept, first = oracle, (u, A, neg_b)
        if t == 300:
            u, A, neg_b = first
            assert same_bits(kept.cost_quadratic[1], u)
            assert same_bits(kept.constraint_affine[0], A)
            assert same_bits(kept.constraint_affine[1], neg_b)


def one_dimensional_reference(kind, seed, amplitude):
    """(W, u) of each round of a 1-D kind that draws, one scalar `uniform` call a round."""
    rng = np.random.default_rng(seed)
    t = 0
    while True:
        t += 1
        if kind == "stochastic_constraint":
            active = rng.uniform() < 0.1 / (t + 1.0) ** 0.05
            yield ([[1.0]], [0.0]) if active else ([[0.0]], [-0.01])
        else:
            yield [[1.0]], [float(rng.uniform(-amplitude, amplitude))]


@pytest.mark.parametrize("kind, amplitude", [("stochastic_constraint", None),
                                             ("perturbed_linear", 0.1),
                                             ("perturbed_linear", 0.0),
                                             ("perturbed_linear", 2.5)])
def test_one_dimensional_blocks_equal_one_round_draws(kind, amplitude):
    """The 1-D kinds that draw, drawn in blocks, are bit-equal over 515 rounds
    (two block refills) to drawing each round alone, and a kept oracle still
    reads its own round after later blocks are drawn."""
    params = None if amplitude is None else {"amplitude": amplitude}
    sc = make_scenario(kind, horizon=600, seed=11, params=params)
    reference = one_dimensional_reference(kind, 11, amplitude)
    assert 2 * sc._BLOCK + 3 == 515
    kept = None
    for t in range(1, 516):
        oracle = sc.round(t)
        W, u = next(reference)
        assert same_bits(oracle.constraint_affine[0], W), t
        assert same_bits(oracle.constraint_affine[1], u), t
        c, b = oracle.cost_affine
        assert np.array_equal(c, [sc.cost_slope if params else -2.0]) and b == 0.0
        if t == 1:
            kept, first = oracle, u
        if t == 300:
            assert same_bits(kept.constraint_affine[1], first)


@pytest.mark.parametrize("oracle", [
    affine_round([-4.0], 0.5, [[0.79]], [0.26]),
    affine_round([1.5, -2.0, 0.25], 0.0, [[1.0, 0.0, 0.0]], [0.0]),
    RoundOracle(constraint_affine=([[1.0, 2.0, 3.0]], [0.5]),
                cost_quadratic=(1.0, [0.3, -0.8, 0.0], 0.0)),
    RoundOracle(constraint_affine=([[1.0, 2.0, 3.0]], [0.5]),
                cost_quadratic=(2.5, [-1.7, 0.2, 0.9], -3.0)),
], ids=["affine_1d", "affine_3d", "quadratic", "quadratic_weighted"])
def test_cost_gradient_is_the_gradient_cost_returns(oracle):
    n = len(oracle.constraint_affine[0][0])
    rng = np.random.default_rng(1)
    for x in [np.zeros(n), -np.ones(n), *rng.uniform(-1.0, 1.0, size=(20, n))]:
        assert same_bits(oracle.cost_gradient(x), oracle.cost(x)[1])


def test_problem_bounds_validation():
    with pytest.raises(ConfigurationError):
        ProblemBounds(L_f=0.0, L_g=1.0, G=1.0, D=1.0, E_m=1.0, Delta_m=1.0)
    with pytest.raises(ConfigurationError):
        ProblemBounds(L_f=1.0, L_g=1.0, G=1.0, D=1.0, E_m=-0.1, Delta_m=1.0)
    b = ProblemBounds(L_f=1.0, L_g=1.0, G=1.0, D=1.0, E_m=0.0, Delta_m=0.0)
    assert dataclasses.replace(b, G=2.0).G == 2.0
    # replace runs the same checks as the constructor
    with pytest.raises(ConfigurationError):
        dataclasses.replace(b, G=-1.0)


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
