"""Rounds in closed form and the scenario generators.

A scenario emits one :class:`RoundOracle` per round t = 1, 2, ...  Every
round is an affine constraint g_t(x) = W x + u with an affine cost
<c, x> + b or a shifted quadratic cost w/2 ||x - u||^2 + b: the class of
problems whose offline comparator is solved exactly.  The oracle holds
these descriptors and nothing else; its `cost` and `constraint` methods
evaluate them.

Rounds are drawn once, in order, and never replayed: `round(t)` gives
the next round when t is one past the current one.  Any other t, the
current round's included, is refused with ConfigurationError, so memory
stays flat in the horizon and whoever needs a round again (the offline
comparator, a test) keeps what it needs itself.  The kinds that draw
(`stochastic_constraint`, `perturbed_linear`, `random_quadratic`) draw
ahead in blocks of up to 256 rounds with one `Generator.random` call,
bit-equal to drawing each round alone.

Adaptive scenarios (the regret/violation lower-bound opponent) consume
the player's actions through :meth:`record_action` before emitting the
next round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sets import Box, ConfigurationError

__all__ = [
    "ProblemBounds",
    "RoundOracle",
    "AlternatingLinear",
    "StochasticConstraint",
    "ImpossibilityAdversary",
    "PerturbedLinear",
    "RandomQuadratic",
    "make_scenario",
    "SCENARIO_KINDS",
]


@dataclass(frozen=True)
class ProblemBounds:
    """A-priori constants of the problem family.

    L_f, L_g   Lipschitz constants of the costs and of each constraint row.
    G          uniform bound on ||g_t(x)|| over the feasible set.
    D          norm bound on the feasible set.
    E_m        worst-case cost-gradient prediction error.
    Delta_m    worst-case constraint-Jacobian prediction error.
    """

    L_f: float
    L_g: float
    G: float
    D: float
    E_m: float
    Delta_m: float

    def __post_init__(self):
        for name in ("L_f", "L_g", "G", "D"):
            v = float(getattr(self, name))
            if not (np.isfinite(v) and v > 0.0):
                raise ConfigurationError(f"bound {name} must be positive, got {v}")
            object.__setattr__(self, name, v)
        # the dual step divides by sqrt(4 G^2 + ...) and the regret certificate squares D
        if not (math.isfinite(4.0 * self.G * self.G) and math.isfinite(self.D * self.D)):
            raise ConfigurationError(f"bounds G = {self.G:.3g} and D = {self.D:.3g} must keep "
                                     "4 G^2 and D^2 finite")
        for name in ("E_m", "Delta_m"):
            v = float(getattr(self, name))
            if not (np.isfinite(v) and v >= 0.0):
                raise ConfigurationError(f"bound {name} must be nonnegative, got {v}")
            object.__setattr__(self, name, v)


@dataclass
class RoundOracle:
    """One round in closed form; the constraint and exactly one cost are given.

    constraint_affine (W, u)    with g(x) = W x + u
    cost_affine       (c, b)    with f(x) = <c, x> + b
    cost_quadratic    (w, u, b) with f(x) = w/2 ||x - u||^2 + b

    cost(x) -> (f(x), grad f(x)); cost_gradient(x) -> grad f(x);
    constraint(x) -> (g(x), W).
    """

    constraint_affine: tuple[np.ndarray, np.ndarray]
    cost_affine: tuple[np.ndarray, float] | None = None
    cost_quadratic: tuple[float, np.ndarray, float] | None = None

    def __post_init__(self):
        if self.constraint_affine is None:
            raise ConfigurationError("the comparator needs an affine constraint")
        W, u = self.constraint_affine
        self.constraint_affine = (np.asarray(W, dtype=float), np.asarray(u, dtype=float))
        if (self.cost_affine is None) == (self.cost_quadratic is None):
            raise ConfigurationError("the comparator needs an affine or shifted-quadratic "
                                     "cost, given as exactly one descriptor")
        if self.cost_affine is not None:
            c, b = self.cost_affine
            self.cost_affine = (np.asarray(c, dtype=float), float(b))
        else:
            w, c, b = self.cost_quadratic
            self.cost_quadratic = (float(w), np.asarray(c, dtype=float), float(b))

    @classmethod
    def _drawn(cls, constraint_affine, cost_quadratic) -> RoundOracle:
        """A quadratic round from float64 arrays and floats a scenario drew itself,
        taken as they are; every other caller goes through the checks above."""
        oracle = object.__new__(cls)
        oracle.constraint_affine, oracle.cost_quadratic = constraint_affine, cost_quadratic
        return oracle

    def cost(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        if self.cost_affine is not None:
            c, b = self.cost_affine
            return float(c.dot(x)) + b, c
        w, u, b = self.cost_quadratic
        diff = x - u
        return 0.5 * w * float(diff.dot(diff)) + b, w * diff

    def cost_gradient(self, x: np.ndarray) -> np.ndarray:
        """grad f(x), the second entry of cost(x), without the cost value."""
        if self.cost_affine is not None:
            return self.cost_affine[0]
        w, u, _ = self.cost_quadratic
        return w * (x - u)

    def constraint(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        W, u = self.constraint_affine
        return W @ x + u, W


def finite_number(v) -> bool:
    """Whether v is a JSON number with a finite float value (json.load admits NaN)."""
    try:
        return not isinstance(v, bool) and isinstance(v, (int, float)) and math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        return False


def _scenario_params(kind: str, params: dict | None, defaults: dict) -> dict:
    """`defaults` overridden by `params`, whose keys and values are checked here.

    An unknown key, or a value that is not a finite number (bools
    included), is refused with a message naming the param.
    """
    given = {} if params is None else params
    if not isinstance(given, dict):
        raise ConfigurationError(f"{kind} params must be a JSON object")
    unknown = sorted(set(given) - set(defaults))
    if unknown:
        raise ConfigurationError(f"unknown {kind} params: {unknown}")
    for key, v in given.items():
        if not finite_number(v):
            raise ConfigurationError(f"{kind} param {key} must be a finite number, got {v!r}")
    return {key: float(given.get(key, v)) for key, v in defaults.items()}


def affine_round(c, cb, W, u) -> RoundOracle:
    return RoundOracle(cost_affine=(c, cb), constraint_affine=(W, u))


def _uniform(r: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """What `Generator.uniform(lo, hi)` returns from the doubles r it draws."""
    return lo + (hi - lo) * r


class _Scenario:
    """The arguments, params and in-order draw rule shared by every scenario kind.

    A kind sets `kind`, the `defaults` of its params (floats a config may
    override), a `_setup()` that builds its `domain`, its `bounds` and its
    draw state from the shape and `self.params`, and its own `round(t)`,
    which first lets `_advance(t)` refuse any t but the next.  A kind that
    is not `one_dimensional` takes any dimension and constraint count >= 1.
    """

    adaptive = False
    one_dimensional = True
    defaults: dict = {}
    _BLOCK = 256  # rounds drawn per generator call, by a kind that draws
    # so a wide round does not multiply a block's memory by _BLOCK
    _BLOCK_DOUBLES = 1 << 16
    _t = 0  # the current round; 0 before the first draw

    def __init__(self, horizon: int, dimension: int = 1, constraints: int = 1,
                 seed: int = 0, params: dict | None = None):
        if self.one_dimensional and (dimension != 1 or constraints != 1):
            raise ConfigurationError(f"{self.kind} is one-dimensional with one constraint")
        if dimension < 1 or constraints < 1:
            raise ConfigurationError("dimension and constraints must be >= 1")
        if horizon < 1:
            raise ConfigurationError("horizon must be >= 1")
        if seed < 0:
            raise ConfigurationError("scenario seed must be >= 0")
        self.horizon = int(horizon)
        self.dimension = int(dimension)
        self.n_constraints = int(constraints)
        self.seed = int(seed)
        self.params = _scenario_params(self.kind, params, self.defaults)
        self._setup()

    @classmethod
    def _block_rows(cls, width: int) -> int:
        """Rounds drawn per block when a round takes `width` doubles."""
        return max(1, min(cls._BLOCK, cls._BLOCK_DOUBLES // width))

    def _advance(self, t: int) -> None:
        """Move to round t, which must be the next; any other t is refused."""
        if t != self._t + 1:
            raise ConfigurationError(f"round {t} requested out of order: {self.kind} draws "
                                     f"each round once, in order, and is at round {self._t}")
        self._t = t

    def record_action(self, t: int, x: np.ndarray) -> None:
        pass


class AlternatingLinear(_Scenario):
    """Two linear phases on [-1, 1] with a single alternating constraint.

    Even t: f_t(x) = -4x, g_t(x) = 0.79x + 0.26.
    Odd  t: f_t(x) = -x,  g_t(x) = 0.64x - 0.135.
    """

    kind = "alternating_linear"

    def _setup(self):
        self.domain = Box(np.array([-1.0]), np.array([1.0]))
        self.bounds = ProblemBounds(L_f=4.0, L_g=0.79, G=1.05, D=1.0,
                                    E_m=8.0, Delta_m=1.58)
        self._even = affine_round([-4.0], 0.0, [[0.79]], [0.26])
        self._odd = affine_round([-1.0], 0.0, [[0.64]], [-0.135])

    def round(self, t: int) -> RoundOracle:
        self._advance(t)
        return self._even if t % 2 == 0 else self._odd


class StochasticConstraint(_Scenario):
    """Linear cost with a constraint that bites at random rounds.

    f_t(x) = -2x on [-1, 1].  With probability 0.1 / (t+1)^0.05 the round
    constraint is g_t(x) = x, otherwise g_t(x) = -0.01 (always satisfied).
    Each round consumes exactly one uniform variate, in round order, so
    runs with the same seed see the same branch sequence regardless of
    how far they go; they are drawn `_BLOCK` at a time.
    """

    kind = "stochastic_constraint"

    def _setup(self):
        self.domain = Box(np.array([-1.0]), np.array([1.0]))
        self.bounds = ProblemBounds(L_f=2.0, L_g=1.0, G=1.0, D=1.0,
                                    E_m=4.0, Delta_m=2.0)
        self._rng = np.random.default_rng(self.seed)
        self._active = affine_round([-2.0], 0.0, [[1.0]], [0.0])
        self._slack = affine_round([-2.0], 0.0, [[0.0]], [-0.01])

    def round(self, t: int) -> RoundOracle:
        self._advance(t)
        i = (t - 1) % self._BLOCK
        if i == 0:
            # what `uniform()` returns on [0, 1): the double it draws
            self._draws = self._rng.random(self._BLOCK).tolist()
        p = 0.1 / (t + 1.0) ** 0.05
        return self._active if self._draws[i] < p else self._slack


class ImpossibilityAdversary(_Scenario):
    """Adaptive opponent forcing max(R_t, V_t) = Omega(t) on [0, 1].

    Two round types: p = (f(x) = -x, g(x) = -1) and q = (f(x) = -2x,
    g(x) = 2x - 1).  Rounds are grouped into blocks I_1, J_1, I_2, ...
    During I_n the opponent plays q until the first round m whose running
    action mean drops below 3/4; J_n then repeats p for |I_n| rounds.
    The decision for round t+1 uses only the mean of x_1..x_t, so no
    lookahead into the player's current move is needed.  Ends of J-blocks
    are recorded in `block_ends`.
    """

    kind = "impossibility_adversary"
    adaptive = True

    def _setup(self):
        self.domain = Box(np.array([0.0]), np.array([1.0]))
        self.bounds = ProblemBounds(L_f=2.0, L_g=2.0, G=1.0, D=1.0,
                                    E_m=4.0, Delta_m=4.0)
        self._p = affine_round([-1.0], 0.0, [[0.0]], [-1.0])
        self._q = affine_round([-2.0], 0.0, [[2.0]], [-1.0])
        self._sum_x = 0.0
        self._n_seen = 0
        self._mode = "I"
        self._block_start = 1
        self._j_left = 0
        self.block_ends: list[int] = []

    def _next_branch(self, t: int) -> str:
        # t > block start >= 1, so actions 1..t-1 are recorded and the mean is defined
        if self._mode == "I" and t > self._block_start and self._sum_x / self._n_seen < 0.75:
            # I_n ended at t-1; mirror its length with p-rounds
            self._mode = "J"
            self._j_left = (t - 1) - self._block_start + 1
        branch = "q" if self._mode == "I" else "p"
        if self._mode == "J":
            self._j_left -= 1
            if self._j_left == 0:
                self.block_ends.append(t)
                self._mode = "I"
                self._block_start = t + 1
        return branch

    def round(self, t: int) -> RoundOracle:
        if t == self._t + 1 and self._n_seen < self._t:
            raise ConfigurationError(f"round {t} requested before action {t - 1} was recorded")
        self._advance(t)
        return self._q if self._next_branch(t) == "q" else self._p

    def record_action(self, t: int, x: np.ndarray) -> None:
        if t != self._n_seen + 1:
            raise ConfigurationError("actions must be recorded in round order")
        self._sum_x += float(np.asarray(x).reshape(-1)[0])
        self._n_seen += 1


class PerturbedLinear(_Scenario):
    """Fixed constraint g(x) = x plus a bounded per-round perturbation b_t.

    f_t(x) = slope * x on [-1, 1]; g_t(x) = x + b_t with b_t drawn
    i.i.d. uniform from [-amplitude, amplitude], `_BLOCK` rounds at a time.
    The fixed part and the perturbation are exposed separately so learners
    may aggregate multipliers against the fixed part alone.
    """

    kind = "perturbed_linear"
    defaults = {"amplitude": 0.1, "cost_slope": -2.0}

    def _setup(self):
        self.amplitude = self.params["amplitude"]
        self.cost_slope = self.params["cost_slope"]
        if self.amplitude < 0.0:
            raise ConfigurationError("perturbed_linear amplitude must be nonnegative")
        self.domain = Box(np.array([-1.0]), np.array([1.0]))
        lf = max(abs(self.cost_slope), 1e-12)
        self.bounds = ProblemBounds(L_f=lf, L_g=1.0, G=1.0 + self.amplitude, D=1.0,
                                    E_m=2.0 * lf, Delta_m=2.0)
        self.base_affine = (np.array([[1.0]]), np.array([0.0]))
        self._rng = np.random.default_rng(self.seed)
        self._slope, self._row = np.array([self.cost_slope]), np.array([[1.0]])

    def round(self, t: int) -> RoundOracle:
        self._advance(t)
        i = (t - 1) % self._BLOCK
        if i == 0:
            # a new array each time, so an oracle a caller kept still reads its own b_t
            self._shifts = _uniform(self._rng.random((self._BLOCK, 1)),
                                    -self.amplitude, self.amplitude)
        return affine_round(self._slope, 0.0, self._row, self._shifts[i])


class RandomQuadratic(_Scenario):
    """Seeded quadratic costs with random affine constraints.

    f_t(x) = ||x - u_t||^2 / 2 with u_t uniform in the scaled cube;
    g_t(x) = A_t x - b_t with row norms capped at `matrix_scale` and
    b_t >= 0, so the origin is feasible in every round and the per-round
    feasible-set intersection is never empty.
    """

    kind = "random_quadratic"
    one_dimensional = False
    defaults = {"center_scale": 0.8, "matrix_scale": 1.0, "offset_scale": 0.5}

    def _setup(self):
        self.center_scale = self.params["center_scale"]
        self.matrix_scale = self.params["matrix_scale"]
        self.offset_scale = self.params["offset_scale"]
        for name in ("center_scale", "offset_scale"):
            if getattr(self, name) < 0.0:
                raise ConfigurationError(f"random_quadratic {name} must be nonnegative")
        if not self.matrix_scale > 0.0:
            raise ConfigurationError("random_quadratic matrix_scale must be positive")
        n = self.dimension
        self.domain = Box(-np.ones(n), np.ones(n))
        D = self.domain.norm_bound
        lf = D + self.center_scale * math.sqrt(n)
        G = math.sqrt(self.n_constraints) * (self.matrix_scale * D + self.offset_scale)
        # the dual step size divides by sqrt(4 G^2 + ...), and a cost is at most L_f^2 / 2
        if not math.isfinite(4.0 * G * G):
            raise ConfigurationError(
                "random_quadratic matrix_scale and offset_scale are too large: "
                f"the constraint bound G = {G:.3g} overflows 4 G^2")
        if not math.isfinite(0.5 * lf * lf):
            raise ConfigurationError(
                "random_quadratic center_scale is too large: the cost bound overflows")
        self.bounds = ProblemBounds(
            L_f=lf,
            L_g=self.matrix_scale,
            G=G,
            D=D,
            E_m=2.0 * lf,
            # Jacobian mismatch is measured in the matrix norm, which for d
            # stacked rows of norm <= matrix_scale can reach sqrt(d) times it
            Delta_m=2.0 * math.sqrt(self.n_constraints) * self.matrix_scale,
        )
        self._rng = np.random.default_rng(self.seed)
        self._width = n + self.n_constraints * n + self.n_constraints  # doubles per round
        self._rows = self._block_rows(self._width)

    def _refill(self) -> None:
        """Draw the next `_rows` rounds with one generator call, bit-equal to
        three `uniform` calls per round.

        A row holds one round's doubles in the order those calls take them
        (u, then A row by row, then b).  The arrays are new each time, so
        an oracle a caller kept still reads its own round.
        """
        n, d, k = self.dimension, self.n_constraints, self._rows
        r = self._rng.random((k, self._width))
        self._u = _uniform(r[:, :n], -self.center_scale, self.center_scale)
        A = _uniform(r[:, n:n + d * n], -1.0, 1.0).reshape(k, d, n)
        norms = np.linalg.norm(A, axis=2, keepdims=True)
        self._A = A * (self.matrix_scale / np.maximum(norms, 1.0))
        self._neg_b = -_uniform(r[:, n + d * n:], 0.0, self.offset_scale)

    def round(self, t: int) -> RoundOracle:
        self._advance(t)
        i = (t - 1) % self._rows
        if i == 0:
            self._refill()
        return RoundOracle._drawn((self._A[i], self._neg_b[i]), (1.0, self._u[i], 0.0))


SCENARIO_KINDS = {
    "alternating_linear": AlternatingLinear,
    "stochastic_constraint": StochasticConstraint,
    "impossibility_adversary": ImpossibilityAdversary,
    "perturbed_linear": PerturbedLinear,
    "random_quadratic": RandomQuadratic,
}


def make_scenario(kind: str, horizon: int, dimension: int = 1, constraints: int = 1,
                  seed: int = 0, params: dict | None = None):
    if kind not in SCENARIO_KINDS:
        raise ConfigurationError(
            f"unknown scenario kind {kind!r}; expected one of {sorted(SCENARIO_KINDS)}")
    return SCENARIO_KINDS[kind](horizon, dimension, constraints, seed, params)
