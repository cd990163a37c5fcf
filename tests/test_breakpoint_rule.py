"""The one-pass breakpoint rule of the n = 1 fixed point against the all-knots rule.

`learners._breakpoint_zero` walks the sorted knots only as far as the
first one where the derivative is >= 0.  `all_knots_breakpoint_zero`
below is the rule it replaced, kept verbatim as an oracle: it evaluates
the derivative at every knot, then picks the first that is >= 0, or the
last.  The property draws rows p = kappa f (kappa >= 0) from a pool of
signed zeros, subnormals, NaN and values that tie knots or put them on
lo or hi, from a fixed seed, and requires both rules to give the same
float, bit for bit, or to raise the same exception.
"""

import math
import random

import pytest

from lazyoco.learners import _breakpoint_zero


def all_knots_breakpoint_zero(S, center, linear, a_dual, rows, lo, hi):
    offset = linear - S * center

    def deriv(x: float) -> float:
        acc = 0.0
        for p, f, r in rows:
            if r + f * x > 0.0:
                acc += p * (r + f * x)
        return S * x + offset + a_dual * acc

    knots = sorted([lo, hi] + [-r / f for _, f, r in rows if f != 0.0 and lo < -r / f < hi])
    vals = [deriv(k) for k in knots]
    j = next((i for i, val in enumerate(vals) if val >= 0.0), len(knots) - 1)
    x = knots[j]
    if j > 0 and vals[j] > 0.0:
        # the derivative is affine between knots j-1 and j
        left = knots[j - 1]
        mid = 0.5 * (left + x)
        active = [(p, f, r) for p, f, r in rows if r + f * mid > 0.0]
        slope = S + a_dual * sum(p * f for p, f, _ in active)
        x = min(max(-(offset + a_dual * sum(p * r for p, _, r in active)) / slope, left), x)
    return x


TINY = 5e-324
# small integers and halves make tied knots and knots on the box's ends
POOL = (0.0, -0.0, TINY, -TINY, 2.2250738585072014e-308, -2.2250738585072014e-308, 0.5, -0.5,
        1.0, -1.0, 2.0, -2.0, 3.0, 1e300, -1e300, math.nan)
BOXES = ((-1.0, 1.0), (-0.0, 1.0), (-1.0, -0.0), (0.0, 0.0), (-2.0, 3.0), (-TINY, TINY),
         (0.5, 0.5))


def _value(rng):
    return rng.choice(POOL) if rng.random() < 0.7 else rng.uniform(-3.0, 3.0)


def _case(rng):
    lo, hi = rng.choice(BOXES)
    rows = []
    for _ in range(rng.randint(1, 4)):
        f = _value(rng)
        kappa = rng.choice((0.0, 0.5, 1.0, 1.0, 2.0, TINY, rng.uniform(0.0, 3.0)))
        rows.append((kappa * f, f, _value(rng)))
    S = rng.choice((0.0, 0.0, 1.0, 0.25, TINY, rng.uniform(0.0, 4.0)))
    a_dual = rng.choice((1.0, 0.3, TINY, 1e3, rng.uniform(0.0, 4.0)))
    return S, _value(rng), _value(rng), a_dual, tuple(rows), lo, hi


def _outcome(rule, case):
    try:
        x = rule(*case)
    except ArithmeticError as exc:
        return type(exc)
    return ("nan", math.copysign(1.0, x)) if math.isnan(x) else (x, math.copysign(1.0, x))


@pytest.mark.parametrize("seed", range(4))
def test_one_pass_rule_is_the_all_knots_rule(seed):
    """Value, sign and NaN-ness agree on every drawn case."""
    rng = random.Random(seed)
    for i in range(5000):
        case = _case(rng)
        assert _outcome(_breakpoint_zero, case) == _outcome(all_knots_breakpoint_zero, case), \
            (seed, i, case)
