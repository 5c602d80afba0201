"""Linear time per layer, checked by exact work counts rather than by wall
time, which drifts by 30-50 % on a shared host.

The number of `sys.settrace` events (calls, lines, returns and exceptions of
Python frames) inside a call is exact for a given input. Quadrupling n at a
fixed clause ratio quadruples a linear layer's count and multiplies a
quadratic one's by about 16. C-level work, such as `sorted`, `str.join` and
set and dict operations, raises no events and is invisible to these counts.
"""

import sys

import pytest

from hypersat import (build_space, emit_dimacs, evaluate, export_dot, family_to_dot,
                      find_contradictions, generate_greedy, merge_active, parse_dimacs,
                      random_formula, reduce_to_2sat, solve_2sat, unsolved_curve, var_of)

SIZES = (250, 1000)
RATIO = 4.25
SEED = 1
# Over seeds 1-5 and 7 every layer grew 3.92-4.06x per 4x in n; only
# family_to_dot, whose per-graph sorts add a log factor, was above 4.03
# (4.04-4.06).
MAX_GROWTH = 4.2


def events(call, *args, **kwargs):
    """The number of trace events raised while `call` runs."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        count += 1
        return tracer

    sys.settrace(tracer)
    try:
        call(*args, **kwargs)
    finally:
        sys.settrace(None)
    return count


def layer_events(n):
    """Trace events per layer on one generated instance of n variables."""
    counts = {"random_formula": events(random_formula, n, RATIO, SEED)}
    f = random_formula(n, RATIO, SEED)
    counts["parse_dimacs"] = events(parse_dimacs, emit_dimacs(f))
    counts["build_space"] = events(build_space, f)
    space = build_space(f)
    counts["generate_greedy"] = events(generate_greedy, f, dynamic=True)
    a = generate_greedy(f, dynamic=True)
    counts["evaluate"] = events(evaluate, f, a)
    counts["solve_2sat"] = events(solve_2sat, reduce_to_2sat(space, f, a))
    counts["find_contradictions"] = events(find_contradictions, space, a)
    counts["export_dot"] = events(export_dot, merge_active(space, a))
    counts["unsolved_curve"] = events(unsolved_curve, space, sorted(a, key=var_of))
    counts["family_to_dot"] = events(family_to_dot, space)
    return counts


@pytest.mark.skipif(sys.gettrace() is not None, reason="a tracer (coverage, debugger) is set")
def test_every_layer_is_linear_in_trace_events():
    small, large = map(layer_events, SIZES)
    growth = {layer: large[layer] / small[layer] for layer in small}
    assert all(small.values())
    assert {layer: g for layer, g in growth.items() if g > MAX_GROWTH} == {}
