import numpy as np
import pytest

from mqtransfer.search import bracket_max, bracket_root, grid_max


def test_bracket_max_quadratic():
    x, value = bracket_max(lambda x: -(x - 0.3) ** 2, 0.0, 1.0, 1e-10)
    assert abs(x[0] - 0.3) < 1e-10
    assert value[0] == -(x[0] - 0.3) ** 2


def test_bracket_max_keeps_bracket_ends():
    # a maximum at the end of the bracket is found, not only interior ones
    x, _ = bracket_max(lambda x: x, 2.0, 3.0, 1e-9)
    assert x[0] == 3.0


def test_grid_max_refines_the_best_grid_point():
    # cos(x) + cos(3 x) / 2 peaks at 0 on the grid's span; its best grid
    # point is -0.1, and only the two grid cells around it are searched
    f = lambda x: np.cos(x) + 0.5 * np.cos(3.0 * x)  # noqa: E731
    grid = np.arange(-1.0, 6.2, 0.3)
    x, value = grid_max(f, grid, 1e-10)
    i = int(np.argmax(f(grid)))
    ref_x, ref_value = bracket_max(f, grid[i - 1], grid[i + 1], 1e-10)
    assert (x, value) == (float(ref_x[0]), float(ref_value[0]))
    # f is flat to rounding within about sqrt(eps) of its peak
    assert abs(x) < 1e-7 and isinstance(x, float)
    # a best point at an end of the grid brackets only the cell inside
    x, _ = grid_max(lambda x: -x, grid, 1e-10)
    assert x == grid[0]


def test_bracket_root_step_indicator():
    lo, hi, found = bracket_root(lambda x: np.where(x < 0.37, -1.0, 1.0), 0.0, 1.0, 1e-12)
    assert found[0]
    assert lo[0] < 0.37 <= hi[0]
    assert hi[0] - lo[0] <= 1e-12


def test_bracket_root_returns_first_sign_change():
    # sin has roots at pi, 2 pi and 3 pi in [1, 10]
    lo, hi, found = bracket_root(np.sin, 1.0, 10.0, 1e-12)
    assert found[0]
    assert lo[0] <= np.pi <= hi[0] + 1e-15
    assert hi[0] - lo[0] <= 1e-12


def test_bracket_root_reports_lost_brackets():
    # NaN samples never form a sign change; brackets without one are flagged
    lo, hi, found = bracket_root(lambda x: np.where(x < 0.5, -1.0, np.nan), [0.0, 0.0], [1.0, 0.6],
                                 1e-9)
    assert not found.any()
    assert lo.tolist() == [0.0, 0.0] and hi.tolist() == [1.0, 0.6]


def test_many_brackets_equal_one_bracket_calls():
    # rows never mix, and each bracket stops once it is narrower than tol, so a
    # batch gives the single results exactly. The last bracket holds a maximum at
    # its end, where it shrinks to one cell per step and stops before the others
    def f(x):
        return np.sin(3.0 * x) + 0.1 * x

    lows = np.array([0.0, 0.7, 1.9, 2.6, 4.1, 0.3])
    highs = np.append(lows[:-1] + 0.8, 0.5)
    x, value = bracket_max(f, lows, highs, 1e-10)
    lo, hi, found = bracket_root(f, lows, highs, 1e-12)
    assert x[-1] == 0.5
    for i, (a, b) in enumerate(zip(lows, highs)):
        x1, value1 = bracket_max(f, a, b, 1e-10)
        assert (x[i], value[i]) == (x1[0], value1[0])
        lo1, hi1, found1 = bracket_root(f, a, b, 1e-12)
        assert (lo[i], hi[i], found[i]) == (lo1[0], hi1[0], found1[0])
    # against a dense scan of each bracket
    for i, (a, b) in enumerate(zip(lows, highs)):
        grid = np.linspace(a, b, 200001)
        assert value[i] >= f(grid).max() - 1e-12
        sign = np.nonzero(f(grid[:-1]) * f(grid[1:]) <= 0.0)[0]
        assert found[i] == bool(sign.size)
        if sign.size:
            assert lo[i] - 1e-12 <= grid[sign[0] + 1] and hi[i] + 1e-12 >= grid[sign[0]]


def test_tolerance_below_float_spacing_ends():
    # brackets stop shrinking at the float spacing; the step bound ends the loop
    x, _ = bracket_max(lambda x: -(x - 1e5 - 0.25) ** 2, 1e5, 1e5 + 1.0, 0.0)
    lo, hi, found = bracket_root(lambda x: x - 1e5 - 0.25, 1e5, 1e5 + 1.0, 0.0)
    assert abs(x[0] - 1e5 - 0.25) < 1e-10
    assert found[0] and lo[0] <= 1e5 + 0.25 <= hi[0]
