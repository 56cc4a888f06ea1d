import math
import random

import pytest

from wplab.geometry import (
    _phi_grid_min,
    collar_halfwidth,
    neighbor_curve,
    phi,
    phi_min,
    regime_constants,
    sphere_h_upper,
)


def test_collar_halfwidth() -> None:
    fp = 2 * math.asinh(1.0)
    assert collar_halfwidth(fp) == pytest.approx(math.asinh(1.0), abs=1e-13)
    assert collar_halfwidth(2.0) == pytest.approx(math.asinh(1 / math.sinh(1.0)), rel=1e-12)
    assert collar_halfwidth(50.0) < 1e-10
    prev = collar_halfwidth(0.5)
    for l in (1.0, 2.0, 4.0, 8.0):
        cur = collar_halfwidth(l)
        assert cur < prev
        prev = cur
    with pytest.raises(ValueError):
        collar_halfwidth(0.0)


def test_neighbor_curve() -> None:
    length, offset, ok = neighbor_curve(3.0, 0.0)
    assert (length, offset, ok) == (3.0, 0.0, True)
    length, offset, ok = neighbor_curve(2.0, math.asinh(1.0))
    assert length == pytest.approx(2 * math.sqrt(2.0), rel=1e-12)
    assert offset == pytest.approx(2.0, rel=1e-12)
    _, _, inside = neighbor_curve(2.0, 10.0)
    assert not inside
    with pytest.raises(ValueError):
        neighbor_curve(2.0, -0.1)


def test_cosh_sinh_invariant_random() -> None:
    rng = random.Random(12)
    for _ in range(200):
        l = rng.uniform(0.05, 8.0)
        t = rng.uniform(0.0, 3.0)
        length, offset, _ = neighbor_curve(l, t)
        assert length ** 2 - offset ** 2 == pytest.approx(l * l, rel=1e-12)


def test_phi_and_phi_min() -> None:
    assert phi(0.7, 0.0) == pytest.approx(0.7)
    assert phi_min(1.0) == pytest.approx(1 / math.sqrt(2.0), rel=1e-14)
    hs = (0.05, 0.11, 0.5, 1.0, 2.0)
    grids = []
    for H in hs:
        grid = min(phi(H, 1e-4 * i) for i in range(0, 50001))
        assert abs(grid - phi_min(H)) < 1e-6
        assert phi(H, math.asinh(H)) == pytest.approx(phi_min(H), rel=1e-14)
        grids.append(grid)
    # the grid walk of the geometry-constants experiment, float for float
    assert [_phi_grid_min(H, 1e-4, 50001) for H in hs] == grids
    # dense-grid domination and the sign change of the slope at arcsinh(H)
    H = 0.8
    t_star = math.asinh(H)
    for i in range(0, 5000):
        t = 1e-3 * i
        assert phi(H, t) >= phi_min(H) - 1e-15
    assert phi(H, t_star - 0.05) > phi(H, t_star)
    assert phi(H, t_star + 0.05) > phi(H, t_star)


def _scan_min(H: float, step: float, count: int) -> float:
    return min(phi(H, i * step) for i in range(count))


def test_phi_grid_min_equals_scan_random() -> None:
    rng = random.Random(22)
    for _ in range(300):
        H = 10.0 ** rng.uniform(-6.0, 2.0)
        step = 10.0 ** rng.uniform(-5.0, 0.0)
        # past t of about 710 math.cosh overflows in the scan
        count = min(rng.randint(1, 4000), int(700 / step) + 1)
        assert _phi_grid_min(H, step, count) == _scan_min(H, step, count), (H, step, count)


@pytest.mark.parametrize(
    "H, step, count, at",
    [
        (0.5, 1e-3, 1, 0),  # one grid point
        (50.0, 1e-2, 100, 99),  # the grid ends before arcsinh(50): the last point
        (1e-3, 0.1, 40, 0),  # arcsinh(H) below half a step: the walk starts at 0
        (50.0, 1e-4, 50001, None),
    ],
)
def test_phi_grid_min_edge_cases(H: float, step: float, count: int, at: "int | None") -> None:
    grid_min = _phi_grid_min(H, step, count)
    assert grid_min == _scan_min(H, step, count)
    if at is not None:
        assert grid_min == phi(H, at * step)


@pytest.mark.parametrize(
    "H, step, count",
    [(0.0, 1e-3, 10), (-1.0, 1e-3, 10), (0.5, 0.0, 10), (0.5, -1e-3, 10), (0.5, 1e-3, 0)],
)
def test_phi_grid_min_rejects_bad_input(H: float, step: float, count: int) -> None:
    with pytest.raises(ValueError):
        _phi_grid_min(H, step, count)


def test_phi_grid_min_walks_few_points(monkeypatch: pytest.MonkeyPatch) -> None:
    calls = []
    cosh = math.cosh

    def counted(t: float) -> float:
        calls.append(t)
        return cosh(t)

    monkeypatch.setattr(math, "cosh", counted)
    for H in (0.05, 0.11, 0.5, 1.0, 2.0):
        _phi_grid_min(H, 1e-4, 50001)
    assert 0 < len(calls) < 100


def test_regime_constants() -> None:
    rc = regime_constants()
    assert rc.cheeger_regime == pytest.approx(0.110318, abs=1e-6)
    assert rc.spectral_gap == pytest.approx(
        0.25 * (math.log(2) / (math.log(2) + 2 * math.pi)) ** 2, rel=1e-12
    )
    assert rc.spectral_gap == pytest.approx(0.0024680, abs=1e-7)
    assert rc.poisson_regime == pytest.approx(
        math.log(2) / math.sqrt(4 * math.pi * (math.log(2) + math.pi)), rel=1e-12
    )
    assert rc.h_threshold_at_zero == pytest.approx(
        math.log(2) / (2 * math.pi + math.log(2)), rel=1e-12
    )
    assert len(rc.cheeger_regime_str.replace(".", "").lstrip("0")) >= 28
    assert float(rc.poisson_regime_str) == pytest.approx(rc.poisson_regime, rel=1e-12)


def test_sphere_h_upper() -> None:
    assert sphere_h_upper(4) == pytest.approx(30 * math.sqrt(4 * math.pi) / (2 * math.pi), rel=1e-12)
    assert sphere_h_upper(6) == pytest.approx(15 * math.sqrt(2 * math.pi) / math.pi, rel=1e-12)
    for n in (100, 200, 400, 1000):
        ratio = sphere_h_upper(4 * n) / sphere_h_upper(n)
        assert abs(ratio - 0.5) < 0.02
    with pytest.raises(ValueError):
        sphere_h_upper(3)

