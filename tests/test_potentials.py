"""Potential families: exact measures, certificates, conventions."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trotter_lab as tl
from trotter_lab import sup_search

# Exact survivor measures of the truncated fat-Cantor construction,
# cross-derived by independent rational interval merging.
CANTOR_MEASURE = {
    1: Fraction(3, 4),
    2: Fraction(11, 16),
    3: Fraction(21, 32),
    4: Fraction(165, 256),
    5: Fraction(327, 512),
    6: Fraction(2605, 4096),
}


def test_eval_examples():
    assert tl.Constant(1.0)(0.3) == 1.0
    assert tl.Linear()(0.25) == 0.25
    q1, _ = tl.build_cantor(1)
    assert q1(0.5) == 0.0  # removed interval is centered on 1/2


@pytest.mark.parametrize("bad", [-0.1, 1.5, float("nan")])
def test_domain_error(bad):
    with pytest.raises(ValueError):
        tl.Linear()(bad)


def test_roundoff_outside_the_domain_is_clipped(zoo):
    # within 1e-12 of [0, 1] an argument reads as the nearest endpoint;
    # further out it is an error
    for name, q in zoo:
        for f in (q, q.antiderivative):
            assert f(1.0 + 5e-13) == f(1.0), name
            assert f(-5e-13) == f(0.0), name
            assert np.array_equal(f(np.array([-5e-13, 0.5, 1.0 + 5e-13])),
                                  f(np.array([0.0, 0.5, 1.0]))), name
            for bad in (1.0 + 1e-11, -1e-11):
                with pytest.raises(ValueError, match="outside"):
                    f(bad)


@pytest.mark.parametrize("neighbour", [0.5, 1.5])
def test_nan_is_named_in_long_arrays(neighbour):
    # NaN is caught through min/max, before the range check
    x = np.linspace(0.0, 1.0, 100_001)
    x[50_000] = np.nan
    x[50_001] = neighbour
    for q in (tl.Linear(), tl.build_cantor(3)[0],
              tl.build_tent_train([1.0, 0.5])):
        with pytest.raises(ValueError, match="NaN"):
            q(x)
        with pytest.raises(ValueError, match="NaN"):
            q.antiderivative(x)


def test_scalar_vs_array_eval():
    q = tl.HolderWeierstrass(0.5, 4)
    ts = np.linspace(0.0, 1.0, 17)
    arr = q(ts)
    assert arr.shape == ts.shape
    assert isinstance(q(0.5), float)
    assert arr[8] == q(ts[8])


def test_piecewise_value_convention():
    q = tl.PiecewiseConstant([0.0, 0.5, 1.0], [1.0, 2.0])
    assert q(0.25) == 1.0
    assert q(0.5) == 2.0  # jumps take the right piece's value
    assert q(0.0) == 1.0
    assert q(1.0) == 2.0


def test_piecewise_validation():
    with pytest.raises(ValueError):
        tl.PiecewiseConstant([0.0, 0.5], [1.0, 2.0])  # length mismatch
    with pytest.raises(ValueError):
        tl.PiecewiseConstant([0.0, 0.6, 0.5, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        tl.PiecewiseConstant([0.1, 0.5, 1.0], [1.0, 2.0])  # must start at 0
    with pytest.raises(ValueError):
        tl.PiecewiseConstant([0.0, 0.5, 1.0], [1.0, -2.0])  # q >= 0
    for bad in (float("nan"), float("inf")):
        for vals in ([bad, 1.0], [1.0, bad]):
            with pytest.raises(ValueError, match=">= 0 and finite"):
                tl.PiecewiseConstant([0.0, 0.5, 1.0], vals)


@pytest.mark.parametrize("depth", sorted(CANTOR_MEASURE))
def test_cantor_measure_exact(depth):
    _, cons = tl.build_cantor(depth)
    assert isinstance(cons.complement_measure, Fraction)
    assert cons.complement_measure == CANTOR_MEASURE[depth]


@pytest.mark.parametrize("depth", range(1, 9))
def test_cantor_complement_at_least_half(depth):
    _, cons = tl.build_cantor(depth)
    assert cons.complement_measure >= Fraction(1, 2)


def test_cantor_level_measure_and_disjointness():
    from trotter_lab.potentials import _cantor_level_intervals
    for depth in range(1, 6):
        for n in range(1, depth + 1):
            level = list(_cantor_level_intervals(n, depth))
            assert sum(hi - lo for lo, hi in level) == (
                2 ** (2 * depth + 2) // 2 ** (n + 1))
            for (a1, b1), (a2, b2) in zip(level, level[1:]):
                assert b1 <= a2  # mutually disjoint within a level


def _fraction_cantor_merge(depth):
    """The construction on Fractions, interval by interval: the levels'
    open intervals, sorted and merged, and the measure that survives."""
    ivs = []
    for n in range(1, depth + 1):
        hw = Fraction(1, 2 ** (2 * n + 2))
        ivs.append((Fraction(0), hw))
        ivs += [(Fraction(k, 2 ** n) - hw, Fraction(k, 2 ** n) + hw)
                for k in range(1, 2 ** n)]
        ivs.append((1 - hw, Fraction(1)))
    merged = []
    for lo, hi in sorted(ivs):
        if merged and lo < merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    merged = tuple((lo, hi) for lo, hi in merged)
    return merged, 1 - sum((hi - lo for lo, hi in merged), Fraction(0))


@pytest.mark.parametrize("depth", range(1, 11))
def test_cantor_integer_merge_equals_the_fraction_merge(depth):
    # the construction merges integer numerators over 2^(2 depth + 2)
    merged, measure = _fraction_cantor_merge(depth)
    q, cons = tl.build_cantor(depth)
    assert cons.merged_open_set == merged
    assert all(type(x) is Fraction
               for iv in cons.merged_open_set for x in iv)
    assert cons.complement_measure == measure
    ends = sorted({x for iv in merged for x in iv} - {Fraction(0),
                                                      Fraction(1)})
    assert q.breakpoints == (Fraction(0), *ends, Fraction(1))


@pytest.mark.parametrize("depth", [1, 3, 6])
def test_cantor_one_constructor(depth):
    q, cons = tl.build_cantor(depth)
    spec = tl.from_spec({"kind": "cantor", "params": {"depth": depth}})
    assert type(spec) is type(q) is tl.CantorIndicator
    assert spec.breakpoints == q.breakpoints
    assert spec.values == q.values
    assert spec.construction == cons
    assert q.sup_norm == spec.sup_norm == 1.0
    assert set(vars(cons)) == {"depth", "merged_open_set",
                               "complement_measure"}


def test_cantor_depth_limits():
    with pytest.raises(ValueError):
        tl.CantorIndicator(0)
    with pytest.raises(tl.ResourceLimitError):
        tl.CantorIndicator(26)


def test_cantor_fine_grid_measure_cross_check():
    # Midpoint estimate on 2^20 cells; breakpoints are dyadic with
    # denominator <= 2^8, so every cell lies inside one piece.
    q, cons = tl.build_cantor(3)
    m = 1 << 20
    est = float(np.mean(q((np.arange(m) + 0.5) / m)))
    assert abs(est - float(cons.complement_measure)) < 1e-4


def test_cantor_indicator_values():
    q, cons = tl.build_cantor(1)
    assert q(0.0) == 0.0  # inside the half-interval hugging 0
    assert q(1.0) == 0.0
    assert q(0.25) == 1.0
    assert q.sup_norm == 1.0
    assert q.depth == 1
    # merged open set midpoints evaluate to 0, complement gaps to 1
    for lo, hi in cons.merged_open_set:
        assert q(float((lo + hi) / 2)) == 0.0


def test_cantor_sampling_property():
    # for (t, s) inside the proof corner box, all 2^m left-sample points
    # land in removed level-m intervals
    depth = 4
    q, _ = tl.build_cantor(depth)
    rng = np.random.default_rng(42)
    for m in range(1, depth + 1):
        eps = 1.0 / (3.0 * 2.0 ** (2 * m + 2))
        n = 2 ** m
        for _ in range(20):
            s = rng.uniform(1e-12, eps)
            t = rng.uniform(1.0 - eps, 1.0)
            xi = s + np.arange(n) * (t - s) / n
            assert np.all(q(xi) == 0.0)


def test_cantor_resource_error():
    with pytest.raises(tl.ResourceLimitError):
        tl.build_cantor(26)
    with pytest.raises(tl.ResourceLimitError):
        tl.from_spec({"kind": "cantor", "params": {"depth": 100}})
    with pytest.raises(ValueError):
        tl.build_cantor(0)


def test_weierstrass_range():
    grid = np.linspace(0.0, 1.0, 100_001)
    for beta in (0.3, 0.5, 0.9):
        q = tl.HolderWeierstrass(beta, 6)
        vals = q(grid)
        assert vals.min() >= 0.0
        assert vals.max() <= 1.0
    assert tl.HolderWeierstrass(0.5, 1)(0.0) == 1.0  # all cosines peak at 0


def test_weierstrass_holder_quotient():
    q = tl.HolderWeierstrass(0.5, 12)
    cert = q.holder_meta
    assert cert is not None and cert.beta == 0.5
    rng = np.random.default_rng(7)
    x = rng.uniform(0.0, 1.0, 10_000)
    y = rng.uniform(0.0, 1.0, 10_000)
    keep = x != y
    quot = np.abs(q(x[keep]) - q(y[keep])) / np.abs(x[keep] - y[keep]) ** 0.5
    assert quot.max() <= cert.constant * (1.0 + 1e-12)


@pytest.mark.parametrize("beta", [0.0, 1.0, 1.5, -0.2])
def test_weierstrass_beta_validation(beta):
    with pytest.raises(ValueError):
        tl.HolderWeierstrass(beta, 3)


def test_weierstrass_levels_validation():
    with pytest.raises(ValueError):
        tl.HolderWeierstrass(0.5, 0)
    # pi 2^1023 overflows to inf, which would make q NaN
    with pytest.raises(ValueError, match=r"levels must lie in \[1, 1022\]"):
        tl.HolderWeierstrass(0.5, 1023)
    assert np.isfinite(tl.HolderWeierstrass(0.5, 1022)(0.3))


def test_tent_geometry():
    q = tl.build_tent_train([1.0])
    assert q(0.0) == 0.0
    assert q(0.5) == 0.0
    assert q(1.0) == 0.0
    assert q(0.25) == 1.0
    # 1/2-periodic
    xs = np.linspace(0.0, 0.5, 101)
    assert np.allclose(q(xs), q(xs + 0.5), atol=1e-12)


def test_tent_level_area():
    # each level-m tent integrates to a_m/2 regardless of its period:
    # compare totals of trains truncated at consecutive levels
    amps = [1.0, 0.5, 2.0, 0.25, 0.125]
    totals = [0.0]
    for m in range(1, len(amps) + 1):
        totals.append(tl.build_tent_train(amps[:m]).antiderivative(1.0))
    for m, a in enumerate(amps, start=1):
        assert abs((totals[m] - totals[m - 1]) - a / 2.0) < 1e-12


def test_tent_empty_amplitudes():
    q = tl.build_tent_train([])
    assert isinstance(q, tl.Constant)
    assert q.sup_norm == 0.0
    assert q(0.3) == 0.0


def test_tent_validation():
    with pytest.raises(ValueError):
        tl.build_tent_train([1.0, -0.5])
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tent amplitudes must be > 0"):
            tl.build_tent_train([1.0, bad])


# Tent trains around the 16-level node table: levels above 16 are added per
# level on top of it.
TENT_LEVELS = (1, 6, 12, 16, 17, 20)
TENTS = {L: tl.build_tent_train([1.0 / j for j in range(1, L + 1)])
         for L in TENT_LEVELS}
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)


def tent_per_level(amps, t):
    """q(t) as one pass per level: the tent-train definition."""
    acc = np.zeros_like(t)
    for j, a in enumerate(amps, start=1):
        z = np.ldexp(t, j)
        u = z - np.floor(z)
        acc += a * (1.0 - np.abs(2.0 * u - 1.0))
    return acc


def tent_integral_per_level(amps, t):
    """Integral of q from 0 to t, one closed-form pass per level."""
    acc = np.zeros_like(t)
    for j, a in enumerate(amps, start=1):
        z = np.ldexp(t, j)
        k = np.floor(z)
        u = z - k
        tent_int = np.where(u <= 0.5, u * u, 2.0 * u - u * u - 0.5)
        acc += a * np.ldexp(0.5 * k + tent_int, -j)
    return acc


@PROPERTY
@given(x=st.floats(0.0, 1.0), level=st.sampled_from(TENT_LEVELS))
def test_tent_table_matches_per_level(x, level):
    q = TENTS[level]
    t = np.array([x])
    assert abs(q(x) - tent_per_level(q.amplitudes, t)[0]) <= 1e-13
    assert (abs(q.antiderivative(x) - tent_integral_per_level(q.amplitudes, t)[0])
            <= 1e-13)


@pytest.mark.parametrize("level", TENT_LEVELS)
def test_tent_table_bit_exact_at_nodes(level):
    q = TENTS[level]
    bits = min(level, 16) + 1
    nodes = np.ldexp(np.arange(2.0 ** bits + 1), -bits)
    assert nodes[0] == 0.0 and nodes[-1] == 1.0
    assert np.array_equal(q(nodes), tent_per_level(q.amplitudes, nodes))
    assert np.array_equal(q.antiderivative(nodes),
                          tent_integral_per_level(q.amplitudes, nodes))


@PROPERTY
@given(t=st.floats(0.0, 1.0), s=st.floats(0.0, 1.0),
       n=st.integers(1, 2048), level=st.sampled_from(TENT_LEVELS))
def test_tent_left_sums_match_brute_force(t, s, n, level):
    q = TENTS[level]
    xs = s + (t - s) * (np.arange(n) / n)
    want = tent_per_level(q.amplitudes, xs).sum() * (t - s) / n
    got = tl.left_darboux_sums(q, np.array([t]), np.array([s]), n)[0]
    assert abs(got - want) <= 1e-12


# Step potentials read their value from a table over the cells
# [c/2^16, (c+1)/2^16), comparing against the breakpoints only in the cells
# that a breakpoint splits; these are checked against a plain binary search.
CELL_BITS = 16
STEP_POTENTIALS = {
    "thirds": tl.PiecewiseConstant(
        [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)],
        [1.0, 0.0, 2.0]),
    "sevenths": tl.PiecewiseConstant([Fraction(k, 7) for k in range(8)],
                                     [0.5, 3.0, 0.0, 1.0, 2.5, 0.25, 4.0]),
    **{f"cantor{d}": tl.build_cantor(d)[0] for d in range(1, 13)},
    # more pieces than cells: nearly every cell is split, some twice
    "70000": tl.PiecewiseConstant([Fraction(k, 70_000) for k in range(70_001)],
                                  [float(k % 5) for k in range(70_000)]),
}


def step_oracle(q, x):
    """q(x) and its antiderivative via searchsorted over the breakpoints
    where the value jumps (equal neighbours merged)."""
    bp, vals = [q.breakpoints[0]], []
    for b, v in zip(q.breakpoints[1:], q.values):
        if vals and vals[-1] == v:
            bp[-1] = b
        else:
            vals.append(v)
            bp.append(b)
    bp, vals = np.array([float(b) for b in bp]), np.array(vals)
    cum = np.concatenate(([0.0], np.cumsum(vals * np.diff(bp))))
    idx = np.clip(np.searchsorted(bp, x, side="right") - 1, 0, len(vals) - 1)
    return vals[idx], cum[idx] + vals[idx] * (x - bp[idx])


def assert_step_matches_oracle(q, x):
    want_q, want_int = step_oracle(q, x)
    assert np.array_equal(q(x), want_q)
    assert np.array_equal(q.antiderivative(x), want_int)
    assert q(x[0]) == want_q[0]
    assert q.antiderivative(x[0]) == want_int[0]


def breakpoints_and_cell_edges(q):
    """Each breakpoint and one ulp either side, every cell edge and one ulp
    below it, 0 and 1."""
    bp = np.array([float(b) for b in q.breakpoints])
    edges = np.ldexp(np.arange(2.0 ** CELL_BITS + 1), -CELL_BITS)
    x = np.concatenate((bp, np.nextafter(bp, 0.0), np.nextafter(bp, 1.0),
                        edges, np.nextafter(edges, 0.0), [0.0, 1.0]))
    return x[(x >= 0.0) & (x <= 1.0)]


@PROPERTY
@given(xs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
       name=st.sampled_from(sorted(STEP_POTENTIALS)))
def test_step_table_matches_search(xs, name):
    assert_step_matches_oracle(STEP_POTENTIALS[name], np.array(xs))


@pytest.mark.parametrize("name", sorted(STEP_POTENTIALS))
def test_step_table_at_breakpoints_and_cell_edges(name):
    q = STEP_POTENTIALS[name]
    assert_step_matches_oracle(q, breakpoints_and_cell_edges(q))


# breakpoints on the 2^-20 grid, half of them inside cell 1000, so that
# some cells hold two or more; values repeat, so equal neighbours merge
GRID_BITS = 20
grid_point = st.one_of(st.integers(1, 2 ** GRID_BITS - 1),
                       st.integers(1000 * 16 + 1, 1000 * 16 + 15))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(nums=st.lists(grid_point, min_size=1, max_size=30, unique=True),
       values=st.lists(st.sampled_from([0.1, 0.25, 1.5, 2.75]),
                       min_size=31, max_size=31),
       xs=st.lists(st.floats(0.0, 1.0), max_size=20))
def test_random_steps_match_search(nums, values, xs):
    bps = [Fraction(0), *(Fraction(k, 2 ** GRID_BITS) for k in sorted(nums)),
           Fraction(1)]
    q = tl.PiecewiseConstant(bps, values[:len(bps) - 1])
    x = np.concatenate((breakpoints_and_cell_edges(q), xs))
    assert_step_matches_oracle(q, x)


def test_no_binary_search_after_construction(monkeypatch):
    # once built, a step potential reads its tables and compares in split
    # cells; np.searchsorted (its `_search_piece`) runs only at construction
    q = STEP_POTENTIALS["70000"]
    cantor = STEP_POTENTIALS["cantor10"]

    def no_search(*args, **kwargs):
        raise AssertionError("binary search after construction")

    monkeypatch.setattr(np, "searchsorted", no_search)
    monkeypatch.setattr(tl.PiecewiseConstant, "_search_piece", no_search)
    x = breakpoints_and_cell_edges(q)
    q(x)
    q.antiderivative(x)
    rng = np.random.default_rng(3)
    s = rng.uniform(0.0, 1.0, 50)
    t = rng.uniform(0.0, 1.0, 50)
    for steps in (q, cantor):
        for n in (1, 4, 64):
            tl.Potential.left_sums(steps, t, s, n)
        # at n = 4096 the piece count of cantor (K = 1320) and its lattice
        # count, and q's sampled kernel (K = 70000) and its fine grid
        tl.left_darboux_sums(steps, t, s, 4096)
        steps.lattice_sums(sup_search.coarse_lattice(
            steps, tl.SearchConfig(coarse_grid=8)), 4096)
        tl.left_darboux_sums(steps, t, s, 8)


def test_antiderivative_examples():
    assert tl.Constant(1.0).antiderivative(1.0) == 1.0
    assert tl.Linear().antiderivative(1.0) == 0.5
    q3, cons = tl.build_cantor(3)
    assert abs(q3.antiderivative(1.0) - float(cons.complement_measure)) < 1e-15
    assert cons.complement_measure == Fraction(21, 32)


def test_antiderivative_monotone():
    q = tl.build_tent_train([1.0 / j for j in range(1, 6)])
    ts = np.linspace(0.0, 1.0, 257)
    anti = q.antiderivative(ts)
    assert np.all(np.diff(anti) >= -1e-15)


@pytest.mark.parametrize("maker", [
    lambda: tl.Linear(),
    lambda: tl.Constant(2.0),
    lambda: tl.HolderWeierstrass(0.5, 8),
    lambda: tl.build_tent_train([1.0 / j for j in range(1, 6)]),
])
def test_antiderivative_finite_difference(maker):
    # central difference of the antiderivative reproduces q at continuity
    # points; keep sample points clear of the tent kink lattice k/64
    q = maker()
    rng = np.random.default_rng(11)
    ts = rng.uniform(0.01, 0.99, 64)
    ts = ts[np.abs(ts * 64 - np.round(ts * 64)) > 1e-3]
    h = 1e-8
    fd = (q.antiderivative(ts + h) - q.antiderivative(ts - h)) / (2 * h)
    assert np.max(np.abs(fd - q(ts))) < 1e-6


def test_from_spec_roundtrip(zoo):
    grid = np.linspace(0.0, 1.0, 101)
    for name, q in zoo:
        spec = {"kind": q.kind, "params": q.params()}
        q2 = tl.from_spec(spec)
        assert q2.kind == q.kind, name
        assert np.allclose(q2(grid), q(grid), atol=1e-15), name


def test_from_spec_unknown_kind():
    with pytest.raises(ValueError):
        tl.from_spec({"kind": "mystery", "params": {}})


# canonical kind and parameters for every name in the kind table
SPEC_ALIASES = {
    "constant": ("Constant", {"c": 2.0}),
    "linear": ("Linear", {"slope": 0.5, "intercept": 0.25}),
    "piecewiseconstant": ("PiecewiseConstant",
                          {"breakpoints": ["0", "1/3", "1"], "values": [1, 0]}),
    "piecewise": ("PiecewiseConstant",
                  {"breakpoints": ["0", "1/3", "1"], "values": [1, 0]}),
    "pw": ("PiecewiseConstant",
           {"breakpoints": ["0", "1/3", "1"], "values": [1, 0]}),
    "holderweierstrass": ("HolderWeierstrass", {"beta": 0.5, "levels": 6}),
    "weierstrass": ("HolderWeierstrass", {"beta": 0.5, "levels": 6}),
    "weier": ("HolderWeierstrass", {"beta": 0.5, "levels": 6}),
    "tenttrain": ("TentTrain", {"amplitudes": [1.0, 0.5]}),
    "tent": ("TentTrain", {"amplitudes": [1.0, 0.5]}),
    "cantorindicator": ("CantorIndicator", {"depth": 3}),
    "cantor": ("CantorIndicator", {"depth": 3}),
}


def test_spec_alias_table_is_covered():
    from trotter_lab.potentials import _SPEC_KINDS
    assert set(_SPEC_KINDS) == set(SPEC_ALIASES)


@pytest.mark.parametrize("alias", sorted(SPEC_ALIASES))
def test_spec_alias_matches_canonical_kind(alias):
    kind, params = SPEC_ALIASES[alias]
    q = tl.from_spec({"kind": alias, "params": params})
    canonical = tl.from_spec({"kind": kind, "params": params})
    assert q.kind == canonical.kind == kind
    assert q.describe() == canonical.describe()


@pytest.mark.parametrize("spec, named", [
    ({"kind": "weierstrass", "params": {"beta": 0.5}}, "'levels'"),
    ({"kind": "cantor"}, "'depth'"),
    ({"kind": "pw", "params": {"values": [1, 0]}}, "'breakpoints'"),
    ({"kind": "tent", "params": {"amplitudes": 5}}, "'amplitudes'"),
    ({"kind": "tent", "params": {"amplitudes": ["x"]}}, "'amplitudes'"),
    ({"kind": "pw", "params": {"breakpoints": ["0", "1/0", "1"],
                               "values": [1, 0]}}, "'breakpoints'"),
    ({"kind": "cantor", "params": {"depth": None}}, "'depth'"),
    ({"kind": "tent", "params": {"harmonic": -3}}, "'harmonic'"),
])
def test_from_spec_names_the_bad_parameter(spec, named):
    with pytest.raises(ValueError) as exc:
        tl.from_spec(spec)
    assert named in str(exc.value)
    assert repr(spec["kind"]) in str(exc.value)


@pytest.mark.parametrize("spec, message", [
    ({}, "needs a 'kind' key"),
    ({"params": {"c": 1.0}}, "needs a 'kind' key"),
    ("constant", "needs a 'kind' key"),
    ({"kind": "constant", "params": [["c", 1.0]]}, "'params' must be a mapping"),
    ({"kind": "linear", "params": "slope=1"}, "'params' must be a mapping"),
])
def test_from_spec_rejects_malformed_spec(spec, message):
    with pytest.raises(ValueError, match=message):
        tl.from_spec(spec)


def test_certificate_and_sup_norm_validation():
    for beta in (0.0, -0.5, 1.5, float("nan")):
        with pytest.raises(ValueError, match="exponent"):
            tl.HolderCertificate(beta, 1.0)
    with pytest.raises(ValueError, match="constant must be >= 0"):
        tl.HolderCertificate(0.5, -1e-9)
    with pytest.raises(ValueError, match="sup_norm must be >= 0"):
        tl.Potential(-1.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            tl.HolderCertificate(1.0, bad)
        with pytest.raises(ValueError, match="finite"):
            tl.Potential(bad)


@pytest.mark.parametrize("spec, named", [
    ({"kind": "constant", "params": {"C": 2.0}}, "'C'"),
    ({"kind": "linear", "params": {"slop": 2.0}}, "'slop'"),
    ({"kind": "tent", "params": {"amplitudes": [1.0], "harmonic": 3}},
     "'amplitudes'"),
    # past the Cantor size cap: the misspelt name is checked before a build
    ({"kind": "cantor", "params": {"depth": 100, "dpth": 1}}, "'dpth'"),
])
def test_from_spec_rejects_unread_parameter(spec, named):
    with pytest.raises(ValueError) as exc:
        tl.from_spec(spec)
    assert named in str(exc.value)
    assert repr(spec["kind"]) in str(exc.value)


@pytest.mark.parametrize("levels", [0, 1, 5])
def test_from_spec_tent_harmonic(levels):
    q = tl.from_spec({"kind": "tent", "params": {"harmonic": levels}})
    amplitudes = [1.0 / j for j in range(1, levels + 1)]
    assert q.describe() == tl.from_spec(
        {"kind": "tent", "params": {"amplitudes": amplitudes}}).describe()
    if not levels:
        assert q.describe() == "Constant(c=0.0)"


def test_nonnegative_and_sup_norm(zoo):
    rng = np.random.default_rng(3)
    ts = rng.uniform(0.0, 1.0, 100_000)
    for name, q in zoo:
        vals = q(ts)
        assert vals.min() >= 0.0, name
        assert vals.max() <= q.sup_norm + 1e-12, name


def test_holder_certificates(zoo):
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 1.0, 20_000)
    y = rng.uniform(0.0, 1.0, 20_000)
    for name, q in zoo:
        cert = q.holder_meta
        if cert is None:
            continue
        lhs = np.abs(q(x) - q(y))
        rhs = cert.constant * np.abs(x - y) ** cert.beta
        assert np.all(lhs <= rhs + 1e-12), name


# One member of every family, for the width-aware certified bound.
WIDTH_FAMILIES = {
    "constant": tl.Constant(1.5),
    "linear": tl.Linear(slope=-0.8, intercept=1.0),
    "steps": tl.PiecewiseConstant(
        [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)],
        [1.0, 0.0, 2.0]),
    "cantor": tl.build_cantor(3)[0],
    "weier": tl.HolderWeierstrass(0.5, 8),
    "tent": tl.build_tent_train([1.0 / j for j in range(1, 7)]),
}


def sampled_left_sum_error(q, t, s, n):
    """|int_s^t q - h sum_k q(s + k h)|, h = (t - s)/n, by plain sampling."""
    h = (t - s) / n
    xs = np.array([s + k * h for k in range(n)])
    return abs(q.antiderivative(t) - q.antiderivative(s) - h * q(xs).sum())


@PROPERTY
@given(name=st.sampled_from(sorted(WIDTH_FAMILIES)),
       width=st.floats(0.0, 1.0), n=st.integers(1, 64),
       start=st.floats(0.0, 1.0), share=st.floats(0.0, 1.0))
def test_width_bound_covers_sampled_error(name, width, n, start, share):
    q = WIDTH_FAMILIES[name]
    s = start * (1.0 - width)
    t = min(1.0, s + share * width)
    bound = q.certified_upper_bound(n, width)
    assert sampled_left_sum_error(q, t, s, n) <= bound + 1e-12
    assert q.certified_upper_bound(n, 1.0) == q.certified_upper_bound(n)


@PROPERTY
@given(name=st.sampled_from(sorted(WIDTH_FAMILIES)),
       n=st.integers(1, 4096), widths=st.lists(st.floats(0.0, 1.0),
                                               min_size=2, max_size=6))
def test_width_bound_is_non_decreasing_in_width(name, n, widths):
    q = WIDTH_FAMILIES[name]
    bounds = [q.certified_upper_bound(n, w) for w in sorted(widths)]
    assert bounds == sorted(bounds)
    assert bounds[-1] <= q.certified_upper_bound(n)


@pytest.mark.parametrize("name", sorted(WIDTH_FAMILIES))
def test_width_bound_rejects_bad_arguments(name):
    q = WIDTH_FAMILIES[name]
    for width in (-1e-9, 1.0 + 1e-9, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="width"):
            q.certified_upper_bound(4, width)
    with pytest.raises(ValueError, match="n must be"):
        q.certified_upper_bound(0)


def test_linear_validation():
    with pytest.raises(ValueError):
        tl.Linear(slope=-2.0, intercept=1.0)  # negative at t=1
    # the zero-slope Linear keeps its own message
    with pytest.raises(ValueError, match="constant potential must be >= 0"):
        tl.Constant(-1e-300)
    # min and max skip a NaN, so neither sign check alone catches one
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="constant potential must be >= 0"):
            tl.Constant(bad)
        for slope, intercept in ((bad, 1.0), (0.0, bad), (1.0, bad)):
            with pytest.raises(ValueError, match="finite"):
                tl.Linear(slope, intercept)
    q = tl.Linear(slope=-0.5, intercept=1.0)  # decreasing but nonnegative
    assert q(1.0) == 0.5
    assert q.holder_meta.constant == 0.5


def test_describe_is_printable(zoo):
    for _, q in zoo:
        text = q.describe()
        assert q.kind in text
