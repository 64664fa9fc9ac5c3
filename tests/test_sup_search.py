"""Worst-case search over the triangle: hints, refinement, certificates."""

import math
from functools import cache, partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trotter_lab as tl
from trotter_lab import semigroup, sup_search
from trotter_lab.quadrature import left_darboux_sums
from trotter_lab.sup_search import default_hints
from conftest import exact_lattice_sums

SMALL = tl.SearchConfig(coarse_grid=32, refine_levels=2)


def test_config_validation():
    with pytest.raises(ValueError):
        tl.SearchConfig(coarse_grid=1)
    with pytest.raises(ValueError, match="got -1"):
        tl.SearchConfig(refine_levels=-1)
    for budget in (0, -3):
        with pytest.raises(ValueError, match=f"got {budget}"):
            tl.SearchConfig(max_evals=budget)
    tl.SearchConfig(refine_levels=0, max_evals=1)


def test_invalid_n():
    with pytest.raises(ValueError):
        tl.sup_riemann_error(tl.Linear(), 0, SMALL)


def test_constant_is_exact():
    rep = tl.sup_riemann_error(tl.Constant(1.0), 6, SMALL)
    assert rep.value <= 1e-12
    assert tl.sup_symbol(tl.Constant(1.0), 6, SMALL).value <= 1e-12
    lo, up = tl.trotter_error_sandwich(tl.Constant(1.0), 6, SMALL)
    assert lo <= 1e-12 and up == 0.0


def test_linear_example():
    rep = tl.sup_riemann_error(tl.Linear(), 10, SMALL)
    assert abs(rep.value - 0.05) < 1e-6
    # maximizer sits at the long-window corner, up to refine-grid ulps
    assert rep.argmax.t >= 1.0 - 1e-12
    assert rep.argmax.s <= 2.0 * sup_search._S_MIN
    # the lower end is the symbol max, at least e^{-sup_norm} r_n
    lo, up = tl.trotter_error_sandwich(tl.Linear(), 10, SMALL)
    assert lo == tl.sup_symbol(tl.Linear(), 10, SMALL).value
    assert lo >= math.exp(-1.0) * 0.05
    assert up == 0.05  # exact closed-form certificate slope/(2n)


def test_cantor_hint_floor():
    q3, _ = tl.build_cantor(3)
    rep = tl.sup_riemann_error(q3, 4, SMALL)
    assert rep.value >= 21.0 / 32 - 2.0 / 384
    eps2 = 1.0 / 384
    assert rep.argmax.s <= eps2
    lo, _ = tl.trotter_error_sandwich(q3, 4, SMALL)
    assert lo >= math.exp(-1.0) * 0.65


def test_anytime_lower_bound(zoo):
    # the reported value is an exact pointwise evaluation at argmax
    for name, q in zoo:
        rep = tl.sup_riemann_error(q, 5, SMALL)
        again = tl.riemann_error(q, rep.argmax, 5)
        assert again == rep.value, name


class _RunningMax:
    """Running max, ties to the smallest s, then the largest t."""

    def __init__(self):
        self.value, self.t, self.s = -1.0, 1.0, 1.0

    def offer(self, vals, ts, ss):
        vmax = float(vals.max())
        if vmax < self.value:
            return
        cand = np.flatnonzero(vals == vmax)
        i = cand[np.lexsort((-ts[cand], ss[cand]))[0]]
        t, s = float(ts[i]), float(ss[i])
        if vmax > self.value or s < self.s or (s == self.s and t > self.t):
            self.value, self.t, self.s = vmax, t, s


def _sup_search_per_seed(q, n, cfg):
    """The triangle search as a loop of hints, lattice and per-seed grids:
    (value, argmax, level_best, evals), evals counting the distinct points of
    each probe."""
    tracker = _RunningMax()
    level_best, evals = [], 0

    def probe(ts, ss):
        nonlocal evals
        ts, ss = np.asarray(ts, dtype=float), np.asarray(ss, dtype=float)
        vals = tl.riemann_errors(q, ts, ss, n)
        evals += len(set(zip(ts.tolist(), ss.tolist())))
        tracker.offer(vals, ts, ss)
        return vals, ts, ss

    s_min = sup_search._S_MIN
    hints = default_hints(q, n)
    probe([p.t for p in hints], [p.s for p in hints])
    axis = np.linspace(s_min, 1.0, cfg.coarse_grid)
    tg, sg = np.meshgrid(axis, axis, indexing="ij")
    keep = sg <= tg
    vals, ts, ss = probe(tg[keep], sg[keep])
    level_best.append(tracker.value)
    spacing = (1.0 - s_min) / (cfg.coarse_grid - 1)
    side = sup_search._REFINE_FACTOR + 1
    for _ in range(cfg.refine_levels):
        pts_t, pts_s = [], []
        for i in np.lexsort((-ts, ss, -vals))[:sup_search._TOP_CELLS]:
            tlin = np.clip(np.linspace(ts[i] - spacing, ts[i] + spacing, side),
                           s_min, 1.0)
            slin = np.clip(np.linspace(ss[i] - spacing, ss[i] + spacing, side),
                           s_min, 1.0)
            tt, sv = np.meshgrid(tlin, slin, indexing="ij")
            m = sv <= tt
            pts_t.append(tt[m])
            pts_s.append(sv[m])
        vals, ts, ss = probe(np.concatenate(pts_t), np.concatenate(pts_s))
        level_best.append(tracker.value)
        spacing = 2.0 * spacing / sup_search._REFINE_FACTOR
    return (max(tracker.value, 0.0), tl.DeltaPair(tracker.t, tracker.s),
            tuple(level_best), evals)


@pytest.mark.parametrize("grid, refine", [(16, 0), (32, 2), (64, 3)])
def test_search_bit_equal_to_per_seed_loop(zoo, grid, refine):
    cfg = tl.SearchConfig(coarse_grid=grid, refine_levels=refine)
    for name, q in zoo:
        for n in (1, 3, 8, 33, 256):
            rep = tl.sup_riemann_error(q, n, cfg)
            got = (rep.value, rep.argmax, rep.method.level_best,
                   rep.method.evals)
            assert got == _sup_search_per_seed(q, n, cfg), (name, n)


def test_refinement_monotone():
    q = tl.HolderWeierstrass(0.5, 6)
    rep = tl.sup_riemann_error(q, 37, tl.SearchConfig(coarse_grid=48, refine_levels=3))
    lv = rep.method.level_best
    assert len(lv) == 4  # coarse + 3 refinements
    assert all(b >= a for a, b in zip(lv, lv[1:]))


def test_certified_containment(zoo):
    for name, q in zoo:
        for n in (2, 9, 30):
            upper = q.certified_upper_bound(n)
            for search in (tl.sup_riemann_error, tl.sup_symbol):
                rep = search(q, n, SMALL)
                assert rep.value <= upper + 1e-15, (name, search, n)


def test_holder_ceiling():
    q = tl.HolderWeierstrass(0.5, 10)
    L = q.holder_meta.constant
    for n in (4, 16, 64, 256):
        rep = tl.sup_riemann_error(q, n, SMALL)
        assert rep.value <= L / math.sqrt(n)


def test_certified_upper_bound_values():
    assert tl.Linear().certified_upper_bound(10) == 0.05
    steps = tl.PiecewiseConstant([0.0, 0.25, 0.5, 1.0], [1.0, 0.0, 2.0])
    assert steps.certified_upper_bound(8) == 2.0 * min(1.0, 2.0 / 8)
    assert steps.certified_upper_bound(1) == 2.0
    q3, _ = tl.build_cantor(3)
    k = q3.internal_breakpoint_count
    assert q3.certified_upper_bound(100) == min(1.0, k / 100)
    assert tl.Constant(2.0).certified_upper_bound(5) == 0.0


def test_every_family_is_certified(zoo):
    for name, q in zoo:
        assert isinstance(q.certified_upper_bound(9), float), name
        assert tl.trotter_error_sandwich(q, 9, SMALL) == (
            tl.sup_symbol(q, 9, SMALL).value,
            q.certified_upper_bound(9)), name


def test_holder_certificate_bound_is_shared():
    q = tl.HolderWeierstrass(0.5, 10)
    cert = q.holder_meta
    for n in (1, 4, 64):
        assert q.certified_upper_bound(n) == cert.constant / float(n) ** 0.5
        assert cert.error_bound(n) == q.certified_upper_bound(n)
    reps = [tl.sup_riemann_error(q, n, SMALL) for n in (4, 16)]
    margins = tl.holder_bound_check(q, reps).margins
    assert margins == tuple((r.n, cert.error_bound(r.n) - r.value) for r in reps)


def test_family_hints_and_step_breakpoints():
    q, _ = tl.build_cantor(3)
    eps = [1.0 / (3.0 * 2.0 ** (2 * m + 2)) for m in (1, 2, 3)]
    assert [q.corner_width(m) for m in (1, 2, 3)] == eps
    assert q.corner_hints() == [(1.0 - 0.5 * e, 0.5 * e) for e in eps]
    hints = default_hints(q, 8)
    assert [(p.t, p.s) for p in hints[-3:]] == q.corner_hints()
    assert np.array_equal(q.step_breakpoints,
                          [float(b) for b in q.breakpoints])
    for other in (tl.Linear(), tl.HolderWeierstrass(0.5, 4),
                  tl.build_tent_train([1.0])):
        assert other.corner_hints() == []
        assert other.step_breakpoints is None
        assert len(default_hints(other, 8)) == len(hints) - 3


def test_cantor_hints_add_a_window_at_non_dyadic_n():
    q, _ = tl.build_cantor(8)
    # at n = 2^m the hints are the dyadic windows alone: no added probe
    for m in range(12):
        assert q.corner_hints(2 ** m) == q.corner_hints()
    for n in (3, 12, 96, 192, 255):
        m = (n - 1).bit_length()  # 2^(m-1) < n < 2^m
        half = 0.5 * q.corner_width(m)
        t, s = q.corner_hints(n)[-1]
        assert q.corner_hints(n)[:-1] == q.corner_hints()
        assert (t, s) == (half + n / 2.0 ** m, half)
        assert [(p.t, p.s) for p in default_hints(q, n)][-1] == (t, s)
        # every sample sits in a removed interval: the left sum is 0 and
        # the error is the whole integral over the window
        assert left_darboux_sums(q, np.array([t]), np.array([s]), n)[0] == 0.0
        assert q.antiderivative(t) - q.antiderivative(s) > 0.47
    # 2^9 > 2^depth: no window is claimed
    assert q.corner_hints(384) == q.corner_hints()


def test_budget_exceeded_before_any_probe():
    # the budget does not admit the 5 hints: nothing was probed, so there
    # is no partial report to make up
    cfg = tl.SearchConfig(coarse_grid=32, refine_levels=1, max_evals=3)
    for search in (tl.sup_riemann_error, tl.sup_symbol):
        with pytest.raises(tl.BudgetExceededError) as exc:
            search(tl.Linear(), 10, cfg)
        assert exc.value.partial is None


def test_budget_partial_keeps_hint_value():
    # budget admits the hints but not the coarse lattice
    cfg = tl.SearchConfig(coarse_grid=64, refine_levels=1, max_evals=10)
    with pytest.raises(tl.BudgetExceededError) as exc:
        tl.sup_riemann_error(tl.Linear(), 10, cfg)
    partial = exc.value.partial
    assert partial.method.budget_hit
    assert partial.value >= 0.0499
    assert partial.argmax.t == 1.0


def test_refinement_rounds_probe_each_point_once(zoo, monkeypatch):
    # neighbouring seed grids overlap and clipping folds edge grids onto
    # each other; both grid searches evaluate each distinct point once
    calls = []

    def recording(q, t, s, n):
        calls.append(set(zip(t.tolist(), s.tolist())))
        assert len(calls[-1]) == len(t)
        return left_darboux_sums(q, t, s, n)

    monkeypatch.setattr(sup_search, "left_darboux_sums", recording)
    monkeypatch.setattr(semigroup, "left_darboux_sums", recording)
    windows = SMALL.coarse_grid * (SMALL.coarse_grid + 1) // 2
    for name, q in zoo:
        for n in (3, 64):
            calls.clear()
            rep = tl.sup_riemann_error(q, n, SMALL)
            # hints, then one call per refinement round; lattice sums with
            # a slop (Weierstrass, tents) add the recompute of the windows
            # near the top cells, which the lattice's charge covers
            _, slop = q.lattice_sums(
                sup_search.coarse_lattice(q, [n], SMALL), n)
            probes = [calls[0], *calls[1 + (slop > 0):]]
            assert len(probes) == 1 + SMALL.refine_levels, (name, n)
            assert rep.method.evals == windows + sum(map(len, probes)), (
                name, n)
            for tau in (0.3, 0.9):
                calls.clear()
                semigroup._per_tau_grid(q, tau, n)
                assert len(calls) == 1 + semigroup._T_REFINE_LEVELS, (name, n)


def test_budget_counts_distinct_points():
    q = tl.HolderWeierstrass(0.5, 8)
    spent = tl.sup_riemann_error(q, 16, SMALL)
    # fewer than the 5 hints, 528 lattice points and 2 x 16 seed grids of
    # 81 points that the search places
    assert spent.method.evals < 5 + 32 * 33 // 2 + 2 * 16 * 81
    cfg = tl.SearchConfig(coarse_grid=32, refine_levels=2,
                          max_evals=spent.method.evals)
    assert tl.sup_riemann_error(q, 16, cfg) == spent
    with pytest.raises(tl.BudgetExceededError) as exc:
        tl.sup_riemann_error(q, 16, tl.SearchConfig(
            coarse_grid=32, refine_levels=2,
            max_evals=spent.method.evals - 1))
    # the last round does not fit: the partial report holds the rounds before
    partial = exc.value.partial
    assert partial.method.level_best == spent.method.level_best[:-1]


def test_determinism():
    q = tl.HolderWeierstrass(0.5, 8)
    a = tl.sup_riemann_error(q, 23, SMALL)
    b = tl.sup_riemann_error(q, 23, SMALL)
    assert a == b


def test_trace_renders():
    rep = tl.sup_riemann_error(tl.Linear(), 4, SMALL)
    lv = ">".join(f"{v:.6g}" for v in rep.method.level_best)
    assert str(rep.method) == f"evals={rep.method.evals};levels={lv}"
    hit = tl.SearchTrace((0.5, 0.25), 7, budget_hit=True)
    assert str(hit) == "evals=7;levels=0.5>0.25;budget_hit"


def test_trace_names_kernel():
    q3, _ = tl.build_cantor(3)   # 16 interior breakpoints
    cases = [(tl.Linear(), 4, "closed-form"),
             (tl.HolderWeierstrass(0.5, 6), 8, "closed-form"),
             (tl.build_tent_train([1.0, 0.5]), 8, "sampled"),
             (q3, 16, "sampled"), (q3, 17, "piece-count")]
    for q, n, name in cases:
        rep = tl.sup_riemann_error(q, n, SMALL)
        assert rep.method.kernel == name
        assert name not in str(rep.method)


def test_sweep_reports_equal_single_searches(zoo):
    # a sweep's searches share one lattice, and the oracle's two searches
    # share each n's sums: every report is the one that a search alone on
    # exactly summed windows gives
    ns = [1, 2, 3, 4, 6, 12, 16, 64]
    for name, q in zoo:
        lattice = cache(partial(sup_search.coarse_lattice, q, ns, SMALL))
        sweep = [tl.sup_riemann_error(q, n, SMALL, lattice=lattice)
                 for n in ns]
        sweep += [tl.sup_symbol(q, n, SMALL, lattice=lattice) for n in ns]
        with exact_lattice_sums():
            alone = [tl.sup_riemann_error(q, n, SMALL) for n in ns]
            alone += [tl.sup_symbol(q, n, SMALL) for n in ns]
        assert sweep == alone, name


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data(), grid=st.sampled_from([2, 3, 7, 24, 33]))
def test_tent_lattice_searches_equal_exact_ones(data, grid):
    # a tent train's lattice sums come off its fine grid, within their slop
    # of the sampled kernel's; the windows that could still reach the top
    # cells are summed again, so every report is byte for byte the one a
    # search on exactly summed windows gives.  Trains of up to 20 levels
    # pass the 16 tabulated ones; amplitudes span 2^-10 to 2^11
    amps = data.draw(st.lists(st.builds(math.ldexp, st.floats(1.0, 2.0),
                                        st.integers(-10, 10)),
                              min_size=1, max_size=20))
    ns = data.draw(st.lists(st.integers(1, 40), min_size=1, max_size=4,
                            unique=True))
    q = tl.TentTrain(amps)
    cfg = tl.SearchConfig(coarse_grid=grid, refine_levels=1)
    lattice = cache(partial(sup_search.coarse_lattice, q, ns, cfg))
    for n in ns:
        for search in (tl.sup_riemann_error, tl.sup_symbol):
            got = search(q, n, cfg, lattice=lattice)
            with exact_lattice_sums():
                want = search(q, n, cfg)
            assert repr(got) == repr(want), (search, n)
        assert q.lattice_sums(lattice(), n)[1] > 0  # the fine grid's slop


def test_weierstrass_lattice_kernel_keeps_every_report(monkeypatch):
    # a sweep reads Weierstrass lattice sums off its phase tables, within
    # their slop, and sums again the windows that could reach the top
    # cells: every report, partial ones of an exhausted budget too, is the
    # one that the closed form on every window gives
    q = tl.HolderWeierstrass(0.5, 10)
    ns = [1, 3, 5, 8, 64, 512]  # n = 5's best lattice sum is one ulp off
    cfg = tl.SearchConfig(refine_levels=2)
    spent = tl.sup_riemann_error(q, 8, cfg).method.evals
    calls = []
    hook = tl.HolderWeierstrass.lattice_sums

    def counted(self, lattice, n):
        calls.append(n)
        return hook(self, lattice, n)

    def reports(cfg):
        lattice = cache(partial(sup_search.coarse_lattice, q, ns, cfg))
        out = []
        for n in ns:
            for search in (tl.sup_riemann_error, tl.sup_symbol):
                try:
                    out.append(search(q, n, cfg, lattice=lattice))
                except tl.BudgetExceededError as exc:
                    out.append(exc.partial)
        return [repr(rep) for rep in out]

    budget = tl.SearchConfig(refine_levels=2, max_evals=spent - 100)
    monkeypatch.setattr(tl.HolderWeierstrass, "lattice_sums", counted)
    tables = reports(cfg) + reports(budget)
    assert calls == 2 * [n for n in ns for _ in range(2)]
    with exact_lattice_sums():
        assert tables == reports(cfg) + reports(budget)
    assert sum("budget_hit=True" in rep for rep in tables) >= len(ns)


@pytest.mark.parametrize("search", [tl.sup_riemann_error, tl.sup_symbol])
def test_recompute_keeps_an_exact_tie_in_order(search, monkeypatch):
    # a one-level tent has period 1/2, so on dyadic windows (t, s) and
    # (t + 1/2, s + 1/2) its 4-step left sums and integrals are equal, bit
    # for bit: each such tie goes to the smaller s.  Lattice sums off by
    # their slop the other way round rank every tie in reverse; the
    # recompute restores the values that the refinement ranks, and so the
    # order of its seeds
    q = tl.TentTrain([1.0])
    n, slop = 4, 1e-9
    t, s = np.meshgrid(np.arange(1, 17) / 32, np.arange(1, 17) / 32,
                       indexing="ij")
    t, s = t[s <= t], s[s <= t]
    ts, ss = np.concatenate((t, t + 0.5)), np.concatenate((s, s + 0.5))
    integ = q.antiderivative(ts) - q.antiderivative(ss)
    exact = left_darboux_sums(q, ts, ss, n)
    half = len(t)
    assert exact[:half].tobytes() == exact[half:].tobytes()
    assert integ[:half].tobytes() == integ[half:].tobytes()
    # both objectives grow with |S - I|: the second twin's sum moves by
    # slop / 2 away from the integral, the first one's towards it
    off = np.sign(exact - integ) * slop / 2
    off[:half] *= -1
    approx = exact + off
    ranked = []
    grid_refine = sup_search._grid_refine

    def recording(f, rows, vals, *args, **kwargs):
        ranked.append(sup_search._best_first(vals, ts, ss,
                                             sup_search._TOP_CELLS))
        ranked.append(vals[ranked[-1]])
        return grid_refine(f, rows, vals, *args, **kwargs)

    monkeypatch.setattr(sup_search, "_grid_refine", recording)
    cfg = tl.SearchConfig(coarse_grid=16, refine_levels=1)
    # these windows alone: the patched hook reads no axis
    lat = sup_search.Lattice(None, ts, ss, None, integ, [n])
    reports = []
    for sums, tol in ((approx, slop), (exact, 0.0)):
        def hook(lattice, m, sums=sums, tol=tol):
            return sums.copy(), tol
        monkeypatch.setattr(q, "lattice_sums", hook)
        reports.append(search(q, n, cfg, lattice=lambda: lat))
    assert repr(reports[0]) == repr(reports[1])
    (top, vals), want = ranked[:2], ranked[2:]
    assert top.tolist() == want[0].tolist()
    assert vals.tobytes() == want[1].tobytes()
    # the top cells hold ties, first twin first, which the slop reverses
    assert top[0] < half and vals[0] == vals[1] and top[1] == top[0] + half
    gap = np.abs(approx - integ)
    assert gap[top[1]] > gap[top[0]]
