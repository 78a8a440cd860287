"""Acceptance gate: ten scripted checks, one pass/fail line each.

Every test prints exactly one line of the form

    CRITERION NN: PASS|FAIL -- <measured quantities and elapsed time>

before asserting, so a red run still reports every criterion's verdict.
Tolerances and instance sizes are pinned here, not configurable.
"""

import time

import numpy as np
import pytest

from pairlab.cli import (
    verify_prop4,
    verify_thm31,
    verify_thm42,
    verify_thm52,
    verify_thm54,
    verify_thm56,
    verify_thm58,
)
from pairlab.funclass import spec_for_graph
from pairlab.objective import TrainConfig, loss_gradient, population_loss
from pairlab.septest import (
    DEFAULT_LAMBDA_GRID,
    br_oracle_tabular,
    br_table,
    estimate_br,
)
from pairlab.synthdata import component_cluster_graph, random_graph

from conftest import br_bruteforce


def report(num: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"CRITERION {num:02d}: {verdict} -- {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def thm52_run():
    t0 = time.time()
    rows = verify_thm52(d=6, s=2, seed=0)
    return rows, time.time() - t0


def test_criterion_01_linear_upper_bound(thm52_run):
    rows, elapsed = thm52_run
    upper = [r for r in rows if "probe error <= 1e-6" in r["check"]]
    assert len(upper) == 2          # analytic construction and trained model
    ok = all(r["pass"] for r in upper) and elapsed < 30.0
    worst = max(r["measured"] for r in upper)
    report(1, ok, f"analytic+trained probe error <= 1e-6 "
                  f"(worst {worst:.2e}), {elapsed:.1f}s < 30s")


def test_criterion_02_universal_lower_bound(thm52_run):
    rows, elapsed = thm52_run
    loss_row = next(r for r in rows if "adversarial k=32: loss" in r["check"])
    err_row = next(r for r in rows if "best-head error >= 1" in r["check"])
    ok = loss_row["pass"] and err_row["pass"] and elapsed < 30.0
    report(2, ok, f"k=32 minimizer loss {loss_row['measured']:.2e} <= 1e-10, "
                  f"best-head error {err_row['measured']:.10f} >= 1-1e-8, "
                  f"{elapsed:.1f}s < 30s")


def test_criterion_03_zero_eigenfunction_property():
    t0 = time.time()
    rows = verify_prop4(n_graphs=200, seed=0)
    elapsed = time.time() - t0
    failures = rows[0]["measured"]
    ok = rows[0]["pass"] and failures == 0 and elapsed < 60.0
    report(3, ok, f"200 random disconnected graphs, {int(failures)} "
                  f"eigenfunction failures at tol 1e-10, {elapsed:.1f}s < 60s")


def test_criterion_04_cluster_recovery_bound():
    t0 = time.time()
    rows = verify_thm31(n_graphs=20, seed=0)
    elapsed = time.time() - t0
    violations = sum(not r["pass"] for r in rows)
    ok = len(rows) >= 20 and violations == 0 and elapsed < 300.0
    report(4, ok, f"{len(rows)} two-level graphs, {violations} violations of "
                  f"(alpha/beta)*(P_max/(P_min-alpha)), {elapsed:.1f}s < 5min")


def test_criterion_05_eigenspace_error_bound():
    t0 = time.time()
    rows = verify_thm42(d=4, s_values=(1, 2, 3), lam=10.0, seed=0)
    elapsed = time.time() - t0
    violations = sum(not r["pass"] for r in rows)
    exact_rows = [r for r in rows if "near-exact" in r["check"]]
    ok = (violations == 0 and len(exact_rows) == 3 and elapsed < 120.0)
    report(5, ok, f"s in (1,2,3), both routes, {violations} bound violations; "
                  f"{len(exact_rows)} exact-zero branches at error <= 1e-8, "
                  f"{elapsed:.1f}s < 2min")


def test_criterion_06_parity_class_gap():
    t0 = time.time()
    rows = verify_thm54(d=5, s=2, seed=0)
    elapsed = time.time() - t0
    violations = sum(not r["pass"] for r in rows)
    err_row = next(r for r in rows if "best-head error" in r["check"])
    ok = violations == 0 and elapsed < 60.0
    report(6, ok, f"one-hot network k=4 exact, adversarial k=8 best-head "
                  f"error {err_row['measured']:.6f} >= 1/2-1e-6, "
                  f"{elapsed:.1f}s < 1min")


def test_criterion_07_lipschitz_and_patch_instances():
    t0 = time.time()
    rows56 = verify_thm56(r=3, m=2, gamma=2.0, rho=0.1)
    rows58 = verify_thm58(d=4, s=1, gamma=2.0)
    elapsed = time.time() - t0
    violations = sum(not r["pass"] for r in rows56 + rows58)
    lip_row = next(r for r in rows56 if "Lipschitz" in r["check"])
    adv_row = next(r for r in rows58 if "best-head error" in r["check"])
    ok = violations == 0 and elapsed < 120.0
    report(7, ok, f"Lipschitz {lip_row['measured']:.4f} <= sqrt(2r)/gamma="
                  f"{lip_row['bound']:.4f}, patch-class probe exact, "
                  f"derived adversary error {adv_row['measured']:.6f} "
                  f">= 1/2-1e-6, {elapsed:.1f}s < 2min")


# fixed pre-validation set for the closed-form b_r formula: (n, comps, seed)
SMALL_SET = [(2, 1, 11), (3, 1, 12), (4, 2, 13), (5, 1, 14),
             (6, 2, 15), (6, 1, 16)]


def test_criterion_08_br_oracle_equivalence():
    t0 = time.time()
    # independent route first: brute-force constrained minimization on a
    # fixed set of tiny graphs validates the closed-form values
    worst_small = 0.0
    for n, comps, seed in SMALL_SET:
        g = random_graph(n, n_components=comps, seed=seed)
        for r in (1, 2, 3):
            if r > n:
                continue
            brute = br_bruteforce(g, r, n_starts=6, seed=0)
            worst_small = max(worst_small,
                              abs(brute - br_oracle_tabular(g, r)))
    small_ok = worst_small <= 1e-6

    # then: trained tabular b_r against the validated formula at scale
    rng = np.random.default_rng(0)
    worst = 0.0
    count = 0
    for i in range(10):
        n = int(rng.integers(40, 201))
        comps = int(rng.integers(1, 5))
        g = random_graph(n, n_components=comps, seed=100 + i)
        for r in (2, 5, 10):
            b, row = estimate_br(g, spec_for_graph("tabular", 2, g), r,
                                 lambda_grid=(3.0, 30.0),
                                 train_config=TrainConfig(n_starts=1))
            worst = max(worst, abs(b - row.oracle))
            count += 1
    elapsed = time.time() - t0
    ok = small_ok and worst <= 1e-3 and count == 30 and elapsed < 600.0
    report(8, ok, f"brute-force agreement {worst_small:.2e} <= 1e-6 on "
                  f"{len(SMALL_SET)} fixed n<=6 graphs; trained-vs-formula "
                  f"gap {worst:.2e} <= 1e-3 over 10 graphs x r in (2,5,10), "
                  f"{elapsed:.1f}s < 10min")


def test_criterion_09_cluster_count_gap():
    t0 = time.time()
    g = component_cluster_graph(10)
    rep = br_table(
        g,
        [spec_for_graph("tabular", 2, g), spec_for_graph("linear", 2, g)],
        r_list=[10, 20],
        lambda_grid=DEFAULT_LAMBDA_GRID,
        train_config=TrainConfig(n_starts=2),
    )
    rows = {(r.class_tag, r.r): r for r in rep.rows}
    b10 = rows[("tabular", 10)].b_r
    b20 = rows[("tabular", 20)].b_r

    mono_ok = True
    for r in (10, 20):
        tab_row, lin_row = rows[("tabular", r)], rows[("linear", r)]
        if tab_row.b_r > lin_row.b_r + 1e-6:
            mono_ok = False
        for tc, lc in zip(tab_row.cells, lin_row.cells):
            if tc.whiten_ok and lc.whiten_ok and \
                    tc.b_value > lc.b_value + 1e-6:
                mono_ok = False
    elapsed = time.time() - t0
    ok = (b10 <= 0.01 and b20 >= 10.0 * b10 + 0.01 and mono_ok
          and elapsed < 600.0)
    report(9, ok, f"10-component graph: b_10={b10:.2e} <= 0.01, "
                  f"b_20={b20:.4f} >= 10*b_10+0.01; tabular <= linear+1e-6 "
                  f"on every shared cell of the 9-point grid, "
                  f"{elapsed:.1f}s < 10min")


def test_criterion_10_gradient_correctness():
    t0 = time.time()
    worst_by_class = {}
    for tag, tag_seed in (("linear", 101), ("relu", 202), ("conv", 303),
                          ("tabular", 404)):
        rng = np.random.default_rng(tag_seed)
        worst = 0.0
        checks = 0
        cfg_i = 0
        while checks < 100:
            n = int(rng.integers(6, 13))
            g = random_graph(n, n_components=int(rng.integers(1, 3)),
                             seed=1000 + cfg_i)
            k = int(rng.integers(1, 4))
            lam = float(rng.choice([0.5, 3.0]))
            spec = spec_for_graph(tag, k, g, s=2 if tag == "conv" else 0)
            params = rng.uniform(-1.2, 1.2, size=spec.param_count())
            _, grad = loss_gradient(g, spec.model(params), lam)
            for _ in range(5):
                i = int(rng.integers(params.size))
                h = 1e-6 * max(1.0, abs(params[i]))
                pp = params.copy()
                pp[i] += h
                pm = params.copy()
                pm[i] -= h
                fd = (population_loss(g, spec.model(pp), lam).total
                      - population_loss(g, spec.model(pm), lam).total) / (2 * h)
                rel = abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-8)
                worst = max(worst, rel)
                checks += 1
            cfg_i += 1
        worst_by_class[tag] = worst
    elapsed = time.time() - t0
    ok = all(w <= 1e-4 for w in worst_by_class.values()) and elapsed < 120.0
    detail = ", ".join(f"{tag} {w:.1e}" for tag, w in worst_by_class.items())
    report(10, ok, f"100 central-difference checks per class, worst relative "
                   f"error: {detail} (tol 1e-4), {elapsed:.1f}s < 2min")
