import random

import pytest

import fusionexp.reductions
from fusionexp import (
    CountingOracle,
    GroupElement,
    IdentityBase,
    OracleInconsistent,
    ddh_from_dh,
    dh_from_dlog,
    dlog_bruteforce,
    fddh_from_fdh,
    fdh_from_fdlog,
    fdlog_bruteforce,
    fb_mul,
    fe,
    fe_add,
    fe_mul,
    fe_random,
    fusion_pow,
    g_pow,
    generator_element,
    identity,
    reduce_ddp_to_fddp,
    reduce_dhp_to_fdhp,
    reduce_dlp_to_fdlp,
    run_reduction_matrix,
    scalar_embed,
    unit_embed,
)


def test_dlp_via_tuple_oracle_worked_example(g23, f121):
    g = generator_element(g23)
    oracle = CountingOracle(fdlog_bruteforce)
    assert reduce_dlp_to_fdlp(GroupElement(g23, 13), g, f121, oracle) == 7
    assert oracle.calls == 1
    assert reduce_dlp_to_fdlp(identity(g23), g, f121, oracle) == 0
    assert reduce_dlp_to_fdlp(g, g, f121, oracle) == 1


def test_reductions_reject_identity_base_before_any_query(g23, f121):
    one, y = identity(g23), generator_element(g23)
    exact = fdlog_bruteforce
    calls = {
        reduce_dlp_to_fdlp: (y, one, f121, CountingOracle(exact)),
        reduce_dhp_to_fdhp: (y, y, one, f121, CountingOracle(fdh_from_fdlog(exact))),
        reduce_ddp_to_fddp: (y, y, y, one, f121,
                             CountingOracle(fddh_from_fdh(fdh_from_fdlog(exact)))),
    }
    for reduce, args in calls.items():
        with pytest.raises(IdentityBase):
            reduce(*args)
        assert args[-1].calls == 0, reduce.__name__


def test_dlp_reduction_rejects_inconsistent_oracle(g23, f121):
    g = generator_element(g23)

    def lying(inst):
        return fe(f121, [1, 2])

    with pytest.raises(OracleInconsistent):
        reduce_dlp_to_fdlp(GroupElement(g23, 13), g, f121, lying)


def test_dhp_via_tuple_oracle_worked_example(g23, f121):
    g = generator_element(g23)
    fdh = CountingOracle(fdh_from_fdlog(fdlog_bruteforce))
    y1, y2 = g_pow(g, 3), g_pow(g, 4)
    got = reduce_dhp_to_fdhp(y1, y2, g, f121, fdh)
    assert got == g_pow(g, 12)  # 2^(12 mod 11) = 2
    assert got.residue == 2
    assert fdh.calls == 1
    # x1 = 1 and x1 = 0 edge cases
    y = g_pow(g, 6)
    assert reduce_dhp_to_fdhp(g, y, g, f121, fdh) == y
    assert reduce_dhp_to_fdhp(identity(g23), y, g, f121, fdh) == identity(g23)


def test_dhp_reduction_rejects_inconsistent_oracle(g23, f121):
    g = generator_element(g23)

    def lying(y1, y2, base):
        return scalar_embed(g, fe(f121, [1, 1]))

    with pytest.raises(OracleInconsistent):
        reduce_dhp_to_fdhp(g, g, g, f121, lying)


def test_ddp_via_tuple_oracle_worked_examples(g23, f121):
    g = generator_element(g23)
    fddh = fddh_from_fdh(fdh_from_fdlog(fdlog_bruteforce))
    assert reduce_ddp_to_fddp(g_pow(g, 3), g_pow(g, 4), g_pow(g, 1), g, f121, fddh)
    assert reduce_ddp_to_fddp(g, g, g, g, f121, fddh)
    assert not reduce_ddp_to_fddp(g_pow(g, 2), g_pow(g, 3), g_pow(g, 5), g, f121, fddh)


def test_dh_adapter(g23):
    g = generator_element(g23)
    dlog = CountingOracle(dlog_bruteforce)
    dh = dh_from_dlog(dlog)
    rng = random.Random(1)
    for _ in range(50):
        x1, x2 = rng.randrange(11), rng.randrange(11)
        assert dh(g_pow(g, x1), g_pow(g, x2), g) == g_pow(g, x1 * x2)
    assert dlog.calls == 50


def test_ddh_adapter(g23):
    g = generator_element(g23)
    ddh = ddh_from_dh(dh_from_dlog(dlog_bruteforce))
    rng = random.Random(2)
    for _ in range(50):
        x1, x2 = rng.randrange(11), rng.randrange(11)
        good = g_pow(g, x1 * x2)
        assert ddh(g_pow(g, x1), g_pow(g, x2), good, g)
        bad = g_pow(g, (x1 * x2 + rng.randrange(1, 11)))
        assert not ddh(g_pow(g, x1), g_pow(g, x2), bad, g)


def test_fdh_adapter_reproduces_product_exponent(g23, f121):
    g = generator_element(g23)
    fdh = fdh_from_fdlog(fdlog_bruteforce)
    rng = random.Random(3)
    for _ in range(30):
        base = scalar_embed(g, fe_random(f121, rng, nonzero=True))
        x1, x2 = fe_random(f121, rng), fe_random(f121, rng)
        got = fdh(fusion_pow(base, x1), fusion_pow(base, x2), base)
        assert got == fusion_pow(base, fe_mul(x1, x2))


def test_fddh_adapter_detects_perturbation(g23, f121):
    g = generator_element(g23)
    fddh = fddh_from_fdh(fdh_from_fdlog(fdlog_bruteforce))
    base = unit_embed(g, f121)
    rng = random.Random(4)
    for _ in range(20):
        x1, x2 = fe_random(f121, rng), fe_random(f121, rng)
        y3 = fusion_pow(base, fe_mul(x1, x2))
        assert fddh(fusion_pow(base, x1), fusion_pow(base, x2), y3, base)
        tampered = fb_mul(y3, scalar_embed(g, fe_random(f121, rng, nonzero=True)))
        if tampered != y3:
            assert not fddh(fusion_pow(base, x1), fusion_pow(base, x2), tampered, base)


def test_adapter_chain_is_correct_decider(g23, f121):
    # fdlog -> fdh -> fddh composition decides tuple triples correctly
    g = generator_element(g23)
    fddh = fddh_from_fdh(fdh_from_fdlog(fdlog_bruteforce))
    rng = random.Random(5)
    base = unit_embed(g, f121)
    for _ in range(20):
        x1, x2 = fe_random(f121, rng), fe_random(f121, rng)
        x3_good = fe_mul(x1, x2)
        y1, y2 = fusion_pow(base, x1), fusion_pow(base, x2)
        assert fddh(y1, y2, fusion_pow(base, x3_good), base)
        x3_bad = fe_add(x3_good, fe_random(f121, rng, nonzero=True))
        assert not fddh(y1, y2, fusion_pow(base, x3_bad), base)


def test_counting_oracle_thread_safety():
    import threading

    oracle = CountingOracle(lambda v: v)

    def hammer():
        for _ in range(1000):
            oracle(0)

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert oracle.calls == 8000


def test_run_reduction_matrix_quick(g23, f121):
    report = run_reduction_matrix(g23, f121, trials=25, seed=12)
    assert set(report.arrows) == {
        "dlp_le_fdlp",
        "fdlp_le_dlp",
        "dhp_le_fdhp",
        "ddp_le_fddp",
        "dhp_le_dlp",
        "ddp_le_dhp",
        "fdhp_le_fdlp",
        "fddp_le_fdhp",
    }
    assert report.all_successful()
    for name, stats in report.arrows.items():
        assert stats.trials == 25
        expected_calls = 2 * f121.n if name == "fdlp_le_dlp" else 1
        assert stats.mean_oracle_calls == expected_calls


def test_run_reduction_matrix_zero_trials(g23, f121):
    # a report with no trial would read as a vacuous success
    for trials in (0, -5):
        with pytest.raises(ValueError, match="trials"):
            run_reduction_matrix(g23, f121, trials=trials, seed=1)


def test_run_reduction_matrix_calls_rebound_solvers(g23, f121, monkeypatch):
    # the exact oracles look the scan solvers up per call, so a solver
    # rebound in the module (a profiler span, a test double) sees every query
    seen = {"dlog_bruteforce": 0, "fdlog_bruteforce": 0}
    for name in seen:
        original = getattr(fusionexp.reductions, name)

        def spy(inst, name=name, original=original):
            seen[name] += 1
            return original(inst)

        monkeypatch.setattr(fusionexp.reductions, name, spy)
    arrows = run_reduction_matrix(g23, f121, trials=3, seed=2).arrows
    by_solver = {
        "dlog_bruteforce": ("fdlp_le_dlp", "dhp_le_dlp", "ddp_le_dhp"),
        "fdlog_bruteforce": ("dlp_le_fdlp", "dhp_le_fdhp", "ddp_le_fddp",
                             "fdhp_le_fdlp", "fddp_le_fdhp"),
    }
    assert seen == {
        solver: sum(arrows[a].oracle_calls for a in names)
        for solver, names in by_solver.items()
    }
    assert seen["dlog_bruteforce"] == 3 * (2 * f121.n + 2)


def test_run_reduction_matrix_deterministic(g23, f121):
    def counts(report):
        return {name: (s.trials, s.successes, s.oracle_calls) for name, s in report.arrows.items()}

    a = counts(run_reduction_matrix(g23, f121, trials=10, seed=3))
    b = counts(run_reduction_matrix(g23, f121, trials=10, seed=3))
    assert a == b
